(* Clocks, resource counters, seeds and order statistics shared by the
   workloads and [Bench]. Every window is timed on the monotonic clock;
   [Unix.gettimeofday] can step under NTP. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated so far, net of promotions (counted in both minor and
   major totals). [Gc.quick_stat] folds in the counters of domains that
   have already joined; [Gc.minor_words ()] sees only the calling domain,
   which would read the async runtime's allocation as zero. *)
let alloc_words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

(* User + system CPU of the whole process, every domain included. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Resident-set high-water mark, from /proc. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

(* Nearest rank, 1-based: rank(p) = ceil(p * len / 100). *)
let rank p len =
  max 1 (min len (int_of_float (Float.ceil (p *. float_of_int len /. 100.0))))

let percentile p xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(rank p (Array.length a) - 1)

let median xs = percentile 50.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Host speed. On a shared host the CPU a run gets drifts by tens of per
   cent over seconds, which swamps any change worth measuring. A fixed
   kernel of allocation and integer work, timed next to the operations,
   tracks that drift: on a shared 2-vCPU Xeon VM, operation time over
   kernel time held within 2% while raw times moved by half. Times are
   reported scaled by [reference_kernel_s / kernel time], that is in
   milliseconds of a host on which the kernel takes [reference_kernel_s].
   The kernel leaves no live data behind. *)
let reference_kernel_s = 0.0025

let kernel () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 0 to 49_999 do
    let l = List.init 8 (fun j -> (i lxor j) * 0x9E3779B1) in
    acc := List.fold_left (fun a x -> (a * 31) lxor (x lsr 7)) !acc l
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* The kernel's current time: the median of three runs, so one preempted
   run does not skew it. *)
let kernel_time () = median [ kernel (); kernel (); kernel () ]

let host_scale () = reference_kernel_s /. kernel_time ()

(* SplitMix64: operation [i] of a run draws its seed from the workload seed
   and [i] alone, so any operation can be replayed on its own. *)
let mix seed i =
  let open Int64 in
  let z = add seed (mul (of_int (i + 1)) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let below s bound = Int64.to_int (Int64.unsigned_rem s (Int64.of_int bound))

(* A fixed-width value: every input costs the same bytes whatever the seed,
   so word and byte counts repeat exactly across seeds. *)
let value s = Printf.sprintf "v%07d" (below s 10_000_000)
let bit s = Int64.logand s 1L = 1L
