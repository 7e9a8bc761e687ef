(* The repository benchmark.

     bench --workload NAME --seed N --seconds S --trace 0|1

   One closed-loop caller runs the workload's operations back to back for
   S seconds and checks every output outside its timed window. With
   --trace 0 the last stdout line carries the end-to-end metrics; with
   --trace 1 it carries the per-layer split, from operations run in
   untraced/traced pairs so the tracing overhead is measured too. Exits 1
   after printing if any output check failed, 2 on bad arguments. *)

let process_start = Probe.now ()

(* The tail percentile, and the cycles a run needs so that ten samples lie
   beyond it. At the run lengths this benchmark uses, p75 is the highest of
   p75/p90/p95/p99 that keeps ten samples beyond it on every workload. *)
let tail = 75.0
let min_cycles = 40

type sample = {
  scale : float;  (** host-speed scale of the sample's cycle ({!Probe.host_scale}) *)
  wall : float;
  cpu : float;
  alloc : float;
  minor : int;
  major : int;
  v : Workloads.verdict;
}

let failed_verdict = { Workloads.decisions = 0; requests = 0; words = 0; ok = false }

let complain w i e =
  Printf.eprintf "%s: operation %d failed: %s\n%!" w.Workloads.name i
    (Printexc.to_string e)

let run_op w ~tr ~scale i =
  let run = w.Workloads.prepare tr i in
  (* Each operation starts from a collected heap, so the previous one's
     garbage is not charged to it; its own collections still are. *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () and c0 = Probe.cpu_s () in
  let t0 = Probe.now () in
  let check = try Ok (run ()) with e -> Error e in
  let t1 = Probe.now () in
  let c1 = Probe.cpu_s () and g1 = Gc.quick_stat () in
  let v =
    match check with
    | Ok check -> (
      try
        let v = check () in
        if not v.Workloads.ok then
          Printf.eprintf "%s: operation %d: wrong output\n%!" w.name i;
        v
      with e ->
        complain w i e;
        failed_verdict)
    | Error e ->
      complain w i e;
      failed_verdict
  in
  {
    scale;
    wall = t1 -. t0;
    cpu = c1 -. c0;
    alloc = Probe.alloc_words g1 -. Probe.alloc_words g0;
    minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
    v;
  }

(* Input generation plus one untraced warm-up cycle, timed from [t0] and
   scaled by the host speed measured right after. *)
let setup w ~tr t0 =
  w.Workloads.setup tr;
  for i = 0 to w.cycle - 1 do
    let (_check : unit -> Workloads.verdict) = w.prepare None i () in
    ()
  done;
  let raw = Probe.now () -. t0 in
  raw *. Probe.host_scale ()

(* Operations until [seconds] have passed and the last cycle is complete;
   untraced runs also go on until the tail percentile has ten cycles
   beyond it. In trace mode each operation runs untraced and traced,
   alternating which goes first. *)
let measure w ~seconds ~tr =
  let plain = ref [] and traced = ref [] in
  let start = Probe.now () in
  let i = ref 0 in
  let cycle = w.Workloads.cycle in
  let min_ops = if Option.is_none tr then min_cycles * cycle else cycle in
  (* A cycle's scale comes from the median of the last five kernel times,
     which follows drift over seconds but not one unlucky measurement. *)
  let recent = ref [] and scale = ref 1.0 in
  while Probe.now () -. start < seconds || !i mod cycle <> 0 || !i < min_ops do
    if !i mod cycle = 0 then begin
      Gc.full_major ();
      recent := Probe.kernel_time () :: List.filteri (fun k _ -> k < 4) !recent;
      scale := Probe.reference_kernel_s /. Probe.median !recent
    end;
    let scale = !scale in
    (match tr with
    | None -> plain := run_op w ~tr:None ~scale !i :: !plain
    | Some _ ->
      let u () = plain := run_op w ~tr:None ~scale !i :: !plain in
      let t () = traced := run_op w ~tr ~scale !i :: !traced in
      if !i mod 2 = 0 then (u (); t ()) else (t (); u ()));
    incr i
  done;
  (List.rev !plain, List.rev !traced)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let decisions xs = sum (fun s -> float_of_int s.v.Workloads.decisions) xs
let per_decision f xs = Probe.ratio (sum f xs) (decisions xs)

(* Round-robin cycles whose operations all passed. Rates and times are
   medians over cycles: a cycle of unlike protocols is one sample inside
   one mode, where per-operation samples would put the median on the edge
   between two protocols, and a median shrugs off the bursts a shared host
   injects into a run. *)
let cycles ~cycle xs =
  let rec go acc = function
    | [] -> List.rev acc
    | xs ->
      let c = List.filteri (fun k _ -> k < cycle) xs in
      let rest = List.filteri (fun k _ -> k >= cycle) xs in
      let acc =
        if List.for_all (fun s -> s.v.Workloads.ok) c && decisions c > 0.0 then c :: acc
        else acc
      in
      go acc rest
  in
  go [] xs

let per_cycle f cs = List.map (fun c -> f c /. decisions c) cs
let wall c = sum (fun s -> s.scale *. s.wall) c
let decision_ms cs = per_cycle (fun c -> 1000.0 *. wall c) cs

let end_to_end w ~setups ~samples =
  let cs = cycles ~cycle:w.Workloads.cycle samples in
  let ms = decision_ms cs in
  let n = List.length ms in
  let beyond = n - Probe.rank tail n in
  Printf.printf
    "decision_ms.tail is p%g over %d samples of %d operation(s) (%d beyond it)\n" tail n
    w.cycle beyond;
  if beyond < 10 then
    Printf.eprintf "%s: fewer than ten samples beyond the tail\n%!" w.name;
  let scale = Probe.median (List.map (fun s -> s.scale) samples) in
  let ref_ms = 1000.0 *. Probe.reference_kernel_s in
  Printf.printf "host speed: kernel %.3f ms (reference %.3f ms), times scaled by %.4f\n"
    (ref_ms /. scale) ref_ms scale;
  Printf.printf "unscaled decision_ms.p50 %.3f\n"
    (Probe.median (per_cycle (fun c -> 1000.0 *. sum (fun s -> s.wall) c) cs));
  let fl = float_of_int in
  let rate f = Probe.median (List.map (fun c -> sum f c /. wall c) cs) in
  [
    ("setup_s", Probe.median setups, "s");
    ("decisions_per_s", rate (fun s -> fl s.v.Workloads.decisions), "1/s");
    ("decision_ms.p50", Probe.median ms, "ms");
    ("decision_ms.tail", Probe.percentile tail ms, "ms");
    ( "cpu_ms_per_decision",
      Probe.median (per_cycle (fun c -> 1000.0 *. sum (fun s -> s.scale *. s.cpu) c) cs),
      "ms" );
    ("alloc_words_per_decision", per_decision (fun s -> s.alloc) samples, "words");
    ("peak_rss_mb", Probe.peak_rss_mb (), "MB");
    ( "words_per_decision",
      per_decision (fun s -> fl s.v.Workloads.words) samples,
      "words" );
    ("requests_per_s", rate (fun s -> fl s.v.Workloads.requests), "1/s");
  ]

let per_layer (tr : Workloads.tracer) ~cycle ~plain ~traced =
  let d = decisions traced in
  let per x = Probe.ratio x d in
  (* Span and hook times are run totals, so they take the run's median
     host-speed scale. *)
  let scale = Probe.median (List.map (fun s -> s.scale) plain) in
  let ms seconds = 1000.0 *. scale *. seconds in
  let rows = Mewc_sim.Profile.rows tr.profile in
  let row_sum f names =
    List.fold_left
      (fun acc (r : Mewc_sim.Profile.row) ->
        if List.mem r.name names then acc +. f r else acc)
      0.0 rows
  in
  let self_ms names = per (ms (row_sum (fun r -> r.self_s) names)) in
  let alloc name = per (row_sum (fun r -> r.alloc_words) [ name ]) in
  let counters = (Mewc_obs.Metrics.snapshot tr.metrics).counter_values in
  let count name =
    per (float_of_int (Option.value ~default:0 (List.assoc_opt name counters)))
  in
  let rate hits misses = Probe.ratio (float_of_int hits) (float_of_int (hits + misses)) in
  let fl = float_of_int in
  let spans_s =
    List.fold_left (fun acc (r : Mewc_sim.Profile.row) -> acc +. r.self_s) 0.0 rows
  in
  let traced_wall = sum (fun s -> s.wall) traced in
  let us_per calls ns =
    Probe.ratio (ms (fl (Atomic.get ns) *. 1e-9) *. 1000.0) (fl (Atomic.get calls))
  in
  let attributed_s =
    1e-9
    *. fl (Atomic.get tr.encode_ns + Atomic.get tr.decode_ns + Atomic.get tr.sleep_ns)
  in
  let ops = fl (List.length traced) in
  [
    ("engine.post.self_ms", self_ms [ "engine.post" ], "ms/decision");
    ("engine.post.alloc_words", alloc "engine.post", "words/decision");
    ("engine.deliver.self_ms", self_ms [ "engine.deliver" ], "ms/decision");
    ("engine.deliver.alloc_words", alloc "engine.deliver", "words/decision");
    ("engine.slots", count "engine.slots", "count/decision");
    ("engine.messages", count "engine.messages", "count/decision");
    ("machine.step.self_ms", self_ms [ "machine.step" ], "ms/decision");
    ("machine.step.alloc_words", alloc "machine.step", "words/decision");
    ( "adversary.self_ms",
      self_ms [ "adversary.corrupt"; "adversary.byz_step" ],
      "ms/decision" );
    ("crypto.sign.self_ms", self_ms [ "crypto.sign" ], "ms/decision");
    ("crypto.share_tag.self_ms", self_ms [ "crypto.share_tag" ], "ms/decision");
    ("crypto.aggregate_tag.self_ms", self_ms [ "crypto.aggregate_tag" ], "ms/decision");
    ("pki.signs", count "pki.signs", "count/decision");
    ("pki.verifies", count "pki.verifies", "count/decision");
    ("pki.combines", count "pki.combines", "count/decision");
    ("pki.verify_hit_rate", rate tr.verify_hits tr.verify_misses, "ratio");
    ("pki.agg_hit_rate", rate tr.agg_hits tr.agg_misses, "ratio");
    ( "unattributed.share",
      (if rows = [] then 0.0 else 1.0 -. Probe.ratio spans_s traced_wall),
      "ratio" );
    ("gc.minor_collections", per_decision (fun s -> fl s.minor) plain, "count/decision");
    ("gc.major_collections", per_decision (fun s -> fl s.major) plain, "count/decision");
    ( "workload.generate_ms",
      Probe.ratio (ms tr.generate_s /. fl (max 1 tr.generated)) (d /. ops),
      "ms/decision" );
    ("service.submit_ms", per (ms tr.submit_s), "ms/decision");
    ("service.finalize_ms", per (ms tr.finalize_s), "ms/decision");
    ("service.batch_fill", Probe.median tr.batch_fill, "ratio");
    ("service.decisions_per_1k_slots", Probe.median tr.per_1k_slots, "count/kslot");
    ( "service.commit_latency_slots.p50",
      fl (Mewc_obs.Metrics.percentile_of_list 50.0 tr.latencies),
      "slots" );
    ( "service.commit_latency_slots.p99",
      fl (Mewc_obs.Metrics.percentile_of_list 99.0 tr.latencies),
      "slots" );
    ("codec.encode_us", us_per tr.encodes tr.encode_ns, "us/frame");
    ("codec.decode_us", us_per tr.decodes tr.decode_ns, "us/frame");
    ("runtime.frames", per (fl tr.frames), "count/decision");
    ("runtime.bytes_per_frame", Probe.ratio (fl tr.bytes) (fl tr.frames), "bytes/frame");
    ("runtime.wire_bytes_per_decision", per (fl tr.bytes), "bytes/decision");
    ("runtime.retries", per (fl tr.retries), "count/decision");
    ("runtime.send_timeouts", per (fl tr.send_timeouts), "count/decision");
    ("runtime.deadline_expiries", per (fl tr.deadline_expiries), "count/decision");
    ("runtime.late_frames", per (fl tr.late_frames), "count/decision");
    ("runtime.decode_rejects", per (fl tr.decode_rejects), "count/decision");
    ("clock.sleep_ms", per (ms (fl (Atomic.get tr.sleep_ns) *. 1e-9)), "ms/decision");
    ( "runtime.unattributed.share",
      (if tr.domain_s = 0.0 then 0.0 else 1.0 -. (attributed_s /. tr.domain_s)),
      "ratio" );
    ( "trace_overhead",
      Probe.ratio
        (Probe.median (decision_ms (cycles ~cycle traced)))
        (Probe.median (decision_ms (cycles ~cycle plain)))
      -. 1.0,
      "ratio" );
  ]

let json_number x =
  if Float.is_integer x then Printf.sprintf "%.0f" x else Printf.sprintf "%.17g" x

let print_result ~attempted ~failed metrics =
  List.iter
    (fun (name, value, unit) ->
      Printf.printf "%-34s %18s %s\n" name (json_number value) unit)
    metrics;
  let body =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " body)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0.0 and trace = ref (-1) in
  let usage = "bench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ( "--seed",
        (* Seeds past [Int64.max_int] wrap, as unsigned 64-bit values. *)
        Arg.String
          (fun s ->
            seed :=
              match Int64.of_string_opt s with
              | Some _ as n -> n
              | None -> Int64.of_string_opt ("0u" ^ s)),
        "N workload seed" );
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let bad msg =
    prerr_endline ("bench: " ^ msg ^ "\nusage: " ^ usage);
    exit 2
  in
  let seed = match !seed with Some s -> s | None -> bad "--seed must be an integer" in
  if !seconds <= 0.0 then bad "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  let w =
    match Workloads.find !workload ~seed with
    | Some w -> w
    | None -> bad (Printf.sprintf "unknown workload %S" !workload)
  in
  Printf.printf "workload %s, seed %Ld, %gs, trace %d\n%!" w.name seed !seconds !trace;
  let metrics, samples =
    if !trace = 0 then begin
      (* Set up five times and keep the median; the first is timed from
         process start. *)
      let setups =
        List.init 5 (fun k ->
            setup w ~tr:None (if k = 0 then process_start else Probe.now ()))
      in
      w.reference ();
      let plain, _ = measure w ~seconds:!seconds ~tr:None in
      (end_to_end w ~setups ~samples:plain, plain)
    end
    else begin
      let tr = Workloads.tracer () in
      ignore (setup w ~tr:(Some tr) (Probe.now ()));
      w.reference ();
      let plain, traced = measure w ~seconds:!seconds ~tr:(Some tr) in
      print_string (Mewc_sim.Profile.flame tr.profile);
      (per_layer tr ~cycle:w.cycle ~plain ~traced, plain @ traced)
    end
  in
  let attempted = List.length samples in
  let failed = List.length (List.filter (fun s -> not s.v.Workloads.ok) samples) in
  Printf.printf "attempted %d, failed %d, failure_rate %g\n"
    attempted failed (Probe.ratio (float_of_int failed) (float_of_int attempted));
  print_result ~attempted ~failed metrics;
  if failed > 0 then exit 1
