(* The differential gate: the async runtime must be observationally
   equal to the lock-step oracle — decision values, decided slots, and
   per-process word counts — for every sound protocol, across seeds and
   system sizes. Then chaos: with the byte-fault stage corrupting frames
   below the codec, runs may stall but must never disagree and never kill a
   process. Last, the runtime's own mechanics: it steps exactly the slots
   the engine steps anyone in, spawns no domain, counts every process's
   allocation, and runs its processes at once inside a pool task too. *)

open Mewc_sim
module Pool = Mewc_prelude.Pool
module Instances = Mewc_core.Instances
module Registry = Mewc_core.Registry
module Clock = Mewc_wire.Clock
module Runtime = Mewc_wire.Runtime
module Zoo = Mewc_wire.Zoo

let cfg n = Config.optimal ~n

(* Fault-free barriers complete without ever consulting the timer, so a
   generous δ costs nothing and absorbs scheduler hiccups on loaded CI
   machines; only a genuinely wedged barrier would pay it. *)
let delta = 2.0

let seeds = [ 1L; 7L; 20260807L ]
let sizes = [ 5; 9 ]

(* How many slots the lock-step engine steps anyone in: the oracle's honest
   event-driven run, with every machine's step noting its slot. *)
let engine_active_slots (Zoo.E { reg; _ }) ~cfg ~seed ~salt =
  let active = Hashtbl.create 64 in
  let module P = (val reg.Registry.protocol) in
  let module W = struct
    include P

    let machine ~cfg ~pki ~secret ~params ~pid =
      let m = P.machine ~cfg ~pki ~secret ~params ~pid in
      {
        m with
        Process.step =
          (fun ~slot ~inbox s ->
            Hashtbl.replace active slot ();
            m.Process.step ~slot ~inbox s);
      }
  end in
  ignore
    (Instances.run
       (module W)
       ~cfg
       ~options:{ Instances.default_options with seed }
       ~params:(P.mutate_params (P.default_params cfg) ~salt)
       ~adversary:(Adversary.const (Adversary.honest ~name:"honest"))
       ());
  Hashtbl.length active

let gate entry () =
  List.iter
    (fun n ->
      List.iteri
        (fun salt seed ->
          match
            Zoo.diff entry ~cfg:(cfg n) ~seed ~salt ~delta ()
          with
          | Ok r ->
            (match r.Zoo.verdict with
            | Monitor.Safe_live -> ()
            | Monitor.Safe_stalled v | Monitor.Unsafe v ->
              Alcotest.failf "n=%d seed=%Ld: fault-free async not live: %s" n
                seed v.Monitor.reason);
            if r.Zoo.failures <> [] then
              Alcotest.failf "n=%d seed=%Ld: domain failures" n seed;
            if r.Zoo.stats.Runtime.frame_faults <> 0 then
              Alcotest.failf "n=%d seed=%Ld: phantom frame faults" n seed;
            if r.Zoo.stats.Runtime.decode_rejects <> 0 then
              Alcotest.failf "n=%d seed=%Ld: phantom decode rejects" n seed;
            let active = engine_active_slots entry ~cfg:(cfg n) ~seed ~salt in
            if r.Zoo.stepped <> active then
              Alcotest.failf "n=%d seed=%Ld: async stepped %d slots, engine %d" n
                seed r.Zoo.stepped active
          | Error mismatches ->
            Alcotest.failf "n=%d seed=%Ld: async diverges from oracle:\n%s" n
              seed
              (String.concat "\n" mismatches))
        seeds)
    sizes

(* ---- chaos: byte faults below the codec --------------------------------- *)

let plans =
  [
    ("flip", { Faults.byte_none with Faults.byte_seed = 5L; flip = 0.08 });
    ("truncate", { Faults.byte_none with Faults.byte_seed = 6L; trunc = 0.08 });
    ("reorder", { Faults.byte_none with Faults.byte_seed = 7L; reorder = 0.15 });
    ( "kitchen sink",
      { Faults.byte_seed = 8L; flip = 0.05; trunc = 0.05; reorder = 0.1 } );
  ]

let chaos entry () =
  List.iter
    (fun (plan_name, plan) ->
      let r =
        Zoo.async entry ~cfg:(cfg 5) ~seed:11L ~salt:0 ~delta:0.2 ~deadman:30.0
          ~byte_faults:plan ()
      in
      (match r.Zoo.verdict with
      | Monitor.Unsafe v ->
        Alcotest.failf "%s: byte faults broke agreement: %s" plan_name
          v.Monitor.reason
      | Monitor.Safe_live | Monitor.Safe_stalled _ -> ());
      if r.Zoo.failures <> [] then
        Alcotest.failf "%s: byte faults killed a process: p%d (%s)" plan_name
          (fst (List.hd r.Zoo.failures))
          (snd (List.hd r.Zoo.failures)))
    plans

(* With aggressive corruption every frame category takes hits; the trace
   events and counters must reflect that the stage actually fired. *)
let chaos_observable () =
  let entry = Option.get (Zoo.find "fallback") in
  let plan = { Faults.byte_seed = 9L; flip = 0.3; trunc = 0.2; reorder = 0.1 } in
  let r =
    Zoo.async entry ~cfg:(cfg 5) ~seed:3L ~salt:0 ~delta:0.2 ~deadman:30.0
      ~byte_faults:plan ()
  in
  if r.Zoo.stats.Runtime.frame_faults = 0 then
    Alcotest.fail "corruption plan produced no frame faults";
  let has_fault_event =
    List.exists
      (function Trace.Frame_fault _ -> true | _ -> false)
      r.Zoo.wire_events
  in
  if not has_fault_event then Alcotest.fail "no Frame_fault event stamped";
  (* flips and truncations must surface as decode rejections, not forgeries *)
  if r.Zoo.stats.Runtime.decode_rejects = 0 then
    Alcotest.fail "corrupted frames were never rejected";
  match r.Zoo.verdict with
  | Monitor.Unsafe v -> Alcotest.failf "unsafe under chaos: %s" v.Monitor.reason
  | Monitor.Safe_live | Monitor.Safe_stalled _ -> ()

(* ---- process threads and skipped slots --------------------------------- *)

(* n = 5, seed 1: every process steps exactly the slots in which the
   engine steps anyone, a few of a horizon sized for the worst case. *)
let stepped_slots () =
  List.iter
    (fun (name, pinned) ->
      let e = Option.get (Zoo.find name) in
      let r = Zoo.async e ~cfg:(cfg 5) ~seed:1L ~salt:0 ~delta () in
      Alcotest.(check int) (name ^ " engine") pinned
        (engine_active_slots e ~cfg:(cfg 5) ~seed:1L ~salt:0);
      Alcotest.(check int) (name ^ " async") pinned r.Zoo.stepped)
    [ ("fallback", 9); ("weak-ba", 7); ("bb", 9); ("binary-bb", 7); ("strong-ba", 5) ]

(* Back-to-back runs spawn no domain: every process runs on a thread of
   the caller's domain, which is the only one that reads the clock. *)
let one_domain () =
  let n = 5 and runs = 50 in
  let lock = Mutex.create () and readers = Hashtbl.create 8 in
  let clock =
    {
      Clock.real with
      Clock.now =
        (fun () ->
          Mutex.protect lock (fun () ->
              Hashtbl.replace readers (Domain.self () :> int) ());
          Unix.gettimeofday ());
    }
  in
  let entries = Array.of_list Zoo.entries in
  for i = 0 to runs - 1 do
    let e = entries.(i mod Array.length entries) and seed = Int64.of_int (i + 1) in
    let r = Zoo.async e ~cfg:(cfg n) ~seed ~salt:0 ~delta ~clock () in
    match
      Zoo.fingerprint_diff
        ~oracle:(Zoo.oracle e ~cfg:(cfg n) ~seed ~salt:0)
        ~async:r.Zoo.fingerprint
    with
    | [] -> ()
    | m ->
      Alcotest.failf "run %d (%s): async diverges from oracle:\n%s" i
        (Zoo.entry_name e) (String.concat "\n" m)
  done;
  Alcotest.(check (list int))
    (Printf.sprintf "domains of %d runs at n=%d" runs n)
    [ (Domain.self () :> int) ]
    (Hashtbl.fold (fun d () acc -> d :: acc) readers [])

(* Every process runs on a thread of the calling domain, so the domain's
   exact counter, [Gc.minor_words], counts every process's allocation.
   Each clock read allocates a 3,000-word list, and most reads are made by
   processes other than the caller's: the reads then outweigh the rest of
   the run about five to one, so processes run on domains of their own
   would leave the count well short of the reads' words. ([Gc.quick_stat]'s
   minor count moves only at minor collections, so it leaves out what a
   run allocated since the last one, and a run that fills no minor heap
   reads 0 there.) *)
let allocation_visible () =
  let e = Option.get (Zoo.find "fallback") in
  let reads = Atomic.make 0 and block = 1000 in
  let clock =
    {
      Clock.real with
      Clock.now =
        (fun () ->
          Atomic.incr reads;
          ignore (Sys.opaque_identity (List.init block Fun.id));
          Unix.gettimeofday ());
    }
  in
  let w0 = Gc.minor_words () in
  ignore (Zoo.async e ~cfg:(cfg 5) ~seed:1L ~salt:0 ~delta ~clock ());
  let w1 = Gc.minor_words () in
  let reads = Atomic.get reads in
  if reads < 100 then Alcotest.failf "only %d clock reads" reads;
  let seen = w1 -. w0 and made = float_of_int (reads * 3 * block) in
  if seen < made then
    Alcotest.failf "Gc.minor_words saw %.0f words; the clock reads alone made %.0f"
      seen made

(* Inside a pool task the processes still run at once, on threads of the
   worker's domain: two runs side by side on a pool each equal the oracle,
   and no barrier waits out δ. *)
let runs_in_pool_task () =
  let e = Option.get (Zoo.find "weak-ba") in
  let oracle = Zoo.oracle e ~cfg:(cfg 5) ~seed:1L ~salt:0 in
  let attempt () = Zoo.async e ~cfg:(cfg 5) ~seed:1L ~salt:0 ~delta () in
  Array.iteri
    (fun i r ->
      (match Zoo.fingerprint_diff ~oracle ~async:r.Zoo.fingerprint with
      | [] -> ()
      | m -> Alcotest.failf "task %d diverges from oracle:\n%s" i (String.concat "\n" m));
      Alcotest.(check int)
        (Printf.sprintf "task %d deadline expiries" i)
        0 r.Zoo.stats.Runtime.deadline_expiries)
    (Pool.run ~jobs:2 [| attempt; attempt |])

let () =
  let gates =
    List.map
      (fun e ->
        Alcotest.test_case
          (Printf.sprintf "%s: async ≡ oracle (3 seeds × n ∈ {5,9})"
             (Zoo.entry_name e))
          `Slow (gate e))
      Zoo.entries
  in
  let chaos_cells =
    List.map
      (fun e ->
        Alcotest.test_case
          (Printf.sprintf "%s: byte faults never unsafe" (Zoo.entry_name e))
          `Slow (chaos e))
      Zoo.entries
  in
  Alcotest.run "wire-diff"
    [
      ("differential", gates);
      ("chaos", chaos_cells);
      ( "process threads",
        [
          Alcotest.test_case "stepped slots pinned" `Quick stepped_slots;
          Alcotest.test_case "one domain" `Quick one_domain;
          Alcotest.test_case "allocation visible" `Quick allocation_visible;
          Alcotest.test_case "runs in a pool task" `Quick runs_in_pool_task;
        ] );
      ( "chaos observability",
        [ Alcotest.test_case "faults stamped and rejected" `Quick chaos_observable ]
      );
    ]
