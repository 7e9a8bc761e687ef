(* The fault-injection layer: plan validation and serialization, the
   runtime's per-link fate and per-slot transitions, and the determinism
   contract — same seed + same plan means byte-identical traces, from a
   single run up through the degradation matrix at any [jobs], planted
   unsafe cell included. *)

open Mewc_prelude
open Mewc_sim
open Mewc_core

let cfg n = Config.optimal ~n

(* A plan exercising every knob at once. *)
let kitchen_sink =
  {
    Faults.seed = 42L;
    drop = 0.2;
    delay = 2;
    delay_prob = 0.4;
    dup = 0.1;
    partitions = [ { Faults.from_slot = 3; until_slot = 7; island = [ 0; 4 ] } ];
    processes =
      [
        (1, Faults.Crash { at = 5 });
        (2, Faults.Send_omission { from_ = 2; drop_mod = 2; drop_rem = 1 });
        (3, Faults.Crash_recovery { down_at = 2; up_at = 4 });
      ];
  }

(* ---- validation ---------------------------------------------------------- *)

let validation () =
  let ok p =
    match Faults.validate ~n:9 p with
    | Ok () -> ()
    | Error e -> Alcotest.failf "rejected a sane plan: %s" e
  in
  let bad name p =
    match Faults.validate ~n:9 p with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: accepted" name
  in
  ok Faults.none;
  ok kitchen_sink;
  bad "drop > 1" { Faults.none with Faults.drop = 1.5 };
  bad "negative dup" { Faults.none with Faults.dup = -0.1 };
  bad "delay_prob without delay"
    { Faults.none with Faults.delay = 0; delay_prob = 0.5 };
  let part island from_slot until_slot =
    { Faults.none with
      Faults.partitions = [ { Faults.from_slot; until_slot; island } ]
    }
  in
  bad "empty island" (part [] 0 5);
  bad "island = everyone" (part (List.init 9 Fun.id) 0 5);
  bad "island pid out of range" (part [ 0; 9 ] 0 5);
  bad "inverted partition window" (part [ 0 ] 7 3);
  let procs ps = { Faults.none with Faults.processes = ps } in
  bad "duplicate fault pids"
    (procs [ (1, Faults.Crash { at = 0 }); (1, Faults.Crash { at = 1 }) ]);
  bad "fault pid out of range" (procs [ (9, Faults.Crash { at = 0 }) ]);
  bad "drop_mod = 0"
    (procs [ (1, Faults.Send_omission { from_ = 0; drop_mod = 0; drop_rem = 0 }) ]);
  bad "drop_rem >= drop_mod"
    (procs [ (1, Faults.Send_omission { from_ = 0; drop_mod = 2; drop_rem = 2 }) ]);
  bad "down_at >= up_at"
    (procs [ (1, Faults.Crash_recovery { down_at = 4; up_at = 4 }) ])

(* ---- serialization ------------------------------------------------------- *)

let json_roundtrip () =
  let rt name p =
    match Faults.of_json (Faults.to_json p) with
    | Ok p' ->
      Alcotest.(check bool) (name ^ " round-trips") true (Faults.equal p p')
    | Error e -> Alcotest.failf "%s: does not reparse: %s" name e
  in
  rt "none" Faults.none;
  rt "kitchen sink" kitchen_sink;
  Alcotest.(check bool) "none is none" true (Faults.is_none Faults.none);
  Alcotest.(check bool)
    "seed alone is still none" true
    (Faults.is_none { Faults.none with Faults.seed = 99L });
  Alcotest.(check bool)
    "kitchen sink is not none" false
    (Faults.is_none kitchen_sink);
  (match Faults.of_json (Jsonx.Obj [ (Jsonx.Schema.key, Jsonx.Str "mewc-trace/3") ]) with
  | Ok _ -> Alcotest.fail "accepted a foreign schema"
  | Error _ -> ());
  List.iter
    (fun lf ->
      match Faults.(link_fault_of_string (link_fault_to_string lf)) with
      | Ok lf' -> Alcotest.(check bool) "link fault round-trips" true (lf = lf')
      | Error e -> Alcotest.failf "link fault does not reparse: %s" e)
    Faults.[ Omitted; Partitioned; Dropped; Delayed 3; Duplicated ];
  List.iter
    (fun ev ->
      match Faults.(process_event_of_string (process_event_to_string ev)) with
      | Ok ev' -> Alcotest.(check bool) "process event round-trips" true (ev = ev')
      | Error e -> Alcotest.failf "process event does not reparse: %s" e)
    Faults.[ Crashed; Went_down; Recovered; Omitting ]

(* ---- runtime: determinism ------------------------------------------------ *)

(* Two runtimes from the same plan agree on every (slot, src, dst) fate and
   every transition — the property the whole replay story rests on. *)
let runtime_deterministic () =
  let sweep () =
    let rt = Faults.start ~n:9 kitchen_sink in
    List.concat_map
      (fun slot ->
        let ts =
          List.map
            (fun (pid, ev) -> Printf.sprintf "t%d:%d:%s" slot pid
                                (Faults.process_event_to_string ev))
            (Faults.transitions rt ~slot)
        in
        let fates =
          List.concat_map
            (fun src ->
              List.map
                (fun dst ->
                  match Faults.fate rt ~slot ~src ~dst with
                  | None -> "-"
                  | Some lf -> Faults.link_fault_to_string lf)
                (List.init 9 Fun.id))
            (List.init 9 Fun.id)
        in
        ts @ fates)
      (List.init 20 Fun.id)
  in
  Alcotest.(check (list string)) "same plan, same fates" (sweep ()) (sweep ())

let self_sends_immune () =
  let rt = Faults.start ~n:9 { kitchen_sink with Faults.drop = 1.0; dup = 1.0 } in
  List.iter
    (fun slot ->
      ignore (Faults.transitions rt ~slot);
      List.iter
        (fun pid ->
          match Faults.fate rt ~slot ~src:pid ~dst:pid with
          | None -> ()
          | Some lf ->
            Alcotest.failf "self-send faulted at slot %d pid %d: %s" slot pid
              (Faults.link_fault_to_string lf))
        (List.init 9 Fun.id))
    (List.init 10 Fun.id)

(* ---- runtime: per-fault semantics ---------------------------------------- *)

let fate_of plan ~slot ~src ~dst =
  let rt = Faults.start ~n:9 plan in
  for s = 0 to slot do
    ignore (Faults.transitions rt ~slot:s)
  done;
  Faults.fate rt ~slot ~src ~dst

let certain_faults () =
  let check name plan ~slot expect =
    Alcotest.(check string) name
      (match expect with None -> "-" | Some lf -> Faults.link_fault_to_string lf)
      (match fate_of plan ~slot ~src:0 ~dst:5 with
      | None -> "-"
      | Some lf -> Faults.link_fault_to_string lf)
  in
  check "drop = 1 always drops"
    { Faults.none with Faults.drop = 1.0 }
    ~slot:0 (Some Faults.Dropped);
  check "dup = 1 always duplicates"
    { Faults.none with Faults.dup = 1.0 }
    ~slot:0 (Some Faults.Duplicated);
  check "delay_prob = 1 always delays by k"
    { Faults.none with Faults.delay = 3; delay_prob = 1.0 }
    ~slot:0
    (Some (Faults.Delayed 3))

let partition_semantics () =
  let plan =
    { Faults.none with
      Faults.partitions =
        [ { Faults.from_slot = 2; until_slot = 5; island = [ 0; 1 ] } ]
    }
  in
  let fate ~slot ~src ~dst = fate_of plan ~slot ~src ~dst in
  Alcotest.(check bool) "before the window" true (fate ~slot:1 ~src:0 ~dst:5 = None);
  Alcotest.(check bool) "cut island -> complement" true
    (fate ~slot:2 ~src:0 ~dst:5 = Some Faults.Partitioned);
  Alcotest.(check bool) "cut complement -> island" true
    (fate ~slot:4 ~src:5 ~dst:0 = Some Faults.Partitioned);
  Alcotest.(check bool) "island-internal link fine" true
    (fate ~slot:3 ~src:0 ~dst:1 = None);
  Alcotest.(check bool) "complement-internal link fine" true
    (fate ~slot:3 ~src:5 ~dst:6 = None);
  Alcotest.(check bool) "healed at until_slot" true (fate ~slot:5 ~src:0 ~dst:5 = None)

let omission_semantics () =
  let plan =
    { Faults.none with
      Faults.processes =
        [ (2, Faults.Send_omission { from_ = 2; drop_mod = 2; drop_rem = 1 }) ]
    }
  in
  let fate ~slot ~dst = fate_of plan ~slot ~src:2 ~dst in
  Alcotest.(check bool) "before from_" true (fate ~slot:1 ~dst:1 = None);
  Alcotest.(check bool) "matching dst omitted" true
    (fate ~slot:2 ~dst:1 = Some Faults.Omitted);
  Alcotest.(check bool) "non-matching dst delivered" true (fate ~slot:2 ~dst:4 = None);
  Alcotest.(check bool) "still omitting later" true
    (fate ~slot:9 ~dst:7 = Some Faults.Omitted)

let crash_semantics () =
  let rt =
    Faults.start ~n:9
      { Faults.none with
        Faults.processes =
          [
            (1, Faults.Crash { at = 3 });
            (2, Faults.Crash_recovery { down_at = 2; up_at = 4 });
          ]
      }
  in
  let step slot = Faults.transitions rt ~slot in
  Alcotest.(check bool) "slot 0: quiet" true (step 0 = []);
  Alcotest.(check bool) "nobody down yet" false (Faults.is_down rt 1 || Faults.is_down rt 2);
  Alcotest.(check bool) "slot 2: p2 goes down" true
    (step 2 = [ (2, Faults.Went_down) ] && Faults.is_down rt 2);
  Alcotest.(check bool) "slot 3: p1 crashes" true
    (step 3 = [ (1, Faults.Crashed) ] && Faults.is_down rt 1 && Faults.is_down rt 2);
  Alcotest.(check bool) "slot 4: p2 recovers, p1 stays down" true
    (step 4 = [ (2, Faults.Recovered) ]
    && Faults.is_down rt 1
    && not (Faults.is_down rt 2));
  Alcotest.(check bool) "crash is forever" true (step 9 = [] && Faults.is_down rt 1)

(* ---- determinism end to end ---------------------------------------------- *)

let trace_string o =
  match o.Instances.trace_json with
  | Some j -> Jsonx.to_string j
  | None -> Alcotest.fail "no trace recorded"

let run_traced ~fault_seed () =
  let c = cfg 9 in
  Instances.run (module Instances.Weak_ba_protocol) ~cfg:c
    ~options:
      {
        Instances.default_options with
        Instances.seed = 7L;
        record_trace = true;
        faults =
          { Faults.none with Faults.seed = fault_seed; drop = 0.3; dup = 0.1 };
      }
    ~params:
      {
        (Instances.Weak_ba_protocol.default_params c) with
        inputs = Array.init 9 (fun i -> Printf.sprintf "v%d" (i mod 2));
      }
    ~adversary:(Adversary.const (Adversary.honest ~name:"honest"))
    ()

let traces_byte_identical () =
  Alcotest.(check string)
    "same seed + same plan -> byte-identical traces"
    (trace_string (run_traced ~fault_seed:11L ()))
    (trace_string (run_traced ~fault_seed:11L ()));
  Alcotest.(check bool)
    "a different fault seed actually changes the run" false
    (String.equal
       (trace_string (run_traced ~fault_seed:11L ()))
       (trace_string (run_traced ~fault_seed:12L ())))

(* The whole degradation matrix is reproducible and jobs-independent:
   cells run in worker domains must equal the sequential sweep byte for
   byte (seeds derive from cell identity alone, never from schedule). *)
let matrix_jobs_independent () =
  let json cells = Jsonx.to_string (Degrade.matrix_to_json cells) in
  let sequential = json (Degrade.run_all ()) in
  Alcotest.(check string)
    "jobs=3 matrix == sequential matrix" sequential
    (json (Degrade.run_all ~jobs:3 ()));
  let protocol, profile, level = Degrade.planted_unsafe in
  let cell () =
    json
      [
        Degrade.run_cell ~options:Instances.default_options ~protocol ~profile
          ~level;
      ]
  in
  Alcotest.(check string) "planted cell reproducible" (cell ()) (cell ())

(* Chaos verdicts are shard-invariant: the same cell run with its engine
   sharded across domains renders the same JSON — verdict, realized f,
   words, slots, everything. Includes the planted-unsafe cell, so even a
   violation raised mid-run is raised at the same place. *)
let cells_shard_invariant () =
  let planted_p, planted_prof, planted_l = Degrade.planted_unsafe in
  let cells =
    [
      ("weak-ba", "partition", 3);
      ("bb", "drop", 2);
      ("strong-ba", "delay", 1);
      (planted_p, planted_prof, planted_l);
    ]
  in
  List.iter
    (fun (protocol, profile, level) ->
      let render shards =
        Jsonx.to_string
          (Degrade.matrix_to_json
             [
               Degrade.run_cell
                 ~options:{ Instances.default_options with Instances.shards }
                 ~protocol ~profile ~level;
             ])
      in
      let base = render 1 in
      List.iter
        (fun shards ->
          Alcotest.(check string)
            (Printf.sprintf "%s/%s/L%d shards=%d" protocol profile level shards)
            base (render shards))
        [ 2; 4 ])
    cells

(* ---- the planted reliability violation ----------------------------------- *)

let planted_cell_unsafe () =
  let protocol, profile, level = Degrade.planted_unsafe in
  let c =
    Degrade.run_cell ~options:Instances.default_options ~protocol ~profile
      ~level
  in
  (match c.Degrade.verdict with
  | Monitor.Unsafe v ->
    Alcotest.(check string) "disagreement, specifically" "agreement"
      v.Monitor.monitor
  | v ->
    Alcotest.failf "planted cell is %s"
      (Format.asprintf "%a" Monitor.pp_classification v));
  (* The same timed partition is harmless against every sound instance:
     quorum intersection (2(t+1) > n) is exactly what the ablation gave
     up. *)
  List.iter
    (fun protocol ->
      match
        (Degrade.run_cell ~options:Instances.default_options ~protocol ~profile
           ~level)
          .Degrade.verdict
      with
      | Monitor.Unsafe v ->
        Alcotest.failf "sound %s went unsafe under the split: %s" protocol
          (Format.asprintf "%a" Monitor.pp_violation v)
      | _ -> ())
    Degrade.protocols

let matrix_protocols_registered () =
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " is a registry entry") true
        (List.mem p Registry.names))
    Degrade.protocols

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "validation" `Quick validation;
          Alcotest.test_case "json round-trip" `Quick json_roundtrip;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "deterministic fates" `Quick runtime_deterministic;
          Alcotest.test_case "self-sends immune" `Quick self_sends_immune;
          Alcotest.test_case "certain faults" `Quick certain_faults;
          Alcotest.test_case "partition cut" `Quick partition_semantics;
          Alcotest.test_case "send omission" `Quick omission_semantics;
          Alcotest.test_case "crash and recovery" `Quick crash_semantics;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identical traces" `Quick traces_byte_identical;
          Alcotest.test_case "chaos cells shard-invariant" `Quick
            cells_shard_invariant;
          Alcotest.test_case "matrix jobs-independent" `Quick
            matrix_jobs_independent;
          Alcotest.test_case "matrix protocols are registry entries" `Quick
            matrix_protocols_registered;
        ] );
      ( "planted",
        [ Alcotest.test_case "split cell unsafe" `Quick planted_cell_unsafe ] );
    ]
