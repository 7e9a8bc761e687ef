(* The fuzzer fuzzed: generator sanity, shrink metric monotonicity, corpus
   round-trips, determinism of scenario execution, and the end-to-end smoke
   gate (sound targets clean; the planted weak-BA quorum ablation found,
   shrunk to a fixpoint, and replayed byte-identically). *)

open Mewc_prelude
open Mewc_sim
open Mewc_fuzz

let cfg = Config.create ~n:9 ~t:4

let scenarios k =
  let rng = Rng.create 42L in
  List.init k (fun _ -> Scenario.generate ~cfg ~rng)

let test_generator_budget () =
  List.iter
    (fun (sc : Scenario.t) ->
      let cs = sc.Scenario.corruptions in
      Alcotest.(check bool) "within budget" true (List.length cs <= 4);
      let pids = List.map (fun c -> c.Scenario.pid) cs in
      Alcotest.(check bool)
        "distinct pids" true
        (List.length (List.sort_uniq compare pids) = List.length pids);
      List.iter
        (fun (c : Scenario.corruption) ->
          Alcotest.(check bool) "pid in range" true (c.pid >= 0 && c.pid < 9);
          Alcotest.(check bool) "slot sane" true (c.at >= 0 && c.at < 8))
        cs;
      let sorted =
        List.sort (fun a b -> compare (a.Scenario.at, a.pid) (b.Scenario.at, b.pid)) cs
      in
      Alcotest.(check bool) "canonical order" true (cs = sorted))
    (scenarios 100)

let test_generator_fault_budget () =
  let saw_fault = ref false in
  List.iter
    (fun (sc : Scenario.t) ->
      let fs = sc.Scenario.faults in
      if fs <> [] then saw_fault := true;
      Alcotest.(check bool)
        "combined corruption + fault budget" true
        (List.length sc.Scenario.corruptions + List.length fs <= 4);
      let victims = List.map (fun (f : Scenario.fault) -> f.victim) fs in
      Alcotest.(check bool)
        "distinct victims" true
        (List.length (List.sort_uniq compare victims) = List.length victims);
      let corrupted =
        List.map (fun (c : Scenario.corruption) -> c.pid) sc.Scenario.corruptions
      in
      Alcotest.(check bool)
        "victims disjoint from corrupted" true
        (List.for_all (fun v -> not (List.mem v corrupted)) victims);
      List.iter
        (fun (f : Scenario.fault) ->
          Alcotest.(check bool) "victim in range" true (f.victim >= 0 && f.victim < 9);
          Alcotest.(check bool) "fault slot sane" true (f.fault_at >= 0);
          match f.kind with
          | Scenario.Crash_fault -> ()
          | Scenario.Omission_fault { drop_mod; drop_rem } ->
            Alcotest.(check bool)
              "omission params sane" true
              (drop_mod >= 1 && drop_rem >= 0 && drop_rem < drop_mod))
        fs;
      let sorted =
        List.sort
          (fun (a : Scenario.fault) (b : Scenario.fault) ->
            compare (a.fault_at, a.victim) (b.fault_at, b.victim))
          fs
      in
      Alcotest.(check bool) "faults canonically sorted" true (fs = sorted);
      (* the scenario's faults compile to a plan the engine accepts *)
      match Faults.validate ~n:9 (Compile.plan_of_scenario sc) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "compiled plan invalid: %s" e)
    (scenarios 200);
  Alcotest.(check bool) "generator actually draws faults" true !saw_fault

let test_shrink_simplifies_faults () =
  (* Every omission fault must offer its crash simplification among the
     one-step shrink candidates, and candidates keep victims disjoint from
     corrupted pids. *)
  let with_omission =
    List.filter
      (fun (sc : Scenario.t) ->
        List.exists
          (fun (f : Scenario.fault) ->
            match f.kind with Scenario.Omission_fault _ -> true | _ -> false)
          sc.Scenario.faults)
      (scenarios 200)
  in
  Alcotest.(check bool)
    "generator draws omission faults" true
    (with_omission <> []);
  List.iter
    (fun (sc : Scenario.t) ->
      let cands = Scenario.candidates sc in
      List.iter
        (fun (f : Scenario.fault) ->
          match f.kind with
          | Scenario.Crash_fault -> ()
          | Scenario.Omission_fault _ ->
            Alcotest.(check bool)
              "omission has a crash simplification" true
              (List.exists
                 (fun (c : Scenario.t) ->
                   List.exists
                     (fun (f' : Scenario.fault) ->
                       f'.victim = f.victim && f'.kind = Scenario.Crash_fault)
                     c.Scenario.faults)
                 cands))
        sc.Scenario.faults;
      List.iter
        (fun (c : Scenario.t) ->
          let corrupted =
            List.map (fun (x : Scenario.corruption) -> x.pid) c.Scenario.corruptions
          in
          Alcotest.(check bool)
            "candidate keeps victims disjoint" true
            (List.for_all
               (fun (f : Scenario.fault) -> not (List.mem f.victim corrupted))
               c.Scenario.faults))
        cands)
    with_omission

let test_json_roundtrip () =
  List.iter
    (fun sc ->
      match Scenario.of_json (Scenario.to_json sc) with
      | Ok sc' ->
        Alcotest.(check bool)
          (Format.asprintf "roundtrip %a" Scenario.pp sc)
          true (Scenario.equal sc sc')
      | Error e -> Alcotest.failf "of_json failed: %s" e)
    (scenarios 50)

let test_shrink_metric () =
  List.iter
    (fun sc ->
      let s = Scenario.size sc in
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Format.asprintf "candidate smaller: %a -> %a" Scenario.pp sc
               Scenario.pp c)
            true
            (Scenario.size c < s))
        (Scenario.candidates sc))
    (scenarios 50)

let test_run_deterministic () =
  let target = Option.get (Campaign.find_target "weak-ba") in
  List.iter
    (fun sc ->
      let a = Campaign.violation_of target ~cfg sc in
      let b = Campaign.violation_of target ~cfg sc in
      Alcotest.(check bool) "same outcome" true (a = b))
    (scenarios 10)

let test_verdict_shard_invariant () =
  (* The fuzzer's verdicts must not depend on how many domains a run's
     step phase is sharded across — same scenarios, same violations (or
     same clean passes) at every shard count. *)
  List.iter
    (fun name ->
      let target = Option.get (Campaign.find_target name) in
      List.iter
        (fun sc ->
          let base =
            Campaign.violation_of
              ~options:
                {
                  Mewc_core.Instances.default_options with
                  Mewc_core.Instances.shards = 1;
                }
              target ~cfg sc
          in
          List.iter
            (fun shards ->
              Alcotest.(check bool)
                (Printf.sprintf "%s shards=%d" name shards)
                true
                (base
                = Campaign.violation_of
                    ~options:
                      {
                        Mewc_core.Instances.default_options with
                        Mewc_core.Instances.shards = shards;
                      }
                    target ~cfg sc))
            [ 2; 4 ])
        (scenarios 4))
    [ "weak-ba"; Campaign.planted_target ]

let test_campaign_jobs_invariant () =
  (* The batched scan's outcome must not depend on parallelism. *)
  let target = Option.get (Campaign.find_target Campaign.planted_target) in
  let run jobs =
    Campaign.campaign ~jobs target ~cfg ~seed:Campaign.smoke_seed
      ~count:Campaign.smoke_count ()
  in
  match (run 1, run 4) with
  | Some a, Some b ->
    Alcotest.(check int) "same index" a.Campaign.index b.Campaign.index;
    Alcotest.(check bool)
      "same scenario" true
      (Scenario.equal a.Campaign.scenario b.Campaign.scenario)
  | _ -> Alcotest.fail "planted campaign came up empty"

let test_smoke () =
  match Campaign.smoke ~jobs:2 () with
  | Error e -> Alcotest.failf "smoke failed: %s" e
  | Ok entry ->
    Alcotest.(check string) "target" Campaign.planted_target entry.Campaign.target;
    Alcotest.(check string)
      "agreement is what breaks" "agreement"
      entry.Campaign.violation.Monitor.monitor;
    (* the minimized schedule needs at least two coalition members: one to
       suppress the honest phase-1 decision, one (even-pid) to spray *)
    Alcotest.(check bool)
      "minimal but nonempty" true
      (List.length entry.Campaign.scenario.Scenario.corruptions = 2);
    (* corpus round-trip through disk *)
    let path = Filename.temp_file "mewc-fuzz" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Campaign.save path entry;
        match Campaign.load path with
        | Error e -> Alcotest.failf "corpus load failed: %s" e
        | Ok entry' ->
          Alcotest.(check bool)
            "entry roundtrip" true
            (Jsonx.equal (Campaign.entry_to_json entry)
               (Campaign.entry_to_json entry'));
          (match Campaign.replay entry' with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "replay of loaded entry failed: %s" e))

let test_replay_rejects_drift () =
  match Campaign.smoke ~jobs:2 () with
  | Error e -> Alcotest.failf "smoke failed: %s" e
  | Ok entry -> (
    let tampered =
      {
        entry with
        Campaign.violation =
          { entry.Campaign.violation with Monitor.slot = 999 };
      }
    in
    match Campaign.replay tampered with
    | Ok _ -> Alcotest.fail "replay accepted a drifted violation"
    | Error _ -> ())

let test_corpus_schema_gate () =
  let j = Jsonx.Obj [ (Jsonx.Schema.key, Jsonx.Str "mewc-trace/2") ] in
  match Campaign.entry_of_json j with
  | Ok _ -> Alcotest.fail "accepted a foreign schema"
  | Error e ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "names the schema" true (contains e "mewc-trace/2")

(* The sound targets are exactly the registry, in registry order; the
   ablated target is the one addition. *)
let test_zoo_is_registry () =
  Alcotest.(check (list string))
    "sound targets" Mewc_core.Registry.names
    (List.filter_map
       (fun t ->
         if Campaign.target_ablated t then None else Some (Campaign.target_name t))
       Campaign.zoo)

let () =
  Alcotest.run "fuzz"
    [
      ( "scenario",
        [
          Alcotest.test_case "generator budget" `Quick test_generator_budget;
          Alcotest.test_case "fault budget" `Quick test_generator_fault_budget;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "shrink metric" `Quick test_shrink_metric;
          Alcotest.test_case "shrink simplifies faults" `Quick
            test_shrink_simplifies_faults;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "zoo is the registry" `Quick test_zoo_is_registry;
          Alcotest.test_case "jobs invariant" `Quick test_campaign_jobs_invariant;
          Alcotest.test_case "verdicts shard-invariant" `Quick
            test_verdict_shard_invariant;
          Alcotest.test_case "smoke" `Quick test_smoke;
          Alcotest.test_case "replay rejects drift" `Quick
            test_replay_rejects_drift;
          Alcotest.test_case "schema gate" `Quick test_corpus_schema_gate;
        ] );
    ]
