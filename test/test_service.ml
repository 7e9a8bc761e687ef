(* The throughput service: workload generation, batching, the
   submit/claim/finalize lifecycle, and the mewc-throughput/1 gate. *)

open Mewc_sim
open Mewc_core

let cfg n = Config.optimal ~n
let honest = Adversary.const (Adversary.honest ~name:"h")

(* ---- workload ----------------------------------------------------------- *)

let workload_deterministic () =
  let profile = Option.get (Workload.find_preset "bursty") in
  let gen () = Workload.generate ~seed:42L ~profile ~slots:50 in
  Alcotest.(check bool) "same seed, same traffic" true (gen () = gen ());
  let other = Workload.generate ~seed:43L ~profile ~slots:50 in
  Alcotest.(check bool) "different seed, different traffic" false
    (gen () = other)

let workload_shape () =
  let profile = Option.get (Workload.find_preset "steady") in
  let reqs = Workload.generate ~seed:7L ~profile ~slots:100 in
  Alcotest.(check bool)
    (Printf.sprintf "~1 req/slot (%d in 100 slots)" (List.length reqs))
    true
    (List.length reqs > 50 && List.length reqs < 200);
  List.iteri
    (fun i r ->
      Alcotest.(check int) "dense ids in arrival order" i r.Workload.id;
      Alcotest.(check bool) "arrival in range" true
        (r.Workload.arrival >= 0 && r.Workload.arrival < 100))
    reqs;
  let bursty = Option.get (Workload.find_preset "bursty") in
  let at_bursts =
    List.filter
      (fun r -> r.Workload.arrival mod 8 = 0)
      (Workload.generate ~seed:7L ~profile:bursty ~slots:64)
  in
  Alcotest.(check bool) "bursts actually land" true (List.length at_bursts >= 48)

let workload_validation () =
  let bad p =
    match Workload.validate p with
    | () -> Alcotest.fail "invalid profile accepted"
    | exception Invalid_argument _ -> ()
  in
  bad { Workload.arrival = Workload.Steady 0.0; sizes = Workload.Fixed 1 };
  bad { Workload.arrival = Workload.Steady 1.0; sizes = Workload.Fixed 0 };
  bad
    {
      Workload.arrival = Workload.Bursty { rate = 0.1; burst_every = 0; burst_size = 1 };
      sizes = Workload.Fixed 1;
    };
  bad
    {
      Workload.arrival = Workload.Steady 1.0;
      sizes = Workload.Skewed { base = 1; heavy = 4; heavy_weight = 1.5 };
    }

(* ---- the lifecycle ------------------------------------------------------ *)

let lifecycle_commits () =
  let svc = Service.create ~cfg:(cfg 9) () in
  let t0 = Service.submit svc ~arrival:0 ~size:4 in
  let t1 = Service.submit svc ~arrival:1 ~size:4 in
  let t2 = Service.submit svc ~arrival:9 ~size:4 in
  let r = Service.finalize svc ~seed:1L ~adversary:honest () in
  Alcotest.(check int) "all committed" 3 r.Service.committed;
  (match (Service.claim r t0, Service.claim r t1) with
  | ( Service.Committed { index = i0; decided_slot = d0; _ },
      Service.Committed { index = i1; decided_slot = d1; _ } ) ->
    Alcotest.(check int) "same batch" i0 i1;
    Alcotest.(check int) "same landing slot" d0 d1
  | _ -> Alcotest.fail "first two requests not committed");
  (match Service.claim r t2 with
  | Service.Committed { index; latency; _ } ->
    Alcotest.(check bool) "age cap split the batch" true (index > 0);
    Alcotest.(check bool) "latency non-negative" true (latency >= 0)
  | _ -> Alcotest.fail "third request not committed");
  (* misuse *)
  (match Service.claim r 99 with
  | _ -> Alcotest.fail "unknown ticket accepted"
  | exception Invalid_argument _ -> ());
  match Service.submit svc ~arrival:10 ~size:1 with
  | _ -> Alcotest.fail "submit after finalize accepted"
  | exception Failure _ -> ()

let batch_caps_respected () =
  let svc =
    Service.create ~cfg:(cfg 9)
      ~policy:{ Service.max_requests = 2; max_words = 100; max_age = 50 }
      ()
  in
  let tickets = List.init 5 (fun i -> Service.submit svc ~arrival:i ~size:1) in
  let r = Service.finalize svc ~seed:1L ~adversary:honest () in
  Alcotest.(check int) "ceil(5/2) batches" 3 r.Service.length;
  List.iteri
    (fun k t ->
      match Service.claim r t with
      | Service.Committed { index; _ } ->
        Alcotest.(check int) (Printf.sprintf "req %d batch" k) (k / 2) index
      | _ -> Alcotest.fail "request not committed")
    tickets

let byzantine_proposer_skips_batch () =
  (* Crash the proposer of batch 1 (pid 1) from slot 0: its batch's
     requests come back Skipped, everything else commits. *)
  let n = 9 in
  let svc =
    Service.create ~cfg:(cfg n)
      ~policy:{ Service.max_requests = 1; max_words = 100; max_age = 100 }
      ()
  in
  let tickets = List.init 3 (fun i -> Service.submit svc ~arrival:i ~size:1) in
  let r =
    Service.finalize svc ~seed:2L
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1 ] ()))
      ()
  in
  Alcotest.(check int) "one request skipped" 1 r.Service.skipped;
  List.iteri
    (fun k t ->
      match (k, Service.claim r t) with
      | 1, Service.Skipped { index } -> Alcotest.(check int) "batch 1" 1 index
      | 1, _ -> Alcotest.fail "batch 1 not skipped"
      | _, Service.Committed _ -> ()
      | _, d ->
        Alcotest.failf "req %d: %s" k
          (Format.asprintf "%a" Service.pp_disposition d))
    tickets

let instance_cap_leaves_unassigned () =
  let svc =
    Service.create ~cfg:(cfg 9)
      ~policy:{ Service.max_requests = 1; max_words = 100; max_age = 100 }
      ()
  in
  let tickets = List.init 4 (fun i -> Service.submit svc ~arrival:i ~size:1) in
  let r = Service.finalize svc ~seed:1L ~max_instances:2 ~adversary:honest () in
  Alcotest.(check int) "2 instances" 2 r.Service.length;
  Alcotest.(check int) "2 unassigned" 2 r.Service.unassigned;
  List.iteri
    (fun k t ->
      match (Service.claim r t, k < 2) with
      | Service.Committed _, true | Service.Unassigned, false -> ()
      | d, _ ->
        Alcotest.failf "req %d: %s" k
          (Format.asprintf "%a" Service.pp_disposition d))
    tickets

let pipelined_service_matches_oracle () =
  (* End-to-end restatement of the Repeated_bb invariant at the service
     layer: same traffic, same committed log at every depth — but strictly
     fewer wall slots and no-worse p99 under the pipeline. *)
  let c = cfg 9 in
  let profile = Option.get (Workload.find_preset "steady") in
  let run offset =
    let svc = Service.create ~cfg:c ?offset () in
    Service.submit_workload svc
      (Workload.generate ~seed:11L ~profile ~slots:24);
    Service.finalize svc ~seed:11L ~adversary:honest ()
  in
  let seq = run None in
  let deep = run (Some 1) in
  Alcotest.(check bool) "same log" true (deep.Service.log = seq.Service.log);
  Alcotest.(check int) "same commits" seq.Service.committed deep.Service.committed;
  Alcotest.(check bool)
    (Printf.sprintf "fewer slots (%d < %d)" deep.Service.slots seq.Service.slots)
    true
    (deep.Service.slots < seq.Service.slots);
  Alcotest.(check bool)
    (Printf.sprintf "p99 no worse (%d <= %d)" deep.Service.p99_latency
       seq.Service.p99_latency)
    true
    (deep.Service.p99_latency <= seq.Service.p99_latency)

(* ---- the experiment ------------------------------------------------------ *)

let smoke_gate_passes () =
  match Throughput.smoke () with
  | Ok e ->
    Alcotest.(check bool) "render non-empty" true
      (String.length (Throughput.render e) > 0)
  | Error e -> Alcotest.failf "throughput smoke: %s" e

let ledger_append_roundtrip () =
  let path = Filename.temp_file "mewc-throughput" ".json" in
  Sys.remove path;
  let entry =
    {
      Throughput.rev = "r1";
      date = "d1";
      cells = [ Throughput.run_cell ~n:9 ~workload:"steady" ~depth:"half" () ];
      slo = [];
    }
  in
  (match Throughput.append path entry with
  | Ok 1 -> ()
  | Ok k -> Alcotest.failf "first append counted %d" k
  | Error (`Malformed e | `Unwritable e) -> Alcotest.fail e);
  (match Throughput.append path { entry with Throughput.rev = "r2" } with
  | Ok 2 -> ()
  | Ok k -> Alcotest.failf "second append counted %d" k
  | Error (`Malformed e | `Unwritable e) -> Alcotest.fail e);
  (match Throughput.load path with
  | Ok [ _; _ ] -> ()
  | Ok es -> Alcotest.failf "loaded %d entries" (List.length es)
  | Error e -> Alcotest.fail e);
  (* wrong-schema files are rejected, not silently reset *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "{\"schema\":\"mewc-perf/2\"}");
  (match Throughput.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong schema accepted");
  Sys.remove path

let cells_invariant_under_engine_knobs () =
  (* The report and every event of the run, under each scheduler and
     shard count, fault-free and with two replicas crashed for good. *)
  let render options =
    let monitor, digest = Test_util.event_digest ~pp_msg:Repeated_bb.pp_msg in
    let json =
      Mewc_prelude.Jsonx.to_string
        (Throughput.entry_to_json
           {
             Throughput.rev = "x";
             date = "x";
             cells =
               Throughput.run_grid
                 ~options:{ options with Engine.monitors = [ monitor ] }
                 [ (9, "bursty", "deep") ];
             slo = [];
           })
    in
    (json, digest ())
  in
  List.iter
    (fun faults ->
      let base = render { Engine.default_options with Engine.faults } in
      List.iter
        (fun (scheduler, shards) ->
          let label =
            Printf.sprintf "%s shards=%d faults=%b"
              (Engine.scheduler_to_string scheduler)
              shards
              (not (Faults.is_none faults))
          in
          let json, digest =
            render { Engine.default_options with Engine.scheduler; shards; faults }
          in
          Alcotest.(check string) (label ^ " report") (fst base) json;
          Alcotest.(check string) (label ^ " events") (snd base) digest)
        [ (`Legacy, 1); (`Legacy, 2); (`Event_driven, 1); (`Event_driven, 2) ])
    [ Faults.none; Degrade.plan_of ~profile:"crash" ~level:2 ]

(* The committed throughput ledger still describes the code: the full grid
   and the SLO sweep, rerun, match the newest BENCH_throughput.json entry
   field for field. Only its provenance ([rev], [date]) is exempt. *)
let ledger_reproduces () =
  let module J = Mewc_prelude.Jsonx in
  let newest =
    match Throughput.load "../BENCH_throughput.json" with
    | Ok (_ :: _ as entries) -> List.nth entries (List.length entries - 1)
    | Ok [] -> Alcotest.fail "BENCH_throughput.json has no entries"
    | Error e -> Alcotest.fail e
  in
  let provenance k = Option.value ~default:J.Null (J.member k newest) in
  let rerun =
    match
      Throughput.entry_to_json
        {
          Throughput.rev = "";
          date = "";
          cells = Throughput.run_grid Throughput.grid;
          slo = Throughput.slo_sweep ();
        }
    with
    | J.Obj fields ->
      J.Obj
        (List.map
           (fun (k, v) ->
             if k = "rev" || k = "date" then (k, provenance k) else (k, v))
           fields)
    | j -> j
  in
  (* The first differing leaf, by path, so a drift names its field. *)
  let rec diff path a b =
    match (a, b) with
    | J.Obj xs, J.Obj ys when List.map fst xs = List.map fst ys ->
      List.fold_left2
        (fun acc (k, x) (_, y) ->
          match acc with Some _ -> acc | None -> diff (path ^ "." ^ k) x y)
        None xs ys
    | J.Arr xs, J.Arr ys when List.length xs = List.length ys ->
      let rec go i = function
        | x :: xs, y :: ys -> (
          match diff (Printf.sprintf "%s[%d]" path i) x y with
          | Some d -> Some d
          | None -> go (i + 1) (xs, ys))
        | _ -> None
      in
      go 0 (xs, ys)
    | a, b when J.equal a b -> None
    | a, b -> Some (Printf.sprintf "%s: ledger %s, rerun %s" path (J.to_string a) (J.to_string b))
  in
  match diff "entry" newest rerun with
  | None -> ()
  | Some d -> Alcotest.failf "BENCH_throughput.json drifted at %s" d

let () =
  Alcotest.run "throughput service"
    [
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick workload_deterministic;
          Alcotest.test_case "shape" `Quick workload_shape;
          Alcotest.test_case "validation" `Quick workload_validation;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "submit/claim/finalize" `Quick lifecycle_commits;
          Alcotest.test_case "batch caps" `Quick batch_caps_respected;
          Alcotest.test_case "byzantine proposer skips batch" `Quick
            byzantine_proposer_skips_batch;
          Alcotest.test_case "instance cap" `Quick instance_cap_leaves_unassigned;
          Alcotest.test_case "pipelined == oracle" `Quick
            pipelined_service_matches_oracle;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "smoke gate" `Slow smoke_gate_passes;
          Alcotest.test_case "ledger round-trip" `Quick ledger_append_roundtrip;
          Alcotest.test_case "invariant under scheduler x shards" `Quick
            cells_invariant_under_engine_knobs;
          Alcotest.test_case "ledger reproduces" `Quick ledger_reproduces;
        ] );
    ]
