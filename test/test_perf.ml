(* The perf layer: the domain pool's scheduling-independence guarantees
   (one-shot and persistent worker sets), the sweep's
   parallel-equals-sequential property, and the intra-run sharding's
   core-row invariance (the invariants the whole multicore runner rests
   on). *)

open Mewc_prelude
open Mewc_core

(* ---- Pool ---------------------------------------------------------------- *)

let pool_map_order () =
  let xs = Array.init 100 Fun.id in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d preserves order" jobs)
        (Array.map (fun x -> x * x) xs)
        (Pool.map ~jobs (fun x -> x * x) xs))
    [ 1; 2; 3; 7; 100; 200 ]

let pool_empty_and_tiny () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~jobs:4 Fun.id [||]);
  Alcotest.(check (array int)) "one task" [| 9 |] (Pool.map ~jobs:4 (fun x -> x * x) [| 3 |]);
  Alcotest.(check (list int))
    "list version" [ 2; 4; 6 ]
    (Pool.map_list ~jobs:2 (fun x -> 2 * x) [ 1; 2; 3 ])

exception Boom of int

let pool_exception_lowest_index () =
  (* Tasks 3 and 7 fail on different workers; the surfaced exception must
     be task 3's, whichever worker finished first. *)
  List.iter
    (fun jobs ->
      match
        Pool.run ~jobs
          (Array.init 10 (fun i () -> if i = 3 || i = 7 then raise (Boom i) else i))
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom i ->
        Alcotest.(check int) (Printf.sprintf "jobs=%d lowest index" jobs) 3 i)
    [ 1; 2; 4 ]

let workers_reuse_deterministic () =
  (* One worker set fed many rounds — the hot path the sharded engine runs
     once per slot — must match the sequential map on every round. *)
  Pool.with_workers ~jobs:3 (fun ws ->
      Alcotest.(check int) "lanes" 3 (Pool.size ws);
      for round = 0 to 9 do
        let expect = Array.init 17 (fun i -> (round * 31) + (i * i)) in
        let got =
          Pool.exec ws (Array.init 17 (fun i () -> (round * 31) + (i * i)))
        in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          expect got
      done)

let workers_exception_lowest_index () =
  Pool.with_workers ~jobs:4 (fun ws ->
      (match
         Pool.exec ws
           (Array.init 10 (fun i () -> if i = 2 || i = 9 then raise (Boom i) else i))
       with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom i -> Alcotest.(check int) "lowest index" 2 i);
      (* the set survives a failing round and keeps working *)
      Alcotest.(check (array int)) "set still live" [| 0; 1; 2 |]
        (Pool.exec ws (Array.init 3 (fun i () -> i))))

let nested_run_falls_back_sequential () =
  (* Pool.run from inside a pool task must not deadlock on the shared
     worker set; it degrades to sequential execution in the worker. *)
  let results =
    Pool.run ~jobs:2
      (Array.init 4 (fun i () ->
           Array.to_list (Pool.run ~jobs:2 (Array.init 3 (fun j () -> (10 * i) + j)))))
  in
  Alcotest.(check (array (list int)))
    "nested results"
    (Array.init 4 (fun i -> List.init 3 (fun j -> (10 * i) + j)))
    results

let pool_results_match_sequential =
  Test_util.qcheck_case ~name:"pool(jobs) == sequential map for any jobs"
    QCheck2.Gen.(pair (int_range 1 16) (list_size (int_range 0 50) small_int))
    (fun (jobs, xs) ->
      let arr = Array.of_list xs in
      Pool.map ~jobs (fun x -> (x * 7) + 1) arr
      = Array.map (fun x -> (x * 7) + 1) arr)

(* ---- Sweep determinism --------------------------------------------------- *)

let sweep_parallel_identical () =
  (* The tentpole property: fanning the smoke grid across domains yields
     byte-identical rows to the sequential pass, for several job counts. *)
  let sequential = List.map Sweep.row_to_line (Sweep.run_all ~jobs:1 Sweep.smoke_grid) in
  List.iter
    (fun jobs ->
      let parallel = List.map Sweep.row_to_line (Sweep.run_all ~jobs Sweep.smoke_grid) in
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d byte-identical" jobs)
        sequential parallel)
    [ 2; 3; 5 ]

let sweep_rerun_deterministic () =
  let a = List.map Sweep.row_to_line (Sweep.run_all ~jobs:1 Sweep.smoke_grid) in
  let b = List.map Sweep.row_to_line (Sweep.run_all ~jobs:1 Sweep.smoke_grid) in
  Alcotest.(check (list string)) "reruns replay bit for bit" a b

let sweep_report () =
  let report = Sweep.run_perf ~jobs:2 Sweep.smoke_grid in
  Alcotest.(check bool) "identical" true report.Sweep.identical;
  Alcotest.(check bool) "parallelism note set" true
    (report.Sweep.parallelism <> "");
  Alcotest.(check int) "all points ran" (List.length Sweep.smoke_grid)
    (List.length report.Sweep.rows);
  Alcotest.(check bool) "sequential timing sane" true (report.Sweep.sequential_s >= 0.0);
  (* The report round-trips through the JSON layer (schema mewc-perf/2). *)
  let json = Sweep.report_to_json report in
  match Jsonx.parse (Jsonx.to_string json) with
  | Error e -> Alcotest.failf "report JSON does not reparse: %s" e
  | Ok parsed ->
    Alcotest.(check (option string))
      "schema" (Some "mewc-perf/2")
      (Option.bind (Jsonx.member "schema" parsed) Jsonx.get_str);
    Alcotest.(check (option string))
      "parallelism member"
      (Some report.Sweep.parallelism)
      (Option.bind (Jsonx.member "parallelism" parsed) Jsonx.get_str);
    Alcotest.(check (option bool))
      "parallel identity member" (Some true)
      (Option.bind
         (Jsonx.member "parallel_identical_to_sequential" parsed)
         Jsonx.get_bool);
    Alcotest.(check bool) "no shard members" true
      (Jsonx.member "shards" parsed = None
      && Jsonx.member "shards_identical_to_sequential" parsed = None);
    let rows =
      Option.bind (Jsonx.member "rows" parsed) Jsonx.get_list
      |> Option.value ~default:[]
    in
    Alcotest.(check int) "rows serialized" (List.length report.Sweep.rows)
      (List.length rows)

let sweep_sharded_core_rows_identical () =
  (* The intra-run axis: sharding a point's engine across domains must
     leave every protocol-observable row field untouched. Compared on
     row_core_line — per-domain memo tables may split cache hits
    differently, nothing else may move. *)
  let points =
    [
      { Sweep.protocol = "weak-ba"; n = 13; f_spec = "t" };
      { Sweep.protocol = "bb"; n = 9; f_spec = "1" };
      { Sweep.protocol = "strong-ba"; n = 9; f_spec = "0" };
    ]
  in
  let baseline = List.map Sweep.row_core_line (Sweep.run_all points) in
  List.iter
    (fun shards ->
      Alcotest.(check (list string))
        (Printf.sprintf "shards=%d" shards)
        baseline
        (List.map Sweep.row_core_line
           (Sweep.run_all
              ~options:{ Instances.default_options with Instances.shards }
              points)))
    [ 2; 4; 8 ]

let sweep_frontier_matches_dense_oracle () =
  (* The event-driven engine end to end. Rows are a pure function of the
     point, so over the frontier grid's small points the event-driven rows
     must be byte-identical to the dense oracle's (every machine's wake
     query ignored, every live process stepping every slot), and the
     parallel pass must match the sequential one. *)
  let points, _capped = Sweep.frontier_grid in
  let points = List.filter (fun (p : Sweep.point) -> p.Sweep.n <= 101) points in
  let report = Sweep.run_perf ~jobs:2 points in
  Alcotest.(check bool) "parallel == sequential" true report.Sweep.identical;
  let oracle =
    Sweep.run_all
      ~options:{ Instances.default_options with Instances.scheduler = `Legacy }
      points
  in
  Alcotest.(check (list string))
    "event-driven == dense oracle"
    (List.map Sweep.row_to_line oracle)
    (List.map Sweep.row_to_line report.Sweep.rows)

let sweep_caches_hit () =
  (* The crypto caches must actually fire on a fallback-heavy point —
     otherwise the hot-path optimization silently regressed. *)
  let row = Sweep.run_point { Sweep.protocol = "weak-ba"; n = 13; f_spec = "t" } in
  let c = row.Sweep.crypto in
  Alcotest.(check bool) "verify cache hit" true (c.Mewc_crypto.Pki.verify_hits > 0);
  Alcotest.(check bool) "aggregate cache hit" true (c.Mewc_crypto.Pki.agg_hits > 0)

let sweep_protocols_registered () =
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " is a registry entry") true
        (List.mem p Registry.names))
    Sweep.protocols

(* ---- allocation per delivered message ----------------------------------- *)

(* Weak BA at f = t with the first t processes crashed sends every correct
   process into the quadratic fallback: the path whose allocation per
   delivered message the mail view and the allocation-free ingestion cut
   from about 59 words to about 25 (n = 201). The run is measured on the
   calling domain, without metrics (their counters allocate); a second,
   identical run counts [engine.messages]. *)
let words_per_message () =
  let cfg = Mewc_sim.Config.optimal ~n:61 in
  let run metrics =
    Instances.run
      (module Instances.Weak_ba_protocol)
      ~cfg
      ~options:{ Instances.default_options with Instances.metrics }
      ~params:
        {
          Instances.Weak_ba_protocol.inputs = Array.make cfg.Mewc_sim.Config.n "v";
          validate = (fun _ -> true);
          quorum_override = None;
        }
      ~adversary:(fun ~pki:_ ~secrets:_ ->
        Mewc_sim.Adversary.crash
          ~victims:(List.init cfg.Mewc_sim.Config.t (fun i -> i + 1))
          ())
      ()
  in
  let before = Gc.minor_words () in
  let o = run None in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "decided" true (o.Instances.status = Instances.Decided);
  let registry = Mewc_obs.Metrics.create () in
  ignore (run (Some registry));
  let messages =
    List.assoc "engine.messages"
      (Mewc_obs.Metrics.snapshot registry).Mewc_obs.Metrics.counter_values
  in
  words /. float_of_int messages

(* 17.7 words at n = 61 (stable over five runs), +24%. *)
let alloc_bound = 22.0

let alloc_per_message_bounded () =
  let w = words_per_message () in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per delivered message (bound %.1f)" w
       alloc_bound)
    true (w < alloc_bound)

(* ---- a broadcast costs the same at any n ---------------------------------

   A reliable broadcast is one entry in the engine's shared broadcast log,
   which every destination's view reads in place. Process 0 posts [k]
   broadcasts in slot 0 and every process reads them in slot 1; words per
   broadcast are the difference of two runs over the extra broadcasts, so
   the run's fixed costs (and the n steps of slot 1) cancel. Posting into
   each of the n pools grew with n: every pool doubled its own vectors. *)
let broadcast_words n =
  let cfg = Mewc_sim.Config.optimal ~n in
  let run k =
    let sends = List.init k (fun i -> Mewc_sim.Process.Broadcast i) in
    let protocol pid =
      {
        Mewc_sim.Process.init = 0;
        step =
          (fun ~slot ~inbox seen ->
            let seen = Mewc_sim.Mail.fold (fun acc _ m -> acc + m) seen inbox in
            (seen, if pid = 0 && slot = 0 then sends else []));
        wake =
          Some
            (fun ~after _ ->
              if pid = 0 && after = 0 then 0 else Mewc_sim.Process.never);
      }
    in
    let before = Gc.minor_words () in
    let o =
      Mewc_sim.Engine.run ~cfg ~words:(fun _ -> 1) ~horizon:3 ~protocol
        ~adversary:(Mewc_sim.Adversary.honest ~name:"honest")
        ()
    in
    let words = Gc.minor_words () -. before in
    Alcotest.(check int)
      (Printf.sprintf "n = %d, k = %d: every process read every broadcast" n k)
      (k * (k - 1) / 2 * n)
      (Array.fold_left ( + ) 0 o.Mewc_sim.Engine.states);
    words
  in
  (run 129 -. run 1) /. 128.0

let broadcast_cost_flat_in_n () =
  let small = broadcast_words 11 and large = broadcast_words 1001 in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "words per broadcast: %.2f at n = 11, %.2f at n = 1001" small
       large)
    small large

(* ---- quiet slots ---------------------------------------------------------

   A slot with no delivery, no wake filed for it and no corrupted process
   costs its clock, its [Slot_start] event and the corruption query, and
   nothing else: n processes that never send ([Process.silent]) under weak
   BA's safety monitors and an honest adversary. Words allocated per extra
   slot are the difference of two horizons over the extra slots, so the
   run's fixed costs cancel. The engine allocated 246 words per quiet slot
   when it built its phases, views and closures slot by slot. *)
let quiet_run ?profile ?(extra = []) ~n ~horizon () =
  let cfg = Mewc_sim.Config.optimal ~n in
  let monitors, _liveness =
    Mewc_sim.Monitor.split
      (Instances.Weak_ba_protocol.monitors ~cfg
         ~params:(Instances.Weak_ba_protocol.default_params cfg))
  in
  let monitors = monitors @ extra in
  Mewc_sim.Engine.run ~cfg
    ~options:
      {
        Mewc_sim.Engine.default_options with
        monitors;
        decided = Some (fun () -> None);
        profile;
      }
    ~words:Instances.Weak_ba_protocol.words ~horizon
    ~protocol:(fun _ -> Mewc_sim.Process.silent ())
    ~adversary:(Mewc_sim.Adversary.honest ~name:"honest")
    ()

let quiet_slot_bound = 24.0

let quiet_slot_words ?(profiled = false) n =
  let words horizon =
    let profile = if profiled then Some (Mewc_sim.Profile.create ()) else None in
    let before = Gc.minor_words () in
    ignore (quiet_run ?profile ~n ~horizon ());
    Gc.minor_words () -. before
  in
  (words 3000 -. words 1000) /. 2000.0

let quiet_slots_allocate_nothing () =
  List.iter
    (fun n ->
      let w = quiet_slot_words n in
      Alcotest.(check bool)
        (Printf.sprintf "n = %d: %.1f words per quiet slot (bound %.0f)" n w
           quiet_slot_bound)
        true (w <= quiet_slot_bound))
    [ 101; 401 ]

let span_count profile name =
  List.fold_left
    (fun acc (r : Mewc_sim.Profile.row) ->
      if r.Mewc_sim.Profile.name = name then acc + r.Mewc_sim.Profile.count
      else acc)
    0 (Mewc_sim.Profile.rows profile)

(* Every slot of the silent run is quiet: the profile holds no deliver,
   step or post span, and the corruption query's time charged in bulk,
   one call per slot. A profiled quiet slot opens no span at all, so it
   stays within the unprofiled allocation bound (a span per slot for the
   query cost about 50 words). *)
let quiet_slots_open_no_spans () =
  let profile = Mewc_sim.Profile.create () in
  let horizon = 500 in
  ignore (quiet_run ~profile ~n:101 ~horizon ());
  let count = span_count profile in
  Alcotest.(check int) "adversary.corrupt once per slot" horizon
    (count "adversary.corrupt");
  List.iter
    (fun name -> Alcotest.(check int) (name ^ " never opened") 0 (count name))
    [ "engine.deliver"; "machine.step"; "engine.post"; "adversary.byz_step" ];
  let w = quiet_slot_words ~profiled:true 101 in
  Alcotest.(check bool)
    (Printf.sprintf "profiled: %.1f words per quiet slot (bound %.0f)" w
       quiet_slot_bound)
    true (w <= quiet_slot_bound)

(* The bulk charge is made when the run raises too, and the row stands
   where the query's first span did: before the first slot's machine
   step. *)
let corrupt_charge_kept () =
  let stop_at = 200 in
  let stop =
    Mewc_sim.Monitor.make ~name:"stop"
      ~on_event:(fun ~violate -> function
        | Mewc_sim.Trace.Slot_start s when s = stop_at -> violate ~slot:s "stop"
        | _ -> ())
      ()
  in
  let profile = Mewc_sim.Profile.create () in
  (match quiet_run ~profile ~extra:[ stop ] ~n:101 ~horizon:500 () with
  | _ -> Alcotest.fail "the stop monitor did not raise"
  | exception Mewc_sim.Monitor.Violation _ -> ());
  Alcotest.(check int) "queries before the violation" stop_at
    (span_count profile "adversary.corrupt");
  let cfg = Mewc_sim.Config.optimal ~n:9 in
  let profile = Mewc_sim.Profile.create () in
  ignore
    (Instances.run
       (module Instances.Weak_ba_protocol)
       ~cfg
       ~options:{ Instances.default_options with Instances.profile = Some profile }
       ~params:(Instances.Weak_ba_protocol.default_params cfg)
       ~adversary:(fun ~pki:_ ~secrets:_ ->
         Mewc_sim.Adversary.honest ~name:"honest")
       ());
  let names =
    List.map (fun (r : Mewc_sim.Profile.row) -> r.Mewc_sim.Profile.name)
      (Mewc_sim.Profile.rows profile)
  in
  let position name =
    let rec go i = function
      | [] -> Alcotest.failf "no %s row" name
      | x :: rest -> if x = name then i else go (i + 1) rest
    in
    go 0 names
  in
  Alcotest.(check bool) "adversary.corrupt before machine.step" true
    (position "adversary.corrupt" < position "machine.step")

(* Signs are charged in bulk the same way: the [crypto.sign] row counts
   exactly the [pki.signs] of the run, keeps the signs made before a raise,
   and stands where the first sign's span did: after the first slot's
   corruption query, before the machine step that signed. *)
let sign_charge_kept () =
  let cfg = Mewc_sim.Config.optimal ~n:9 in
  let run ?monitors () =
    let profile = Mewc_sim.Profile.create () in
    let metrics = Mewc_obs.Metrics.create () in
    let raised =
      match
        Instances.run
          (module Instances.Weak_ba_protocol)
          ~cfg
          ~options:
            {
              Instances.default_options with
              Instances.profile = Some profile;
              metrics = Some metrics;
              monitors;
            }
          ~params:(Instances.Weak_ba_protocol.default_params cfg)
          ~adversary:(fun ~pki:_ ~secrets:_ ->
            Mewc_sim.Adversary.honest ~name:"honest")
          ()
      with
      | _ -> false
      | exception Mewc_sim.Monitor.Violation _ -> true
    in
    let signs =
      List.assoc "pki.signs"
        (Mewc_obs.Metrics.snapshot metrics).Mewc_obs.Metrics.counter_values
    in
    (raised, signs, profile)
  in
  let _, all_signs, profile = run () in
  Alcotest.(check int) "one call per sign" all_signs
    (span_count profile "crypto.sign");
  let names =
    List.map (fun (r : Mewc_sim.Profile.row) -> r.Mewc_sim.Profile.name)
      (Mewc_sim.Profile.rows profile)
  in
  Alcotest.(check (list string)) "row order"
    [ "pki.setup"; "adversary.corrupt"; "crypto.sign"; "machine.step" ]
    (List.filteri (fun i _ -> i < 4) names);
  let stop =
    Mewc_sim.Monitor.make ~name:"stop"
      ~on_event:(fun ~violate -> function
        | Mewc_sim.Trace.Slot_start s when s = 2 -> violate ~slot:s "stop"
        | _ -> ())
      ()
  in
  let raised, signs, profile = run ~monitors:[ stop ] () in
  Alcotest.(check bool) "the stop monitor raised" true raised;
  Alcotest.(check bool) "some signs before the stop, not all" true
    (signs > 0 && signs < all_signs);
  Alcotest.(check int) "signs before the violation" signs
    (span_count profile "crypto.sign")

(* ---- storage sized by what is pending ------------------------------------

   Deterministic size checks with [Obj.reachable_words]: each structure
   below must not keep storage for the whole horizon, or for a one-off
   peak, until the run ends. *)
let reachable x = Obj.reachable_words (Obj.repr x)

(* The ring of chain heads starts at 8 slots, whatever the horizon. *)
let round_buffer_flat_in_last () =
  let small = reachable (Mewc_fallback.Round_buffer.create ~last:10)
  and large = reachable (Mewc_fallback.Round_buffer.create ~last:100_000) in
  Alcotest.(check bool)
    (Printf.sprintf "~last:100_000 holds %d words, ~last:10 holds %d" large small)
    true (large <= small)

(* A king's pool takes about n messages in one slot; clearing it hands
   those vectors back. *)
let pool_hands_back_peak () =
  let pool = Mewc_sim.Mail.Pool.create ~dst:0 ~log:(Mewc_sim.Mail.Log.create ()) in
  for i = 1 to 1000 do
    Mewc_sim.Mail.Pool.push pool ~src:1 ~sent_at:0 ~id:i (string_of_int i)
  done;
  Mewc_sim.Mail.Pool.clear pool;
  let w = reachable pool in
  Alcotest.(check bool) (Printf.sprintf "cleared pool holds %d words (bound 64)" w) true
    (w <= 64)

(* A message vector past 256 entries doubles by appending itself, and the
   new half is overwritten with the message that grew it. After the log is
   cleared (it keeps its storage), that message and the first are the
   only ones still reachable: each message is 1,001 words, the vectors of
   512 entries about 2,000. *)
let grown_vector_keeps_no_stale_message () =
  let log = Mewc_sim.Mail.Log.create () in
  for i = 0 to 256 do
    Mewc_sim.Mail.Log.push log ~src:0 ~sent_at:0 ~first_id:(i * 4)
      (String.make 8000 (Char.chr (i land 0xff)))
  done;
  Mewc_sim.Mail.Log.clear log;
  let w = reachable log in
  Alcotest.(check bool)
    (Printf.sprintf "cleared log holds %d words (bound %d)" w (3 * 1001 + 4096))
    true
    (w <= (3 * 1001) + 4096)

(* Only strong BA's leader collects shares; at n = 1001 its four tallies
   come to about 140 words. *)
let non_leader_reaches_no_tally () =
  let n = 1001 in
  let cfg = Mewc_sim.Config.optimal ~n in
  let pki, secrets = Mewc_crypto.Pki.setup ~seed:7L ~n () in
  let init pid =
    Instances.Strong_bool.init ~cfg ~pki ~secret:secrets.(pid) ~pid ~leader:0
      ~input:true ~start_slot:0
  in
  let base = reachable (pki, secrets.(1), cfg)
  and follower = reachable (init 1)
  and leader = reachable (init 0) in
  Alcotest.(check bool)
    (Printf.sprintf "non-leader state %d words over its pki, leader %d" (follower - base)
       (leader - base))
    true
    (follower - base <= 48 && leader - follower >= 4 * (n / 64))

(* The sweeps run before the pool group: [pool_map_order] spawns up to 100
   domains, and every multi-domain sweep after that runs several times
   slower on OCaml 5.1 (the frontier case: ~1.5 s before, ~10 s after). *)
let () =
  Alcotest.run "perf"
    [
      ( "sweep",
        [
          Alcotest.test_case "parallel byte-identical to sequential" `Quick
            sweep_parallel_identical;
          Alcotest.test_case "reruns deterministic" `Quick sweep_rerun_deterministic;
          Alcotest.test_case "swept protocols are registry entries" `Quick
            sweep_protocols_registered;
          Alcotest.test_case "perf report: identity + mewc-perf/2 round-trip" `Quick
            sweep_report;
          Alcotest.test_case "sharded core rows byte-identical" `Quick
            sweep_sharded_core_rows_identical;
          Alcotest.test_case "frontier n<=101: event-driven == dense oracle"
            `Quick sweep_frontier_matches_dense_oracle;
          Alcotest.test_case "crypto caches fire on fallback path" `Quick
            sweep_caches_hit;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "words per delivered message" `Quick
            alloc_per_message_bounded;
          Alcotest.test_case "broadcast cost flat in n" `Quick
            broadcast_cost_flat_in_n;
          Alcotest.test_case "words per quiet slot" `Quick
            quiet_slots_allocate_nothing;
          Alcotest.test_case "quiet slots open no spans" `Quick
            quiet_slots_open_no_spans;
          Alcotest.test_case "corruption charge kept on raise, in order"
            `Quick corrupt_charge_kept;
          Alcotest.test_case "sign charge kept on raise, in order" `Quick
            sign_charge_kept;
          Alcotest.test_case "round buffer flat in last" `Quick
            round_buffer_flat_in_last;
          Alcotest.test_case "cleared pool hands back its peak" `Quick
            pool_hands_back_peak;
          Alcotest.test_case "grown vector keeps no stale message" `Quick
            grown_vector_keeps_no_stale_message;
          Alcotest.test_case "non-leader reaches no tally" `Quick
            non_leader_reaches_no_tally;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map preserves order at any jobs" `Quick pool_map_order;
          Alcotest.test_case "empty / tiny inputs" `Quick pool_empty_and_tiny;
          Alcotest.test_case "exception surfaces at lowest task index" `Quick
            pool_exception_lowest_index;
          Alcotest.test_case "worker set: reuse across rounds deterministic" `Quick
            workers_reuse_deterministic;
          Alcotest.test_case "worker set: exception at lowest index, set survives"
            `Quick workers_exception_lowest_index;
          Alcotest.test_case "nested run falls back to sequential" `Quick
            nested_run_falls_back_sequential;
          pool_results_match_sequential;
        ] );
    ]
