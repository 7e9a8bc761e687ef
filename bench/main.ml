(* `dune exec bench/main.exe` regenerates every table and figure of the
   paper (see DESIGN.md §3 for the experiment index), runs the perf sweep
   (sequential vs domain-parallel vs intra-run sharded, BENCH_perf.json,
   schema mewc-perf/2) and
   then Bechamel wall-clock benchmarks — one Test.make per Table-1 row.

   Flags:
     --no-timings   skip the Bechamel stage
     --jobs N       domains for the parallel perf pass (default: all cores)
     --smoke        CI gate: only the small perf grid, parallel vs
                    sequential, exit 1 if outputs differ (no files written)
     --frontier-smoke  CI gate for the event-driven engine: sweep the
                    frontier grid's n <= 101 points event-driven, then
                    replay them under the dense oracle (every process
                    steps every slot) and exit 1 unless the rows are
                    byte-identical
     --ledger FILE  append the perf sweep to the given mewc-ledger/1 file
     --rev REV      git revision to record in the ledger entry (the bench
                    never shells out; default "unknown")
     --date DATE    date to record in the ledger entry (default "unknown") *)

open Mewc_sim
open Mewc_core
module Wp = Instances.Weak_ba_protocol
module Bp = Instances.Bb_protocol
module Sp = Instances.Strong_ba_protocol
module Fp = Instances.Fallback_protocol
module Ds = Instances.Dolev_strong_protocol

let run_tables () =
  List.iter
    (fun rendered ->
      print_string rendered;
      print_newline ())
    (Experiments.all_tables ())

(* ---- Bechamel timings: one benchmark per Table-1 row -------------------- *)

let honest ~pki ~secrets =
  Adversary.const (Adversary.honest ~name:"honest") ~pki ~secrets

let crash_first f ~pki ~secrets =
  Adversary.const
    (Adversary.crash ~victims:(List.init f (fun i -> i + 1)) ())
    ~pki ~secrets

let cfg n = Config.optimal ~n

let bench_tests =
  let n = 21 in
  let t = (cfg n).Config.t in
  let open Bechamel in
  [
    Test.make ~name:"table1/bb n=21 f=0" (Staged.stage (fun () ->
        ignore (Instances.run (module Bp) ~cfg:(cfg n) ~params:(Bp.default_params (cfg n)) ~adversary:honest ())));
    Test.make ~name:"table1/bb n=21 f=t" (Staged.stage (fun () ->
        ignore (Instances.run (module Bp) ~cfg:(cfg n) ~params:(Bp.default_params (cfg n)) ~adversary:(crash_first t) ())));
    Test.make ~name:"table1/weak-ba n=21 f=0" (Staged.stage (fun () ->
        ignore
          (Instances.run (module Wp) ~cfg:(cfg n) ~params:(Wp.default_params (cfg n))
             ~adversary:honest ())));
    Test.make ~name:"table1/weak-ba n=21 f=t" (Staged.stage (fun () ->
        ignore
          (Instances.run (module Wp) ~cfg:(cfg n) ~params:(Wp.default_params (cfg n))
             ~adversary:(crash_first t) ())));
    Test.make ~name:"table1/strong-ba n=21 f=0" (Staged.stage (fun () ->
        ignore
          (Instances.run (module Sp) ~cfg:(cfg n) ~params:(Sp.default_params (cfg n))
             ~adversary:honest ())));
    Test.make ~name:"table1/strong-ba n=21 f=1" (Staged.stage (fun () ->
        ignore
          (Instances.run (module Sp) ~cfg:(cfg n) ~params:(Sp.default_params (cfg n))
             ~adversary:(crash_first 1) ())));
    Test.make ~name:"table1/a-fallback n=21 f=0" (Staged.stage (fun () ->
        ignore
          (Instances.run (module Fp) ~cfg:(cfg n) ~params:(Fp.default_params (cfg n))
             ~adversary:honest ())));
    Test.make ~name:"baseline/dolev-strong n=21 f=0" (Staged.stage (fun () ->
        ignore
          (Instances.run (module Ds) ~cfg:(cfg n) ~params:(Ds.default_params (cfg n))
             ~adversary:honest ())));
  ]

let run_timings () =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let benchmark test =
    let cfg_b = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
    Benchmark.all cfg_b instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  print_endline "[PERF] Bechamel wall-clock per run (monotonic clock):";
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"t1" [ test ]) in
      let analysis = analyze results in
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] ->
            Printf.printf "  %-40s %12.0f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "  %-40s (no estimate)\n%!" name)
        analysis)
    bench_tests

let write_observability () =
  let path = "BENCH_observability.json" in
  let oc = open_out path in
  output_string oc (Mewc_prelude.Jsonx.to_string (Experiments.observability_json ()));
  output_char oc '\n';
  close_out oc;
  Printf.printf "[OBS] wrote %s (per-slot word series for the Table-1 rows)\n%!"
    path

(* ---- perf baseline: sequential vs domain-parallel sweep ------------------ *)

let print_report (r : Sweep.report) =
  Printf.printf
    "[PERF-SWEEP] %d points, %d cores (%s), jobs=%d: sequential %.2fs, \
     parallel %.2fs, speedup %.2fx, parallel %s sequential\n%!"
    (List.length r.Sweep.rows) r.Sweep.cores r.Sweep.parallelism r.Sweep.jobs
    r.Sweep.sequential_s r.Sweep.parallel_s r.Sweep.speedup
    (if r.Sweep.identical then "==" else "!=");
  List.iter
    (fun (shards, wall) ->
      Printf.printf "[PERF-SWEEP]   shards=%-2d %.2fs\n%!" shards wall)
    r.Sweep.shard_wall_s;
  if r.Sweep.shard_wall_s <> [] then
    Printf.printf "[PERF-SWEEP]   sharded %s sequential\n%!"
      (if r.Sweep.shards_identical then "==" else "!=")

let run_perf ~jobs ~ledger ~rev ~date =
  let profile = Profile.create () in
  let report = Sweep.run_perf ?jobs ~profile Sweep.standard_grid in
  print_report report;
  print_string (Profile.flame profile);
  let path = "BENCH_perf.json" in
  let oc = open_out path in
  output_string oc (Mewc_prelude.Jsonx.to_string (Sweep.report_to_json report));
  output_char oc '\n';
  close_out oc;
  Printf.printf "[PERF-SWEEP] wrote %s (schema mewc-perf/2)\n%!" path;
  if not report.Sweep.identical then begin
    prerr_endline "[PERF-SWEEP] FATAL: parallel sweep diverged from sequential";
    exit 1
  end;
  if not report.Sweep.shards_identical then begin
    prerr_endline "[PERF-SWEEP] FATAL: sharded sweep diverged from sequential";
    exit 1
  end;
  match ledger with
  | None -> ()
  | Some path -> (
    let entry = Ledger.of_report ~rev ~date ~grid:"standard" ~profile report in
    match Ledger.append path entry with
    | Ok count ->
      Printf.printf "[PERF-SWEEP] appended %s@%s to %s (%d entries)\n%!" rev
        date path count
    | Error e ->
      Printf.eprintf "[PERF-SWEEP] FATAL: ledger append failed: %s\n" e;
      exit 1)

let run_smoke ~jobs =
  (* The CI gate: big enough to cross the fallback threshold, fast enough
     to run on every build. A divergence between the parallel and
     sequential pass — or any monitor violation inside a run — fails it. *)
  let jobs = match jobs with Some j -> Some j | None -> Some 2 in
  let report = Sweep.run_perf ?jobs ~shard_counts:[ 1; 2 ] Sweep.smoke_grid in
  print_report report;
  List.iter (fun r -> print_endline ("  " ^ Sweep.row_to_line r)) report.Sweep.rows;
  if not report.Sweep.identical then begin
    prerr_endline "[SMOKE] FATAL: parallel sweep diverged from sequential";
    exit 1
  end;
  if not report.Sweep.shards_identical then begin
    prerr_endline "[SMOKE] FATAL: sharded sweep diverged from sequential";
    exit 1
  end;
  print_endline
    "[SMOKE] ok: parallel and sharded sweeps byte-identical to sequential"

let run_frontier_smoke ~jobs =
  (* The event-driven engine's CI gate. Rows are a pure function of the
     point (each builds its own seed, PKI and RNG), so the event-driven
     engine and its dense oracle (every machine's wake query ignored) must
     render every row byte-identically — the engine-diff test suite proves
     it per message, this gate re-proves it end to end on every build over
     the frontier grid's small points. *)
  let points, _capped = Sweep.frontier_grid in
  let points = List.filter (fun (p : Sweep.point) -> p.Sweep.n <= 101) points in
  let jobs = match jobs with Some j -> Some j | None -> Some 2 in
  let report = Sweep.run_perf ?jobs ~shard_counts:[ 1; 2 ] points in
  print_report report;
  if not report.Sweep.identical then begin
    prerr_endline "[FRONTIER] FATAL: parallel sweep diverged from sequential";
    exit 1
  end;
  if not report.Sweep.shards_identical then begin
    prerr_endline "[FRONTIER] FATAL: sharded sweep diverged from sequential";
    exit 1
  end;
  let oracle =
    Sweep.run_all
      ~options:{ Instances.default_options with Instances.scheduler = `Legacy }
      points
  in
  let lines rows = List.map Sweep.row_to_line rows in
  if not (List.equal String.equal (lines report.Sweep.rows) (lines oracle))
  then begin
    prerr_endline
      "[FRONTIER] FATAL: event-driven rows diverged from the dense oracle";
    exit 1
  end;
  Printf.printf
    "[FRONTIER] ok: %d event-driven points byte-identical to the dense \
     oracle\n\
     %!"
    (List.length points)

let () =
  let argv = Array.to_list Sys.argv in
  let skip_timings = List.mem "--no-timings" argv in
  let smoke = List.mem "--smoke" argv in
  let string_flag name =
    let rec find = function
      | flag :: v :: _ when String.equal flag name -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let jobs =
    match string_flag "--jobs" with
    | None -> None
    | Some v -> (
      match int_of_string_opt v with
      | Some j when j >= 1 -> Some j
      | _ -> failwith "bench: --jobs expects a positive integer")
  in
  let ledger = string_flag "--ledger" in
  let rev = Option.value (string_flag "--rev") ~default:"unknown" in
  let date = Option.value (string_flag "--date") ~default:"unknown" in
  if List.mem "--frontier-smoke" argv then run_frontier_smoke ~jobs
  else if smoke then run_smoke ~jobs
  else begin
    run_tables ();
    write_observability ();
    run_perf ~jobs ~ledger ~rev ~date;
    if not skip_timings then run_timings ()
  end
