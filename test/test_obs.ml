(* The observability layer: metrics registry laws (merge commutativity /
   associativity, shard-count and scheduler invariance of snapshots),
   the unified nearest-rank quantile, the injectable-clock heartbeat, the
   report loaders against the committed artifacts, and the report
   generator's determinism plus its tamper-detection exit code.

   The committed BENCH_*.json artifacts and docs/report/ files are declared
   dune deps, so they sit at ../ relative to the test's working directory
   — the same layout `mewc report` sees at the repo root. *)

module Metrics = Mewc_obs.Metrics
module Heartbeat = Mewc_obs.Heartbeat
module Loader = Mewc_report.Loader
module Consistency = Mewc_report.Consistency
module Figure = Mewc_report.Figure
module Report = Mewc_report.Report
module Sweep = Mewc_core.Sweep
module Instances = Mewc_core.Instances
module Jsonx = Mewc_prelude.Jsonx

let artifact_dir = ".."

(* ---- nearest-rank quantile ----------------------------------------------- *)

(* The formula Service used before the unification, verbatim — the
   throughput artifact's p50/p99 columns must never move. *)
let old_service_percentile p sorted =
  match Array.length sorted with
  | 0 -> 0
  | len ->
    let rank = int_of_float (ceil (p *. float_of_int len /. 100.0)) - 1 in
    sorted.(max 0 (min (len - 1) rank))

let test_nearest_rank_matches_service () =
  let samples =
    [
      [||];
      [| 5 |];
      [| 1; 2 |];
      [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 |];
      Array.init 97 (fun i -> (i * i) mod 301);
      Array.init 100 (fun i -> i);
    ]
  in
  List.iter
    (fun a ->
      let sorted = Array.copy a in
      Array.sort compare sorted;
      List.iter
        (fun p ->
          Alcotest.(check int)
            (Printf.sprintf "p%.0f over %d samples" p (Array.length a))
            (old_service_percentile p sorted)
            (Metrics.nearest_rank p sorted))
        [ 0.0; 1.0; 25.0; 50.0; 90.0; 99.0; 100.0 ])
    samples

let test_percentile_of_list () =
  Alcotest.(check int) "median of 1..9" 5
    (Metrics.percentile_of_list 50.0 [ 9; 1; 8; 2; 7; 3; 6; 4; 5 ]);
  Alcotest.(check int) "empty" 0 (Metrics.percentile_of_list 50.0 [])

(* ---- snapshot merge laws -------------------------------------------------- *)

let snap counters gauges hists =
  {
    Metrics.counter_values = counters;
    gauge_values = gauges;
    histogram_values = hists;
  }

let snap_str s = Jsonx.to_string (Metrics.snapshot_to_json s)

let s1 = snap [ ("a", 1); ("b", 10) ] [ ("g", 5) ] [ ("h", [| 1; 0; 2 |]) ]
let s2 = snap [ ("b", 3); ("c", 7) ] [ ("g", 2); ("g2", 9) ] [ ("h", [| 0; 4 |]) ]
let s3 = snap [ ("a", 2) ] [] [ ("h2", [| 1 |]) ]

let test_merge_commutative () =
  Alcotest.(check string)
    "s1+s2 = s2+s1"
    (snap_str (Metrics.merge s1 s2))
    (snap_str (Metrics.merge s2 s1))

let test_merge_associative () =
  Alcotest.(check string)
    "(s1+s2)+s3 = s1+(s2+s3)"
    (snap_str (Metrics.merge (Metrics.merge s1 s2) s3))
    (snap_str (Metrics.merge s1 (Metrics.merge s2 s3)))

let test_merge_semantics () =
  let m = Metrics.merge s1 s2 in
  Alcotest.(check (list (pair string int)))
    "counters sum" [ ("a", 1); ("b", 13); ("c", 7) ] m.Metrics.counter_values;
  Alcotest.(check (list (pair string int)))
    "gauges max" [ ("g", 5); ("g2", 9) ] m.Metrics.gauge_values;
  match m.Metrics.histogram_values with
  | [ ("h", buckets) ] ->
    Alcotest.(check (array int)) "histograms pointwise" [| 1; 4; 2 |] buckets
  | other ->
    Alcotest.failf "unexpected histograms: %d entries" (List.length other)

let test_registered_but_untouched () =
  let reg = Metrics.create () in
  let _c = Metrics.counter reg "never.incremented" in
  let s = Metrics.snapshot reg in
  Alcotest.(check (list (pair string int)))
    "appears as zero" [ ("never.incremented", 0) ] s.Metrics.counter_values

(* ---- shard-count and scheduler invariance -------------------------------- *)

(* One real weak-BA point (f = t, so the fallback path runs too) under
   every (scheduler, shards) combination: the engine/pki counter snapshot
   must be byte-identical across all six runs — the registry's whole
   design contract. *)
let test_snapshot_invariance () =
  let point = { Sweep.protocol = "weak-ba"; n = 9; f_spec = "t" } in
  let snapshot_under ~scheduler ~shards =
    let reg = Metrics.create () in
    let options =
      {
        Instances.default_options with
        Instances.scheduler;
        shards;
        metrics = Some reg;
      }
    in
    let (_ : Sweep.row) = Sweep.run_point ~options point in
    snap_str (Metrics.snapshot reg)
  in
  let baseline = snapshot_under ~scheduler:`Legacy ~shards:1 in
  Alcotest.(check bool) "baseline is non-empty" true (String.length baseline > 2);
  Alcotest.(check bool)
    "engine counters present" true
    (let s = baseline in
     let has sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has "engine.slots" && has "engine.words" && has "pki.signs");
  List.iter
    (fun (scheduler, shards, label) ->
      Alcotest.(check string) label baseline (snapshot_under ~scheduler ~shards))
    [
      (`Legacy, 2, "legacy shards=2");
      (`Legacy, 4, "legacy shards=4");
      (`Event_driven, 1, "event shards=1");
      (`Event_driven, 2, "event shards=2");
      (`Event_driven, 4, "event shards=4");
    ]

(* ---- heartbeat ------------------------------------------------------------ *)

let test_heartbeat_lines () =
  let now = ref 100.0 in
  let lines = ref [] in
  let hb =
    Heartbeat.create ~every:2 ~total:4 ~label:"sweep"
      ~out:(fun l -> lines := l :: !lines)
      ~clock:(fun () -> !now)
      ()
  in
  now := 101.5;
  Heartbeat.tick hb;
  (* count 1: below every=2, silent *)
  Alcotest.(check (list string)) "no line yet" [] !lines;
  Heartbeat.tick hb;
  now := 103.0;
  Heartbeat.tick hb;
  Heartbeat.tick hb;
  Heartbeat.finish hb;
  (* finish after a multiple-of-every tick adds nothing *)
  Alcotest.(check (list string))
    "two lines, oldest last"
    [ "[mewc] sweep 4/4 (100%) 3.0s"; "[mewc] sweep 2/4 (50%) 1.5s" ]
    !lines

let test_heartbeat_finish_flushes () =
  let lines = ref [] in
  let hb =
    Heartbeat.create ~every:10 ~label:"odd"
      ~out:(fun l -> lines := l :: !lines)
      ~clock:(fun () -> 0.0)
      ()
  in
  Heartbeat.tick hb;
  Heartbeat.tick hb;
  Heartbeat.tick hb;
  Alcotest.(check int) "silent below every" 0 (List.length !lines);
  Heartbeat.finish hb;
  Alcotest.(check (list string)) "final line" [ "[mewc] odd 3 0.0s" ] !lines

(* ---- loaders over the committed artifacts --------------------------------- *)

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "loader failed: %s" e

let test_load_all_committed () =
  let a = ok_exn (Loader.load_all ~dir:artifact_dir) in
  Alcotest.(check bool) "perf has rows" true (a.Loader.perf.Loader.rows <> []);
  Alcotest.(check bool)
    "ledger has the ratio baselines" true
    (List.length a.Loader.ledger >= 5);
  Alcotest.(check bool)
    "throughput entry present" true
    (a.Loader.throughput <> []);
  Alcotest.(check bool)
    "degrade cells present" true
    (List.length a.Loader.degrade.Loader.dg_cells > 100);
  Alcotest.(check int) "observability runs" 12 (List.length a.Loader.observability)

let test_committed_artifacts_consistent () =
  let a = ok_exn (Loader.load_all ~dir:artifact_dir) in
  match Consistency.run a with
  | [] -> ()
  | findings -> Alcotest.failf "findings:\n%s" (Consistency.render findings)

let test_loader_missing_dir () =
  match Loader.load_all ~dir:"/nonexistent-mewc-artifacts" with
  | Ok _ -> Alcotest.fail "loading from a missing directory succeeded"
  | Error e -> Alcotest.(check bool) "names the file" true (String.length e > 0)

(* ---- report generation ----------------------------------------------------- *)

let test_generate_deterministic () =
  let a = ok_exn (Loader.load_all ~dir:artifact_dir) in
  let once = Report.generate a and twice = Report.generate a in
  Alcotest.(check int) "file count" (List.length once) (List.length twice);
  List.iter2
    (fun (n1, c1) (n2, c2) ->
      Alcotest.(check string) "name" n1 n2;
      Alcotest.(check string) (n1 ^ " bytes") c1 c2)
    once twice

let test_generate_matches_committed () =
  let a = ok_exn (Loader.load_all ~dir:artifact_dir) in
  let files = Report.generate a in
  Alcotest.(check (list string))
    "no drift against docs/report" []
    (Report.check ~dir:(Filename.concat artifact_dir "docs/report") files)

let test_frontier_csv_shape () =
  let a = ok_exn (Loader.load_all ~dir:artifact_dir) in
  let csv = Figure.frontier_csv a.Loader.perf.Loader.rows in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string)
    "header"
    "protocol,n,t,f_spec,f,words,messages,signatures,paper_bound_n_f1,civit_adaptive_n_tf,king_saia_nsqrtn_log2n"
    (List.hd lines);
  (* one line per row plus the header and the trailing newline *)
  Alcotest.(check int)
    "row count"
    (List.length a.Loader.perf.Loader.rows + 2)
    (List.length lines)

(* ---- the CLI: alias identity and tamper detection -------------------------- *)

let mewc = Filename.concat (Filename.concat ".." "bin") "mewc.exe"

let run_out args =
  let tmp = Filename.temp_file "mewc-obs" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s >%s 2>/dev/null" (Filename.quote mewc) args
             (Filename.quote tmp))
      in
      (code, In_channel.with_open_text tmp In_channel.input_all))

let read_file path = In_channel.with_open_text path In_channel.input_all

(* `perf frontier-csv` must produce the exact bytes of the committed
   frontier.csv when pointed at the same ledger entry — the alias and the
   report can never disagree. Entry 1 is the frontier-grid entry the
   committed report is built from. *)
let test_frontier_csv_alias_identity () =
  let code, out =
    run_out
      (Printf.sprintf "perf frontier-csv --ledger %s 1"
         (Filename.concat artifact_dir "BENCH_ledger.json"))
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check string)
    "byte-identical to docs/report/frontier.csv"
    (read_file (Filename.concat artifact_dir "docs/report/frontier.csv"))
    out

let with_scratch_artifacts f =
  let dir = Filename.temp_file "mewc-report" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Unix.mkdir (Filename.concat dir "docs") 0o755;
  Unix.mkdir (Filename.concat dir "docs/report") 0o755;
  let copy src dst =
    let contents = read_file src in
    Out_channel.with_open_text dst (fun oc ->
        Out_channel.output_string oc contents)
  in
  List.iter
    (fun name ->
      copy (Filename.concat artifact_dir name) (Filename.concat dir name))
    [
      "BENCH_perf.json";
      "BENCH_ledger.json";
      "BENCH_throughput.json";
      "BENCH_degrade.json";
      "BENCH_observability.json";
    ];
  let report_src = Filename.concat artifact_dir "docs/report" in
  Array.iter
    (fun name ->
      copy
        (Filename.concat report_src name)
        (Filename.concat dir (Filename.concat "docs/report" name)))
    (Sys.readdir report_src);
  Fun.protect
    ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
          Unix.rmdir path
        end
        else Sys.remove path
      in
      rm dir)
    (fun () -> f dir)

(* A perf document written now (no shard members) and the committed one
   (which still carries them) both load, and neither raises a finding:
   the fresh one is checked beside copies of the other four artifacts. *)
let test_fresh_and_committed_perf_load () =
  with_scratch_artifacts (fun dir ->
      let report = Sweep.run_perf ~jobs:2 Sweep.smoke_grid in
      Out_channel.with_open_text (Filename.concat dir "BENCH_perf.json")
        (fun oc ->
          Out_channel.output_string oc
            (Jsonx.to_string (Sweep.report_to_json report)));
      List.iter
        (fun (what, d) ->
          let a = ok_exn (Loader.load_all ~dir:d) in
          Alcotest.(check bool) (what ^ " parallel identity") true
            a.Loader.perf.Loader.parallel_identical;
          match Consistency.run a with
          | [] -> ()
          | findings ->
            Alcotest.failf "%s findings:\n%s" what (Consistency.render findings))
        [ ("fresh", dir); ("committed", artifact_dir) ])

let test_check_clean_copy () =
  with_scratch_artifacts (fun dir ->
      let code, _ = run_out (Printf.sprintf "report --check --dir %s" dir) in
      Alcotest.(check int) "exit 0 on a faithful copy" 0 code)

let test_check_catches_tampered_ledger () =
  with_scratch_artifacts (fun dir ->
      (* inflate one word count in the ledger: the smoke-replay invariant
         (and the regenerated figures) must both notice *)
      let path = Filename.concat dir "BENCH_ledger.json" in
      let contents = read_file path in
      let needle = "\"words\":144" in
      let idx =
        let n = String.length contents and m = String.length needle in
        let rec go i =
          if i + m > n then
            Alcotest.fail "ledger fixture lost its bb n=9 row (words=144)"
          else if String.sub contents i m = needle then i
          else go (i + 1)
        in
        go 0
      in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (String.sub contents 0 idx);
          Out_channel.output_string oc "\"words\":9144";
          Out_channel.output_string oc
            (String.sub contents
               (idx + String.length needle)
               (String.length contents - idx - String.length needle)));
      let code, _ = run_out (Printf.sprintf "report --check --dir %s" dir) in
      Alcotest.(check int) "exit 3 on a tampered row" 3 code)

let () =
  Alcotest.run "obs"
    [
      ( "quantiles",
        [
          Alcotest.test_case "nearest-rank = old Service formula" `Quick
            test_nearest_rank_matches_service;
          Alcotest.test_case "percentile_of_list" `Quick test_percentile_of_list;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "merge commutative" `Quick test_merge_commutative;
          Alcotest.test_case "merge associative" `Quick test_merge_associative;
          Alcotest.test_case "merge semantics" `Quick test_merge_semantics;
          Alcotest.test_case "registered-but-untouched is zero" `Quick
            test_registered_but_untouched;
          Alcotest.test_case "snapshot invariant over shards x scheduler" `Quick
            test_snapshot_invariance;
        ] );
      ( "heartbeat",
        [
          Alcotest.test_case "every/total lines" `Quick test_heartbeat_lines;
          Alcotest.test_case "finish flushes a partial count" `Quick
            test_heartbeat_finish_flushes;
        ] );
      ( "loaders",
        [
          Alcotest.test_case "all five committed artifacts load" `Quick
            test_load_all_committed;
          Alcotest.test_case "fresh and committed perf documents load" `Quick
            test_fresh_and_committed_perf_load;
          Alcotest.test_case "committed artifacts are consistent" `Quick
            test_committed_artifacts_consistent;
          Alcotest.test_case "missing directory is an error" `Quick
            test_loader_missing_dir;
        ] );
      ( "report",
        [
          Alcotest.test_case "generation is deterministic" `Quick
            test_generate_deterministic;
          Alcotest.test_case "regeneration matches docs/report" `Quick
            test_generate_matches_committed;
          Alcotest.test_case "frontier csv shape" `Quick test_frontier_csv_shape;
          Alcotest.test_case "frontier-csv alias is byte-identical" `Quick
            test_frontier_csv_alias_identity;
          Alcotest.test_case "--check ok on a faithful copy" `Quick
            test_check_clean_copy;
          Alcotest.test_case "--check exits 3 on a tampered ledger row" `Quick
            test_check_catches_tampered_ledger;
        ] );
    ]
