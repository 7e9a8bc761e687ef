(* CLI argument parsing for every mewc subcommand, exercised through the
   real binary, pinning the exit-code contract: 0 success, 1 misuse or
   operational failure, 2 a stall (safety held, some correct process never
   decided), 3 a finding (fuzz violation / perf regression / unsafe chaos
   cell), 124 parse errors — both cmdliner's own and ours (malformed or
   foreign-schema JSON inputs).

   The binary is a declared dune dependency of this test, so it is always
   present at ../bin/mewc.exe relative to the test's working directory. *)

let mewc = Filename.concat (Filename.concat ".." "bin") "mewc.exe"

(* Run [mewc args], muting output; returns the exit code. *)
let run args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote mewc) args)

(* Run [mewc args] and capture stdout (stderr with [~stderr:true]). *)
let run_out ?(stderr = false) args =
  let tmp = Filename.temp_file "mewc-cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf
             (if stderr then "%s %s 2>%s >/dev/null" else "%s %s >%s 2>/dev/null")
             (Filename.quote mewc) args (Filename.quote tmp))
      in
      (code, In_channel.with_open_text tmp In_channel.input_all))

let check_code name expected args =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check int) (Printf.sprintf "mewc %s" args) expected (run args))

let cli_error = 124

let help_cases =
  [
    check_code "mewc --help" 0 "--help";
    check_code "run --help" 0 "run --help";
    check_code "trace --help" 0 "trace --help";
    check_code "bench --help" 0 "bench --help";
    check_code "fuzz --help" 0 "fuzz --help";
    check_code "perf --help" 0 "perf --help";
    check_code "perf diff --help" 0 "perf diff --help";
    check_code "chaos --help" 0 "chaos --help";
    check_code "throughput --help" 0 "throughput --help";
    check_code "report --help" 0 "report --help";
    check_code "wire --help" 0 "wire --help";
  ]

let error_cases =
  [
    check_code "unknown subcommand" cli_error "frobnicate";
    check_code "unknown flag" cli_error "run --bogus-flag";
    check_code "missing required -p" cli_error "run";
    check_code "bad protocol name" cli_error "run -p not-a-protocol";
    check_code "bad trace format" cli_error "trace -p bb --format yaml";
    check_code "non-int count" cli_error "fuzz --target weak-ba --count many";
    check_code "replay of missing file" cli_error "fuzz --replay /nonexistent.json";
    check_code "replay-dir of missing dir" cli_error "fuzz --replay-dir /nonexistent-dir";
    (* --shards is retired from every command: cmdliner's unknown option *)
    check_code "retired run --shards" cli_error "run -p weak-ba -n 9 --shards 2";
  ]

let test_fuzz_requires_mode () =
  (* no --target and no mode flag: a usage error from fuzz itself, not
     cmdliner — distinct code 1 *)
  Alcotest.(check int) "fuzz alone" 1 (run "fuzz")

let test_fuzz_list () =
  let code, out = run_out "fuzz --list" in
  Alcotest.(check int) "exit 0" 0 code;
  List.iter
    (fun name ->
      Alcotest.(check bool) name true
        (List.mem name
           (List.concat_map
              (fun l -> String.split_on_char ' ' l)
              (String.split_on_char '\n' out))))
    [ "fallback"; "weak-ba"; "weak-ba-ablated"; "bb"; "binary-bb"; "strong-ba" ]

let test_fuzz_clean_campaign () =
  (* tiny sound campaign: exits 0 (no violation) *)
  Alcotest.(check int) "clean exit" 0
    (run "fuzz --target weak-ba --count 8 --seed 3 -j 2")

let test_fuzz_unknown_target () =
  Alcotest.(check int) "unknown target" 1 (run "fuzz --target nonesuch")

let test_fuzz_rejects_tampered_entry () =
  (* a well-formed corpus entry whose recorded violation cannot reproduce *)
  let tmp = Filename.temp_file "mewc-cli" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Out_channel.with_open_text tmp (fun oc ->
          output_string oc
            {|{"schema":"mewc-fuzz/1","target":"weak-ba","n":9,"t":4,
               "scenario":{"seed":"1","shuffle":null,"corruptions":[]},
               "violation":{"monitor":"agreement","slot":3,"reason":"planted"}}|});
      Alcotest.(check int) "tampered entry rejected" 1
        (run (Printf.sprintf "fuzz --replay %s" (Filename.quote tmp))))

let test_fuzz_rejects_foreign_schema () =
  let tmp = Filename.temp_file "mewc-cli" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Out_channel.with_open_text tmp (fun oc ->
          output_string oc {|{"schema":"mewc-trace/2","events":[]}|});
      (* a parse-level rejection, so the parse-error code, not misuse *)
      Alcotest.(check int) "foreign schema rejected" 124
        (run (Printf.sprintf "fuzz --replay %s" (Filename.quote tmp))))

(* ---- the retired --scheduler flag --------------------------------------- *)

(* The engine runs event-driven everywhere; the dense oracle is a test-side
   engine option, not a flag. Stale scripts that still pass --scheduler
   fail loudly with cmdliner's parse error on every surface that had it. *)
let scheduler_cases =
  [
    check_code "run rejects event-driven" cli_error
      "run -p weak-ba -n 9 --scheduler event-driven";
    check_code "run rejects unknown scheduler" cli_error
      "run -p weak-ba -n 9 --scheduler nonesuch";
    check_code "bench rejects unknown scheduler" cli_error
      "bench --smoke --scheduler nonesuch";
    check_code "baselines reject event-driven" cli_error
      "run -p dolev-strong -n 5 --scheduler event-driven";
    check_code "bench --smoke --frontier is misuse" 1 "bench --smoke --frontier";
  ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---- run / trace goldens ---------------------------------------------- *)

(* SHA-256 of the full stdout of `mewc ARGS` (n = 9, seed 1): the decision
   lines, the run summary and the trace JSON of the paper's protocols, each
   honest, under crash-first and under its named attacks. They pin the CLI's
   output byte for byte across refactors of its protocol dispatch. *)
let stdout_goldens =
  [
    ("run -p bb",
     "e46b0a4e4ac13b2767a7c5ec9d3dae1b781f198347053b53617a8c916f99f7d7");
    ("run -p bb -a crash -f 2",
     "acbec0142e42f7c36461b90e6faf043441504c94fda810c964e6ea84ca3abd7b");
    ("run -p bb -a equivocating-sender -f 2",
     "b7f08526cd4c35efcdbeb013adaec8ab886081eb307a616d06375bacdbea4e23");
    ("run -p weak-ba",
     "a45e258deec8123041b96806fc180fc1de301a5c548178dd58364f5fcbd86456");
    ("run -p weak-ba -a crash -f 2",
     "7dffebd140335db65ed7714d729a2a4bbb27f8aee269d257d89785a9f61eb881");
    ("run -p weak-ba -a busy-leaders -f 2",
     "4362afda2092d7240e3bf0983c6551778f416700759da02b6f8fb690563c88c0");
    ("run -p weak-ba -a lonely-decider -f 2",
     "564ed665a4670a735f5d6967de69530ad63481ae0571dc2f1560bb946d7c8876");
    ("run -p weak-ba -a help-spam -f 2",
     "7fe0302b5718c129374d8f31856831aa3890b2f7cc23e27a6c346cdd112f0034");
    ("run -p strong-ba",
     "48809cce1dbb57488c5455f7b2b79cc1303d209e915df0424d90262118b09dd7");
    ("run -p strong-ba -a crash -f 2",
     "e894c44288794be93793f07e0c22a8dd1eefa594a0cb806b5feae59553c94c81");
    ("run -p strong-ba -a withholding-leader -f 2",
     "14bd31f882f7dca98b58e67b9678c20eaa32cfa2e1dddf44c104b8e5d937b61a");
    ("run -p fallback",
     "bf6a40c32be1a789a7aab9a307a396f7db3f4326e6ba6cd85f538f8476fe3bf3");
    ("run -p fallback -a crash -f 2",
     "4391859e38a999ad457a5ade918c2946dd27ea92e3686c91590496d85332bbb4");
    ("run -p fallback -a equivocating-king -f 2",
     "8129f77310549f2a68c0e524f99535f2b427ae8cf487fba963105f57e7303656");
    ("trace -p bb -n 9",
     "b9b052bad89ab7756acd04a60a3d8a10601ea79f8c6daa73389d9074d9fe0bf2");
    ("trace -p bb -n 9 -a crash -f 2",
     "22afc7f9e077887c9c700a316e89e94bfe9490c9386402e2998e5ef6fcef414d");
    ("trace -p weak-ba -n 9",
     "e4e3cf462a539dd00fed18a888ff46be87743aa2da0680b7c3745dedc9528a28");
    ("trace -p weak-ba -n 9 -a crash -f 2",
     "802fa90a621d4c5a7d0ccba8da9dbca29e3c957418d21f87567a917f99b78770");
    ("trace -p strong-ba -n 9",
     "b7565ba1418ee0976a80c583c134e4e9fa1bd73342223eff426ce109c784e7b7");
    ("trace -p strong-ba -n 9 -a crash -f 2",
     "762bd6aed72015de0a7f6e196bf7a6c31a7603a55b8a0fc6cb8f1525245c752d");
    ("trace -p fallback -n 9",
     "bf461fe68212ba810a7ea781122e25859d9ffb9c8781ef52a8b2fc95212015f1");
    ("trace -p fallback -n 9 -a crash -f 2",
     "b1fe6566023ed75244fb160d90a6670d7ea0fb158c63d8811eb58869fe4f3633");
  ]

let stdout_golden (args, digest) =
  Alcotest.test_case args `Quick (fun () ->
      let code, out = run_out args in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check string) "stdout digest" digest
        Mewc_crypto.Sha256.(to_hex (digest out)))

(* The baselines: which processes decided "value", and the run's words,
   messages and signatures, read off the standard run summary. *)
let baseline_goldens =
  [
    ("run -p dolev-strong", List.init 9 Fun.id, (208, 72, 9));
    ("run -p dolev-strong -a crash -f 2", [ 0; 3; 4; 5; 6; 7; 8 ], (160, 56, 7));
    ("run -p dolev-strong -a staggered -f 3", [ 0; 4; 5; 6; 7; 8 ], (184, 64, 8));
    ("run -p naive-bb", List.init 9 Fun.id, (816, 328, 29));
    ("run -p naive-bb -a crash -f 2", [ 0; 3; 4; 5; 6; 7; 8 ], (688, 274, 23));
    ("run -p naive-bb -a staggered -f 3", [ 0; 4; 5; 6; 7; 8 ], (650, 261, 22));
  ]

let lines s = String.split_on_char '\n' s

(* The integer at the end of the summary line starting with [label]. *)
let summary_int out label =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix:("  " ^ label) l then
        List.rev (String.split_on_char ' ' l) |> List.hd |> int_of_string_opt
      else None)
    (lines out)

let baseline_counts out =
  match
    ( summary_int out "words (correct senders)",
      summary_int out "messages",
      summary_int out "signatures created" )
  with
  | Some w, Some m, Some s -> Some (w, m, s)
  | _ -> None

let baseline_golden (args, decided, counts) =
  Alcotest.test_case args `Quick (fun () ->
      let code, out = run_out args in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check (list string))
        "decision lines"
        (List.map (Printf.sprintf "  p%-3d decided \"value\"") decided)
        (List.filter (fun l -> contains l " decided ") (lines out));
      Alcotest.(check (option (triple int int int)))
        "words, messages, signatures" (Some counts) (baseline_counts out))

(* ---- trace cone / unsupported combinations ------------------------------ *)

let trace_cases =
  [
    check_code "cone out of range" 1 "trace -p bb -n 9 --cone 99";
    check_code "cone on a baseline protocol" 0 "trace -p dolev-strong --cone 0";
    check_code "profile on a baseline protocol" 0 "run -p dolev-strong --profile";
    check_code "trace binary-bb" 0 "trace -p binary-bb -n 9 -a crash -f 2";
  ]

(* The frontier's memory gate reads from one command. *)
let test_profile_prints_peak_heap () =
  let code, out = run_out "run -p weak-ba -n 9 -a crash -f 4 --profile" in
  Alcotest.(check int) "exit 0" 0 code;
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains out needle))
    [ "peak heap words: "; " per process pair, n = 9)" ]

let test_trace_cone_dot_is_graphviz () =
  let code, out = run_out "trace -p weak-ba -n 9 -a crash -f 2 --cone 5 --dot" in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "digraph header" true
    (String.length out > 0
    && String.starts_with ~prefix:"digraph causality {" out);
  Alcotest.(check bool) "closing brace" true
    (String.length out >= 2 && String.sub out (String.length out - 2) 2 = "}\n")

(* ---- perf: ledger surface ------------------------------------------------ *)

let in_temp_ledger f =
  let tmp = Filename.temp_file "mewc-cli-ledger" ".json" in
  Sys.remove tmp;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () -> f tmp)

let test_perf_diff_requires_selectors () =
  in_temp_ledger (fun l ->
      Alcotest.(check int) "no selectors" 1
        (run (Printf.sprintf "perf diff --ledger %s" (Filename.quote l))))

let test_perf_rejects_malformed_ledger () =
  in_temp_ledger (fun l ->
      Out_channel.with_open_text l (fun oc -> output_string oc "not json");
      Alcotest.(check int) "malformed json" 124
        (run (Printf.sprintf "perf list --ledger %s" (Filename.quote l))))

let test_perf_rejects_foreign_schema () =
  in_temp_ledger (fun l ->
      Out_channel.with_open_text l (fun oc ->
          output_string oc {|{"schema":"mewc-perf/1","entries":[]}|});
      Alcotest.(check int) "foreign schema" 124
        (run (Printf.sprintf "perf list --ledger %s" (Filename.quote l))))

let test_perf_missing_entry_is_misuse () =
  in_temp_ledger (fun l ->
      (* an empty (absent) ledger parses fine; selecting from it is misuse *)
      Alcotest.(check int) "index out of range" 1
        (run (Printf.sprintf "perf diff --ledger %s 0 1" (Filename.quote l))))

(* The end-to-end exit-code contract of `perf diff`: append one smoke entry,
   self-diff to exit 0, then plant a doubled-words entry via the Ledger
   library and require exit 3. *)
let test_perf_append_then_diff_codes () =
  in_temp_ledger (fun l ->
      let ql = Filename.quote l in
      Alcotest.(check int) "append" 0
        (run
           (Printf.sprintf
              "perf append --smoke --ledger %s --rev aaa --date 2026-08-06" ql));
      Alcotest.(check int) "self-diff exits 0" 0
        (run (Printf.sprintf "perf diff --ledger %s -- -1 -1" ql));
      let entries =
        match Mewc_core.Ledger.load l with
        | Ok es -> es
        | Error e -> Alcotest.fail e
      in
      let doubled =
        match entries with
        | [ e ] ->
          {
            e with
            Mewc_core.Ledger.rev = "bbb";
            rows =
              List.map
                (fun (r : Mewc_core.Sweep.row) ->
                  { r with Mewc_core.Sweep.words = 2 * r.Mewc_core.Sweep.words })
                e.Mewc_core.Ledger.rows;
          }
        | _ -> Alcotest.fail "expected exactly one entry"
      in
      Mewc_core.Ledger.save l (entries @ [ doubled ]);
      Alcotest.(check int) "doubled words exit 3" 3
        (run (Printf.sprintf "perf diff --ledger %s aaa bbb" ql));
      Alcotest.(check int) "improvement exits 0" 0
        (run (Printf.sprintf "perf diff --ledger %s bbb aaa" ql)))

let test_perf_smoke_gate () =
  Alcotest.(check int) "perf smoke" 0 (run "perf smoke")

(* `bench` runs the sweep and its identity gate end to end; the shard
   passes are gone from its output. *)
let test_bench_smoke () =
  let code, out = run_out "bench --smoke" in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "parallel identity line" true
    (contains out "parallel output == sequential output");
  Alcotest.(check bool) "no shard lines" false
    (contains out "shards=" || contains out "sharded output")

(* ---- throughput: the repeated-BA service --------------------------------- *)

let throughput_cases =
  [
    check_code "single cell exits 0" 0
      "throughput -n 9 --workload steady --depth deep";
    (* workload/depth are validated in the command body: misuse (1), not a
       cmdliner parse error (124) *)
    check_code "unknown workload" 1 "throughput --workload nonesuch";
    check_code "unknown depth" 1 "throughput --depth nonesuch";
    (* the retired --scheduler flag is a parse error here too *)
    check_code "unknown scheduler" cli_error
      "throughput --smoke --scheduler nonesuch";
    (* so is the retired --shards flag *)
    check_code "zero shards" cli_error "throughput --smoke --shards 0";
    check_code "unknown flag" cli_error "throughput --bogus-flag";
    check_code "non-int n" cli_error "throughput -n many";
  ]

let test_throughput_rejects_malformed_ledger () =
  in_temp_ledger (fun l ->
      Out_channel.with_open_text l (fun oc -> output_string oc "not json");
      Alcotest.(check int) "malformed ledger" 124
        (run
           (Printf.sprintf
              "throughput -n 9 --workload steady --depth seq --ledger %s"
              (Filename.quote l))))

let test_throughput_ledger_roundtrip () =
  in_temp_ledger (fun l ->
      let ql = Filename.quote l in
      let append rev =
        run
          (Printf.sprintf
             "throughput -n 9 --workload steady --depth half --rev %s \
              --date 2026-08-07 --ledger %s"
            rev ql)
      in
      Alcotest.(check int) "first append" 0 (append "aaa");
      Alcotest.(check int) "second append" 0 (append "bbb");
      match Mewc_core.Throughput.load l with
      | Ok [ _; _ ] -> ()
      | Ok es -> Alcotest.failf "loaded %d entries" (List.length es)
      | Error e -> Alcotest.fail e)

let test_throughput_smoke_gate () =
  let code, out = run_out "throughput --smoke" in
  Alcotest.(check int) "smoke exit 0" 0 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains out needle))
    [ "dec/1k"; "retention"; "smoke ok" ]

(* --progress is strictly an observer: stdout (and so every JSON artifact
   written from it) must be byte-identical with and without the flag. *)
let test_progress_is_invisible () =
  let args = "throughput -n 9 --workload steady --depth seq" in
  let code_off, out_off = run_out args in
  let code_on, out_on = run_out (args ^ " --progress") in
  Alcotest.(check int) "same exit code" code_off code_on;
  Alcotest.(check string) "byte-identical stdout" out_off out_on

(* ---- chaos / fault flags ------------------------------------------------- *)

(* Every cell runs from a seed derived from its identity, so these codes
   are stable, not coin flips. *)
let chaos_cases =
  let planted =
    let p, prof, l = Mewc_core.Degrade.planted_unsafe in
    Printf.sprintf "%s:%s:%d" p prof l
  in
  [
    (* the planted reliability violation: a finding, exit 3 *)
    check_code "planted cell is unsafe" 3
      (Printf.sprintf "chaos --cell %s" planted);
    check_code "crash cell is clean" 0 "chaos --cell weak-ba:crash:2";
    check_code "partition cell stalls" 2 "chaos --cell weak-ba:partition:2";
    check_code "bad cell spec" 1 "chaos --cell weak-ba:bogus:1";
    check_code "run with drop faults" 0 "run -p weak-ba -n 9 --drop 0.1 --fault-seed 7";
    check_code "run under a full partition stalls" 2 "run -p weak-ba -n 9 --partition 0,1";
    check_code "run rejects drop > 1" 1 "run -p weak-ba -n 9 --drop 1.5";
    check_code "baselines accept fault flags" 0 "run -p dolev-strong -n 5 --drop 0.1";
  ]

(* ---- wire / --runtime ---------------------------------------------------- *)

let runtime_cases =
  [
    check_code "run accepts --runtime sync" 0
      "run -p weak-ba -n 5 --runtime sync";
    check_code "run accepts --runtime async" 0
      "run -p weak-ba -n 5 --runtime async";
    (* validated in the command body: misuse, not 124 *)
    check_code "run rejects unknown runtime" 1
      "run -p weak-ba -n 5 --runtime nonesuch";
    (* the async runtime executes honest runs only: every lock-step-engine
       knob alongside it is a misuse *)
    check_code "async rejects adversaries" 1
      "run -p weak-ba -n 5 --runtime async -a crash -f 1";
    check_code "async rejects fault flags" 1
      "run -p weak-ba -n 5 --runtime async --drop 0.1";
    check_code "async rejects --profile" 1
      "run -p weak-ba -n 5 --runtime async --profile";
    check_code "async rejects --trace" 1
      "run -p weak-ba -n 5 --runtime async --trace";
    (* --shards is retired: a parse error, as on every command *)
    check_code "async rejects --shards" cli_error
      "run -p weak-ba -n 5 --runtime async --shards 2";
    check_code "async rejects baselines" 1
      "run -p dolev-strong -n 5 --runtime async";
    check_code "async runs binary-bb" 0 "run -p binary-bb -n 5 --runtime async";
    (* -n and --delta are checked before they reach the config or the
       runtime's barrier: no uncaught exception, stall or false finding *)
    check_code "run rejects even -n" 1 "run -p bb -n 4";
    check_code "trace rejects even -n" 1 "trace -p bb -n 4";
    check_code "async rejects --delta 0" 1 "run -p bb -n 5 --runtime async --delta=0";
  ]

(* A non-finite δ is refused up front, naming the flag, rather than
   reaching the runtime's select timeout and killing a domain. *)
let test_async_delta_nan () =
  let code, err = run_out ~stderr:true "run -p bb -n 5 --runtime async --delta=nan" in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) ("names --delta: " ^ err) true (contains err "--delta nan")

(* An input the wire format cannot carry is refused before any domain
   spawns, naming the bound, instead of killing a domain mid-run. *)
let test_async_input_bound () =
  let code, err =
    run_out ~stderr:true
      (Printf.sprintf "run -p weak-ba -n 5 --runtime async --delta 0.2 --input %s"
         (String.make 1100 'x'))
  in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) ("names the bound: " ^ err) true
    (contains err "1024-byte bound")

(* The async run's header and summary name the runtime as --runtime
   spells it. *)
let test_async_header () =
  let code, out = run_out "run -p weak-ba -n 5 --runtime async" in
  Alcotest.(check int) "exit 0" 0 code;
  let lines = String.split_on_char '\n' out in
  List.iter
    (fun line -> Alcotest.(check bool) line true (List.mem line lines))
    [
      "mewc: n=5 t=2 protocol=weak-ba runtime=async delta=5s seed=1";
      "run summary (async):";
    ]

let test_runtime_documented () =
  let code, out = run_out "run --help" in
  Alcotest.(check int) "run --help exits 0" 0 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "run --help names %s" needle) true
        (contains out needle))
    [ "--runtime"; "async"; "--delta" ]

let wire_cases =
  [
    (* no mode flag: a usage error from wire itself, not cmdliner *)
    check_code "wire requires a mode" 1 "wire";
    check_code "wire rejects unknown flag" cli_error "wire --bogus-flag";
    check_code "wire rejects --count 0" 1 "wire --fuzz-codec --count 0";
    check_code "wire rejects -n 1" 1 "wire --diff -n 1";
    check_code "wire --diff rejects even -n" 1 "wire --diff -n 4";
    check_code "wire --chaos rejects even -n" 1 "wire --chaos -n 4";
    check_code "wire --diff rejects --delta 0" 1 "wire --diff --delta 0";
    check_code "wire fuzz exits 0" 0 "wire --fuzz-codec --count 40 --seed 5";
  ]

let test_wire_smoke_gate () =
  let code, out = run_out "wire --smoke" in
  Alcotest.(check int) "smoke exit 0" 0 code;
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains out needle))
    [ "every codec law held"; "oracle"; "smoke: ok" ];
  (* The n=5, seed 1 differential gate's byte counts pin the mewc-wire/1
     encoding of every codec-bearing protocol: a codec refactor that moves a
     tag or a field changes them. *)
  List.iter
    (fun line ->
      Alcotest.(check bool) line true
        (List.mem line (String.split_on_char '\n' out)))
    [
      "  fallback  async ≡ oracle (96 frames, 8184 bytes, 236 encoded words)";
      "  weak-ba   async ≡ oracle (20 frames, 1280 bytes, 40 encoded words)";
      "  bb        async ≡ oracle (24 frames, 2232 bytes, 72 encoded words)";
      "  binary-bb async ≡ oracle (20 frames, 1196 bytes, 40 encoded words)";
      "  strong-ba async ≡ oracle (16 frames, 972 bytes, 32 encoded words)";
    ]

let test_chaos_smoke_gate () =
  let code, out = run_out "chaos --smoke" in
  Alcotest.(check int) "smoke exit 0" 0 code;
  List.iter
    (fun needle ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) needle true (contains out needle))
    [ "UNSAFE"; "smoke ok" ]

let () =
  Alcotest.run "cli"
    [
      ("help", help_cases);
      ("parse errors", error_cases);
      ("scheduler flag", scheduler_cases);
      ( "run goldens",
        List.map stdout_golden stdout_goldens
        @ List.map baseline_golden baseline_goldens
        @ List.map
            (fun name ->
              check_code (name ^ " is accepted by run -p") 0
                ("run -p " ^ name ^ " -n 5"))
            Mewc_core.Registry.names );
      ( "trace surfaces",
        trace_cases
        @ [
            Alcotest.test_case "--cone --dot emits graphviz" `Quick
              test_trace_cone_dot_is_graphviz;
            Alcotest.test_case "--profile prints peak heap words" `Quick
              test_profile_prints_peak_heap;
          ] );
      ( "perf ledger",
        [
          Alcotest.test_case "diff requires selectors" `Quick
            test_perf_diff_requires_selectors;
          Alcotest.test_case "malformed ledger" `Quick
            test_perf_rejects_malformed_ledger;
          Alcotest.test_case "foreign schema" `Quick
            test_perf_rejects_foreign_schema;
          Alcotest.test_case "missing entry" `Quick
            test_perf_missing_entry_is_misuse;
          Alcotest.test_case "append/diff exit codes" `Quick
            test_perf_append_then_diff_codes;
          Alcotest.test_case "smoke gate" `Quick test_perf_smoke_gate;
          (* an unwritable file is an operational failure, not an
             uncaught exception *)
          check_code "unwritable ledger" 1
            "perf append --smoke --ledger /nonexistent/l.json";
        ] );
      ( "bench",
        [
          Alcotest.test_case "smoke" `Quick test_bench_smoke;
          check_code "unwritable -o" 1 "bench --smoke -o /nonexistent/x.json";
          check_code "retired --shards" cli_error "bench --smoke --shards 2";
        ] );
      ( "fuzz modes",
        [
          Alcotest.test_case "requires a mode" `Quick test_fuzz_requires_mode;
          Alcotest.test_case "--list" `Quick test_fuzz_list;
          Alcotest.test_case "clean campaign exits 0" `Quick
            test_fuzz_clean_campaign;
          Alcotest.test_case "unknown target" `Quick test_fuzz_unknown_target;
          Alcotest.test_case "tampered entry" `Quick
            test_fuzz_rejects_tampered_entry;
          Alcotest.test_case "foreign schema" `Quick
            test_fuzz_rejects_foreign_schema;
          (* the planted ablation is found, minimized and replayed *)
          check_code "smoke gate" 0 "fuzz --smoke";
          (* every committed counterexample still reproduces its recorded
             violation byte-identically *)
          check_code "committed corpus replays" 0 "fuzz --replay-dir ../corpus";
        ] );
      ( "throughput",
        throughput_cases
        @ [
            Alcotest.test_case "malformed ledger" `Quick
              test_throughput_rejects_malformed_ledger;
            check_code "unwritable ledger" 1
              "throughput -n 9 --workload steady --depth seq --ledger \
               /nonexistent/t.json";
            Alcotest.test_case "ledger round-trip" `Quick
              test_throughput_ledger_roundtrip;
            Alcotest.test_case "smoke gate" `Slow test_throughput_smoke_gate;
            Alcotest.test_case "--progress leaves stdout untouched" `Quick
              test_progress_is_invisible;
          ] );
      ( "chaos",
        chaos_cases
        @ [ Alcotest.test_case "smoke gate" `Quick test_chaos_smoke_gate ] );
      ( "wire & --runtime",
        runtime_cases @ wire_cases
        @ [
            Alcotest.test_case "--help documents --runtime" `Quick
              test_runtime_documented;
            Alcotest.test_case "async header names the runtime" `Quick
              test_async_header;
            Alcotest.test_case "async refuses an oversized --input" `Quick
              test_async_input_bound;
            Alcotest.test_case "async refuses --delta nan" `Quick
              test_async_delta_nan;
            Alcotest.test_case "smoke gate" `Slow test_wire_smoke_gate;
          ] );
    ]
