(* `dune exec bench/main.exe` regenerates every table and figure of the
   paper (see DESIGN.md §3 for the experiment index) and
   BENCH_observability.json, then runs the Bechamel wall-clock benchmarks —
   one Test.make per Table-1 row, plus the crypto layer's rows. Its only
   flag, --no-timings, skips the Bechamel stage.

   The perf sweep and the ledger have one front door, the CLI:
   `mewc bench -o BENCH_perf.json` writes the mewc-perf/2 report and
   `mewc perf append` records a ledger entry. *)

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

(* The crypto layer on its own: the SHA-256 kernel, a keyed HMAC on a
   signed message's size, the PKI's sign, its verify answered by the
   signature's verdict cell and on both sides of the share-tag memo, and a
   certificate built on an aggregate-memo hit. *)
let layer_tests =
  let open Mewc_crypto in
  let open Bechamel in
  (* 55 bytes is the longest message that pads to a single block, so a
     digest is one compression plus its fixed copy/pad/output work. *)
  let block = String.make 55 'b' in
  let key = Sha256.hmac_key "mewc-key-0" in
  let msg = String.make 26 'm' in
  let pki, secrets = Pki.setup ~seed:1L ~n:4 () in
  let signed = Pki.sign pki secrets.(1) msg in
  (* A passing verify marks the value it checked, so the memo rows verify
     an unmarked copy rebuilt from the wire view each run. *)
  let unmarked sg =
    let signer, tag = Pki.Wire.sig_view sg in
    Pki.Wire.sig_of_view ~signer ~tag
  in
  (* Capacity 1 and two alternating messages: each verify finds the other
     message's entry, misses, and epoch-clears the one-entry table. *)
  let cold, cold_secrets = Pki.setup ~seed:1L ~cache_capacity:1 ~n:4 () in
  let alternating =
    Array.map (fun m -> (m, Pki.sign cold cold_secrets.(1) m)) [| "m0"; "m1" |]
  in
  let turn = ref 0 in
  (* A 101-of-201 quorum, as on the f = t fallback path; the first
     certificate warms the aggregate memo. *)
  let quorum =
    let big, big_secrets = Pki.setup ~seed:1L ~n:201 () in
    let tl = Pki.tally big ~k:101 ~msg in
    Array.iter (fun s -> ignore (Pki.Tally.add tl (Pki.sign big s msg))) big_secrets;
    ignore (Pki.Tally.certificate tl);
    tl
  in
  [
    Test.make ~name:"layers/sha256 compress" (Staged.stage (fun () ->
        ignore (Sha256.digest block)));
    Test.make ~name:"layers/hmac_with 26B" (Staged.stage (fun () ->
        ignore (Sha256.hmac_with key msg)));
    Test.make ~name:"layers/pki sign" (Staged.stage (fun () ->
        ignore (Pki.sign pki secrets.(1) msg)));
    Test.make ~name:"layers/pki verify marked" (Staged.stage (fun () ->
        ignore (Pki.verify pki signed ~msg)));
    Test.make ~name:"layers/pki verify hit" (Staged.stage (fun () ->
        ignore (Pki.verify pki (unmarked signed) ~msg)));
    Test.make ~name:"layers/pki verify miss" (Staged.stage (fun () ->
        incr turn;
        let m, sg = alternating.(!turn land 1) in
        ignore (Pki.verify cold (unmarked sg) ~msg:m)));
    Test.make ~name:"layers/pki certificate hit" (Staged.stage (fun () ->
        ignore (Pki.Tally.certificate quorum)));
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
    (bench_tests @ layer_tests)

let write_observability () =
  let path = "BENCH_observability.json" in
  let oc = open_out path in
  output_string oc (Mewc_prelude.Jsonx.to_string (Experiments.observability_json ()));
  output_char oc '\n';
  close_out oc;
  Printf.printf "[OBS] wrote %s (per-slot word series for the Table-1 rows)\n%!"
    path

let () =
  let timings =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> true
    | [ "--no-timings" ] -> false
    | _ ->
      prerr_endline "usage: main.exe [--no-timings]";
      exit 124
  in
  run_tables ();
  write_observability ();
  if timings then run_timings ()
