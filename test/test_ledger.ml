(* The perf-regression ledger and the profiler under it: JSON round-trips
   and schema gates, entry selection, diff threshold semantics (including
   the zero-word edge cases and the wall-clock gate), the profiler's
   self-time partition under an injected clock, and the domain-safety guard
   on profiled sweeps. *)

open Mewc_sim
open Mewc_core

let stats = Mewc_crypto.Pki.no_cache_stats

let mk_row ?(words = 100) ?(signatures = 10) protocol =
  {
    Sweep.point = { Sweep.protocol; n = 9; f_spec = "0" };
    t = 4;
    f = 0;
    words;
    messages = 20;
    signatures;
    latency = 3;
    slots = 6;
    fallback_runs = 0;
    crypto = stats;
    wall_s = 0.0;
  }

let mk_entry ?(rev = "deadbeef") ?(rows = [ mk_row "bb" ]) ?(sequential_s = 1.0)
    () =
  {
    Ledger.rev;
    date = "2026-08-06";
    grid = "test";
    scheduler = "legacy";
    jobs = 2;
    cores = 4;
    sequential_s;
    parallel_s = 0.5;
    speedup = 2.0;
    parallelism = "ok (4 cores)";
    rollup = [ ("crypto", 0.25); ("engine", 0.5) ];
    rows;
  }

(* ---- serialization ------------------------------------------------------- *)

(* Rendered JSON is the canonical form, so round-trip equality is checked
   on renderings — immune to float-printing particulars. *)
let json_fixpoint to_json of_json v =
  let j = Mewc_prelude.Jsonx.to_string (to_json v) in
  match of_json (to_json v) with
  | Error e -> Alcotest.failf "does not parse back: %s" e
  | Ok v' ->
    Alcotest.(check string) "json fixpoint" j
      (Mewc_prelude.Jsonx.to_string (to_json v'))

let test_entry_roundtrip () =
  json_fixpoint Ledger.entry_to_json Ledger.entry_of_json (mk_entry ());
  json_fixpoint Ledger.entry_to_json Ledger.entry_of_json
    (mk_entry ~rows:[] ());
  json_fixpoint Ledger.to_json Ledger.of_json
    [ mk_entry (); mk_entry ~rev:"cafe" () ]

(* Ledger files written before the shard era carry no "parallelism"
   member; they must keep parsing (same mewc-ledger/1 schema) with the
   documented default. *)
let test_pre_shard_entry_parses () =
  let stripped =
    match Ledger.entry_to_json (mk_entry ()) with
    | Mewc_prelude.Jsonx.Obj fields ->
      Mewc_prelude.Jsonx.Obj (List.filter (fun (k, _) -> k <> "parallelism") fields)
    | _ -> Alcotest.fail "entry json not an object"
  in
  match Ledger.entry_of_json stripped with
  | Error e -> Alcotest.failf "pre-shard entry rejected: %s" e
  | Ok e ->
    Alcotest.(check string) "parallelism default" "unknown" e.Ledger.parallelism

(* The committed ledger, as JSON: its entries and the one that recorded the
   intra-run shard curve (1/2/4/8 shards). *)
let committed_ledger = "../BENCH_ledger.json"
let shard_era_rev = "8641f4b"

let ledger_entries_json path =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  match Mewc_prelude.Jsonx.parse contents with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok j -> (
    match Option.bind (Mewc_prelude.Jsonx.member "entries" j) Mewc_prelude.Jsonx.get_list with
    | Some es -> es
    | None -> Alcotest.failf "%s: no entries" path)

let shard_curve entry_json =
  match Mewc_prelude.Jsonx.member "shards" entry_json with
  | Some (Mewc_prelude.Jsonx.Arr cells) -> List.length cells
  | _ -> 0

let shard_era_entry entries_json =
  List.find
    (fun j ->
      Option.bind (Mewc_prelude.Jsonx.member "rev" j) Mewc_prelude.Jsonx.get_str
      = Some shard_era_rev)
    entries_json

(* Entries written while sweeps still had shard passes carry a [shards]
   array that the entry type no longer has: they still parse. *)
let test_shard_era_entry_parses () =
  match Ledger.load committed_ledger with
  | Error e -> Alcotest.failf "committed ledger rejected: %s" e
  | Ok entries -> (
    match Ledger.find entries shard_era_rev with
    | Error e -> Alcotest.fail e
    | Ok e ->
      Alcotest.(check string) "grid" "standard" e.Ledger.grid;
      Alcotest.(check bool) "rows" true (e.Ledger.rows <> []);
      Alcotest.(check int) "shard curve on disk" 4
        (shard_curve (shard_era_entry (ledger_entries_json committed_ledger))))

(* An append writes earlier entries back as the JSON they were read as: no
   member the entry type lacks (a shard curve) is erased from history. *)
let test_append_keeps_history () =
  let before = ledger_entries_json committed_ledger in
  let tmp = Filename.temp_file "mewc-ledger" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      Out_channel.with_open_bin tmp (fun oc ->
          Out_channel.output_string oc
            (In_channel.with_open_bin committed_ledger In_channel.input_all));
      (match Ledger.append tmp (mk_entry ~rev:"appended" ()) with
      | Ok k -> Alcotest.(check int) "count" (List.length before + 1) k
      | Error (`Malformed e | `Unwritable e) -> Alcotest.fail e);
      let after = ledger_entries_json tmp in
      Alcotest.(check int) "one more entry" (List.length before + 1)
        (List.length after);
      List.iteri
        (fun i j ->
          if j <> List.nth after i then
            Alcotest.failf "entry %d changed by an append" i)
        before;
      Alcotest.(check int) "8641f4b keeps its curve" 4
        (shard_curve (shard_era_entry after)))

let test_row_roundtrip () =
  let r = mk_row ~words:7 ~signatures:3 "weak-ba" in
  match Sweep.row_of_json (Sweep.row_to_json r) with
  | Error e -> Alcotest.failf "row does not parse back: %s" e
  | Ok r' ->
    Alcotest.(check string) "row round-trip" (Sweep.row_to_line r)
      (Sweep.row_to_line r');
    Alcotest.(check bool) "structurally equal" true (r = r')

let test_schema_gates () =
  let reject name json =
    match Ledger.of_json json with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" name
  in
  reject "foreign schema"
    (Mewc_prelude.Jsonx.Obj
       [
         ("schema", Mewc_prelude.Jsonx.Str "mewc-perf/1");
         ("entries", Mewc_prelude.Jsonx.Arr []);
       ]);
  reject "no schema" (Mewc_prelude.Jsonx.Obj [ ("entries", Mewc_prelude.Jsonx.Arr []) ]);
  reject "not an object" (Mewc_prelude.Jsonx.Arr []);
  match Ledger.entry_of_json (Mewc_prelude.Jsonx.Obj [ ("rev", Mewc_prelude.Jsonx.Str "x") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated entry accepted"

let test_load_save_append () =
  let tmp = Filename.temp_file "mewc-ledger" ".json" in
  Sys.remove tmp;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      (match Ledger.load tmp with
      | Ok [] -> ()
      | Ok _ -> Alcotest.fail "missing file not empty"
      | Error e -> Alcotest.failf "missing file is an error: %s" e);
      (match Ledger.append tmp (mk_entry ~rev:"aaa" ()) with
      | Ok 1 -> ()
      | Ok k -> Alcotest.failf "first append counted %d" k
      | Error (`Malformed e | `Unwritable e) -> Alcotest.fail e);
      (match Ledger.append tmp (mk_entry ~rev:"bbb" ()) with
      | Ok 2 -> ()
      | Ok k -> Alcotest.failf "second append counted %d" k
      | Error (`Malformed e | `Unwritable e) -> Alcotest.fail e);
      match Ledger.load tmp with
      | Ok [ a; b ] ->
        Alcotest.(check string) "order preserved" "aaa" a.Ledger.rev;
        Alcotest.(check string) "appended last" "bbb" b.Ledger.rev
      | Ok es -> Alcotest.failf "expected 2 entries, got %d" (List.length es)
      | Error e -> Alcotest.fail e)

(* ---- selection ----------------------------------------------------------- *)

let test_find () =
  let entries =
    [ mk_entry ~rev:"aaa111" (); mk_entry ~rev:"aab222" (); mk_entry ~rev:"bcd333" () ]
  in
  let ok sel rev =
    match Ledger.find entries sel with
    | Ok e -> Alcotest.(check string) (Printf.sprintf "find %S" sel) rev e.Ledger.rev
    | Error e -> Alcotest.failf "find %S: %s" sel e
  in
  let err sel =
    match Ledger.find entries sel with
    | Error _ -> ()
    | Ok e -> Alcotest.failf "find %S resolved to %s" sel e.Ledger.rev
  in
  ok "0" "aaa111";
  ok "2" "bcd333";
  ok "-1" "bcd333";
  ok "-3" "aaa111";
  ok "bcd" "bcd333";
  ok "aab" "aab222";
  err "3";
  err "-4";
  err "aa" (* ambiguous prefix *);
  err "zzz";
  err ""

(* ---- diff semantics ------------------------------------------------------ *)

let test_diff_thresholds () =
  let a = mk_entry ~rows:[ mk_row ~words:100 "bb"; mk_row ~words:100 "weak-ba" ] () in
  let bump w = mk_entry ~rows:[ mk_row ~words:w "bb"; mk_row ~words:100 "weak-ba" ] () in
  (* exactly at 1 + threshold: not a regression (strict >) *)
  let at = Ledger.diff ~threshold:0.25 a (bump 125) in
  Alcotest.(check int) "at threshold" 0 at.Ledger.regressions;
  (* one word past it: one regression, on the right point *)
  let past = Ledger.diff ~threshold:0.25 a (bump 126) in
  Alcotest.(check int) "past threshold" 1 past.Ledger.regressions;
  (match past.Ledger.matched with
  | [ d_bb; d_weak ] ->
    Alcotest.(check bool) "bb regressed" true d_bb.Ledger.regressed;
    Alcotest.(check bool) "weak-ba untouched" false d_weak.Ledger.regressed;
    Alcotest.(check (float 1e-9)) "ratio" 1.26 d_bb.Ledger.words_ratio
  | ds -> Alcotest.failf "expected 2 deltas, got %d" (List.length ds));
  (* improvements never regress, whatever the magnitude *)
  let better = Ledger.diff ~threshold:0.0 (bump 200) a in
  Alcotest.(check int) "improvement" 0 better.Ledger.regressions

let test_diff_zero_word_edges () =
  let zero = mk_entry ~rows:[ mk_row ~words:0 "bb" ] () in
  let some = mk_entry ~rows:[ mk_row ~words:5 "bb" ] () in
  let self = Ledger.diff zero zero in
  (match self.Ledger.matched with
  | [ d ] ->
    Alcotest.(check (float 0.0)) "0/0 ratio" 1.0 d.Ledger.words_ratio;
    Alcotest.(check bool) "0/0 not regressed" false d.Ledger.regressed
  | _ -> Alcotest.fail "expected one delta");
  let blowup = Ledger.diff zero some in
  match blowup.Ledger.matched with
  | [ d ] ->
    Alcotest.(check bool) "0 -> 5 is infinite" true (d.Ledger.words_ratio = infinity);
    Alcotest.(check bool) "0 -> 5 regressed" true d.Ledger.regressed
  | _ -> Alcotest.fail "expected one delta"

let test_diff_unmatched_and_wall () =
  let a =
    mk_entry ~sequential_s:1.0 ~rows:[ mk_row "bb"; mk_row "fallback" ] ()
  in
  let b =
    mk_entry ~sequential_s:2.0 ~rows:[ mk_row "bb"; mk_row "strong-ba" ] ()
  in
  let d = Ledger.diff ~threshold:0.25 a b in
  Alcotest.(check int) "matched" 1 (List.length d.Ledger.matched);
  Alcotest.(check (list string)) "only in baseline" [ "fallback" ]
    (List.map (fun (p : Sweep.point) -> p.Sweep.protocol) d.Ledger.only_a);
  Alcotest.(check (list string)) "only in candidate" [ "strong-ba" ]
    (List.map (fun (p : Sweep.point) -> p.Sweep.protocol) d.Ledger.only_b);
  Alcotest.(check bool) "wall regressed" true d.Ledger.wall_regressed;
  Alcotest.(check (float 1e-9)) "wall ratio" 2.0 d.Ledger.wall_ratio;
  (* the wall regression counts as a finding on its own *)
  Alcotest.(check int) "regressions" 1 d.Ledger.regressions;
  (* diff_to_json parses as JSON and carries the verdict *)
  let rendered = Mewc_prelude.Jsonx.to_string (Ledger.diff_to_json d) in
  match Mewc_prelude.Jsonx.parse rendered with
  | Error e -> Alcotest.failf "diff json: %s" e
  | Ok _ -> ()

let test_render_mentions_verdicts () =
  let a = mk_entry ~rows:[ mk_row ~words:100 "bb" ] () in
  let b = mk_entry ~rows:[ mk_row ~words:300 "bb" ] () in
  let s = Ledger.render ~label_a:"base" ~label_b:"cand" (Ledger.diff a b) in
  let contains sub =
    let n = String.length s and k = String.length sub in
    let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
    at 0
  in
  List.iter
    (fun sub -> Alcotest.(check bool) sub true (contains sub))
    [ "base"; "cand"; "REGRESSED" ]

(* ---- of_report + the real sweep ----------------------------------------- *)

let tiny_grid =
  [
    { Sweep.protocol = "bb"; n = 9; f_spec = "0" };
    { Sweep.protocol = "weak-ba"; n = 9; f_spec = "1" };
  ]

let test_of_report_and_self_diff () =
  let profile = Profile.create () in
  let report = Sweep.run_perf ~jobs:2 ~profile tiny_grid in
  let e = Ledger.of_report ~rev:"r1" ~date:"2026-08-06" ~grid:"tiny" ~profile report in
  Alcotest.(check int) "rows carried over" (List.length report.Sweep.rows)
    (List.length e.Ledger.rows);
  Alcotest.(check int) "rollup has all categories"
    (List.length Profile.categories)
    (List.length e.Ledger.rollup);
  json_fixpoint Ledger.entry_to_json Ledger.entry_of_json e;
  let d = Ledger.diff e e in
  Alcotest.(check int) "self-diff clean" 0 d.Ledger.regressions;
  List.iter
    (fun (delta : Ledger.delta) ->
      Alcotest.(check (float 0.0)) "self ratio" 1.0 delta.Ledger.words_ratio)
    d.Ledger.matched

(* ---- the profiler -------------------------------------------------------- *)

(* An injected clock makes span accounting exact: self time partitions the
   run (outer self = inclusive - child), aggregates count crossings, and
   the rollup's total never exceeds elapsed. *)
let test_profile_self_time_partition () =
  let now = ref 0.0 in
  let p = Profile.create ~clock:(fun () -> !now) () in
  Profile.span p ~category:Profile.Engine "outer" (fun () ->
      now := !now +. 3.0;
      Profile.span p ~category:Profile.Crypto "inner" (fun () -> now := !now +. 2.0);
      now := !now +. 1.0);
  Profile.span p ~category:Profile.Crypto "inner" (fun () -> now := !now +. 4.0);
  now := !now +. 0.5;
  let find name =
    match List.find_opt (fun (r : Profile.row) -> r.Profile.name = name) (Profile.rows p) with
    | Some r -> r
    | None -> Alcotest.failf "no row %s" name
  in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check int) "outer crossed once" 1 outer.Profile.count;
  Alcotest.(check int) "inner crossed twice" 2 inner.Profile.count;
  Alcotest.(check (float 1e-9)) "outer inclusive" 6.0 outer.Profile.total_s;
  Alcotest.(check (float 1e-9)) "outer self excludes child" 4.0 outer.Profile.self_s;
  Alcotest.(check (float 1e-9)) "inner self" 6.0 inner.Profile.self_s;
  let rollup = Profile.rollup p in
  Alcotest.(check int) "rollup covers all categories"
    (List.length Profile.categories)
    (List.length rollup);
  Alcotest.(check (float 1e-9)) "engine self" 4.0
    (List.assoc Profile.Engine rollup);
  Alcotest.(check (float 1e-9)) "crypto self" 6.0
    (List.assoc Profile.Crypto rollup);
  let self_sum = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 rollup in
  Alcotest.(check bool) "self-sum <= elapsed" true
    (self_sum <= Profile.elapsed p +. 1e-9);
  Alcotest.(check (float 1e-9)) "elapsed" 10.5 (Profile.elapsed p)

let test_profile_exception_safe () =
  let now = ref 0.0 in
  let p = Profile.create ~clock:(fun () -> !now) () in
  (try
     Profile.span p ~category:Profile.Machine "boom" (fun () ->
         now := !now +. 1.0;
         failwith "boom")
   with Failure _ -> ());
  (* the span closed: a later sibling is charged to itself, not to boom *)
  Profile.span p ~category:Profile.Machine "after" (fun () -> now := !now +. 2.0);
  let row name =
    List.find (fun (r : Profile.row) -> r.Profile.name = name) (Profile.rows p)
  in
  Alcotest.(check (float 1e-9)) "boom charged" 1.0 (row "boom").Profile.self_s;
  Alcotest.(check (float 1e-9)) "after charged to itself" 2.0
    (row "after").Profile.self_s

let test_profile_json_schema () =
  let p = Profile.create () in
  Profile.span p ~category:Profile.Serialize "s" (fun () -> ());
  match Profile.to_json p with
  | Mewc_prelude.Jsonx.Obj fields ->
    (match List.assoc_opt "schema" fields with
    | Some (Mewc_prelude.Jsonx.Str s) ->
      Alcotest.(check string) "schema tag" Profile.schema s
    | _ -> Alcotest.fail "no schema tag")
  | _ -> Alcotest.fail "profile json not an object"

let test_profiled_parallel_sweep_rejected () =
  let p = Profile.create () in
  match
    Sweep.run_all ~jobs:2
      ~options:{ Instances.default_options with Instances.profile = Some p }
      tiny_grid
  with
  | _ -> Alcotest.fail "profiled parallel sweep accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "ledger"
    [
      ( "serialization",
        [
          Alcotest.test_case "entry/ledger json fixpoint" `Quick
            test_entry_roundtrip;
          Alcotest.test_case "pre-shard entries still parse" `Quick
            test_pre_shard_entry_parses;
          Alcotest.test_case "shard-era entries still parse" `Quick
            test_shard_era_entry_parses;
          Alcotest.test_case "append keeps history" `Quick
            test_append_keeps_history;
          Alcotest.test_case "sweep row round-trip" `Quick test_row_roundtrip;
          Alcotest.test_case "schema gates" `Quick test_schema_gates;
          Alcotest.test_case "load/save/append" `Quick test_load_save_append;
        ] );
      ("selection", [ Alcotest.test_case "find" `Quick test_find ]);
      ( "diff",
        [
          Alcotest.test_case "threshold is strict" `Quick test_diff_thresholds;
          Alcotest.test_case "zero-word edges" `Quick test_diff_zero_word_edges;
          Alcotest.test_case "unmatched points and wall clock" `Quick
            test_diff_unmatched_and_wall;
          Alcotest.test_case "render carries verdicts" `Quick
            test_render_mentions_verdicts;
          Alcotest.test_case "of_report and self-diff" `Quick
            test_of_report_and_self_diff;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "self time partitions the run" `Quick
            test_profile_self_time_partition;
          Alcotest.test_case "exception safe" `Quick test_profile_exception_safe;
          Alcotest.test_case "json schema tag" `Quick test_profile_json_schema;
          Alcotest.test_case "profiled parallel sweep rejected" `Quick
            test_profiled_parallel_sweep_rejected;
        ] );
    ]
