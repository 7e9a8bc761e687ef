(* Cross-artifact invariants: what must hold across the five committed
   artifacts for the repository's headline claims to be trustworthy. Each
   violated invariant is one finding; [mewc report --check] turns a
   non-empty list into exit 3 — the repo-wide "finding" code. *)

module Sweep = Mewc_core.Sweep
module Ledger = Mewc_core.Ledger

type finding = { check : string; detail : string }

let findingf check fmt = Printf.ksprintf (fun detail -> { check; detail }) fmt

(* ---- per-artifact invariants -------------------------------------------- *)

let rows_findings ~ctx rows =
  (* Structural sanity shared by perf rows and every ledger entry's rows:
     t = (n-1)/2 (every grid runs Config.optimal), positive word counts,
     and one row per (protocol, n, f_spec). *)
  let shape =
    List.concat_map
      (fun (r : Sweep.row) ->
        let p = r.Sweep.point in
        (if r.Sweep.t <> (p.Sweep.n - 1) / 2 then
           [
             findingf "row-shape" "%s: %s n=%d has t=%d, expected (n-1)/2=%d" ctx
               p.Sweep.protocol p.Sweep.n r.Sweep.t
               ((p.Sweep.n - 1) / 2);
           ]
         else [])
        @
        if r.Sweep.words <= 0 then
          [
            findingf "row-shape" "%s: %s n=%d f=%s has words=%d" ctx
              p.Sweep.protocol p.Sweep.n p.Sweep.f_spec r.Sweep.words;
          ]
        else [])
      rows
  in
  let dups =
    let seen = Hashtbl.create 64 in
    List.filter_map
      (fun (r : Sweep.row) ->
        let p = r.Sweep.point in
        let key = (p.Sweep.protocol, p.Sweep.n, p.Sweep.f_spec) in
        if Hashtbl.mem seen key then
          Some
            (findingf "row-unique" "%s: duplicate point %s n=%d f=%s" ctx
               p.Sweep.protocol p.Sweep.n p.Sweep.f_spec)
        else begin
          Hashtbl.add seen key ();
          None
        end)
      rows
  in
  shape @ dups

let perf_findings (p : Loader.perf) =
  let identity =
    if p.Loader.parallel_identical then []
    else
      [
        findingf "perf-identity"
          "parallel rows were not byte-identical to sequential";
      ]
  in
  identity @ rows_findings ~ctx:"perf" p.Loader.rows

let ledger_findings entries =
  List.concat
    (List.mapi
       (fun i (e : Ledger.entry) ->
         let ctx = Printf.sprintf "ledger entry %d (%s)" i e.Ledger.rev in
         (if String.length e.Ledger.rev = 0 then
            [ findingf "ledger-provenance" "%s: empty rev" ctx ]
          else [])
         @ (if String.length e.Ledger.date < 8 then
              [
                findingf "ledger-provenance" "%s: date %S is not a date" ctx
                  e.Ledger.date;
              ]
            else [])
         @ rows_findings ~ctx e.Ledger.rows)
       entries)

(* The determinism gate: the latest smoke-grid ledger entry must reproduce
   when its points are re-run at the current build. Comparison is on
   {!Sweep.row_core_line} — every protocol-observable field, but not the
   crypto-cache hit/miss split, which is an artifact of the build's caching
   strategy and legitimately moves across revisions. The smoke grid is
   seconds-scale, so the ledger's core promise — rows are replayable facts,
   not snapshots of a drifting binary — is re-proved on every [--check]. *)
let ledger_determinism entries =
  match
    List.rev entries
    |> List.find_opt (fun (e : Ledger.entry) -> String.equal e.Ledger.grid "smoke")
  with
  | None -> [ findingf "ledger-determinism" "no smoke-grid ledger entry to replay" ]
  | Some e ->
    let points = List.map (fun (r : Sweep.row) -> r.Sweep.point) e.Ledger.rows in
    let fresh = Sweep.run_all ~jobs:1 points in
    let want = List.map Sweep.row_core_line e.Ledger.rows in
    let got = List.map Sweep.row_core_line fresh in
    List.concat
      (List.map2
         (fun w g ->
           if String.equal w g then []
           else
             [
               findingf "ledger-determinism"
                 "smoke row drifted:\n  ledger: %s\n  rerun:  %s" w g;
             ])
         want got)

let ratio_findings entries =
  (* The ratio figure needs one baseline per scheduler; flag their absence
     so a missing curve is a finding, not a silently thinner report. *)
  let latest scheduler =
    List.rev entries
    |> List.find_opt (fun (e : Ledger.entry) ->
           String.equal e.Ledger.grid "ratio"
           && String.equal e.Ledger.scheduler scheduler)
  in
  List.filter_map
    (fun sched ->
      match latest sched with
      | Some _ -> None
      | None ->
        Some
          (findingf "ratio-baseline" "no grid=\"ratio\" ledger entry for %s"
             sched))
    [ "legacy"; "event-driven" ]

let throughput_findings entries =
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
  List.concat_map
    (fun (e : Loader.throughput_entry) ->
      let ctx = Printf.sprintf "throughput entry %s" e.Loader.thr_rev in
      List.concat_map
        (fun (c : Loader.thr_cell) ->
          let r = c.Loader.report in
          let cctx =
            Printf.sprintf "%s: n=%d %s/%s" ctx c.Loader.cell_n c.Loader.workload
              c.Loader.depth
          in
          let derived name stored expect =
            if close stored expect then []
            else
              [
                findingf "throughput-derived" "%s: %s=%.6f, recomputed %.6f" cctx
                  name stored expect;
              ]
          in
          derived "decisions_per_1k_slots" r.Loader.decisions_per_1k_slots
            (if r.Loader.slots = 0 then 0.0
             else
               1000.0
               *. float_of_int r.Loader.decided_batches
               /. float_of_int r.Loader.slots)
          @ derived "words_per_decision" r.Loader.words_per_decision
              (if r.Loader.decided_batches = 0 then 0.0
               else
                 float_of_int r.Loader.words
                 /. float_of_int r.Loader.decided_batches))
        e.Loader.cells
      @ List.filter_map
          (fun (p : Loader.slo_point) ->
            if p.Loader.level = 0 && p.Loader.retention <> 1.0 then
              Some
                (findingf "slo-control" "%s: %s level 0 retention %.3f, expected 1.0"
                   ctx p.Loader.fault_profile p.Loader.retention)
            else None)
          e.Loader.slo)
    entries

let degrade_findings (d : Loader.degrade) =
  let known = [ "safe-live"; "safe-stalled"; "unsafe" ] in
  let on_grid (c : Loader.degrade_cell) =
    List.mem c.Loader.dg_protocol d.Loader.dg_protocols
  in
  List.concat_map
    (fun (c : Loader.degrade_cell) ->
      let ctx =
        Printf.sprintf "degrade %s/%s/L%d" c.Loader.dg_protocol c.Loader.fault
          c.Loader.level
      in
      (if not (List.mem c.Loader.verdict known) then
         [ findingf "degrade-verdict" "%s: unknown verdict %S" ctx c.Loader.verdict ]
       else [])
      @ (if c.Loader.level < 0 || c.Loader.level >= d.Loader.levels then
           [ findingf "degrade-grid" "%s: level outside 0..%d" ctx (d.Loader.levels - 1) ]
         else [])
      @
      (* Level 0 of every on-grid profile is the reliable model: anything
         but safe-live there means the harness (or a protocol) broke with
         no faults injected at all. The planted off-grid cell is exempt —
         being unsafe is its whole job. *)
      if c.Loader.level = 0 && on_grid c && not (String.equal c.Loader.verdict "safe-live")
      then [ findingf "degrade-control" "%s: level-0 control is %s" ctx c.Loader.verdict ]
      else [])
    d.Loader.dg_cells
  @
  match
    List.find_opt
      (fun (c : Loader.degrade_cell) ->
        String.equal c.Loader.dg_protocol "weak-ba-ablated")
      d.Loader.dg_cells
  with
  | Some c when not (String.equal c.Loader.verdict "unsafe") ->
    [
      findingf "degrade-planted"
        "planted weak-ba-ablated cell is %s, expected unsafe" c.Loader.verdict;
    ]
  | _ -> []

let observability_findings runs =
  List.concat_map
    (fun (r : Loader.obs_run) ->
      let ctx =
        Printf.sprintf "observability %s n=%d f=%s" r.Loader.ob_protocol
          r.Loader.ob_n r.Loader.ob_f_spec
      in
      let sum f = List.fold_left (fun acc s -> acc + f s) 0 r.Loader.per_slot in
      let check name got want =
        if got = want then []
        else [ findingf "meter-sums" "%s: %s %d <> %d" ctx name got want ]
      in
      (* The run's headline words/messages are the meter's correct-class
         totals, and the per-slot series must partition the grand total. *)
      check "words vs correct_words" r.Loader.ob_words r.Loader.correct_words
      @ check "messages vs correct_messages" r.Loader.ob_messages
          r.Loader.correct_messages
      @ check "per-slot words sum"
          (sum (fun s -> s.Loader.slot_words))
          (r.Loader.correct_words + r.Loader.byz_words)
      @ check "per-slot messages sum"
          (sum (fun s -> s.Loader.slot_messages))
          (r.Loader.correct_messages + r.Loader.byz_messages)
      @ check "per-slot byz words sum"
          (sum (fun s -> s.Loader.slot_byz_words))
          r.Loader.byz_words)
    runs

let run (a : Loader.artifacts) =
  perf_findings a.Loader.perf
  @ ledger_findings a.Loader.ledger
  @ ledger_determinism a.Loader.ledger
  @ ratio_findings a.Loader.ledger
  @ throughput_findings a.Loader.throughput
  @ degrade_findings a.Loader.degrade
  @ observability_findings a.Loader.observability

let render findings =
  String.concat ""
    (List.map (fun f -> Printf.sprintf "[%s] %s\n" f.check f.detail) findings)
