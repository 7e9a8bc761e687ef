(* mewc — run one protocol execution from the command line.

   Examples:
     mewc run -p bb -n 9 --adversary crash -f 2
     mewc run -p weak-ba -n 21 --adversary busy-leaders -f 4 --seed 7 --trace
     mewc run -p strong-ba -n 9 --adversary withholding-leader --profile
     mewc run -p fallback -n 9 --adversary equivocating-king
     mewc run -p dolev-strong -n 9
     mewc trace -p weak-ba -n 9 --adversary crash -f 2 --format csv -o run.csv
     mewc trace -p weak-ba -n 9 --adversary crash -f 2 --cone 5 --dot
     mewc run -p bb -n 9 --drop 0.3 --fault-seed 7
     mewc chaos --smoke
     mewc chaos --cell weak-ba:partition:3
     mewc perf diff -- -2 -1
     mewc throughput --smoke
     mewc throughput --workload bursty --depth deep --ledger BENCH_throughput.json
   `run` prints per-process decisions and the run's communication metering
   (with --trace, also the per-slot word series); `trace` emits the full
   structured execution trace as JSON (schema mewc-trace/4) or CSV, or a
   decision's happens-before cone; `chaos` sweeps the (protocol x
   fault-intensity) degradation matrix (schema mewc-degrade/1); `perf`
   manages the append-only regression ledger (schema mewc-ledger/1);
   `throughput` runs the repeated-BA service over the workload ×
   pipeline-depth grid and the SLO retention sweep (schema
   mewc-throughput/1).

   Exit codes, uniform across subcommands:
     0    success
     1    misuse or operational failure (unsupported combination, missing
          file, non-reproducing corpus entry, ...)
     2    a stall: the run (or the requested chaos cell) kept safety but
          left correct non-faulted processes undecided
     3    a finding: a fuzz violation, a perf regression beyond threshold,
          an Unsafe chaos cell
     124  parse errors — ours (malformed JSON, wrong schema) and cmdliner's
          (bad command line), deliberately the same code *)

open Mewc_sim
open Mewc_core
module Jsonx = Mewc_prelude.Jsonx

let pr fmt = Printf.printf fmt

let die_misuse fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "mewc: %s\n" s;
      exit 1)
    fmt

(* -n and --delta otherwise reach [Config.optimal] and the async runtime's
   slot barrier unchecked: a bad value is a misuse (exit 1), not an
   uncaught exception, a stall or a false finding. *)
let check_size ?delta n =
  if n < 3 || n mod 2 = 0 then die_misuse "-n %d: need an odd n >= 3 (n = 2t+1)" n;
  Option.iter
    (fun d ->
      if not (Float.is_finite d && d > 0.0) then
        die_misuse "--delta %g: need a finite delta > 0 seconds" d)
    delta

let die_parse fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "mewc: %s\n" s;
      exit 124)
    fmt

(* Every file the CLI writes goes through here, so an unwritable path is a
   misuse (exit 1) like any other, never an uncaught exception. *)
let write_file path text =
  match Out_channel.with_open_text path (fun oc -> output_string oc text) with
  | () -> ()
  | exception Sys_error e -> die_misuse "cannot write %s: %s" path e

let json_text j = Jsonx.to_string j ^ "\n"

(* A ledger append: a ledger that does not parse is a parse error (124),
   one that cannot be written an operational failure (1). *)
let appended ~cmd path = function
  | Ok count -> count
  | Error (`Malformed e) -> die_parse "%s: %s" cmd e
  | Error (`Unwritable e) -> die_misuse "cannot write %s: %s" path e

(* Protocols come from the registry: `-p NAME` selects an entry, and every
   command below runs it through one generic path. *)
let protocol_conv =
  Cmdliner.Arg.enum
    (List.map (fun e -> (Registry.entry_name e, e)) Registry.entries)

let adversaries =
  [ "honest"; "crash"; "staggered" ]
  @ List.concat_map
      (fun (Registry.E e) -> List.map fst e.Registry.attacks)
      Registry.entries

let victims f = List.init f (fun i -> i + 1)

(* ---- adversary resolution, shared by `run` and `trace` ------------------- *)

(* Honest, crash and staggered apply to every protocol; any other name must
   be one of the entry's own attacks. *)
let resolve_adversary (type p s m d) (e : (p, s, m, d) Registry.t) ~cfg ~f
    ~input name : (s, m) Adversary.factory =
  match name with
  | "honest" -> Adversary.const (Adversary.honest ~name:"honest")
  | "crash" -> Adversary.const (Adversary.crash ~victims:(victims f) ())
  | "staggered" ->
    Adversary.const (Adversary.staggered_crash ~victims:(victims f) ~every:3)
  | a -> (
    match List.assoc_opt a e.Registry.attacks with
    | Some attack -> attack ~cfg ~f ~input
    | None ->
      die_misuse "adversary %S is not applicable to protocol %s" a
        (Registry.name e))

(* ---- fault flags, shared plan construction ------------------------------- *)

let plan_of_flags ~n ~seed ~drop ~dup ~delay ~delay_prob ~crash ~partition
    ~fault_seed =
  let plan =
    {
      Faults.seed =
        (match fault_seed with Some s -> Int64.of_int s | None -> seed);
      drop;
      dup;
      delay;
      delay_prob = (if delay > 0 then delay_prob else 0.0);
      processes = List.map (fun p -> (p, Faults.Crash { at = 0 })) crash;
      partitions =
        (if partition = [] then []
         else
           [ { Faults.from_slot = 0; until_slot = 1_000_000; island = partition } ]);
    }
  in
  match Faults.validate ~n plan with
  | Ok () -> plan
  | Error e -> die_misuse "bad fault plan: %s" e

(* ---- `run` ---------------------------------------------------------------- *)

let print_per_slot (s : Meter.snapshot) =
  pr "\nper-slot words (silent slots omitted; %d slots total):\n"
    (List.length s.Meter.per_slot);
  pr "  %6s %8s %10s %10s\n" "slot" "words" "messages" "byz_words";
  List.iter
    (fun (r : Meter.row) ->
      if r.Meter.messages > 0 || r.Meter.byz_messages > 0 then
        pr "  %6d %8d %10d %10d\n" r.Meter.ix r.Meter.words r.Meter.messages
          r.Meter.byz_words)
    s.Meter.per_slot

let decision_line p d = pr "  p%-3d decided %s\n" p d

(* The surviving processes' decisions, then the run summary. *)
let print_outcome ~show ~counters ~trace (o : _ Instances.agreement_outcome) =
  Array.iteri
    (fun p d ->
      if not (List.mem p o.Instances.corrupted) then
        decision_line p (match d with Some d -> show d | None -> "nothing (bug)"))
    o.Instances.decisions;
  pr "\nrun summary:\n";
  pr "  f (actual corruptions)     %d%s\n" o.Instances.f
    (if o.Instances.corrupted = [] then ""
     else
       Printf.sprintf "  (%s)"
         (String.concat ", " (List.map (Printf.sprintf "p%d") o.Instances.corrupted)));
  pr "  words (correct senders)    %d\n" o.Instances.words;
  pr "  messages                   %d\n" o.Instances.messages;
  pr "  words (byzantine senders)  %d\n" o.Instances.byz_words;
  pr "  signatures created         %d\n" o.Instances.signatures;
  let c = o.Instances.crypto in
  pr "  crypto cache (hit/miss)    verify %d/%d, aggregate %d/%d\n"
    c.Mewc_crypto.Pki.verify_hits c.Mewc_crypto.Pki.verify_misses
    c.Mewc_crypto.Pki.agg_hits c.Mewc_crypto.Pki.agg_misses;
  pr "  slots simulated            %d\n" o.Instances.slots;
  (match o.Instances.faulty with
  | [] -> ()
  | ps ->
    pr "  injected process faults    %s\n"
      (String.concat ", " (List.map (Printf.sprintf "p%d") ps)));
  pr "  status                     %s\n"
    (Format.asprintf "%a" Instances.pp_status o.Instances.status);
  if counters then begin
    pr "  non-silent phases          %d\n" o.Instances.nonsilent_phases;
    pr "  help requests              %d\n" o.Instances.help_requests;
    pr "  fallback runs              %d\n" o.Instances.fallback_runs
  end;
  if trace then print_per_slot o.Instances.meter;
  o.Instances.status

(* ---- `run --runtime async` ------------------------------------------------ *)

module Wire = Mewc_wire

(* The async runtime executes honest runs only (see
   Mewc_wire.Runtime's model note): the rushing adversary, the slot-level
   fault stage, the profiler and the trace are all lock-step constructs, so
   selecting any of them alongside --runtime async is a misuse. Byte-level
   chaos lives under `mewc wire --chaos`. *)
let run_async_cmd protocol n adversary f input ~seed ~delta ~faults ~profile_on
    ~trace =
  if adversary <> "honest" then
    die_misuse
      "--adversary %s requires --runtime sync: the async runtime executes \
       honest runs only (its adversarial surface is the network; see `mewc \
       wire --chaos`)"
      adversary;
  if f > 0 then
    die_misuse "--runtime async executes honest runs only; -f must be 0";
  if not (Faults.is_none faults) then
    die_misuse
      "slot-level fault injection requires --runtime sync; the async \
       runtime's faults are byte-level (`mewc wire --chaos`)";
  if profile_on then die_misuse "--profile requires --runtime sync";
  if trace then die_misuse "--trace requires --runtime sync";
  check_size ~delta n;
  let name = Registry.entry_name protocol in
  let entry =
    match Wire.Zoo.find name with
    | Some e -> e
    | None ->
      die_misuse "--runtime async needs a wire codec, and protocol %s has none"
        name
  in
  (* a value the wire format cannot carry would kill the process sending it *)
  (match Codec.encode Value.Str.codec input with
  | _ -> ()
  | exception Invalid_argument e ->
    die_misuse "--input does not fit the async runtime's wire format: %s" e);
  let cfg = Config.optimal ~n in
  pr "mewc: n=%d t=%d protocol=%s runtime=async delta=%gs seed=%Ld\n\n"
    n cfg.Config.t name delta seed;
  let finish : type d. d Wire.Runtime.outcome -> unit =
   fun o ->
    Array.iteri
      (fun p d ->
        decision_line p (match d with Some s -> s | None -> "nothing"))
      o.Wire.Runtime.decided_strs;
    let sum = Array.fold_left ( + ) 0 in
    let s = o.Wire.Runtime.stats in
    pr "\nrun summary (async):\n";
    pr "  words (metered)            %d\n" (sum o.Wire.Runtime.words);
    pr "  messages                   %d\n" (sum o.Wire.Runtime.messages);
    pr "  frames / bytes on wire     %d / %d\n" s.Wire.Runtime.frames_sent
      s.Wire.Runtime.bytes_sent;
    pr "  encoded words (32 B units) %d\n" s.Wire.Runtime.encoded_words;
    pr "  send retries / timeouts    %d / %d\n" s.Wire.Runtime.retries
      s.Wire.Runtime.send_timeouts;
    pr "  decode rejects / late      %d / %d\n" s.Wire.Runtime.decode_rejects
      s.Wire.Runtime.late_frames;
    pr "  barrier timer expiries     %d\n" s.Wire.Runtime.deadline_expiries;
    pr "  slots simulated            %d\n" o.Wire.Runtime.slots;
    (match o.Wire.Runtime.failures with
    | [] -> ()
    | (p, e) :: _ -> die_misuse "process p%d died: %s" p e);
    if
      o.Wire.Runtime.stalled <> []
      || Array.exists Option.is_none o.Wire.Runtime.decided_strs
    then begin
      pr "\nstall: undecided processes%s\n"
        (match o.Wire.Runtime.stalled with
        | [] -> ""
        | ps ->
          Printf.sprintf " (deadman-stopped: %s)"
            (String.concat ", " (List.map (Printf.sprintf "p%d") ps)));
      exit 2
    end
  in
  let (Wire.Zoo.E { reg; codec; _ }) = entry in
  finish
    (Wire.Runtime.run reg.Registry.protocol ~codec ~cfg ~seed ~delta
       ~params:(reg.Registry.params cfg ~input)
       ())

(* One lock-step run of the selected entry at its preset. [options] carries
   no monitor override, so it re-types to the entry's message type. *)
let run_sync (Registry.E e) ~cfg ~f ~input ~adversary ~trace ~options =
  print_outcome ~show:e.Registry.show ~counters:e.Registry.counters ~trace
    (Instances.run e.Registry.protocol ~cfg
       ~options:(Instances.retarget options)
       ~params:(e.Registry.params cfg ~input)
       ~adversary:(resolve_adversary e ~cfg ~f ~input adversary)
       ())

let run_cmd protocol n adversary f seed input trace profile_on drop dup delay
    delay_prob crash partition fault_seed runtime delta =
  let runtime =
    match Wire.Runtime.kind_of_string runtime with
    | Ok k -> k
    | Error e -> die_misuse "%s" e
  in
  let cfg = Config.optimal ~n in
  let t = cfg.Config.t in
  let f = min f t in
  let seed = Int64.of_int seed in
  let faults =
    plan_of_flags ~n ~seed ~drop ~dup ~delay ~delay_prob ~crash ~partition
      ~fault_seed
  in
  match runtime with
  | Wire.Runtime.Async_domains ->
    run_async_cmd protocol n adversary f input ~seed ~delta ~faults ~profile_on
      ~trace
  | Wire.Runtime.Sync_oracle ->
    let profile = if profile_on then Some (Profile.create ()) else None in
    (* A profiled run also counts [engine.messages], for the footer. *)
    let metrics =
      if profile_on then Some (Mewc_obs.Metrics.create ()) else None
    in
    pr "mewc: n=%d t=%d protocol=%s adversary=%s f=%d seed=%Ld%s\n\n" n t
      (Registry.entry_name protocol) adversary f seed
      (if Faults.is_none faults then ""
       else Printf.sprintf " faults=%s" (Format.asprintf "%a" Faults.pp faults));
    let status =
      match
        run_sync protocol ~cfg ~f ~input ~adversary ~trace
          ~options:
            {
              Instances.default_options with
              Instances.seed;
              profile;
              faults;
              metrics;
            }
      with
      | status -> status
      | exception Monitor.Violation v ->
        pr "\nmonitor violated: %s\n" (Format.asprintf "%a" Monitor.pp_violation v);
        exit 3
    in
    (match (profile, metrics) with
    | Some p, Some m ->
      pr "\n";
      print_string (Profile.flame p);
      (* The hot path's spans (engine and machine) do not nest in one
         another, so their allocations add up. *)
      let hot =
        List.fold_left
          (fun acc (r : Profile.row) ->
            match r.Profile.category with
            | Profile.Engine | Profile.Machine -> acc +. r.Profile.alloc_words
            | _ -> acc)
          0.0 (Profile.rows p)
      in
      let messages =
        Option.value ~default:0
          (List.assoc_opt "engine.messages"
             (Mewc_obs.Metrics.snapshot m).Mewc_obs.Metrics.counter_values)
      in
      pr "alloc words per message: %.1f (engine and machine spans, %d messages)\n"
        (hot /. float_of_int (max 1 messages))
        messages;
      (* The whole process's major-heap peak, setup and profiler included:
         at large n it is the run's state, about n² pairs of it. *)
      let top = (Gc.quick_stat ()).Gc.top_heap_words in
      pr "peak heap words: %d (%.2f per process pair, n = %d)\n" top
        (float_of_int top /. float_of_int (n * n))
        n
    | _ -> ());
    (match status with Instances.Decided -> () | Instances.Undecided _ -> exit 2)

(* ---- `trace` --------------------------------------------------------------- *)

type trace_format = Json | Csv

(* Re-decode the run's own JSON, so every trace invocation also exercises
   the parse side of the mewc-trace/4 schema. *)
let reparsed_trace json =
  match Trace.of_json ~decode:Fun.id json with
  | Ok tr -> tr
  | Error e -> die_parse "trace does not reparse: %s" e

let causal_view json =
  match Causality.of_trace (reparsed_trace json) with
  | Ok c -> c
  | Error e -> die_parse "trace is not causally well-formed: %s" e

(* The cone analysis: a summary line per decision, then — for the requested
   pid — the cone rendered as events (default) or Graphviz (--dot). *)
let cone_text ~pid ~dot json =
  let c = causal_view json in
  if pid < 0 || pid >= Causality.n_processes c then
    die_misuse "--cone %d: no such process (n = %d)" pid
      (Causality.n_processes c);
  if Causality.cone_ids c pid = None then
    die_misuse "--cone %d: p%d never decided in this run" pid pid;
  if dot then Causality.to_dot ~cone_of:pid c
  else begin
    let b = Buffer.create 4096 in
    List.iter
      (fun (s : Causality.summary) ->
        Buffer.add_string b
          (Printf.sprintf
             "# p%d decided %S at slot %d: cone %d messages / %d words, \
              critical path %d\n"
             s.Causality.pid s.Causality.value s.Causality.slot
             s.Causality.cone_messages s.Causality.cone_words
             s.Causality.critical_path_length))
      (Causality.summaries c);
    List.iter
      (fun ev ->
        Buffer.add_string b (Format.asprintf "%a\n" (Trace.pp_event Fmt.string) ev))
      (Causality.cone c pid);
    Buffer.contents b
  end

let trace_cmd protocol n adversary f seed input format output cone dot =
  let cfg = Config.optimal ~n in
  let t = cfg.Config.t in
  let f = min f t in
  let seed = Int64.of_int seed in
  let options =
    { Instances.default_options with Instances.seed; record_trace = true }
  in
  let trace_json =
    match protocol with
    | Registry.E e ->
      (Instances.run e.Registry.protocol ~cfg ~options
         ~params:(e.Registry.params cfg ~input)
         ~adversary:(resolve_adversary e ~cfg ~f ~input adversary)
         ())
        .Instances.trace_json
  in
  let json =
    match trace_json with
    | Some j -> j
    | None -> die_misuse "runner produced no trace (internal error)"
  in
  let text, what =
    match cone with
    | Some pid -> (cone_text ~pid ~dot json, if dot then "dot" else "cone")
    | None ->
      if dot then (Causality.to_dot (causal_view json), "dot")
      else (
        match format with
        | Json -> (Jsonx.to_string json ^ "\n", "json")
        | Csv -> (Trace.to_csv ~encode:Fun.id (reparsed_trace json), "csv"))
  in
  match output with
  | None -> print_string text
  | Some path ->
    write_file path text;
    pr "wrote %s (%s, protocol=%s adversary=%s f=%d seed=%Ld)\n" path what
      (Registry.entry_name protocol) adversary f seed

(* ---- `bench` --------------------------------------------------------------- *)

(* Grid selection shared by `bench` and the perf subcommands. Whatever the
   frontier's standalone-fallback cap drops is carried into the report
   instead of silently vanishing. *)
let select_grid ~smoke ~frontier =
  if smoke && frontier then die_misuse "--smoke and --frontier are exclusive"
  else if frontier then begin
    let points, capped = Sweep.frontier_grid in
    (points, capped, "frontier")
  end
  else if smoke then (Sweep.smoke_grid, [], "smoke")
  else (Sweep.standard_grid, [], "standard")

(* --progress: an opt-in stderr heartbeat. [heartbeat_of] returns the
   ?progress tick to thread into a sweep plus the finish hook; with the
   flag off both are inert, so the flag can never perturb stdout or any
   JSON artifact (test_cli pins that). *)
let heartbeat_of enabled ~label ~total =
  if not enabled then (None, fun () -> ())
  else
    let hb = Mewc_obs.Heartbeat.create ~total ~label () in
    (Some (fun () -> Mewc_obs.Heartbeat.tick hb),
     fun () -> Mewc_obs.Heartbeat.finish hb)

(* The one sweep behind `bench` and every perf subcommand, and its identity
   gate. [sweep] only measures; [gate] then requires the parallel pass to
   match the sequential rows, so `bench` can still print and write a
   diverged report before failing, while no diverged sweep ever reaches a
   ledger. *)
let sweep ?profile ?(progress = false) ~smoke ~frontier ~jobs () =
  let grid, capped, grid_name = select_grid ~smoke ~frontier in
  let tick, finish =
    heartbeat_of progress ~label:"bench" ~total:(List.length grid)
  in
  let report =
    Sweep.run_perf ?jobs ?profile ~capped ?progress:tick grid
  in
  finish ();
  (report, grid_name)

let gate (report : Sweep.report) =
  if not report.Sweep.identical then
    die_misuse "parallel sweep diverged from sequential (BUG)"

let bench_cmd jobs smoke frontier output progress =
  let report, grid_name = sweep ~progress ~smoke ~frontier ~jobs () in
  pr
    "mewc bench: %d points (%s grid), %d cores, jobs=%d\n\
    \  parallelism   %s\n\
    \  sequential    %.2fs\n\
    \  parallel      %.2fs\n\
    \  speedup       %.2fx\n\
    \  parallel output %s sequential output\n"
    (List.length report.Sweep.rows)
    grid_name report.Sweep.cores report.Sweep.jobs report.Sweep.parallelism
    report.Sweep.sequential_s
    report.Sweep.parallel_s report.Sweep.speedup
    (if report.Sweep.identical then "==" else "!= (BUG)");
  (match report.Sweep.capped with
  | [] -> ()
  | capped ->
    pr "  capped (standalone fallback beyond n=%d): %s\n"
      Sweep.fallback_cap
      (String.concat ", "
         (List.map (Format.asprintf "%a" Sweep.pp_point) capped)));
  (match output with
  | None -> ()
  | Some path ->
    write_file path (json_text (Sweep.report_to_json report));
    pr "wrote %s (schema mewc-perf/2)\n" path);
  gate report

(* ---- `perf`: the regression ledger -------------------------------------- *)

module Ascii_table = Mewc_prelude.Ascii_table

let default_ledger = "BENCH_ledger.json"

let load_ledger path =
  match Ledger.load path with
  | Ok entries -> entries
  | Error e -> die_parse "perf: %s" e

let entry_label (e : Ledger.entry) = Printf.sprintf "%s@%s" e.Ledger.rev e.Ledger.date

(* One profiled, gated sweep for every perf subcommand. *)
let perf_sweep ~smoke ~frontier ~jobs =
  let profile = Profile.create () in
  let report, grid_name = sweep ~profile ~smoke ~frontier ~jobs () in
  gate report;
  (report, profile, grid_name)

let perf_append ledger rev date smoke frontier jobs =
  let report, profile, grid = perf_sweep ~smoke ~frontier ~jobs in
  let entry = Ledger.of_report ~rev ~date ~grid ~profile report in
  let count = appended ~cmd:"perf" ledger (Ledger.append ledger entry) in
  pr "mewc perf: appended %s (%s grid, %d rows) to %s (%d entries)\n"
    (entry_label entry) grid
    (List.length report.Sweep.rows)
    ledger count;
  print_string (Profile.flame profile)

let perf_list ledger =
  let entries = load_ledger ledger in
  if entries = [] then pr "mewc perf: %s has no entries\n" ledger
  else begin
    let table =
      Ascii_table.create ~title:ledger
        ~headers:
          [ "#"; "rev"; "date"; "grid"; "rows"; "seq s"; "par s"; "speedup"; "parallelism" ]
    in
    List.iteri
      (fun i (e : Ledger.entry) ->
        Ascii_table.add_row table
          [
            string_of_int i;
            e.Ledger.rev;
            e.Ledger.date;
            e.Ledger.grid;
            string_of_int (List.length e.Ledger.rows);
            Printf.sprintf "%.2f" e.Ledger.sequential_s;
            Printf.sprintf "%.2f" e.Ledger.parallel_s;
            Printf.sprintf "%.2f" e.Ledger.speedup;
            e.Ledger.parallelism;
          ])
      entries;
    Ascii_table.print table
  end

let perf_diff ledger threshold json_out against smoke jobs sel_a sel_b =
  let entries = load_ledger ledger in
  let a, b, label_a, label_b =
    if against then begin
      let grid = if smoke then "smoke" else "standard" in
      let base =
        match
          List.rev
            (List.filter (fun (e : Ledger.entry) -> String.equal e.Ledger.grid grid) entries)
        with
        | e :: _ -> e
        | [] -> die_misuse "perf: %s has no %s-grid entry to diff against" ledger grid
      in
      let report, profile, grid = perf_sweep ~smoke ~frontier:false ~jobs in
      let fresh =
        Ledger.of_report ~rev:"worktree" ~date:"uncommitted" ~grid ~profile report
      in
      (base, fresh, entry_label base, "worktree")
    end
    else
      match (sel_a, sel_b) with
      | Some sa, Some sb ->
        let pick s =
          match Ledger.find entries s with
          | Ok e -> e
          | Error e -> die_misuse "perf: %s" e
        in
        let a = pick sa and b = pick sb in
        (a, b, entry_label a, entry_label b)
      | _ ->
        die_misuse
          "perf diff: need two entry selectors (index or rev prefix; use -- \
           before negative indices) or --against-ledger"
  in
  let d = Ledger.diff ?threshold a b in
  if json_out then print_string (Jsonx.to_string (Ledger.diff_to_json d) ^ "\n")
  else print_string (Ledger.render ~label_a ~label_b d);
  if d.Ledger.regressions > 0 then exit 3

(* The CI gate: sweep the smoke grid, append it to a scratch ledger, read
   the ledger back, and require (a) byte-identical row round-trip and (b) a
   zero-delta self-diff. Catches schema drift between the ledger's writer
   and reader before a real regression ever needs it. A scratch ledger is
   removed at exit, so a failing gate (whose `exit` does not unwind) leaves
   nothing behind either. *)
let perf_smoke ledger =
  let path =
    match ledger with
    | Some p -> p
    | None ->
      let p = Filename.temp_file "mewc-ledger-smoke" ".json" in
      Sys.remove p;
      at_exit (fun () -> if Sys.file_exists p then Sys.remove p);
      p
  in
  let report, profile, grid =
    perf_sweep ~smoke:true ~frontier:false ~jobs:None
  in
  let entry = Ledger.of_report ~rev:"smoke" ~date:"smoke" ~grid ~profile report in
  ignore (appended ~cmd:"perf" path (Ledger.append path entry) : int);
  let entries = load_ledger path in
  let last =
    match Ledger.find entries "-1" with
    | Ok e -> e
    | Error e -> die_misuse "perf: %s" e
  in
  let lines rows = List.map Sweep.row_to_line rows in
  if not (List.equal String.equal (lines last.Ledger.rows) (lines report.Sweep.rows))
  then die_misuse "perf smoke: ledger rows did not round-trip byte-identically";
  let d = Ledger.diff last last in
  if
    d.Ledger.regressions <> 0
    || d.Ledger.only_a <> []
    || d.Ledger.only_b <> []
    || List.exists (fun (dl : Ledger.delta) -> dl.Ledger.words_ratio <> 1.0) d.Ledger.matched
  then die_misuse "perf smoke: self-diff is not a zero delta";
  pr "mewc perf: smoke ok — %d rows appended, round-tripped byte-identically, \
      self-diff is zero\n"
    (List.length report.Sweep.rows)

(* ---- frontier CSV: measured words vs the literature's curves ------------- *)

(* A thin alias: the frontier arithmetic (the paper's n(f+1), Civit et
   al.'s n + t*f, King-Saia's n*sqrt(n)*log2(n) reference columns) lives
   in Mewc_report.Figure so `mewc report` and this subcommand can never
   disagree about a column. *)
let perf_frontier_csv ledger selector output =
  let entries = load_ledger ledger in
  let entry =
    match Ledger.find entries selector with
    | Ok e -> e
    | Error e -> die_misuse "perf: %s" e
  in
  let csv = Mewc_report.Figure.frontier_csv entry.Ledger.rows in
  match output with
  | None -> print_string csv
  | Some path ->
    write_file path csv;
    pr "wrote %s (%d rows from ledger entry %s)\n" path
      (List.length entry.Ledger.rows)
      (entry_label entry)

(* ---- `report`: figures + consistency from the committed artifacts ------- *)

(* Everything is re-parsed from disk (Mewc_report.Loader) and regenerated
   as a pure function of the parsed artifacts, so --check can byte-compare
   the regeneration against the committed docs/report/ files: a broken
   artifact dies with 124 like every other parse error, drift or a violated
   cross-artifact invariant exits 3 like every other finding. *)
let report_cmd dir out check =
  let out =
    match out with
    | Some o -> o
    | None -> Filename.concat dir (Filename.concat "docs" "report")
  in
  let artifacts =
    match Mewc_report.Loader.load_all ~dir with
    | Ok a -> a
    | Error e -> die_parse "report: %s" e
  in
  let findings = Mewc_report.Consistency.run artifacts in
  let files = Mewc_report.Report.generate artifacts in
  print_string (Mewc_report.Consistency.render findings);
  if check then begin
    let drift = Mewc_report.Report.check ~dir:out files in
    List.iter (fun d -> pr "[report-drift] %s\n" d) drift;
    if findings <> [] || drift <> [] then exit 3;
    pr "mewc report: ok — %d files in %s match regeneration, consistency clean\n"
      (List.length files) out
  end
  else begin
    Mewc_report.Report.write ~dir:out files;
    pr "mewc report: wrote %d files to %s\n" (List.length files) out;
    if findings <> [] then exit 3
  end

(* ---- fuzz --------------------------------------------------------------- *)

module Fuzz = Mewc_fuzz

let epr fmt = Printf.eprintf fmt

let fuzz_fail fmt = Printf.ksprintf (fun s -> epr "mewc fuzz: %s\n%!" s; exit 1) fmt

let pp_entry ppf (e : Fuzz.Campaign.entry) =
  Format.fprintf ppf "target=%s n=%d t=%d@ scenario: %a@ violation: %a"
    e.Fuzz.Campaign.target e.Fuzz.Campaign.n e.Fuzz.Campaign.t Fuzz.Scenario.pp
    e.Fuzz.Campaign.scenario Monitor.pp_violation e.Fuzz.Campaign.violation

(* A corpus entry that does not parse (malformed JSON, foreign schema) is a
   parse error — 124 — while an entry that parses but fails to reproduce is
   an operational failure — 1 (see the exit-code contract above). *)
let load_entry path =
  match Fuzz.Campaign.load path with
  | Ok e -> e
  | Error msg -> die_parse "fuzz: %s: %s" path msg

let fuzz_smoke ~jobs ~out =
  match Fuzz.Campaign.smoke ?jobs ~log:(fun s -> epr "mewc fuzz: %s\n%!" s) () with
  | Error msg -> fuzz_fail "smoke FAILED: %s" msg
  | Ok entry ->
    pr "mewc fuzz: smoke ok — planted ablation found, minimized, replayed\n";
    pr "  %s\n" (Format.asprintf "@[<v>%a@]" pp_entry entry);
    (match out with
    | None -> ()
    | Some path ->
      Fuzz.Campaign.save path entry;
      pr "wrote %s (schema %s)\n" path Fuzz.Campaign.schema)

let fuzz_replay path =
  let entry = load_entry path in
  match Fuzz.Campaign.replay entry with
  | Ok v ->
    pr "mewc fuzz: %s reproduced: %s\n" path
      (Format.asprintf "%a" Monitor.pp_violation v)
  | Error msg -> fuzz_fail "%s did NOT reproduce: %s" path msg

let fuzz_replay_dir dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
  in
  if files = [] then fuzz_fail "no corpus entries (*.json) in %s" dir;
  List.iter fuzz_replay files;
  pr "mewc fuzz: corpus %s ok (%d entries)\n" dir (List.length files)

let fuzz_minimize path out =
  let entry = load_entry path in
  match Fuzz.Campaign.minimize entry with
  | Error msg -> fuzz_fail "%s: %s" path msg
  | Ok entry ->
    let dst = Option.value out ~default:path in
    Fuzz.Campaign.save dst entry;
    pr "mewc fuzz: minimized %s -> %s\n  %s\n" path dst
      (Format.asprintf "@[<v>%a@]" pp_entry entry)

let fuzz_campaign ~target ~jobs ~seed ~count ~out =
  let name =
    match target with
    | Some name -> name
    | None -> fuzz_fail "--target required (or use --smoke / --replay / --minimize)"
  in
  let target =
    match Fuzz.Campaign.find_target name with
    | Some t -> t
    | None ->
      fuzz_fail "unknown target %S (known: %s)" name
        (String.concat ", " (List.map Fuzz.Campaign.target_name Fuzz.Campaign.zoo))
  in
  let cfg = Config.create ~n:9 ~t:4 in
  match Fuzz.Campaign.campaign ?jobs target ~cfg ~seed ~count () with
  | None ->
    pr "mewc fuzz: %s clean — %d scenarios from seed %Ld, no violation\n" name
      count seed
  | Some f ->
    pr "mewc fuzz: %s scenario #%d violates:\n  %s\n" name f.Fuzz.Campaign.index
      (Format.asprintf "%a" Monitor.pp_violation f.Fuzz.Campaign.violation);
    let scenario, violation =
      Fuzz.Campaign.shrink target ~cfg f.Fuzz.Campaign.scenario
        f.Fuzz.Campaign.violation
    in
    let entry =
      { Fuzz.Campaign.target = name; n = 9; t = 4; scenario; violation }
    in
    pr "  minimized: %s\n" (Format.asprintf "%a" Fuzz.Scenario.pp scenario);
    (match out with
    | None -> ()
    | Some path ->
      Fuzz.Campaign.save path entry;
      pr "wrote %s (schema %s)\n" path Fuzz.Campaign.schema);
    exit 3

let fuzz_cmd target count seed jobs out replay replay_dir minimize smoke list =
  if list then
    List.iter
      (fun t ->
        pr "%s%s\n"
          (Fuzz.Campaign.target_name t)
          (if Fuzz.Campaign.target_ablated t then " (ablated)" else ""))
      Fuzz.Campaign.zoo
  else if smoke then fuzz_smoke ~jobs ~out
  else
    match (replay, replay_dir, minimize) with
    | Some path, None, None -> fuzz_replay path
    | None, Some dir, None -> fuzz_replay_dir dir
    | None, None, Some path -> fuzz_minimize path out
    | None, None, None -> fuzz_campaign ~target ~jobs ~seed ~count ~out
    | _ -> fuzz_fail "--replay, --replay-dir and --minimize are mutually exclusive"

(* ---- `chaos`: the degradation matrix ------------------------------------- *)

let parse_cell spec =
  let planted_p, planted_prof, _ = Degrade.planted_unsafe in
  let known = Degrade.protocols @ [ planted_p ] in
  let known_profs = Degrade.profiles @ [ planted_prof ] in
  let bad () =
    die_misuse
      "chaos: bad cell %S (want PROTOCOL:FAULT:LEVEL, e.g. \
       weak-ba:partition:3; protocols: %s; faults: %s; levels 0..%d)"
      spec
      (String.concat ", " known)
      (String.concat ", " known_profs)
      (Degrade.levels - 1)
  in
  match String.split_on_char ':' spec with
  | [ p; prof; l ] -> (
    match int_of_string_opt l with
    | Some level
      when List.mem p known
           && List.mem prof known_profs
           && level >= 0 && level < Degrade.levels ->
      (p, prof, level)
    | _ -> bad ())
  | _ -> bad ()

let write_matrix path cells =
  write_file path (json_text (Degrade.matrix_to_json cells));
  pr "wrote %s (schema mewc-degrade/1)\n" path

let chaos_cmd jobs smoke cell output progress =
  match cell with
  | Some spec ->
    let protocol, profile, level = parse_cell spec in
    let c =
      Degrade.run_cell ~options:Instances.default_options ~protocol ~profile
        ~level
    in
    pr "mewc chaos: %s/%s/L%d seed=%Ld -> %s\n" protocol profile level
      c.Degrade.seed
      (Format.asprintf "%a" Monitor.pp_classification c.Degrade.verdict);
    pr "  faulty %d, undecided %d, words %d, slots %d\n" c.Degrade.faulty
      c.Degrade.undecided c.Degrade.words c.Degrade.slots;
    (match c.Degrade.verdict with
    | Monitor.Safe_live -> ()
    | Monitor.Safe_stalled _ -> exit 2
    | Monitor.Unsafe _ -> exit 3)
  | None ->
    if smoke then (
      match Degrade.smoke ?jobs () with
      | Error msg ->
        epr "mewc chaos: smoke FAILED: %s\n%!" msg;
        exit 1
      | Ok cells ->
        print_string (Degrade.render cells);
        let p, prof, l = Degrade.planted_unsafe in
        pr
          "mewc chaos: smoke ok — controls and crash-only cells live, \
           duplication safe, a partition stalls, and the planted %s/%s/L%d \
           violation is still caught\n"
          p prof l;
        Option.iter (fun path -> write_matrix path cells) output)
    else begin
      let tick, finish =
        heartbeat_of progress ~label:"chaos"
          ~total:(List.length Degrade.protocols * List.length Degrade.profiles
                  * Degrade.levels)
      in
      let cells = Degrade.run_all ?jobs ?progress:tick () in
      finish ();
      print_string (Degrade.render cells);
      Option.iter (fun path -> write_matrix path cells) output;
      match Degrade.unsafe_cells cells with
      | [] -> ()
      | unsafe ->
        List.iter
          (fun (c : Degrade.cell) ->
            epr "mewc chaos: UNSAFE %s/%s/L%d (seed %Ld): %s\n" c.Degrade.protocol
              c.Degrade.profile c.Degrade.level c.Degrade.seed
              (match c.Degrade.verdict with
              | Monitor.Unsafe v -> Format.asprintf "%a" Monitor.pp_violation v
              | _ -> assert false))
          unsafe;
        exit 3
    end

(* ---- `throughput`: the repeated-BA service ------------------------------- *)

let throughput_cmd smoke n workload depth rev date ledger output progress =
  if smoke then (
    match Throughput.smoke () with
    | Error msg ->
      epr "mewc throughput: smoke FAILED: %s\n%!" msg;
      exit 1
    | Ok entry ->
      print_string (Throughput.render entry);
      pr
        "mewc throughput: smoke ok — grid deterministic, deep pipeline \
         byte-equal to the sequential oracle and strictly faster, SLO \
         controls at 1.0\n")
  else begin
    (match workload with
    | Some w when Workload.find_preset w = None ->
      die_misuse "throughput: unknown workload %S (known: %s)" w
        (String.concat ", " Workload.preset_names)
    | _ -> ());
    (match depth with
    | Some d when not (List.mem_assoc d Throughput.depths) ->
      die_misuse "throughput: unknown depth %S (known: %s)" d
        (String.concat ", " (List.map fst Throughput.depths))
    | _ -> ());
    let ns = match n with Some n -> [ n ] | None -> [ 9; 13 ] in
    let workloads =
      match workload with Some w -> [ w ] | None -> Workload.preset_names
    in
    let depth_names =
      match depth with Some d -> [ d ] | None -> List.map fst Throughput.depths
    in
    let grid =
      List.concat_map
        (fun n ->
          List.concat_map
            (fun w -> List.map (fun d -> (n, w, d)) depth_names)
            workloads)
        ns
    in
    let tick, finish =
      heartbeat_of progress ~label:"throughput"
        ~total:(List.length grid + List.length Throughput.slo_grid)
    in
    let cells =
      try Throughput.run_grid ?progress:tick grid
      with Invalid_argument e -> die_misuse "throughput: %s" e
    in
    let slo = Throughput.slo_sweep ?progress:tick () in
    finish ();
    let entry = { Throughput.rev; date; cells; slo } in
    print_string (Throughput.render entry);
    (match output with
    | None -> ()
    | Some path ->
      write_file path
        (json_text (Throughput.to_json [ Throughput.entry_to_json entry ]));
      pr "wrote %s (schema %s)\n" path Throughput.schema);
    match ledger with
    | None -> ()
    | Some path -> (
      let count = appended ~cmd:"throughput" path (Throughput.append path entry) in
      pr "mewc throughput: appended %s@%s to %s (%d entries)\n" rev date path
        count)
  end

open Cmdliner

let protocol_arg =
  Arg.(
    required
    & opt (some protocol_conv) None
    & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
        ~doc:(Printf.sprintf "One of %s." (String.concat ", " Registry.names)))

let n_arg =
  Term.(
    const (fun n ->
        check_size n;
        n)
    $ Arg.(
        value & opt int 9 & info [ "n" ] ~docv:"N" ~doc:"System size (odd, n = 2t+1)."))

let adversary_arg =
  Arg.(
    value & opt string "honest"
    & info [ "a"; "adversary" ] ~docv:"ADVERSARY"
        ~doc:(Printf.sprintf "One of: %s." (String.concat ", " adversaries)))

let f_arg =
  Arg.(
    value & opt int 0
    & info [ "f" ] ~docv:"F" ~doc:"Number of victims for crash-style adversaries.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let input_arg =
  Arg.(
    value & opt string "value"
    & info [ "i"; "input" ] ~docv:"VALUE" ~doc:"Input / broadcast value.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Emit a stderr heartbeat line per completed sweep point (off by \
           default). Strictly an observer: stdout and every JSON artifact \
           are byte-identical with or without it.")

let run_term =
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Also print the per-slot word/message series of the run.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Print a wall-clock/allocation flame summary of the run's engine \
             phases, crypto hot paths and serialization.")
  in
  let drop =
    Arg.(
      value & opt float 0.0
      & info [ "drop" ] ~docv:"P"
          ~doc:"Per-link-delivery drop probability (fault injection).")
  in
  let dup =
    Arg.(
      value & opt float 0.0
      & info [ "dup" ] ~docv:"P" ~doc:"Per-delivery duplication probability.")
  in
  let delay =
    Arg.(
      value & opt int 0
      & info [ "delay" ] ~docv:"K"
          ~doc:"Delay affected messages by $(docv) extra slots (a δ violation).")
  in
  let delay_prob =
    Arg.(
      value & opt float 0.5
      & info [ "delay-prob" ] ~docv:"P"
          ~doc:"Probability a send is delayed (only with $(b,--delay)).")
  in
  let crash =
    Arg.(
      value & opt (list int) []
      & info [ "crash" ] ~docv:"PIDS"
          ~doc:"Crash these processes (comma-separated pids) at slot 0.")
  in
  let partition =
    Arg.(
      value & opt (list int) []
      & info [ "partition" ] ~docv:"PIDS"
          ~doc:
            "Partition these pids into an island for the whole run: links \
             crossing the cut fail both ways.")
  in
  let fault_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:"Seed of the fault layer's coin flips (default: --seed).")
  in
  let runtime =
    Arg.(
      value & opt string "sync"
      & info [ "runtime" ] ~docv:"RUNTIME"
          ~doc:
            "Execution runtime: $(b,sync) (the default: the deterministic \
             lock-step engine, the differential oracle) or $(b,async) \
             (one thread per process exchanging mewc-wire/1 frames over a real transport, with δ a real \
             monotonic-clock deadline — honest runs only). An unknown \
             value is a misuse (exit 1).")
  in
  let delta =
    Arg.(
      value & opt float Mewc_wire.Runtime.default_delta
      & info [ "delta" ] ~docv:"SECONDS"
          ~doc:
            "The async runtime's δ: the real-time budget per slot barrier \
             (only with $(b,--runtime async)). Fault-free runs advance on \
             the Done-marker barrier and never consult it.")
  in
  Term.(
    const run_cmd $ protocol_arg $ n_arg $ adversary_arg $ f_arg $ seed_arg
    $ input_arg $ trace $ profile $ drop $ dup $ delay $ delay_prob $ crash
    $ partition $ fault_seed $ runtime $ delta)

let trace_term =
  let format =
    Arg.(
      value
      & opt (enum [ ("json", Json); ("csv", Csv) ]) Json
      & info [ "format" ] ~docv:"FORMAT" ~doc:"Output format: json or csv.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  let cone =
    Arg.(
      value
      & opt (some int) None
      & info [ "cone" ] ~docv:"PID"
          ~doc:
            "Instead of the raw trace, emit the happens-before cone of \
             process $(docv)'s decision: per-decision summaries (cone \
             messages, cone words, critical-path length) followed by the \
             cone's events, or Graphviz with $(b,--dot).")
  in
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:
            "Emit the message DAG as Graphviz DOT (restricted to one \
             decision's cone when combined with $(b,--cone), with its \
             critical path highlighted).")
  in
  Term.(
    const trace_cmd $ protocol_arg $ n_arg $ adversary_arg $ f_arg $ seed_arg
    $ input_arg $ format $ output $ cone $ dot)

let bench_term =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domains for the parallel sweep pass (default: all cores, \
             $(b,Domain.recommended_domain_count)).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Run the small CI grid (n ∈ {9, 13}) instead of the standard \
                perf grid (n up to 401).")
  in
  let frontier =
    Arg.(
      value & flag
      & info [ "frontier" ]
          ~doc:
            "Run the words-vs-n frontier grid (n up to 2001; weak BA keeps \
             its faulty points throughout). The standalone fallback is \
             capped at n = 401 and the dropped points are reported, not \
             silently truncated.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the mewc-perf/2 JSON report to FILE.")
  in
  Term.(const bench_cmd $ jobs $ smoke $ frontier $ output $ progress_arg)

let fuzz_term =
  let target =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "target" ] ~docv:"TARGET"
          ~doc:"Fuzz target (see --list); e.g. weak-ba, weak-ba-ablated.")
  in
  let count =
    Arg.(
      value & opt int 256
      & info [ "count" ] ~docv:"N" ~doc:"Scenarios to scan in campaign mode.")
  in
  let seed =
    Arg.(
      value & opt int64 1L
      & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed; scenario $(i,i) is a \
                                           pure function of it.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Domains for the parallel scan (default: all cores). The \
                outcome is independent of this.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the (minimized) mewc-fuzz/1 corpus entry to FILE.")
  in
  let replay =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay one corpus entry; fails unless the recorded violation \
                reproduces byte-identically.")
  in
  let replay_dir =
    Arg.(
      value
      & opt (some dir) None
      & info [ "replay-dir" ] ~docv:"DIR"
          ~doc:"Replay every *.json corpus entry in DIR (the CI gate).")
  in
  let minimize =
    Arg.(
      value
      & opt (some file) None
      & info [ "minimize" ] ~docv:"FILE"
          ~doc:"Re-shrink a corpus entry and write it back (or to --output).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"CI self-validation: fuzz the sound targets clean, then find, \
                shrink and replay the planted weak-ba-ablated agreement \
                violation.")
  in
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List fuzz targets and exit.")
  in
  Term.(
    const fuzz_cmd $ target $ count $ seed $ jobs $ out $ replay $ replay_dir
    $ minimize $ smoke $ list)

let chaos_term =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Domains for the parallel sweep (default 1). The matrix is \
                independent of this.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"CI self-validation: run the full matrix and check the \
                expected degradation envelope — controls and crash-only \
                cells safe-live, duplication never unsafe, at least one \
                partition stall, and the planted reliability violation \
                still unsafe.")
  in
  let cell =
    Arg.(
      value
      & opt (some string) None
      & info [ "cell" ] ~docv:"PROTOCOL:FAULT:LEVEL"
          ~doc:"Run one grid cell and exit 0 (live) / 2 (stalled) / 3 \
                (unsafe).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the mewc-degrade/1 JSON matrix to FILE.")
  in
  Term.(const chaos_cmd $ jobs $ smoke $ cell $ output $ progress_arg)

let perf_cmd =
  let ledger_arg =
    Arg.(
      value & opt string default_ledger
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:"Ledger file (default $(b,BENCH_ledger.json)).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Domains for the parallel sweep pass (default: all cores).")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Sweep the small CI grid instead of the standard perf grid.")
  in
  let frontier_arg =
    Arg.(
      value & flag
      & info [ "frontier" ]
          ~doc:
            "Sweep the words-vs-n frontier grid (n up to 2001) instead of \
             the standard perf grid.")
  in
  let append_term =
    let rev =
      Arg.(
        value & opt string "unknown"
        & info [ "rev" ] ~docv:"REV"
            ~doc:"Git revision to record (the tool never shells out).")
    in
    let date =
      Arg.(
        value & opt string "unknown"
        & info [ "date" ] ~docv:"DATE" ~doc:"Date to record (ISO 8601).")
    in
    Term.(
      const perf_append $ ledger_arg $ rev $ date $ smoke_arg $ frontier_arg
      $ jobs_arg)
  in
  let diff_term =
    let threshold =
      Arg.(
        value
        & opt (some float) None
        & info [ "threshold" ] ~docv:"T"
            ~doc:
              "Regression threshold as a fraction (default 0.25): a point \
               whose word count — or the sequential wall clock — grows by \
               more than $(docv) regresses, and the command exits 3.")
    in
    let json_out =
      Arg.(
        value & flag
        & info [ "json" ] ~doc:"Emit the diff as JSON instead of a table.")
    in
    let against =
      Arg.(
        value & flag
        & info [ "against-ledger" ]
            ~doc:
              "Run a fresh sweep and diff it against the most recent ledger \
               entry on the same grid (baseline = ledger, candidate = \
               worktree).")
    in
    let sel_a =
      Arg.(
        value
        & pos 0 (some string) None
        & info [] ~docv:"A"
            ~doc:
              "Baseline entry: index (negative counts from the end; write \
               $(b,--) first) or unique rev prefix.")
    in
    let sel_b =
      Arg.(value & pos 1 (some string) None & info [] ~docv:"B" ~doc:"Candidate entry.")
    in
    Term.(
      const perf_diff $ ledger_arg $ threshold $ json_out $ against $ smoke_arg
      $ jobs_arg $ sel_a $ sel_b)
  in
  let frontier_csv_term =
    let selector =
      Arg.(
        value
        & pos 0 string "-1"
        & info [] ~docv:"ENTRY"
            ~doc:
              "Ledger entry to dump: index (negative counts from the end; \
               default $(b,-1), the latest) or unique rev prefix.")
    in
    let output =
      Arg.(
        value
        & opt (some string) None
        & info [ "o"; "output" ] ~docv:"FILE"
            ~doc:"Write the CSV to FILE instead of stdout.")
    in
    Term.(const perf_frontier_csv $ ledger_arg $ selector $ output)
  in
  let smoke_term =
    let scratch_ledger =
      Arg.(
        value
        & opt (some string) None
        & info [ "ledger" ] ~docv:"FILE"
            ~doc:"Append to $(docv) instead of a throwaway temp file.")
    in
    Term.(const perf_smoke $ scratch_ledger)
  in
  Cmd.group
    (Cmd.info "perf"
       ~doc:
         "The perf-regression ledger (mewc-ledger/1): record benchmark runs \
          append-only, list them, and diff any two — a regression beyond \
          the threshold exits 3.")
    [
      Cmd.v
        (Cmd.info "append"
           ~doc:
             "Run the profiled perf sweep and append it (rows, wall clocks, \
              profiler rollup, caller-supplied rev/date) to the ledger.")
        append_term;
      Cmd.v (Cmd.info "list" ~doc:"List the ledger's entries.")
        Term.(const perf_list $ ledger_arg);
      Cmd.v
        (Cmd.info "diff"
           ~doc:
             "Compare two ledger entries (or --against-ledger for a fresh \
              run vs the latest entry) point by point; exits 3 on \
              regression.")
        diff_term;
      Cmd.v
        (Cmd.info "smoke"
           ~doc:
             "CI self-check: smoke sweep, append to a scratch ledger, reload \
              and require a byte-identical round-trip and a zero-delta \
              self-diff.")
        smoke_term;
      Cmd.v
        (Cmd.info "frontier-csv"
           ~doc:
             "Dump one ledger entry's words-vs-n rows as CSV, with the \
              literature's reference curves — the paper's O(n(f+1)) bound, \
              Civit et al.'s adaptive O(n + tf), King-Saia's \
              O~(sqrt n)-bits-per-processor total — as computed columns.")
        frontier_csv_term;
    ]

let throughput_term =
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI self-validation on the n = 9 sub-grid: the grid plus SLO \
             sweep twice, byte-identical; the deep pipeline's committed log \
             byte-equal to the sequential oracle while strictly faster; \
             fault-free SLO retention exactly 1.0.")
  in
  let n =
    Arg.(
      value
      & opt (some int) None
      & info [ "n" ] ~docv:"N"
          ~doc:"Run a single system size instead of the grid's {9, 13}.")
  in
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"PRESET"
          ~doc:
            "Run a single workload preset (steady, bursty, heavy-tail) \
             instead of all three.")
  in
  let depth =
    Arg.(
      value
      & opt (some string) None
      & info [ "depth" ] ~docv:"DEPTH"
          ~doc:
            "Run a single pipeline depth (seq, half, deep) instead of all \
             three.")
  in
  let rev =
    Arg.(
      value & opt string "unknown"
      & info [ "rev" ] ~docv:"REV"
          ~doc:"Git revision to record (the tool never shells out).")
  in
  let date =
    Arg.(
      value & opt string "unknown"
      & info [ "date" ] ~docv:"DATE" ~doc:"Date to record (ISO 8601).")
  in
  let ledger =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Append this run to the mewc-throughput/1 ledger at $(docv) \
             (by convention $(b,BENCH_throughput.json)).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also write this run as a standalone mewc-throughput/1 document.")
  in
  Term.(
    const throughput_cmd $ smoke $ n $ workload $ depth $ rev $ date $ ledger
    $ output $ progress_arg)

let report_term =
  let dir =
    Arg.(
      value & opt string "."
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Directory holding the five committed artifacts \
             (BENCH_perf.json, BENCH_ledger.json, BENCH_throughput.json, \
             BENCH_degrade.json, BENCH_observability.json).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Output directory (default $(b,DIR/docs/report)).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Verify instead of write: regenerate every report file in \
             memory, byte-compare against the committed ones, and re-run \
             the cross-artifact consistency checks (including replaying \
             the latest smoke-grid ledger entry). Exits 3 on any drift or \
             violated invariant.")
  in
  Term.(const report_cmd $ dir $ out $ check)

(* ---- `wire` ---------------------------------------------------------------- *)

(* Exit-code contract, same as everywhere else: 0 all checks pass, 1 misuse
   (no mode picked, bad flag value), 3 a finding (a codec law violation, an
   async/oracle divergence, an Unsafe chaos cell or a dead process), 124
   cmdliner parse errors. A chaos cell that stalls but keeps safety is the
   expected degradation, not a finding. *)

let wire_fuzz ~count ~seed =
  if count < 1 then die_misuse "--count %d: need at least one case" count;
  pr "wire: codec fuzz battery, %d cases per leg, seed %Ld\n" count seed;
  match Wire.Zoo.fuzz_codec ~count ~seed with
  | Ok cases -> pr "  ok: %d cases, every codec law held\n" cases
  | Error what ->
    pr "  FINDING: %s\n" what;
    exit 3

let wire_diff ~n ~seed ~delta =
  pr "wire: differential gate, async ≡ oracle, n=%d seed=%Ld\n" n seed;
  let cfg = Config.optimal ~n in
  List.iter
    (fun e ->
      match Wire.Zoo.diff e ~cfg ~seed ~salt:0 ~delta () with
      | Ok r ->
        let s = r.Wire.Zoo.stats in
        pr "  %-9s async ≡ oracle (%d frames, %d bytes, %d encoded words)\n"
          (Wire.Zoo.entry_name e) s.Wire.Runtime.frames_sent
          s.Wire.Runtime.bytes_sent s.Wire.Runtime.encoded_words
      | Error mismatches ->
        pr "  %-9s FINDING: async diverges from the oracle:\n"
          (Wire.Zoo.entry_name e);
        List.iter (pr "    %s\n") mismatches;
        exit 3)
    Wire.Zoo.entries

let wire_chaos_plan seed =
  { Faults.byte_seed = seed; flip = 0.05; trunc = 0.05; reorder = 0.1 }

let wire_chaos_cell ~cfg ~seed e =
  let r =
    Wire.Zoo.async e ~cfg ~seed ~salt:0 ~delta:0.2 ~deadman:30.0
      ~byte_faults:(wire_chaos_plan (Int64.add seed 1L))
      ()
  in
  let s = r.Wire.Zoo.stats in
  (match r.Wire.Zoo.failures with
  | [] -> ()
  | (p, err) :: _ ->
    pr "  %-9s FINDING: byte faults killed process p%d: %s\n"
      (Wire.Zoo.entry_name e) p err;
    exit 3);
  match r.Wire.Zoo.verdict with
  | Monitor.Unsafe v ->
    pr "  %-9s FINDING: unsafe under byte faults: %s\n" (Wire.Zoo.entry_name e)
      v.Monitor.reason;
    exit 3
  | Monitor.Safe_live ->
    pr "  %-9s safe-live    (%d frame faults, %d decode rejects, %d late)\n"
      (Wire.Zoo.entry_name e) s.Wire.Runtime.frame_faults
      s.Wire.Runtime.decode_rejects s.Wire.Runtime.late_frames
  | Monitor.Safe_stalled _ ->
    pr "  %-9s safe-stalled (%d frame faults, %d decode rejects, %d late)\n"
      (Wire.Zoo.entry_name e) s.Wire.Runtime.frame_faults
      s.Wire.Runtime.decode_rejects s.Wire.Runtime.late_frames

let wire_chaos ~n ~seed =
  pr "wire: byte-fault chaos over the sound zoo, n=%d seed=%Ld\n" n seed;
  let cfg = Config.optimal ~n in
  List.iter (wire_chaos_cell ~cfg ~seed) Wire.Zoo.entries

(* The CI leg (a test_cli case): fixed seeds regardless of flags so the
   gate is deterministic — a fuzz budget, the fault-free differential
   gate over all five sound protocols at n=5, and one byte-fault chaos cell
   that must stay safe. *)
let wire_smoke () =
  wire_fuzz ~count:120 ~seed:20260807L;
  wire_diff ~n:5 ~seed:1L ~delta:2.0;
  pr "wire: one byte-fault chaos cell (fallback), n=5\n";
  wire_chaos_cell ~cfg:(Config.optimal ~n:5) ~seed:11L
    (Option.get (Wire.Zoo.find "fallback"));
  pr "wire smoke: ok\n"

let wire_cmd fuzz diff chaos smoke count seed n delta =
  if not (fuzz || diff || chaos || smoke) then
    die_misuse
      "wire: pick at least one mode: --fuzz-codec, --diff, --chaos or --smoke";
  check_size ~delta n;
  let seed = Int64.of_int seed in
  if fuzz then wire_fuzz ~count ~seed;
  if diff then wire_diff ~n ~seed ~delta;
  if chaos then wire_chaos ~n ~seed;
  if smoke then wire_smoke ()

let wire_term =
  let fuzz =
    Arg.(
      value & flag
      & info [ "fuzz-codec" ]
          ~doc:
            "Run the codec fuzz battery: round-trip, adversarial bytes (no \
             input may make a decoder raise), single-byte mutations of valid \
             frames, and mid-stream resynchronization. Exit 3 on the first \
             law violation.")
  in
  let diff =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Run the differential gate: every sound protocol under both \
             runtimes, comparing per-process decision values, decided slots \
             and metered words. Exit 3 on any divergence.")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Run one byte-fault cell (bit flips, truncations, δ-bounded \
             reorders below the codec) per sound protocol. Stalls are the \
             expected degradation; exit 3 only on an Unsafe verdict or a \
             dead process.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "The fixed-seed CI gate (run by $(b,dune runtest)): a fuzz \
             budget, the fault-free differential gate at n=5, and one \
             byte-fault chaos cell that must stay safe.")
  in
  let count =
    Arg.(
      value & opt int 300
      & info [ "count" ] ~docv:"N"
          ~doc:"Cases per fuzz leg (only with $(b,--fuzz-codec)).")
  in
  let n =
    Arg.(
      value & opt int 5
      & info [ "n" ] ~docv:"N"
          ~doc:"System size for $(b,--diff) and $(b,--chaos).")
  in
  let delta =
    Arg.(
      value & opt float 2.0
      & info [ "delta" ] ~docv:"SECONDS"
          ~doc:"The async runtime's per-slot δ budget for $(b,--diff).")
  in
  Term.(
    const wire_cmd $ fuzz $ diff $ chaos $ smoke $ count $ seed_arg $ n $ delta)

let cmd =
  let info =
    Cmd.info "mewc" ~version:"1.0.0"
      ~doc:
        "Adaptive Byzantine Agreement with fewer words (Cohen, Keidar, \
         Spiegelman; PODC 2022) - protocol runner"
  in
  Cmd.group info
    [
      Cmd.v (Cmd.info "run" ~doc:"Run one protocol execution.") run_term;
      Cmd.v
        (Cmd.info "trace"
           ~doc:
             "Run one protocol execution and emit its structured trace \
              (mewc-trace/4) as JSON or CSV, or a decision's happens-before \
              cone (--cone, --dot).")
        trace_term;
      perf_cmd;
      Cmd.v
        (Cmd.info "bench"
           ~doc:
             "Run the (protocol, n, f) perf sweep sequentially and \
              domain-parallel across points; report wall-clocks, speedup \
              and crypto-cache hit rates (mewc-perf/2), and verify the \
              parallel output is byte-identical to the sequential one.")
        bench_term;
      Cmd.v
        (Cmd.info "fuzz"
           ~doc:
             "Seeded adversary fuzzing over the protocol zoo: scan random \
              corruption schedules under the safety monitors, shrink any \
              violation to a minimal scenario, and manage the replayable \
              mewc-fuzz/1 corpus.")
        fuzz_term;
      Cmd.v
        (Cmd.info "throughput"
           ~doc:
             "Run the repeated-BA throughput service over the workload × \
              pipeline-depth grid: decisions per 1k slots, words per \
              decision, batch fill and p50/p99 commit latency per cell, \
              plus the crash/drop SLO retention sweep (mewc-throughput/1); \
              optionally append to the throughput ledger.")
        throughput_term;
      Cmd.v
        (Cmd.info "report"
           ~doc:
             "Regenerate the analytics report (words-vs-n frontier against \
              the literature's reference shapes, the recorded \
              event-vs-legacy scheduler ratio, service throughput, chaos \
              heatmap — CSV + SVG + REPORT.md) from the five committed \
              benchmark artifacts, after re-checking their cross-artifact \
              consistency invariants. \
              $(b,--check) byte-compares the regeneration against the \
              committed files instead of writing; drift or a violated \
              invariant exits 3.")
        report_term;
      Cmd.v
        (Cmd.info "chaos"
           ~doc:
             "Sweep every protocol over the fault-injection grid (crashes, \
              omissions, duplication, delays, drops, partitions at rising \
              intensity) and classify each cell safe-live / safe-stalled / \
              unsafe (mewc-degrade/1); an unsafe cell exits 3.")
        chaos_term;
      Cmd.v
        (Cmd.info "wire"
           ~doc:
             "Exercise the wire layer: the mewc-wire/1 codec fuzz battery \
              ($(b,--fuzz-codec)), the async-runtime-vs-lock-step-oracle \
              differential gate ($(b,--diff)), byte-fault chaos cells \
              ($(b,--chaos)), and the fixed-seed CI leg ($(b,--smoke)). \
              Exit 3 on any finding: a codec law violation, a divergence \
              from the oracle, or an Unsafe chaos verdict.")
        wire_term;
    ]

let () = exit (Cmd.eval cmd)
