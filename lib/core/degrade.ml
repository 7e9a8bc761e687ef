open Mewc_prelude
open Mewc_sim

let cfg = Config.optimal ~n:9
let protocols = [ "fallback"; "weak-ba"; "bb"; "binary-bb"; "strong-ba" ]
let planted_protocol = "weak-ba-ablated"
let profiles = [ "crash"; "omission"; "dup"; "delay"; "drop"; "partition" ]
let levels = 5

(* Far past any protocol's horizon at n = 9: "for the rest of the run". *)
let forever = 1_000_000

(* One plan per (profile, level), independent of the protocol under test.
   The plan's own seed drives its probabilistic coins; deriving it from the
   cell identity keeps every draw replayable from the plan alone. *)
let plan_seed ~profile ~level =
  Int64.of_int (Hashtbl.hash ("degrade-plan", profile, level))

let check_level level =
  if level < 0 || level >= levels then
    invalid_arg (Printf.sprintf "Degrade: level %d outside 0..%d" level (levels - 1))

let plan_of ~profile ~level =
  check_level level;
  let seed = plan_seed ~profile ~level in
  if level = 0 then Faults.none
  else
    match profile with
    | "crash" ->
      {
        Faults.none with
        Faults.seed;
        processes =
          List.init level (fun i -> (i + 1, Faults.Crash { at = 0 }));
      }
    | "omission" ->
      {
        Faults.none with
        Faults.seed;
        processes =
          List.init level (fun i ->
              let pid = i + 1 in
              ( pid,
                Faults.Send_omission
                  { from_ = 0; drop_mod = 2; drop_rem = pid mod 2 } ));
      }
    | "dup" ->
      { Faults.none with Faults.seed; dup = 0.15 *. float_of_int level }
    | "delay" ->
      { Faults.none with Faults.seed; delay = level; delay_prob = 0.5 }
    | "drop" ->
      let p = [| 0.0; 0.05; 0.15; 0.3; 0.5 |].(level) in
      { Faults.none with Faults.seed; drop = p }
    | "partition" ->
      {
        Faults.none with
        Faults.seed;
        partitions =
          [
            {
              Faults.from_slot = 0;
              until_slot = forever;
              island = List.init level Fun.id;
            };
          ];
      }
    | "split" ->
      (* The planted cell's plan (not part of the grid): a partition timed
         across weak BA's first two phases. Island {0,2,3,4} — phase-1
         leader p0 plus three — runs phase 1 to a finalize certificate on
         its own; the partition heals at slot 7, exactly late enough that
         the complement {1,5,6,7,8} has voted for leader p1's phase-2
         proposal without ever seeing a commit-answer from the island. With
         a sound quorum (or the fuzzer's t+1 ablation) one side stalls one
         share short; at quorum t both sides certify. *)
      {
        Faults.none with
        Faults.seed;
        partitions =
          [ { Faults.from_slot = 0; until_slot = 7; island = [ 0; 2; 3; 4 ] } ];
      }
    | p -> invalid_arg ("Degrade: unknown fault profile " ^ p)

(* Safety only, online: the adversary is honest, so the budget and metering
   monitors are tripwires for engine-level nonsense and agreement is the
   protocol's actual safety obligation. Word/latency envelopes are excluded
   by design (see the interface). *)
let safety_monitors () =
  [ Monitor.corruption_budget ~cfg; Monitor.agreement (); Monitor.metering () ]

let honest () = Adversary.const (Adversary.honest ~name:"honest")

let seed_of ~protocol ~profile ~level =
  let h = Hashtbl.hash ("degrade", protocol, profile, level) in
  Int64.logor (Int64.of_int h) (Int64.shift_left (Int64.of_int level) 32)

type cell = {
  protocol : string;
  profile : string;
  level : int;
  seed : int64;
  plan : Faults.plan;
  verdict : Monitor.classification;
  f : int;
  faulty : int;
  undecided : int;
  words : int;
  slots : int;
}

(* Liveness, offline: decode the recorded trace (payloads as strings — the
   liveness monitors never look inside a message) and replay the
   termination monitor over it. This exercises the mewc-trace/4 round-trip,
   fault events included, on every cell. *)
let liveness (o : _ Instances.agreement_outcome) =
  match o.Instances.trace_json with
  | None -> ()
  | Some j -> (
    match Trace.of_json ~decode:Fun.id j with
    | Error e -> failwith ("Degrade: trace round-trip failed: " ^ e)
    | Ok tr ->
      Monitor.replay [ Monitor.termination ~cfg ] ~slots:o.Instances.slots tr)

let classified run =
  let outcome, verdict = Monitor.classify ~run ~liveness in
  let f, faulty, undecided, words, slots =
    match outcome with
    | None -> (0, 0, 0, 0, 0)  (* the run died mid-flight on a safety violation *)
    | Some (o : _ Instances.agreement_outcome) ->
      let undecided =
        match o.Instances.status with
        | Instances.Decided -> 0
        | Instances.Undecided ps -> List.length ps
      in
      ( o.Instances.f,
        List.length o.Instances.faulty,
        undecided,
        o.Instances.words,
        o.Instances.slots )
  in
  (verdict, f, faulty, undecided, words, slots)

let run_cell ~options ~protocol ~profile ~level =
  let plan = plan_of ~profile ~level in
  let seed = seed_of ~protocol ~profile ~level in
  (* The cell's identity fixes the run: seed, recorded trace (the liveness
     replay needs it), safety monitors and fault plan all override whatever
     [options] says about them. What survives of [options] are the engine
     knobs — scheduler, shards, profile — which the cell is invariant
     under. *)
  let run (type p s m d) ((module P) : (p, s, m, d) Protocol.t) (params : p) =
    classified (fun () ->
        Instances.run
          (module P)
          ~cfg
          ~options:
            {
              (Instances.retarget options) with
              Instances.seed;
              record_trace = true;
              monitors = Some (safety_monitors ());
              faults = plan;
            }
          ~params ~adversary:(honest ()) ())
  in
  let verdict, f, faulty, undecided, words, slots =
    if String.equal protocol planted_protocol then
      (* The planted reliability violation, weaker than the fuzzer's
         ablation: quorum t, not t+1. Loss forges nothing, so certificates
         keep even the t+1 ablation split-safe (2(t+1) > n: two benign
         quorums must share a process, and a voter that committed never
         votes for a rival value). At quorum t two disjoint quorums fit in
         n = 2t+1, and the timed "split" partition produces exactly that:
         conflicting finalize certificates on the two sides. Deliberately
         not in {!protocols} — the matrix's headline is that the sound
         instances never go unsafe. *)
      run
        (module Instances.Weak_ba_protocol)
        {
          (Instances.Weak_ba_protocol.default_params cfg) with
          Instances.Weak_ba_protocol.inputs =
            Array.init cfg.Config.n (fun i -> Printf.sprintf "x%d" (i mod 3));
          quorum_override = Some cfg.Config.t;
        }
    else
      match Registry.find protocol with
      | Some (Registry.E e) ->
        run e.Registry.protocol (e.Registry.params cfg ~input:"x")
      | None -> invalid_arg ("Degrade.run_cell: unknown protocol " ^ protocol)
  in
  { protocol; profile; level; seed; plan; verdict; f; faulty; undecided; words; slots }

let grid =
  List.concat_map
    (fun protocol ->
      List.concat_map
        (fun profile -> List.init levels (fun level -> (protocol, profile, level)))
        profiles)
    protocols

let run_all ?(jobs = 1) ?progress () =
  let cell (protocol, profile, level) =
    run_cell ~options:Instances.default_options ~protocol ~profile ~level
  in
  if jobs <= 1 then
    List.map
      (fun g ->
        let c = cell g in
        (match progress with None -> () | Some tick -> tick ());
        c)
      grid
  else
    (* Heartbeats only from the calling domain — a parallel pass reports
       nothing per cell. *)
    Pool.map_list ~jobs cell grid

(* ---- reporting ---------------------------------------------------------- *)

let verdict_tag = function
  | Monitor.Safe_live -> "safe-live"
  | Monitor.Safe_stalled _ -> "safe-stalled"
  | Monitor.Unsafe _ -> "unsafe"

let violation_json = function
  | Monitor.Safe_live -> Jsonx.Null
  | Monitor.Safe_stalled v | Monitor.Unsafe v ->
    Jsonx.Obj
      [
        ("monitor", Jsonx.Str v.Monitor.monitor);
        ("slot", Jsonx.Int v.Monitor.slot);
        ("reason", Jsonx.Str v.Monitor.reason);
      ]

let cell_to_json c =
  Jsonx.Obj
    [
      ("protocol", Jsonx.Str c.protocol);
      ("fault", Jsonx.Str c.profile);
      ("level", Jsonx.Int c.level);
      ("seed", Jsonx.Str (Int64.to_string c.seed));
      ("plan", Faults.to_json c.plan);
      ("verdict", Jsonx.Str (verdict_tag c.verdict));
      ("violation", violation_json c.verdict);
      ("f", Jsonx.Int c.f);
      ("faulty", Jsonx.Int c.faulty);
      ("undecided", Jsonx.Int c.undecided);
      ("words", Jsonx.Int c.words);
      ("slots", Jsonx.Int c.slots);
    ]

let matrix_to_json cells =
  Jsonx.Schema.tag "mewc-degrade/1"
    [
      ( "experiment",
        Jsonx.Str
          "graceful degradation: (protocol x fault-intensity) verdicts under \
           injected network/process faults" );
      ("n", Jsonx.Int cfg.Config.n);
      ("t", Jsonx.Int cfg.Config.t);
      ("protocols", Jsonx.Arr (List.map (fun p -> Jsonx.Str p) protocols));
      ("faults", Jsonx.Arr (List.map (fun p -> Jsonx.Str p) profiles));
      ("levels", Jsonx.Int levels);
      ("cells", Jsonx.Arr (List.map cell_to_json cells));
    ]

let render cells =
  let table =
    Ascii_table.create
      ~title:
        (Printf.sprintf "degradation matrix (n=%d, t=%d): ok | stall | UNSAFE"
           cfg.Config.n cfg.Config.t)
      ~headers:
        ("protocol" :: "fault"
        :: List.init levels (fun l -> Printf.sprintf "L%d" l))
  in
  let short = function
    | Monitor.Safe_live -> "ok"
    | Monitor.Safe_stalled _ -> "stall"
    | Monitor.Unsafe _ -> "UNSAFE"
  in
  (* Grid rows in canonical order, then any extra (protocol, fault) rows —
     e.g. the planted cell appended by [smoke] — in first-appearance
     order. *)
  let rows =
    let canonical =
      List.concat_map
        (fun p -> List.map (fun prof -> (p, prof)) profiles)
        protocols
    in
    let seen = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace seen r ()) canonical;
    let extras =
      List.filter_map
        (fun c ->
          let r = (c.protocol, c.profile) in
          if Hashtbl.mem seen r then None
          else (
            Hashtbl.replace seen r ();
            Some r))
        cells
    in
    List.filter
      (fun (p, prof) ->
        List.exists
          (fun c -> String.equal c.protocol p && String.equal c.profile prof)
          cells)
      canonical
    @ extras
  in
  List.iter
    (fun (protocol, profile) ->
      let row =
        List.init levels (fun level ->
            match
              List.find_opt
                (fun c ->
                  String.equal c.protocol protocol
                  && String.equal c.profile profile
                  && c.level = level)
                cells
            with
            | Some c -> short c.verdict
            | None -> "-")
      in
      Ascii_table.add_row table (protocol :: profile :: row))
    rows;
  (* Per-level word-cost spread across the whole matrix: how spending grows
     as fault intensity rises. Nearest-rank, like every other quantile in
     the repo ({!Mewc_obs.Metrics}). *)
  let summary =
    let b = Buffer.create 256 in
    for level = 0 to levels - 1 do
      let words =
        List.filter_map
          (fun c -> if c.level = level then Some c.words else None)
          cells
      in
      if words <> [] then begin
        let q p = Mewc_obs.Metrics.percentile_of_list p words in
        Buffer.add_string b
          (Printf.sprintf "L%d words: p50 %d, p90 %d, p99 %d\n" level (q 50.0)
             (q 90.0) (q 99.0))
      end
    done;
    Buffer.contents b
  in
  Ascii_table.render table ^ summary

let unsafe_cells cells =
  List.filter
    (fun c -> match c.verdict with Monitor.Unsafe _ -> true | _ -> false)
    cells

(* ---- the self-validating smoke gate ------------------------------------- *)

let planted_unsafe = (planted_protocol, "split", 1)

let smoke ?jobs () =
  let cells = run_all ?jobs () in
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check pred msg cs =
    match List.find_opt (fun c -> not (pred c)) cs with
    | None -> Ok ()
    | Some c ->
      fail "%s: %s/%s/L%d is %s" msg c.protocol c.profile c.level
        (verdict_tag c.verdict)
  in
  let of_profile p = List.filter (fun c -> String.equal c.profile p) cells in
  let live c = c.verdict = Monitor.Safe_live in
  let not_unsafe c =
    match c.verdict with Monitor.Unsafe _ -> false | _ -> true
  in
  (* 1. The controls: level 0 of every profile is the reliable model. *)
  let* () =
    check live "control (level 0) must be safe-live"
      (List.filter (fun c -> c.level = 0) cells)
  in
  (* 2. Crash-only faults, <= t of them, are within the Byzantine budget the
     protocols already tolerate: all five must stay fully live. *)
  let* () = check live "crash-only cells must be safe-live" (of_profile "crash") in
  (* 3. Duplication never breaks safety (signatures make replays no-ops). *)
  let* () =
    check not_unsafe "duplication-only cells must stay safe" (of_profile "dup")
  in
  (* 4. Some partition cell stalls: the degradation is detectable, not
     silent. *)
  let* () =
    if
      List.exists
        (fun c -> match c.verdict with Monitor.Safe_stalled _ -> true | _ -> false)
        (of_profile "partition")
    then Ok ()
    else fail "no partition cell ever stalled"
  in
  (* 5. The planted reliability violation still breaks safety — the gate
     validates that the harness can distinguish unsafe from stalled. The
     planted cell lives outside the grid (ablated protocol, bespoke fault
     profile), so it is run here and appended to the returned matrix. *)
  let p, pr, l = planted_unsafe in
  let planted_cell =
    run_cell ~options:Instances.default_options ~protocol:p ~profile:pr ~level:l
  in
  let* () =
    match planted_cell.verdict with
    | Monitor.Unsafe _ -> Ok ()
    | v ->
      fail "planted cell %s/%s/L%d came back %s, expected unsafe" p pr l
        (verdict_tag v)
  in
  Ok (cells @ [ planted_cell ])
