open Mewc_prelude
open Mewc_sim

type point = { protocol : string; n : int; f_spec : string }

type row = {
  point : point;
  t : int;
  f : int;
  words : int;
  messages : int;
  signatures : int;
  latency : int;
  slots : int;
  fallback_runs : int;
  crypto : Mewc_crypto.Pki.cache_stats;
  wall_s : float;
}

let pp_point fmt p =
  Format.fprintf fmt "%s n=%d f=%s" p.protocol p.n p.f_spec

(* The swept registry entries at their run presets, except strong BA: its
   rows (and so the committed ledger) use unanimous inputs, its default
   params, where the preset alternates them. *)
let entries =
  let unanimous cfg ~input:_ = Instances.Strong_ba_protocol.default_params cfg in
  Registry.[ E bb; E weak_ba; E { strong_ba with params = unanimous }; E fallback ]

let protocols = List.map Registry.entry_name entries
let f_specs = [ "0"; "1"; "t/2"; "t" ]

let f_of_spec ~t = function
  | "0" -> 0
  | "1" -> min 1 t
  | "t/2" -> t / 2
  | "t" -> t
  | s -> invalid_arg ("Sweep: unknown f spec " ^ s)

(* The standalone A_fallback is Θ(n²) words over Θ(t) rounds — ~n³ work —
   so its largest points would dwarf the rest of the grid. The engine steps
   only woken processes, so the wall is n = 401, where the n³ message
   volume itself dominates. *)
let fallback_cap = 401

(* Returns (points, capped): the grid plus the points the fallback cap
   dropped, so reports can say what was not measured instead of silently
   truncating. *)
let grid ~cap ~ns ~full_f_at =
  let cells =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun protocol ->
            let specs =
              (* Beyond [full_f_at], only weak BA keeps its faulty points:
                 they drive the quadratic fallback — the crypto-cache hot
                 spot — while the other protocols' failure-free points
                 already show the O(n) scaling. This keeps a sequential
                 standard-grid pass in the tens of seconds. *)
              if n <= full_f_at || String.equal protocol "weak-ba" then f_specs
              else [ "0" ]
            in
            let dropped = String.equal protocol "fallback" && n > cap in
            List.map (fun f_spec -> ({ protocol; n; f_spec }, dropped)) specs)
          protocols)
      ns
  in
  ( List.filter_map (fun (p, dropped) -> if dropped then None else Some p) cells,
    List.filter_map (fun (p, dropped) -> if dropped then Some p else None) cells
  )

let standard_grid = fst (grid ~cap:201 ~ns:[ 21; 101; 201; 401 ] ~full_f_at:21)
let smoke_grid = fst (grid ~cap:201 ~ns:[ 9; 13 ] ~full_f_at:13)
let frontier_ns = [ 21; 101; 201; 401; 1001; 2001 ]

let frontier_grid = grid ~cap:fallback_cap ~ns:frontier_ns ~full_f_at:21

(* Every point runs from its own seed, derived from nothing but the point:
   reruns — sequential, parallel, or out of order — replay bit for bit. *)
let seed_of { protocol; n; f_spec } =
  let h = Hashtbl.hash (protocol, n, f_spec) in
  Int64.logor (Int64.of_int h) (Int64.shift_left (Int64.of_int n) 32)

let crash_first f ~pki:_ ~secrets:_ =
  Adversary.crash ~victims:(List.init f (fun i -> i + 1)) ()

let run_point ?(options = Instances.default_options) point =
  let cfg = Config.optimal ~n:point.n in
  let t = cfg.Config.t in
  let f = f_of_spec ~t point.f_spec in
  let seed = seed_of point in
  (* The point owns its seed (reruns replay bit for bit whatever the caller
     passed); the monitors override is dropped by [retarget] — the run
     installs its protocol's standard suite. *)
  let t0 = Unix.gettimeofday () in
  let of_outcome (o : _ Instances.agreement_outcome) =
    {
      point;
      t;
      f = o.Instances.f;
      words = o.Instances.words;
      messages = o.Instances.messages;
      signatures = o.Instances.signatures;
      latency = o.Instances.latency;
      slots = o.Instances.slots;
      fallback_runs = o.Instances.fallback_runs;
      crypto = o.Instances.crypto;
      (* The one advisory field: the point's own wall clock, so per-point
         scheduler ratios can be derived from stored rows. Excluded from
         every identity line — timing never gates byte-equality. *)
      wall_s = Unix.gettimeofday () -. t0;
    }
  in
  match List.find_opt (fun e -> Registry.entry_name e = point.protocol) entries with
  | Some (Registry.E e) ->
    of_outcome
      (Instances.run e.Registry.protocol ~cfg
         ~options:{ (Instances.retarget options) with Instances.seed }
         ~params:(e.Registry.params cfg ~input:"x")
         ~adversary:(crash_first f) ())
  | None -> invalid_arg ("Sweep.run_point: unknown protocol " ^ point.protocol)

let run_all ?(jobs = 1) ?(options = Instances.default_options) ?progress points
    =
  (* A Profile.t is a plain mutable record — not domain-safe — so profiled
     passes must stay in the calling domain. *)
  if jobs > 1 && Option.is_some options.Instances.profile then
    invalid_arg "Sweep.run_all: profiling requires jobs = 1";
  if jobs <= 1 then
    List.map
      (fun p ->
        let r = run_point ~options p in
        (match progress with None -> () | Some tick -> tick ());
        r)
      points
  else
    (* Heartbeats stay on the calling domain: a parallel pass reports
       nothing per point rather than interleaving writes across domains. *)
    Pool.map_list ~jobs (fun p -> run_point ~options p) points

let row_to_line r =
  Printf.sprintf
    "%s n=%d t=%d f_spec=%s f=%d words=%d messages=%d signatures=%d latency=%d \
     slots=%d fallback_runs=%d verify=%d/%d agg=%d/%d"
    r.point.protocol r.point.n r.t r.point.f_spec r.f r.words r.messages
    r.signatures r.latency r.slots r.fallback_runs r.crypto.Mewc_crypto.Pki.verify_hits
    r.crypto.Mewc_crypto.Pki.verify_misses r.crypto.Mewc_crypto.Pki.agg_hits
    r.crypto.Mewc_crypto.Pki.agg_misses

(* [row_to_line] minus the crypto-cache counters: every
   protocol-observable field, signature counts included, but not how the
   memo tables split hits from misses. *)
let row_core_line r =
  Printf.sprintf
    "%s n=%d t=%d f_spec=%s f=%d words=%d messages=%d signatures=%d latency=%d \
     slots=%d fallback_runs=%d"
    r.point.protocol r.point.n r.t r.point.f_spec r.f r.words r.messages
    r.signatures r.latency r.slots r.fallback_runs

let row_to_json r =
  Jsonx.Obj
    [
      ("protocol", Jsonx.Str r.point.protocol);
      ("n", Jsonx.Int r.point.n);
      ("t", Jsonx.Int r.t);
      ("f_spec", Jsonx.Str r.point.f_spec);
      ("f", Jsonx.Int r.f);
      ("words", Jsonx.Int r.words);
      ("messages", Jsonx.Int r.messages);
      ("signatures", Jsonx.Int r.signatures);
      ("latency", Jsonx.Int r.latency);
      ("slots", Jsonx.Int r.slots);
      ("fallback_runs", Jsonx.Int r.fallback_runs);
      ("crypto_cache", Mewc_crypto.Pki.cache_stats_to_json r.crypto);
      ("wall_s", Jsonx.Float r.wall_s);
    ]

let row_of_json j =
  let ( let* ) = Result.bind in
  let field name get =
    match Option.bind (Jsonx.member name j) get with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "Sweep.row_of_json: bad or missing %S" name)
  in
  let int name = field name Jsonx.get_int in
  let str name = field name Jsonx.get_str in
  let* protocol = str "protocol" in
  let* n = int "n" in
  let* f_spec = str "f_spec" in
  let* t = int "t" in
  let* f = int "f" in
  let* words = int "words" in
  let* messages = int "messages" in
  let* signatures = int "signatures" in
  let* latency = int "latency" in
  let* slots = int "slots" in
  let* fallback_runs = int "fallback_runs" in
  let* crypto =
    match Jsonx.member "crypto_cache" j with
    | None -> Error "Sweep.row_of_json: bad or missing \"crypto_cache\""
    | Some c -> Mewc_crypto.Pki.cache_stats_of_json c
  in
  (* Optional so pre-wall_s ledger files (same schemas) keep parsing. *)
  let wall_s =
    match Jsonx.member "wall_s" j with
    | Some (Jsonx.Float f) -> f
    | Some (Jsonx.Int i) -> float_of_int i
    | _ -> 0.0
  in
  Ok
    {
      point = { protocol; n; f_spec };
      t;
      f;
      words;
      messages;
      signatures;
      latency;
      slots;
      fallback_runs;
      crypto;
      wall_s;
    }

type report = {
  rows : row list;
  sequential_s : float;
  parallel_s : float;
  jobs : int;
  cores : int;
  speedup : float;
  identical : bool;
  capped : point list;
  parallelism : string;
}

let parallelism_note ~cores =
  if cores = 1 then "degraded (1 core)"
  else Printf.sprintf "ok (%d cores)" cores

let run_perf ?jobs ?profile ?(capped = []) ?progress points =
  let jobs = match jobs with Some j -> max 1 j | None -> Pool.default_jobs () in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let base = Instances.default_options in
  (* Only the sequential pass is profiled: spans would race across domains,
     and the parallel pass exists to time raw throughput anyway. *)
  let seq_rows, sequential_s =
    timed (fun () ->
        run_all ~jobs:1 ~options:{ base with Instances.profile } ?progress points)
  in
  let par_rows, parallel_s =
    timed (fun () -> run_all ~jobs ~options:base points)
  in
  let identical =
    List.equal String.equal (List.map row_to_line seq_rows)
      (List.map row_to_line par_rows)
  in
  let cores = Pool.default_jobs () in
  {
    rows = seq_rows;
    sequential_s;
    parallel_s;
    jobs;
    cores;
    speedup = (if parallel_s > 0.0 then sequential_s /. parallel_s else 1.0);
    identical;
    capped;
    parallelism = parallelism_note ~cores;
  }

(* Aggregate cache traffic per protocol: the per-protocol hit rate is the
   headline number ("how much re-hashing the caches removed for weak BA"). *)
let per_protocol_crypto rows =
  List.filter_map
    (fun proto ->
      let of_proto = List.filter (fun r -> String.equal r.point.protocol proto) rows in
      if of_proto = [] then None
      else begin
        let sum f = List.fold_left (fun acc r -> acc + f r.crypto) 0 of_proto in
        let open Mewc_crypto.Pki in
        let stats =
          {
            verify_hits = sum (fun c -> c.verify_hits);
            verify_misses = sum (fun c -> c.verify_misses);
            agg_hits = sum (fun c -> c.agg_hits);
            agg_misses = sum (fun c -> c.agg_misses);
          }
        in
        Some (proto, cache_stats_to_json stats)
      end)
    protocols

let report_to_json r =
  Jsonx.Schema.tag "mewc-perf/2"
    [
      ( "experiment",
        Jsonx.Str
          "sweep wall-clock: sequential vs domain-parallel across points, \
           with crypto-cache hit rates" );
      ("cores", Jsonx.Int r.cores);
      ("jobs", Jsonx.Int r.jobs);
      (* The honest story up front: a 1-core host cannot speed anything up,
         whatever the speedup quotient's noise says. *)
      ("parallelism", Jsonx.Str r.parallelism);
      ("sequential_wall_s", Jsonx.Float r.sequential_s);
      ("parallel_wall_s", Jsonx.Float r.parallel_s);
      ("speedup", Jsonx.Float r.speedup);
      ("parallel_identical_to_sequential", Jsonx.Bool r.identical);
      ( "scheduler",
        Jsonx.Str (Mewc_sim.Engine.scheduler_to_string `Event_driven) );
      ( "capped_points",
        (* What the fallback cap dropped — reported, never silently
           truncated. *)
        Jsonx.Arr
          (List.map
             (fun p ->
               Jsonx.Obj
                 [
                   ("protocol", Jsonx.Str p.protocol);
                   ("n", Jsonx.Int p.n);
                   ("f_spec", Jsonx.Str p.f_spec);
                 ])
             r.capped) );
      ("crypto_cache_by_protocol", Jsonx.Obj (per_protocol_crypto r.rows));
      ("rows", Jsonx.Arr (List.map row_to_json r.rows));
    ]
