(** Parameter sweeps over (protocol, n, f), runnable on one core or many.

    One sweep {e point} is an independent deterministic simulation: it
    builds its own PKI, RNG, meter and trace from a seed that is a pure
    function of the point, so points can run in any order — or in parallel
    on OCaml 5 domains via {!Mewc_prelude.Pool} — and produce identical
    {!row}s. [mewc bench] and [mewc perf] run through this module, and
    the byte-identical-under-parallelism property is enforced by tests and
    by {!run_perf} itself on every invocation.

    Timing lives {e outside} the row identity: a row's deterministic facts
    (words, latency, signatures, crypto-cache counters …) are what the
    "parallel output ≡ sequential output" byte-level comparisons see. The
    one advisory exception is {!row.wall_s} — the point's own wall clock,
    stored so wall-clock ratios can be derived from ledger rows — and
    it is excluded from {!row_to_line} and {!row_core_line}. *)

type point = {
  protocol : string;  (** "bb" | "weak-ba" | "strong-ba" | "fallback" *)
  n : int;
  f_spec : string;  (** "0" | "1" | "t/2" | "t" — resolved against t at run time *)
}

type row = {
  point : point;
  t : int;
  f : int;  (** realized corruptions *)
  words : int;
  messages : int;
  signatures : int;
  latency : int;
  slots : int;
  fallback_runs : int;
  crypto : Mewc_crypto.Pki.cache_stats;
  wall_s : float;
      (** this point's own wall clock — advisory, never part of an identity
          line; parses back as [0.0] from pre-wall_s ledger files *)
}

val pp_point : Format.formatter -> point -> unit

val protocols : string list
(** The swept {!Registry} entries, in grid order: bb, weak-ba, strong-ba,
    fallback. Each runs at its registry preset with input ["x"], except
    strong BA, which runs on unanimous inputs (its default params). *)

val f_of_spec : t:int -> string -> int
(** Resolve an f-spec against [t]; raises [Invalid_argument] on an unknown
    spec. *)

val standard_grid : point list
(** The perf-baseline grid: n ∈ \{21, 101, 201, 401\}. All four f-specs at
    n = 21; at larger n the f = t/2 and f = t points are kept only for
    weak BA (they exercise the quadratic fallback, the crypto-cache hot
    spot) and the other protocols run failure-free — keeping a full
    sequential pass in the tens of seconds, not minutes. The standalone
    A_fallback (Θ(n²) words over Θ(t) rounds, ~n³ work) is capped at
    n = 201 for the same reason. *)

val smoke_grid : point list
(** A seconds-scale grid (n ∈ \{9, 13\}, all protocols and f-specs) for CI:
    big enough to cross the fallback threshold, small enough to gate every
    build. *)

val fallback_cap : int
(** The largest n (401) at which the standalone A_fallback is kept on the
    frontier grid. Dropped points are returned by {!frontier_grid} (and
    reported as [capped_points] in the mewc-perf/2 JSON) rather than
    silently truncated. *)

val frontier_grid : point list * point list
(** [(points, capped)] over the words-vs-n frontier, n ∈ \{21, 101, 201,
    401, 1001, 2001\}: the runnable frontier plus the
    standalone-fallback points {!fallback_cap} dropped.
    Weak BA keeps all four f-specs at every n — at n = 2001 its f = t point
    is the paper's adaptive showcase — while the other protocols run
    failure-free beyond n = 21, as on {!standard_grid}. *)

val run_point : ?options:'m Instances.options -> point -> row
(** Run one point (crash-first adversary). The point owns its seed —
    [options.seed] is overridden by the point's derived seed, and the
    [monitors] override is dropped ({!Instances.retarget}): each protocol
    branch installs its own standard suite. The honored knobs are the
    engine's: [profile] charges the run's phases, crypto hot paths and
    serialization to the given profiler (rows are unaffected — timing never
    leaks into the deterministic facts); [scheduler] (default
    [`Event_driven]) changes wall-clock only, rows are byte-identical
    across schedulers (the engine-diff suite's invariant). *)

val run_all :
  ?jobs:int ->
  ?options:'m Instances.options ->
  ?progress:(unit -> unit) ->
  point list ->
  row list
(** All points, order-preserving, each through {!run_point} with the same
    [options]. [jobs] > 1 fans the points across that many domains with
    {!Mewc_prelude.Pool}'s deterministic chunking; default 1 (sequential,
    no domains spawned). [progress] is called once per completed point —
    sequential passes only; a parallel pass never interleaves heartbeat
    writes across domains. Raises [Invalid_argument] if [options.profile]
    is combined with [jobs] > 1: a {!Mewc_sim.Profile.t} is not
    domain-safe. *)

val row_to_json : row -> Mewc_prelude.Jsonx.t
val row_to_line : row -> string
(** Canonical one-line rendering; the parallel-equals-sequential checks
    compare these byte for byte. *)

val row_core_line : row -> string
(** {!row_to_line} minus the crypto-cache counters: every
    protocol-observable field, but not how the memo tables split hits from
    misses. The report's ledger replay compares rows on this line. *)

val row_of_json : Mewc_prelude.Jsonx.t -> (row, string) result
(** Inverse of {!row_to_json} (the derived hit-rate fields are ignored).
    The perf-regression ledger stores rows as JSON and diffs them after
    parsing back through this. *)

type report = {
  rows : row list;  (** from the sequential pass *)
  sequential_s : float;
  parallel_s : float;
  jobs : int;
  cores : int;  (** [Pool.default_jobs ()] on this machine *)
  speedup : float;  (** sequential_s /. parallel_s *)
  identical : bool;  (** parallel rows ≡ sequential rows, byte for byte *)
  capped : point list;
      (** points the fallback cap dropped from the requested grid; [[]]
          unless the caller passed them through *)
  parallelism : string;
      (** ["degraded (1 core)"] when the host offers a single core —
          speedup quotients are then noise, not measurements — otherwise
          ["ok (N cores)"] *)
}

val run_perf :
  ?jobs:int ->
  ?profile:Mewc_sim.Profile.t ->
  ?capped:point list ->
  ?progress:(unit -> unit) ->
  point list ->
  report
(** Runs the grid sequentially, then with [jobs] domains across points
    (default {!Mewc_prelude.Pool.default_jobs}). Both passes are timed,
    and the parallel rows must match the sequential rows byte for byte
    ({!row_to_line}). [profile] instruments the {e sequential} pass only
    (profilers are not domain-safe); [progress] likewise ticks once per
    point of the sequential pass only — heartbeats never interleave across
    domains.
    [capped] (default empty) is carried verbatim into the report for the
    JSON's [capped_points] member. *)

val report_to_json : report -> Mewc_prelude.Jsonx.t
(** Schema ["mewc-perf/2"]: machine facts (cores, jobs), the
    [parallelism] note, both wall-clock times, the speedup, the parallel
    pass's identity verdict, the scheduler (always ["event-driven"]; older
    artifacts may say ["legacy"]), the points the fallback cap excluded
    ([capped_points]), per-protocol crypto-cache hit rates, and every row.
    Artifacts written before the shard passes were dropped also carry
    [shards] and [shards_identical_to_sequential]; nothing reads them. *)
