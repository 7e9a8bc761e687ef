(** The perf-regression ledger: an append-only JSON history of benchmark
    runs, diffable pairwise so a performance regression is a comparison
    against recorded history instead of a shrug.

    One {!entry} is one {!Sweep.run_perf} invocation: provenance (git rev
    and date, both supplied by the caller — this library never shells out),
    the machine facts, both wall clocks, the profiler's per-category
    rollup, and every deterministic {!Sweep.row}. The file
    ([BENCH_ledger.json] by convention) carries schema ["mewc-ledger/1"]
    and is rewritten atomically on {!append} (write-then-rename).

    Word counts in rows are deterministic, so {!diff}'s threshold is not
    statistical headroom: any word increase beyond it is reported as a
    regression, which [mewc perf diff] turns into exit code 3 — the same
    "finding" code the fuzzer uses. Wall-clock is compared on the
    sequential pass with the same threshold. *)

val schema : string
(** ["mewc-ledger/1"]. *)

type entry = {
  rev : string;  (** git revision the run was built from; ["unknown"] ok *)
  date : string;  (** ISO date supplied by the caller *)
  grid : string;  (** grid name, e.g. ["standard"], ["smoke"] or ["ratio"] *)
  scheduler : string;
      (** which engine scheduler ran the grid: ["event-driven"] for every
          entry written now; ["legacy"] in older entries, including
          pre-scheduler ones, all of which that engine wrote. The committed
          [grid = "ratio"] entries, one per scheduler, stay readable: they
          feed the report's frozen scheduler-ratio figure. *)
  jobs : int;
  cores : int;
  sequential_s : float;
  parallel_s : float;
  speedup : float;
  parallelism : string;
      (** the report's parallelism note — ["degraded (1 core)"] flags
          speedup quotients recorded on single-core hardware as noise;
          ["unknown"] in the oldest entries *)
  rollup : (string * float) list;
      (** profiler category -> self seconds; [[]] when the run was not
          profiled *)
  rows : Sweep.row list;
}

val of_report :
  rev:string ->
  date:string ->
  grid:string ->
  ?profile:Mewc_sim.Profile.t ->
  Sweep.report ->
  entry
(** Package a {!Sweep.run_perf} report (and the profiler that instrumented
    its sequential pass, if any) as a ledger entry. *)

val entry_to_json : entry -> Mewc_prelude.Jsonx.t
val entry_of_json : Mewc_prelude.Jsonx.t -> (entry, string) result

val to_json : entry list -> Mewc_prelude.Jsonx.t
val of_json : Mewc_prelude.Jsonx.t -> (entry list, string) result
(** Whole-file (de)serialization, schema-gated. *)

val load : string -> (entry list, string) result
(** Parse a ledger file. A {e missing} file is an empty ledger ([Ok []]);
    an unparsable or wrong-schema file is an [Error]. *)

val save : string -> entry list -> unit
(** Atomic rewrite (write-then-rename). *)

val append :
  string -> entry -> (int, [ `Malformed of string | `Unwritable of string ]) result
(** [append path entry] loads, appends and saves; returns the new entry
    count. Earlier entries are checked to parse and then written back as
    the JSON they were read as, so an append never rewrites history: an
    entry keeps members the current {!entry} type does not carry (such as
    the [shards] curve of entries from the era of intra-run sharding).
    [`Malformed] if the existing file does not parse, [`Unwritable] if the
    new file cannot be written. *)

val find : entry list -> string -> (entry, string) result
(** Select an entry by integer index (negative counts from the end, so
    ["-1"] is the latest) or by unique git-rev prefix. *)

(** {1 Diffing} *)

type delta = {
  point : Sweep.point;
  words_a : int;
  words_b : int;
  words_ratio : float;  (** B / A; 1.0 when both zero, [infinity] if A = 0 < B *)
  signatures_a : int;
  signatures_b : int;
  regressed : bool;  (** words_ratio > 1 + threshold *)
}

type diff = {
  threshold : float;
  matched : delta list;  (** points present in both entries, in A's order *)
  only_a : Sweep.point list;
  only_b : Sweep.point list;
  wall_a : float;
  wall_b : float;
  wall_ratio : float;  (** sequential-pass wall clock, B / A *)
  wall_regressed : bool;
  regressions : int;  (** regressed word deltas + the wall regression, if any *)
}

val diff : ?threshold:float -> entry -> entry -> diff
(** [diff a b] compares baseline [a] against candidate [b], matching rows
    by (protocol, n, f_spec). [threshold] defaults to 0.25: a quarter more
    words (or wall time) than the baseline trips the gate. *)

val render : label_a:string -> label_b:string -> diff -> string
(** Human-readable table (per-point words/signatures with verdicts, then
    unmatched points and the wall-clock line). *)

val diff_to_json : diff -> Mewc_prelude.Jsonx.t
