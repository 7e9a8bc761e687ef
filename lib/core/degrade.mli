(** The graceful-degradation harness: how each protocol fails when the
    paper's network model is stressed.

    The paper proves its adaptive word bounds under a perfectly
    synchronous, reliable network (§2). This harness sweeps every
    {!Protocol.S} instance over a (protocol × fault-profile × intensity)
    grid of {!Mewc_sim.Faults} plans — crashes, send omissions,
    duplication, δ-violating delays, per-link drops, and partitions — and
    classifies each run with {!Mewc_sim.Monitor.classify}:

    - {!Mewc_sim.Monitor.Safe_live} — safety and liveness both held;
    - {!Mewc_sim.Monitor.Safe_stalled} — safety held but some correct
      non-faulted process never decided (a detectable stall);
    - {!Mewc_sim.Monitor.Unsafe} — a safety monitor fired (disagreement,
      budget or metering nonsense): the silent failure mode.

    Safety is checked online (budget, agreement, metering); liveness is
    the termination monitor replayed over the recorded [mewc-trace/4]
    trace, so the trace round-trip — fault events included — is exercised
    on every cell. The word/latency envelope monitors are deliberately
    left out: they are calibrated against corruption counts, and a fault
    plan leaves [f = 0] while legitimately changing spending.

    Every cell runs from a seed derived from the cell's identity alone, so
    the matrix is reproducible cell by cell and independent of [jobs]. *)

open Mewc_sim

val cfg : Config.t
(** The grid's system size: [Config.optimal ~n:9] (t = 4), the fuzz
    suite's size. *)

val protocols : string list
(** The five paper protocols, by {!Registry} name, in grid order:
    [fallback; weak-ba; bb; binary-bb; strong-ba]. Each cell runs the
    entry's run preset at input ["x"]. *)

val profiles : string list
(** Fault profiles, in grid order:
    [crash; omission; dup; delay; drop; partition]. *)

val levels : int
(** Intensity levels per profile (0..[levels - 1]; level 0 is always the
    fault-free control). *)

val plan_of : profile:string -> level:int -> Faults.plan
(** The fault plan of a grid cell. Level 0 is {!Faults.none} for every
    profile; higher levels escalate: more crashed/omitting processes, a
    higher dup/drop probability, a longer delay, a bigger partition
    island. Also accepts the off-grid ["split"] profile — the planted
    cell's plan, a partition of island [{0,2,3,4}] over slots [[0,7)]
    timed across weak BA's first two phases. Raises [Invalid_argument]
    on an unknown profile or level. *)

type cell = {
  protocol : string;
  profile : string;
  level : int;
  seed : int64;  (** the run's trusted-setup seed, from the cell identity *)
  plan : Faults.plan;
  verdict : Monitor.classification;
  f : int;  (** realized corruptions — 0, the adversary is honest *)
  faulty : int;  (** processes hit by an injected process fault *)
  undecided : int;  (** correct non-faulted processes left undecided *)
  words : int;
  slots : int;
}

val seed_of : protocol:string -> profile:string -> level:int -> int64

val run_cell :
  options:'m Instances.options ->
  protocol:string ->
  profile:string ->
  level:int ->
  cell
(** One grid cell, reproducible from the cell coordinates alone: the cell
    identity fixes the seed, the recorded trace, the safety monitor suite
    and the fault plan, overriding those fields of [options]. What
    [options] contributes are the engine knobs — [scheduler], [shards],
    [profile] — and the cell is invariant under all of them (pass
    {!Instances.default_options} when in doubt). Raises [Invalid_argument]
    on an unknown protocol/profile/level. *)

val grid : (string * string * int) list
(** All (protocol, profile, level) cells, row-major in the orders above. *)

val run_all : ?jobs:int -> ?progress:(unit -> unit) -> unit -> cell list
(** The whole matrix, optionally domain-parallel ({!Mewc_prelude.Pool});
    the result is independent of [jobs]. [progress] is called once per
    completed cell — sequential passes only. *)

val matrix_to_json : cell list -> Mewc_prelude.Jsonx.t
(** Schema [mewc-degrade/1]: the grid dimensions plus one record per cell
    (verdict, violated monitor if any, fault plan, seed, counters). *)

val render : cell list -> string
(** An ASCII degradation matrix: one row per (protocol, profile), one
    column per level, [ok] / [st] / [UN] verdicts — followed by a
    per-level p50/p90/p99 word-cost summary (nearest-rank,
    {!Mewc_obs.Metrics.percentile_of_list}). *)

val unsafe_cells : cell list -> cell list

(** {2 The self-validating smoke gate} *)

val planted_unsafe : string * string * int
(** The pinned off-grid cell — [("weak-ba-ablated", "split", 1)] — whose
    reliability violation is known to break safety: weak BA ablated to
    quorum [t] (two disjoint quorums fit in [n = 2t+1]) under a partition
    timed across its first two phases, so each side finalizes its own
    leader's value. The degradation analogue of the fuzzer's planted
    ablation; note the fuzzer's own [t+1] ablation is still loss-safe
    ([2(t+1) > n]), which is why the planted quorum is one weaker.
    {!smoke} fails if the cell stops reproducing. *)

val smoke : ?jobs:int -> unit -> (cell list, string) result
(** Run the full matrix and check the degradation envelope the paper's
    assumptions predict: every level-0 control and every crash-only cell
    (≤ t crashes) is [Safe_live]; duplication-only cells are never
    [Unsafe]; at least one partition cell is [Safe_stalled]; and the
    {!planted_unsafe} cell — run off-grid and appended to the returned
    matrix — is [Unsafe]. Returns grid plus planted cell on success. *)
