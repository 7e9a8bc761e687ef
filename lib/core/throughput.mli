(** The mewc-throughput/1 experiment: what the replicated log delivers.

    The paper's headline is words {e per agreement}; a log-replication
    service cares about words {e per committed batch} and how fast batches
    land. This module sweeps the {!Service} layer over a deterministic
    grid — system size × workload preset × pipeline depth — and records
    four service-level metrics per cell: decided batches per 1000 slots,
    protocol words per decision, batch fill, and p50/p99 request commit
    latency in slots.

    Every cell's seed derives from the cell's identity alone, so the grid
    reproduces cell by cell; the whole document is byte-deterministic and
    the CI smoke gate re-proves it on every build, together with the
    pipelined-vs-sequential oracle equality and the fault-free SLO
    retention.

    The SLO sweep is the chaos harness turned traffic-facing: the same
    {!Degrade.plan_of} crash/drop escalation, but scored by {e throughput
    retention} — the fraction of fault-free decisions-per-1k-slots the
    service still delivers at each intensity level. *)

open Mewc_sim

val schema : string
(** ["mewc-throughput/1"]. *)

(** {2 The grid} *)

val depths : (string * (Config.t -> int)) list
(** Pipeline depths as named offset policies: ["seq"] (offset = stride,
    no overlap), ["half"] (stride/2) and ["deep"] (stride/4, floor 1). *)

val offset_of : Config.t -> string -> int
(** Resolve a depth name; raises [Invalid_argument] on unknown names. *)

val grid : (int * string * string) list
(** All (n, workload preset, depth) cells: n ∈ \{9, 13\} ×
    {!Workload.preset_names} × depth names, row-major. *)

val traffic_slots : int
(** Slots of open-loop traffic generated per cell (32). *)

val seed_of : n:int -> workload:string -> int64
(** The cell's trusted-setup and traffic seed, from its identity alone.
    Depth is deliberately {e not} part of the identity: the pipeline
    offset is a scheduling policy, so cells differing only in depth run
    the exact same traffic and setup — which is what makes the
    deep-vs-sequential oracle comparison in {!smoke} meaningful. *)

type cell = {
  n : int;
  workload : string;
  depth : string;
  seed : int64;
  report : Service.report;
}

val run_cell :
  ?options:(Repeated_bb.state, Repeated_bb.msg) Engine.options ->
  n:int ->
  workload:string ->
  depth:string ->
  unit ->
  cell
(** One cell: generate {!traffic_slots} of the preset's traffic from the
    cell seed, pack and run it through {!Service.finalize} under a
    crash-free adversary. [options] contributes the engine knobs
    (scheduler, shards) — the cell is invariant under them. Raises
    [Invalid_argument] on unknown presets or depths. *)

val run_grid :
  ?options:(Repeated_bb.state, Repeated_bb.msg) Engine.options ->
  ?progress:(unit -> unit) ->
  (int * string * string) list ->
  cell list
(** [progress] is called once per completed cell. *)

(** {2 The SLO sweep} *)

type slo_point = {
  fault_profile : string;  (** ["crash"] or ["drop"] *)
  level : int;  (** {!Degrade.plan_of} intensity; 0 = fault-free control *)
  decisions_per_1k_slots : float;
  committed : int;  (** requests committed *)
  undecided : int;  (** requests stalled by the faults *)
  p99_latency : int;
  retention : float;
      (** decisions-per-1k-slots at this level / at level 0; 1.0 at the
          control by construction *)
}

val slo_grid : (string * int) list
(** (fault profile, level) pairs: crash and drop at every
    {!Degrade.levels} intensity. *)

val slo_sweep :
  ?options:(Repeated_bb.state, Repeated_bb.msg) Engine.options ->
  ?progress:(unit -> unit) ->
  unit ->
  slo_point list
(** The pinned SLO configuration — n = 9, ["steady"] traffic, ["half"]
    pipeline — swept over {!slo_grid}. The sweep owns [options.faults]
    (each point installs its own plan); scheduler/shards pass through.
    [progress] is called once per completed point. *)

(** {2 The ledger} *)

type entry = {
  rev : string;  (** git revision, supplied by the caller; ["unknown"] ok *)
  date : string;
  cells : cell list;
  slo : slo_point list;
}

val entry_to_json : entry -> Mewc_prelude.Jsonx.t
val to_json : Mewc_prelude.Jsonx.t list -> Mewc_prelude.Jsonx.t
(** Wrap raw entry documents in the schema-tagged ledger document. *)

val load : string -> (Mewc_prelude.Jsonx.t list, string) result
(** The ledger's entries, raw. A missing file is an empty ledger; a
    wrong-schema or unparsable file is an [Error]. Entries are kept as
    JSON — the ledger is append-only provenance, not a diff input. *)

val append :
  string -> entry -> (int, [ `Malformed of string | `Unwritable of string ]) result
(** Load, append, atomic rewrite (write-then-rename); the new count, or
    which of the two steps failed (as {!Ledger.append}). *)

val render : entry -> string
(** Human-readable tables: the grid's four metrics per cell, then the
    SLO retention matrix. *)

(** {2 The smoke gate} *)

val smoke :
  ?options:(Repeated_bb.state, Repeated_bb.msg) Engine.options ->
  unit ->
  (entry, string) result
(** The CI gate, on a tiny sub-grid (n = 9 only):

    - determinism — the sub-grid plus SLO sweep, run twice, renders
      byte-identical [mewc-throughput/1] JSON;
    - the oracle invariant — the ["deep"] pipeline commits the exact same
      log as ["seq"] on every workload while finishing in strictly fewer
      slots (the throughput win is real, not a metric artifact);
    - the SLO control — every fault profile retains exactly 1.0 at
      level 0.

    Returns the entry (rev/date ["smoke"]) for rendering on success. *)
