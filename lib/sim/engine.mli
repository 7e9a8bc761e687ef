(** The synchronous execution engine.

    Runs [n] lock-step state machines against an adaptive rushing adversary
    for a fixed number of δ-slots. Within each slot:

    + messages sent in the previous slot are delivered;
    + the adversary may corrupt further processes (budget [t] overall);
    + correct processes step on their inboxes and queue their sends;
    + the adversary, seeing everything — including this slot's correct
      sends — produces the corrupted processes' sends (rushing);
    + the meter charges each send to its sender's class, and all sends are
      queued for delivery at the next slot. A {!Process.Broadcast} is
      exactly its [n] unicasts in pid order; without a fault plan it is
      posted once — one word count, one meter charge, one
      {!Monitor.t.on_broadcast} per monitor — and under a plan as its [n]
      copies, each with its own fate.

    Synchronous protocols are clock-driven, so a run executes exactly
    [horizon] slots; silent processes cost nothing, hence running past a
    protocol's decision point never inflates word counts.

    {2 Observability}

    The engine emits a typed event stream — {!Trace.event} — covering slot
    boundaries, corruptions, sends (with word costs and charge outcomes),
    and decision transitions. The stream feeds two consumers: the run's
    {!Trace.t} (when [record_trace]) and any installed {!Monitor.t}s, which
    check invariants online and raise {!Monitor.Violation} fail-fast. When
    neither is present, events are not materialized at all; the meter's
    per-slot series stays on regardless. *)

type ('s, 'm) outcome = {
  states : 's array;
      (** final protocol states (for corrupted processes: state frozen at
          corruption time) *)
  corrupted : Mewc_prelude.Pid.t list;  (** in order of corruption *)
  f : int;  (** actual number of corruptions — the paper's [f] *)
  faulty : Mewc_prelude.Pid.t list;
      (** processes hit by an injected {!Faults.process_fault}, in order of
          first transition; empty on a reliable run *)
  meter : Meter.t;
  trace : 'm Trace.t;
  slots : int;
}

type scheduler = [ `Legacy | `Event_driven ]
(** Which processes the one slot loop steps.

    - [`Event_driven] (the default) — per-process pending-delivery pools
      and a wake calendar; a slot only visits processes that received
      something or that filed the slot through their {!Process.wake} query,
      so a quiet slot costs O(1). Raises [Invalid_argument] from {!run} if
      a wake query answers a slot before the one it was asked about.
    - [`Legacy] — the dense test oracle of the same loop: every machine's
      [wake] is ignored (forced to [None] when the machines are built), so
      every live correct process steps every slot. O(n) work per slot even
      when the protocol is quiescent.

    The two are {e observationally equivalent} for any machine that keeps
    the {!Process.wake} contract: same seed, same options, same fault plan
    ⇒ byte-identical [mewc-trace/4] traces, decisions, meter series, word
    counts, monitor verdicts, and final states. The differential suite
    ([test_engine_diff]) enforces this across protocols, fuzz scenarios,
    and chaos fault plans. *)

val scheduler_to_string : scheduler -> string
(** ["legacy"] / ["event-driven"]. *)

type ('s, 'm) options = {
  record_trace : bool;  (** materialize the run's {!Trace.t} *)
  shuffle_seed : int64 option;
      (** permutes every inbox deterministically before delivery: within a
          slot the network may present messages in any order, and correct
          protocols must not care. Tests run the whole suite's scenarios
          under random inbox orders to enforce that. *)
  monitors : 'm Monitor.t list;  (** online invariant checkers *)
  decided : ('s -> string option) option;
      (** renders a state's decision, if any; when given (and someone is
          observing), the engine emits a {!Trace.Decision} event in the slot
          a correct process's decision first becomes — or, protocol bug,
          changes to — that printed value. *)
  profile : Profile.t option;
      (** when given, the engine charges each slot's phases to spans:
          [engine.deliver], [machine.step], [adversary.byz_step],
          [engine.post]. The per-slot corruption query opens no span: its
          time and calls go to the [adversary.corrupt] {!Profile.bulk}
          row, flushed when the run returns or raises; the row takes its
          place in {!Profile.rows} at the first slot's query. *)
  faults : Faults.plan;
      (** injected network/process faults ({!Faults.none} = the paper's
          reliable model). Every injection is stamped into the trace as a
          {!Trace.Link_fault} / {!Trace.Process_fault} event; sends are
          charged whether or not their delivery is then tampered with.
          Raises [Invalid_argument] from {!run} if the plan fails
          {!Faults.validate}. *)
  scheduler : scheduler;
      (** which processes step each slot; [`Event_driven] by default. *)
  shards : int;
      (** number of domains a run shards its processes across (default 1 =
          fully sequential, no domains involved). Within a slot, the
          stepping processes are striped across the shards: the [i]-th
          process of the slot's ascending active set runs on shard
          [i mod shards] (in the dense mode the active set is every live
          correct process). Each shard runs its processes' steps — where
          all the signature crypto lives — and precomputes their new
          states, word counts, and fault fates, and the main domain merges
          them in ascending pid order before the sequential post phase
          assigns envelope ids, meter charges, and trace events. Sharding
          composes with both modes and is {e observationally invisible}: any
          shard count produces byte-identical traces, decisions, meter
          series, and final states (the cache hit/miss {e split} in
          {!Mewc_crypto.Pki.cache_stats} is the one legitimate exception —
          per-domain caches move hits between domains). Raises
          [Invalid_argument] from {!run} if [shards < 1] or if
          [shards > 1] is combined with [profile] (the profiler is not
          domain-safe). *)
  metrics : Mewc_obs.Metrics.t option;
      (** live-telemetry registry. When given, the engine records — on the
          main domain, in the sequential post/merge phases, so values are
          identical under either scheduler and any shard count —
          [engine.slots], [engine.messages], [engine.words],
          [engine.corruptions], [engine.decisions] (only while a [decided]
          projection is installed and someone is observing),
          [engine.link_faults] counters, plus an [engine.slot_words]
          histogram of per-slot word totals. *)
}
(** Observability knobs, gathered in one record so that adding a knob does
    not grow every caller's argument list. Start from {!default_options} and
    override the fields you need. *)

val default_options : ('s, 'm) options
(** No trace, in-order delivery, no monitors, no decision projection, no
    faults, event-driven scheduler, one shard, no metrics. *)

val run :
  cfg:Config.t ->
  ?options:('s, 'm) options ->
  words:('m -> int) ->
  horizon:int ->
  protocol:(Mewc_prelude.Pid.t -> ('s, 'm) Process.t) ->
  adversary:('s, 'm) Adversary.t ->
  unit ->
  ('s, 'm) outcome
(** Raises [Invalid_argument] if the adversary exceeds the corruption budget
    [cfg.t], corrupts an unknown process, or addresses a message to an
    unknown process. Raises {!Monitor.Violation} as soon as an installed
    monitor's invariant breaks. *)
