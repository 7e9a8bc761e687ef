(** Ready-made protocol instantiations over the two value domains the paper
    considers (multi-valued and binary), with the fallback black box plugged
    in, and the two Table-1 baselines — each packaged as a first-class
    {!Protocol.S} module — plus the one generic runner {!run} used by the
    CLI, tests, examples, benchmarks and the fuzzer.

    Every run installs the instance's standard online monitor suite
    ({!Mewc_sim.Monitor}): corruption-budget sanity, agreement-once-decided
    (with termination), the protocol's adaptive word bound at the realized
    [f], the causal-cone word bound per decision (same envelope, measured
    over the decision's happens-before cone), its early-termination latency
    envelope, and meter/engine consistency. A violated invariant raises {!Mewc_sim.Monitor.Violation}
    with the run's [seed]/[shuffle_seed] appended, so every failure is a
    replayable counterexample. Two exceptions: weak BA with
    [quorum_override] (the deliberately unsafe ablation) keeps only the
    budget and metering monitors, since breaking agreement is the point;
    and the baselines, which promise no adaptive word or latency envelope,
    keep the safety core plus termination. *)

module Epk_str : module type of Mewc_fallback.Echo_phase_king.Make (Mewc_sim.Value.Str)
(** The echo-phase-king instance over multi-valued inputs, with its full
    interface (wire format included, for attacks). *)

module Fallback_str :
  Fallback_intf.FALLBACK
    with type value = string
     and type msg = Epk_str.msg
     and type state = Epk_str.state
(** The same instance, viewed as the [A_fallback] black box. *)

module Weak_str : module type of Weak_ba.Make (Mewc_sim.Value.Str) (Fallback_str)
(** Multi-valued adaptive weak BA. *)

module Epk_bool : module type of Mewc_fallback.Echo_phase_king.Make (Mewc_sim.Value.Bool)

module Fallback_bool :
  Fallback_intf.FALLBACK
    with type value = bool
     and type msg = Epk_bool.msg
     and type state = Epk_bool.state
(** The [A_fallback] instance over binary inputs, for §7's strong BA. *)

module Strong_bool : module type of Ff_strong_ba.Make (Fallback_bool)
(** Binary strong BA, linear when failure-free. *)

module Binary_bb_bool : module type of Binary_bb.Make (Fallback_bool)
(** Binary BB via the §5 reduction over Algorithm 5: O(n) when the sender is
    correct and f = 0. *)

type status =
  | Decided  (** every correct, non-faulted process decided *)
  | Undecided of Mewc_prelude.Pid.t list
      (** the run exhausted its horizon with these correct non-faulted
          processes undecided — a stall, first-class rather than inferred
          from [-1] latency. Expected under injected faults; a protocol bug
          on a reliable run (and then caught by the termination monitor). *)

val pp_status : Format.formatter -> status -> unit

type 'o agreement_outcome = {
  decisions : 'o option array;
      (** per process; [None] for processes that were corrupted or (bug)
          never decided *)
  decided_slots : int option array;
      (** per process, the protocol's [decided_at] — the async runtime's
          differential gate compares these against its own *)
  decided_strs : string option array;
      (** per process, the protocol's printed decision (the monitors'
          agreement projection) *)
  corrupted : Mewc_prelude.Pid.t list;
  f : int;
  faulty : Mewc_prelude.Pid.t list;
      (** processes hit by an injected process fault, in first-event order *)
  status : status;
  words : int;  (** words sent by correct processes — the paper's measure *)
  messages : int;
  byz_words : int;
  signatures : int;
  slots : int;
  fallback_runs : int;  (** correct processes that entered [A_fallback] *)
  nonsilent_phases : int;  (** non-silent phases led by correct processes *)
  help_requests : int;  (** help requests sent by correct processes *)
  latency : int;
      (** slots (= δ units) until the {e last} correct non-faulted process
          decided; -1 if one of them never decided (see [status]) *)
  meter : Mewc_sim.Meter.snapshot;
      (** per-slot and per-process word/message series for this run *)
  crypto : Mewc_crypto.Pki.cache_stats;
      (** hit/miss counters of this run's PKI memo tables (share-tag and
          aggregate-tag caches) *)
  trace_json : Mewc_prelude.Jsonx.t option;
      (** the run's structured trace (schema ["mewc-trace/4"], message
          payloads rendered via the protocol's printer); [Some] iff
          [record_trace] was set *)
}

(** {2 The protocol zoo as first-class modules} *)

module Fallback_protocol : sig
  type params = {
    inputs : string array;
    round_len : int;
    start_slot : Mewc_prelude.Pid.t -> int;
        (** lets tests skew process start times by up to [round_len - 1]
            slots, as happens on the weak-BA fallback path *)
  }

  include
    Protocol.S
      with type params := params
       and type value = string
       and type state = Epk_str.state
       and type msg = Epk_str.msg
       and type decision = string
end
(** The echo-phase-king strong BA standalone (the Table-1 multi-valued
    strong-BA row). The fallback/phase/help counters are not meaningful
    here and read 0. *)

module Weak_ba_protocol : sig
  type params = {
    inputs : string array;
    validate : string -> bool;
        (** defaults to accepting every value (weak-unanimity
            instantiation) *)
    quorum_override : int option;
        (** the ablation knob of {!Weak_ba.Make.init} — unsafe by design;
            selecting it swaps in the reduced monitor suite *)
  }

  include
    Protocol.S
      with type params := params
       and type value = string
       and type state = Weak_str.state
       and type msg = Weak_str.msg
       and type decision = Weak_str.outcome
end
(** Adaptive weak BA to its static horizon. Its [spray] forger harvests
    commit/finalize shares addressed to corrupted leaders, equivocates
    proposals across even/odd destinations, and completes per-side
    certificates by topping harvested shares up with corrupted ones —
    impossible against the sound quorum, decisive against the ablation. *)

module Bb_protocol : sig
  type params = { sender : Mewc_prelude.Pid.t; input : string }

  include
    Protocol.S
      with type params := params
       and type value = string
       and type state = Adaptive_bb.state
       and type msg = Adaptive_bb.msg
       and type decision = Adaptive_bb.decision
end
(** Adaptive BB; [nonsilent_phases] counts non-silent {e vetting} phases
    led by correct processes. *)

module Binary_bb_protocol : sig
  type params = { sender : Mewc_prelude.Pid.t; input : bool }

  include
    Protocol.S
      with type params := params
       and type value = bool
       and type state = Binary_bb_bool.state
       and type msg = Binary_bb_bool.msg
       and type decision = bool
end
(** Binary BB; [nonsilent_phases] counts correct fast deciders. *)

module Strong_ba_protocol : sig
  type params = { leader : Mewc_prelude.Pid.t; inputs : bool array }

  include
    Protocol.S
      with type params := params
       and type value = bool
       and type state = Strong_bool.state
       and type msg = Strong_bool.msg
       and type decision = bool
end
(** §7 strong BA; [nonsilent_phases] counts correct fast deciders. *)

module Dolev_strong_protocol : sig
  type params = { sender : Mewc_prelude.Pid.t; input : string }

  include
    Protocol.S
      with type params := params
       and type value = string
       and type state = Mewc_baselines.Dolev_strong.state
       and type msg = Mewc_baselines.Dolev_strong.msg
       and type decision = Mewc_baselines.Dolev_strong.decision
end
(** Dolev–Strong authenticated BB, the Table-1 baseline. *)

module Naive_bb_protocol : sig
  type params = { sender : Mewc_prelude.Pid.t; input : string }

  include
    Protocol.S
      with type params := params
       and type value = string
       and type state = Mewc_baselines.Naive_bb.state
       and type msg = Mewc_baselines.Naive_bb.msg
       and type decision = Mewc_baselines.Naive_bb.decision
end
(** The non-adaptive BB-to-strong-BA reduction: O(n²) words in every run.
    Both baselines' counters read 0. *)

(** {2 Run options}

    Every run knob that is not part of the protocol's own parameters,
    gathered in one record (mirroring {!Mewc_sim.Engine.options}) so that
    adding a knob does not grow eight runner signatures in lock step.
    Start from {!default_options} and override the fields you need:

    {[
      Instances.run (module P) ~cfg
        ~options:{ Instances.default_options with seed = 7L; shards = 2 }
        ~params ~adversary ()
    ]} *)

type 'm options = {
  seed : int64;  (** trusted-setup / RNG seed (default [1L]) *)
  shuffle_seed : int64 option;
      (** permute every inbox deterministically before delivery
          ({!Mewc_sim.Engine.options.shuffle_seed}) *)
  record_trace : bool;  (** materialize the run's [mewc-trace/4] JSON *)
  monitors : 'm Mewc_sim.Monitor.t list option;
      (** [None] (default) installs the instance's standard suite — or,
          under injected faults, its model-independent safety core;
          [Some ms] installs [ms] verbatim (the fuzzer does this) *)
  profile : Mewc_sim.Profile.t option;
      (** charge engine phases, crypto hot paths and serialization to spans *)
  faults : Mewc_sim.Faults.plan;  (** default {!Mewc_sim.Faults.none} *)
  scheduler : Mewc_sim.Engine.scheduler;
      (** default [`Event_driven]; [`Legacy] selects the dense test oracle
          ({!Mewc_sim.Engine.scheduler}) *)
  shards : int;  (** intra-run domains (default 1) *)
  metrics : Mewc_obs.Metrics.t option;
      (** live-telemetry registry (default [None]). Threaded into
          {!Mewc_sim.Engine.options.metrics} and installed on the run's PKI
          via {!Mewc_crypto.Pki.set_metrics}, so engine and crypto counters
          accumulate while the run is in flight. *)
}

val default_options : 'm options
(** Seed [1L], in-order delivery, no trace, standard monitors, no profile,
    no faults, event-driven scheduler, one shard. *)

val retarget : 'a options -> 'b options
(** The same options for a protocol with a different message type. The
    [monitors] override — the only ['m]-typed field — is dropped back to
    [None]; everything else is preserved. Generic drivers ({!Sweep},
    {!Degrade}, the fuzzer, the CLI) use this to re-type one caller-supplied
    record for whichever protocol they run. *)

(** {2 The generic runner} *)

val with_pki :
  seed:int64 ->
  n:int ->
  ?profile:Mewc_sim.Profile.t ->
  ?metrics:Mewc_obs.Metrics.t ->
  (Mewc_crypto.Pki.t -> Mewc_crypto.Pki.Secret.t array -> 'a) ->
  'a
(** [with_pki ~seed ~n body] runs [body] on a run's trusted setup
    ({!Mewc_crypto.Pki.setup}), instrumented. With [profile], the setup
    itself is charged to a ["pki.setup"] span, the PKI's cache-miss hash
    paths to their crypto spans ({!Mewc_crypto.Pki.set_timer}), and every
    sign to a ["crypto.sign"] row charged in bulk ({!Mewc_sim.Profile.bulk})
    when [body] returns or raises; with [metrics], every
    sign/verify/combine bumps the [pki.*] counters
    ({!Mewc_crypto.Pki.set_metrics}). Every runner sets up its PKI here. *)

val run :
  ('p, 's, 'm, 'd) Protocol.t ->
  cfg:Mewc_sim.Config.t ->
  ?options:'m options ->
  params:'p ->
  adversary:('s, 'm) Mewc_sim.Adversary.factory ->
  unit ->
  'd agreement_outcome
(** [run (module P) ~cfg ~params ~adversary ()] executes one run of [P] to
    its static horizon: trusted setup from [options.seed], machines from
    [P.machine], the instance's standard monitor suite — or
    [options.monitors] verbatim when given (the fuzzer installs its own
    safety suite) — and the outcome assembled from the final states, meter
    and PKI counters. With [options.profile], engine phases, the PKI's hash
    hot paths and trace serialization are charged to the given
    {!Mewc_sim.Profile.t} spans. With [options.faults], the plan is
    threaded to the engine's deliver boundary; when [options.monitors] is
    [None], the default suite is then narrowed to the model-independent
    safety core (corruption budget, agreement, metering), since neither the
    liveness envelopes nor the word bounds — calibrated against the
    realized f on a reliable network — are promised off the reliable model.
    Read stalls off [status] instead.

    [options.shards] is threaded to {!Mewc_sim.Engine.options.shards}: the
    run's step phase is sharded across that many domains, with
    byte-identical observable results — only [crypto] (the cache hit/miss
    split) may legitimately differ across shard counts, which is why it is
    excluded from equivalence fingerprints. *)
