(** Seeded fuzz campaigns over the protocol zoo, with counterexample
    shrinking and a replayable corpus.

    A campaign draws scenarios from a seed ({!Scenario.generate}), compiles
    each into an adversary ({!Compile.adversary}), and runs it under the
    safety monitor suite on the {!Mewc_prelude.Pool}. Scenario [i] of a
    campaign is a pure function of the campaign seed, batches are scanned in
    order and the lowest-index violation wins, so a campaign's outcome is
    independent of [jobs]. A found violation is shrunk greedily to a locally
    minimal scenario and persisted as a [mewc-fuzz/1] corpus entry that
    {!replay} must reproduce byte-identically. *)

open Mewc_prelude
open Mewc_sim
open Mewc_core

(** {2 Targets} *)

type target =
  | Target : {
      name : string;
      protocol : ('p, 's, 'm, 'd) Protocol.t;
      params : Config.t -> 'p;
      ablated : bool;
          (** selects a deliberately unsafe configuration; agreement is
              still monitored (finding its violation is the point) but
              termination is not *)
    }
      -> target

val zoo : target list
(** All fuzzable configurations: every {!Mewc_core.Registry} entry under
    its default params, in registry order, plus ["weak-ba-ablated"] — weak BA with [quorum_override] set to
    the small quorum, the planted unsoundness the smoke campaign must
    rediscover. *)

val target_name : target -> string
val target_ablated : target -> bool
val find_target : string -> target option

val safety_monitors : cfg:Config.t -> ablated:bool -> 'm Monitor.t list
(** Budget sanity, agreement (termination required iff not [ablated]) and
    metering consistency. Word/latency envelopes are excluded: they are
    calibrated against the scripted zoo, not arbitrary adversaries. *)

(** {2 Campaigns and shrinking} *)

val violation_of :
  ?options:'m Instances.options ->
  target ->
  cfg:Config.t ->
  Scenario.t ->
  Monitor.violation option
(** Run one scenario to the horizon under the safety suite. The scenario
    owns the run's identity — its seed, shuffle seed, fault plan and the
    safety monitor suite override whatever [options] says about them —
    while the engine knobs ([scheduler], [shards], [profile],
    [record_trace]) are honored; the verdict is invariant under scheduler
    and shard count. *)

type finding = {
  index : int;  (** scenario index within the campaign, for reproduction *)
  scenario : Scenario.t;
  violation : Monitor.violation;
}

val campaign :
  ?jobs:int ->
  target ->
  cfg:Config.t ->
  seed:int64 ->
  count:int ->
  unit ->
  finding option
(** Scan [count] scenarios drawn from [seed] in parallel batches; return the
    lowest-index violation, or [None] if the campaign comes up clean. *)

val shrink :
  target -> cfg:Config.t -> Scenario.t -> Monitor.violation -> Scenario.t * Monitor.violation
(** Greedy descent over {!Scenario.candidates}, accepting a candidate iff it
    still violates the {e same monitor}; returns the locally minimal scenario
    and its (re-run) violation. Deterministic, and idempotent at the result. *)

(** {2 The corpus} *)

type entry = {
  target : string;
  n : int;
  t : int;
  scenario : Scenario.t;
  violation : Monitor.violation;  (** as observed, replay-tag included *)
}

val schema : string
(** ["mewc-fuzz/1"]. *)

val entry_to_json : entry -> Jsonx.t
val entry_of_json : Jsonx.t -> (entry, string) result

val save : string -> entry -> unit
val load : string -> (entry, string) result

val replay : entry -> (Monitor.violation, string) result
(** Re-run the entry's scenario against its target; [Ok] iff the reproduced
    violation equals the recorded one field-for-field (monitor, slot and
    reason — seeds included via the replay tag). *)

val minimize : entry -> (entry, string) result
(** {!shrink} applied to a corpus entry. *)

(** {2 Smoke} *)

val planted_target : string
val smoke_seed : int64
val smoke_count : int

val smoke : ?jobs:int -> ?log:(string -> unit) -> unit -> (entry, string) result
(** The CI self-validation gate: sound targets fuzzed clean, then the
    planted ["weak-ba-ablated"] campaign must find an agreement violation,
    shrink it to a deterministic fixpoint, and replay the minimized entry
    byte-identically. Returns that entry. *)
