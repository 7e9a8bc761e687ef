(** Multi-shot Byzantine Broadcast: a replicated log.

    "BA is a key component in many distributed systems" (paper §1) — and the
    component is rarely used once. This module chains [length] adaptive-BB
    instances inside a single synchronous execution: instance [i] fills log
    slot [i] and its designated sender is the round-robin proposer
    [i mod n].

    {b Scheduling policy, not protocol.} Each inner BB instance is a
    self-contained [stride]-slot protocol; {e when} instance [i] starts is
    a local scheduling decision. Instance [i] starts at slot-time
    [i * offset] for a pipeline offset [1 <= offset <= stride]:

    - [offset = stride] (the default) is the sequential schedule — instance
      [i+1] starts only after [i]'s window has fully elapsed;
    - [offset < stride] pipelines: instance [i+1]'s early phases overlap
      instance [i]'s tail. Messages are routed per instance index, and an
      adaptive-BB instance reacts only to its own inbox and its own
      [start_slot]-relative clock, so the pipeline depth changes {e only}
      wall-slot scheduling — every replica's final log (and each entry's
      decision slot relative to its instance start) is byte-identical to
      the unpipelined oracle on the same seed. The invariant is enforced
      by the repeated-BB test suite.

    Every correct replica ends with the same log (each entry a committed
    value or ⊥ for slots whose Byzantine proposer was exposed), and the
    steady-state cost inherits the paper's adaptivity: O(n(f+1)) words per
    log slot — while a deep pipeline lands up to [stride / offset] log
    slots per protocol window. *)

type entry = Committed of string | Skipped

val equal_entry : entry -> entry -> bool
val pp_entry : Format.formatter -> entry -> unit

type msg
type state

val words : msg -> int
val pp_msg : Format.formatter -> msg -> unit

val stride : Mewc_sim.Config.t -> int
(** Slots each inner BB instance needs to terminate
    ({!Adaptive_bb.horizon}); the upper bound on useful pipeline offsets. *)

val init :
  cfg:Mewc_sim.Config.t ->
  pki:Mewc_crypto.Pki.t ->
  secret:Mewc_crypto.Pki.Secret.t ->
  pid:Mewc_prelude.Pid.t ->
  length:int ->
  ?offset:int ->
  propose:(int -> string) ->
  unit ->
  state
(** [propose i] is the command this process broadcasts if it is the
    proposer of slot [i] (ignored otherwise). [offset] is the pipeline
    offset (default [stride cfg], i.e. unpipelined); raises
    [Invalid_argument] unless [1 <= offset <= stride cfg]. *)

val step :
  slot:int ->
  inbox:msg Mewc_sim.Mail.t ->
  state ->
  state * msg Mewc_sim.Process.send list

val wake : after:int -> state -> int
(** The {!Mewc_sim.Process.t} next-wake query. A replica keeps one due
    slot per instance: its start slot before it is initialised, and after
    each step at slot [s] the instance's own {!Adaptive_bb.wake}
    [~after:(s + 1)]. {!step} steps an instance of the window only when it
    has mail or is due, and [wake ~after] answers the least due slot,
    clamped to [after], among the instances whose [2 * stride]-slot window
    still covers it, which includes the next instance start at or after
    [after]; {!Mewc_sim.Process.never} once no instance can act again. The
    query scans the window and allocates nothing. *)

val log : state -> entry option array
(** The replica's view of the log; [None] for slots still undecided. *)

val decided_slots : state -> int option array
(** Per log slot, the engine slot at which this replica's instance
    decided ({!Adaptive_bb.decided_at}); [None] while undecided. Under
    pipelining these land earlier in wall-slots, which is exactly the
    throughput win the service layer measures. *)

val horizon : ?offset:int -> Mewc_sim.Config.t -> length:int -> int
(** Slots a [length]-entry log needs under the given pipeline offset:
    [(length - 1) * offset + stride cfg] — the last instance starts at
    [(length - 1) * offset] and needs a full stride. With the default
    [offset = stride] this is the sequential [length * stride cfg]. *)

type outcome = {
  logs : entry option array array;  (** per process *)
  decided_slots : int option array array;
      (** per process, per log slot: decision wall-slot *)
  corrupted : Mewc_prelude.Pid.t list;
  faulty : Mewc_prelude.Pid.t list;
      (** processes hit by an injected {!Mewc_sim.Faults.process_fault};
          empty on a reliable run *)
  f : int;
  words : int;
  slots : int;  (** horizon actually executed *)
  words_per_slot : float;  (** words per {e log} slot, the paper's metric *)
}

val run :
  cfg:Mewc_sim.Config.t ->
  ?seed:int64 ->
  ?offset:int ->
  ?options:(state, msg) Mewc_sim.Engine.options ->
  length:int ->
  propose:(Mewc_prelude.Pid.t -> int -> string) ->
  adversary:(state, msg) Mewc_sim.Adversary.factory ->
  unit ->
  outcome
(** One trusted setup ({!Mewc_crypto.Pki.setup} from [seed]), then the
    whole log inside a single engine execution of
    [horizon ?offset cfg ~length] slots. [options] exposes the engine's
    knobs (fault plans, scheduler, shards, trace) — the repeated run is
    observationally invariant under scheduler and shard choice like any
    other protocol here. Its [profile] and [metrics] also reach the PKI
    ({!Instances.with_pki}). *)
