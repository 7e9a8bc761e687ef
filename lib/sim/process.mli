(** Protocol state machines.

    A process is a deterministic state machine driven by the synchronous
    engine: at every slot it receives the messages delivered at the start of
    that slot and emits the messages it sends during it. Time is measured in
    δ-slots — the known message-delay bound of the synchronous model
    (paper §2): a message sent in slot [s] is delivered at the start of slot
    [s + 1]. A paper "round" is a single slot; the fallback's δ' = 2δ rounds
    span two slots. *)

type ('s, 'm) t = {
  init : 's;
  step :
    slot:int -> inbox:'m Envelope.t list -> 's -> 's * ('m * Mewc_prelude.Pid.t) list;
      (** [step ~slot ~inbox state] returns the new state and the messages
          to send, as [(payload, destination)] pairs. The inbox holds
          everything delivered at the start of [slot] (i.e. sent during
          [slot - 1]), in arrival order. *)
  wake : (after:int -> 's -> int) option;
      (** The machine's timer, as a next-wake query: [wake ~after s] is the
          earliest slot [>= after] at which [s] must step even with an empty
          inbox, or {!never}. The event-driven scheduler files each process
          in a wake calendar under that slot — once at start with
          [~after:0], and again after every step at slot [k] with
          [~after:(k + 1)] — and steps it only at filed slots and at slots
          that deliver it something. The contract: for every slot [k] in
          [[after, wake ~after s)], [step ~slot:k ~inbox:[] s] is a no-op —
          it sends nothing and leaves the state observationally unchanged
          (a skipped step must never alter any future send, decision, or
          state projection; internally inert bookkeeping such as
          materializing an empty scratch table is tolerated). Answering too
          early is always safe (the process merely steps, as the dense
          oracle makes it do every slot); answering too late breaks
          scheduler equivalence, and answering a slot below [after] makes
          {!Engine.run} raise [Invalid_argument]. The query runs once per
          step, so it must be cheap: plain slot arithmetic, no allocation.
          [None] means "always step" — the conservative default that makes
          any machine event-scheduler-correct. The dense oracle
          ([`Legacy], see {!Engine.scheduler}) ignores this field entirely:
          it forces every machine's [wake] to [None]. *)
}

val never : int
(** The "no inbox-free step ahead" answer of a wake query ([max_int]). *)

val next_boundary : start:int -> period:int -> after:int -> int
(** The first slot [>= after] of the form [start + k * period] with
    [k >= 0] ([period >= 1]): the next round boundary of a machine that
    acts every [period] slots from [start]. *)

val broadcast : n:int -> 'm -> ('m * Mewc_prelude.Pid.t) list
(** [broadcast ~n msg] addresses [msg] to all [n] processes (including the
    sender itself; self-delivery is free of charge and arrives next slot
    like any other message). *)

val broadcast_others : n:int -> self:Mewc_prelude.Pid.t -> 'm -> ('m * Mewc_prelude.Pid.t) list
(** Same, excluding the sender. *)

val silent : 's -> ('s, 'm) t
(** A machine that never sends anything (used for crashed processes). Its
    [wake] always answers {!never}: the event-driven scheduler steps it
    only on deliveries. *)
