(** Protocol state machines.

    A process is a deterministic state machine driven by the synchronous
    engine: at every slot it receives the messages delivered at the start of
    that slot and emits the messages it sends during it. Time is measured in
    δ-slots — the known message-delay bound of the synchronous model
    (paper §2): a message sent in slot [s] is delivered at the start of slot
    [s + 1]. A paper "round" is a single slot; the fallback's δ' = 2δ rounds
    span two slots. *)

type 'm send =
  | Unicast of 'm * Mewc_prelude.Pid.t  (** one message to one process *)
  | Broadcast of 'm
      (** one message to all [n] processes, the sender included. It means
          exactly the [n] unicasts to [0 … n−1] in pid order: the same
          envelope ids, per-sender send indices, fault fates, meter rows,
          trace events and delivery order. The engine posts it once (one
          word count, one meter charge, one monitor call) where that is
          observably the same. *)

type ('s, 'm) t = {
  init : 's;
  step : slot:int -> inbox:'m Mail.t -> 's -> 's * 'm send list;
      (** [step ~slot ~inbox state] returns the new state and the messages
          to send. The inbox is a read-only view of everything delivered
          at the start of [slot] (i.e. sent during [slot - 1]), in arrival
          order. It is valid only during this call: the engine reads it
          from storage it reuses next slot, so a step must never store it
          (nor a closure over it) in its state. A machine that buffers mail
          for later keeps the messages, or {!Mail.to_list}, and hands a
          nested machine {!Mail.of_list}. *)
  wake : (after:int -> 's -> int) option;
      (** The machine's timer, as a next-wake query: [wake ~after s] is the
          earliest slot [>= after] at which [s] must step even with an empty
          inbox, or {!never}. The event-driven scheduler files each process
          in a wake calendar under that slot — once at start with
          [~after:0], and again after every step at slot [k] with
          [~after:(k + 1)] — and steps it only at filed slots and at slots
          that deliver it something. The contract: for every slot [k] in
          [[after, wake ~after s)], [step ~slot:k ~inbox:Mail.empty s] is a
          no-op — it sends nothing and leaves the state observationally unchanged
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

val broadcast : 'm -> 'm send list
(** [broadcast msg] addresses [msg] to every process, the sender included
    ([[Broadcast msg]]; self-delivery is free of charge and arrives next
    slot like any other message). *)

val broadcast_others : n:int -> self:Mewc_prelude.Pid.t -> 'm -> 'm send list
(** [msg] to every process but the sender, as [n − 1] unicasts. *)

val expand : n:int -> 'm send list -> ('m * Mewc_prelude.Pid.t) list
(** The sends as [(message, destination)] pairs, a broadcast as its [n]
    copies in pid order: the one place that turns sends into per-destination
    pairs. Code that reads or filters destinations expands first. *)

val filter :
  n:int -> ('m -> Mewc_prelude.Pid.t -> bool) -> 'm send list -> 'm send list
(** The unicasts of {!expand} that [keep msg dst] accepts, in order. *)

val map : ('a -> 'b) -> 'a send list -> 'b send list
(** Rewrap every send's message, keeping its addressing. *)

val silent : 's -> ('s, 'm) t
(** A machine that never sends anything (used for crashed processes). Its
    [wake] always answers {!never}: the event-driven scheduler steps it
    only on deliveries. *)
