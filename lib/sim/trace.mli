(** Structured execution traces.

    When enabled, the engine records a typed event log of the whole run:
    slot boundaries, adaptive corruptions (with slot stamps and the running
    corruption count), every message send (with its word cost and whether
    the meter charged it), and per-process decisions. The same event stream
    drives the online {!Monitor} invariant checkers, so a trace is exactly
    what a monitor saw. Traces make failed property tests replayable
    narratives rather than bare seeds, and serialize to JSON/CSV for
    offline analysis ([mewc trace], [BENCH_observability.json]). *)

type 'm broadcast = {
  first_id : int;  (** the copy to [dst] has envelope id [first_id + dst] *)
  src : Mewc_prelude.Pid.t;
  n : int;  (** copies: one to each of the processes [0 … n−1] *)
  sent_at : int;
  msg : 'm;
  byzantine_sender : bool;
  words : int;  (** word cost of one copy *)
  parents : int list;  (** shared by every copy *)
}
(** One {!Process.Broadcast} as the engine posts it when no fault plan is
    installed: a compact record of its [n] {!Send} events, which have
    consecutive ids in pid order and are charged except for the self copy. *)

type 'm send = {
  id : int;  (** stable envelope id, assigned in send order by the engine *)
  envelope : 'm Envelope.t;
  byzantine_sender : bool;  (** sender was corrupted at send time *)
  words : int;  (** word cost per the protocol's wire format *)
  charged : bool;
      (** whether the meter accounted it (self-addressed sends are free) *)
  parents : int list;
      (** ids of the messages the sender read in the slot it sent from —
          the direct happens-before predecessors via message edges *)
}

val iter_broadcast : ('m send -> unit) -> 'm broadcast -> unit
(** [f] on each copy's [Send] record, in pid order. *)

type 'm event =
  | Slot_start of int  (** a δ-slot begins *)
  | Corruption of { slot : int; pid : Mewc_prelude.Pid.t; f : int }
      (** the adversary corrupted [pid]; [f] is the corruption count
          including this one *)
  | Send of 'm send
  | Decision of {
      slot : int;
      pid : Mewc_prelude.Pid.t;
      value : string;
      parents : int list;
          (** ids of the messages [pid] read in the deciding slot *)
    }
      (** [pid]'s decision became [value] (printed form) in [slot] *)
  | Link_fault of {
      slot : int;
      id : int;  (** the faulted send's envelope id *)
      src : Mewc_prelude.Pid.t;
      dst : Mewc_prelude.Pid.t;
      fault : Faults.link_fault;
    }
      (** the injected network fault that hit send [id] on [src -> dst] *)
  | Process_fault of {
      slot : int;
      pid : Mewc_prelude.Pid.t;
      event : Faults.process_event;
    }
      (** an injected process fault's state transition at [slot] *)
  | Frame_fault of {
      slot : int;
      src : Mewc_prelude.Pid.t;
      dst : Mewc_prelude.Pid.t;
      seq : int;  (** the frame's index within its sender's slot *)
      fault : Faults.byte_fault;
    }
      (** the async wire runtime's byte-fault stage corrupted the encoded
          frame [seq] of [src -> dst] sent at [slot] (below the codec) *)
  | Decode_reject of {
      slot : int;
      dst : Mewc_prelude.Pid.t;
      reason : string;  (** the codec's typed error, rendered *)
    }
      (** [dst] dropped a malformed frame at [slot] instead of crashing —
          the decode-reject policy firing *)

type 'm t

val create : enabled:bool -> 'm t
val enabled : 'm t -> bool

val record : 'm t -> 'm event -> unit
(** No-op when the trace is disabled. *)

val record_broadcast : 'm t -> 'm broadcast -> unit
(** Record the broadcast's [n] [Send] events, in pid order. No-op when the
    trace is disabled, and then it builds none of them. *)

val events : 'm t -> 'm event list
(** In chronological order. Memoized: repeated calls between records cost
    O(1). *)

val length : 'm t -> int
(** O(1). *)

val sends : 'm t -> 'm send list
(** Just the message sends, in chronological order. *)

val equal : ('m -> 'm -> bool) -> 'm t -> 'm t -> bool
(** Event-by-event equality (ignores the [enabled] flag). *)

val pp_event :
  (Format.formatter -> 'm -> unit) -> Format.formatter -> 'm event -> unit
(** One event, no trailing newline — the building block of {!pp}, exposed
    for consumers that render event subsets (e.g. causal cones). *)

val pp :
  (Format.formatter -> 'm -> unit) -> Format.formatter -> 'm t -> unit

(** {2 Serialization}

    The JSON schema is ["mewc-trace/4"]: an object with a [schema] tag and
    an [events] array; message payloads are embedded via [encode], send and
    decision events carry [id]/[parents] provenance, injected faults appear
    as [link-fault] / [process-fault] events, and the async wire runtime's
    byte-level events as [frame-fault] / [decode-reject]. CSV has one event
    per line with columns
    [type,slot,src,dst,pid,id,words,byzantine,charged,parents,detail]
    (parents are [;]-separated ids). *)

val to_json : encode:('m -> string) -> 'm t -> Mewc_prelude.Jsonx.t

val of_json :
  decode:(string -> 'm) -> Mewc_prelude.Jsonx.t -> ('m t, string) result
(** Inverse of {!to_json} (the result is an enabled trace). Also accepts
    the previous ["mewc-trace/3"] schema — a strict subset (no wire
    events), so old recorded artifacts keep loading. *)

val to_csv : encode:('m -> string) -> 'm t -> string
