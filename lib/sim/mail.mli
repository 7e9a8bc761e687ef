(** A process's mail for one step: a read-only view of what was delivered
    to it at the start of the slot, in arrival order.

    The contract:
    - A view is valid only during the step (or adversary callback) it was
      handed to. The engine reuses the storage behind it from the next slot
      on, so a view must never be stored; keep {!to_list} instead.
    - The engine's view reads the destination's pool and the slot's shared
      broadcast log ({!Log}) in place, and stays valid until both are
      cleared.
    - Iteration follows arrival order: post order on a reliable run, the
      seeded permutation on a shuffled one, each duplicate copy in place.
    - Reading allocates nothing per message ({!iter}, {!fold},
      {!length}). {!to_list} builds one envelope per message. *)

type 'm t

val empty : 'm t
(** No mail. *)

val length : 'm t -> int

val iter : (Mewc_prelude.Pid.t -> 'm -> unit) -> 'm t -> unit
(** [iter f mail] calls [f src msg] for each message in arrival order. *)

val fold : ('a -> Mewc_prelude.Pid.t -> 'm -> 'a) -> 'a -> 'm t -> 'a
(** [fold f acc mail] folds [f acc src msg] over the messages in arrival
    order. *)

val of_list : 'm Envelope.t list -> 'm t
(** A view over a list, in list order: the mail of the async runtime and
    of machines that buffer a nested machine's mail. *)

val to_list : 'm t -> 'm Envelope.t list
(** The envelopes in arrival order. [to_list (of_list l)] is [l]. *)

(** One slot's broadcasts, shared by the pools of every destination. A
    broadcast is one entry, not [n] copies: its copy for pid [d] has
    envelope id [first_id + d]. Envelope ids must grow in post order across
    the log and every pool reading it, so a pool's view is the pool and
    the log merged by id. *)
module Log : sig
  type 'm t

  val create : unit -> 'm t

  val length : 'm t -> int

  val push : 'm t -> src:Mewc_prelude.Pid.t -> sent_at:int -> first_id:int -> 'm -> unit
  (** Append one broadcast whose copies have ids [first_id .. first_id + n - 1]. *)

  val clear : 'm t -> unit
  (** Empty the log, keeping its storage. Every view reading it dies. *)
end

(** One destination's pool, as the lock-step engine keeps it: parallel
    [src]/[sent_at]/[msg]/[id] vectors in post order, grown by doubling
    and reused slot after slot, so a post allocates nothing per copy. Its
    view also reads the log it was created with.

    Storage is sized by the pool's usual traffic, not by its peak. Vectors
    of up to 256 entries (the largest block the minor heap takes) are kept
    across {!clear}; larger ones are handed back there, so a king's or a
    leader's one slot of about [n] messages does not stay allocated for the
    rest of the run. Growth past 256 entries forces no minor collection. *)
module Pool : sig
  type 'm mail := 'm t
  type 'm t

  val create : dst:Mewc_prelude.Pid.t -> log:'m Log.t -> 'm t

  val length : 'm t -> int
  (** The pool's messages plus the log's broadcasts. *)

  val push : 'm t -> src:Mewc_prelude.Pid.t -> sent_at:int -> id:int -> 'm -> unit
  (** Append one message (envelope id [id]) at the end. *)

  val shuffle : 'm t -> Mewc_prelude.Rng.t -> unit
  (** Copy the log's broadcasts into the pool in the view's order, then set
      the delivery order to the pool read newest-first and permuted by
      {!Mewc_prelude.Rng.shuffle}: the same draws, one per message, and the
      same permutation as shuffling the list of its messages newest-first.
      From then on the view no longer reads the log. Holds until {!clear}. *)

  val view : 'm t -> 'm mail
  (** The pool as mail: the pool and the log merged in post order or,
      after {!shuffle}, the pool in its permuted order. The view reads both
      in place (it is the same value each time, allocated with the pool);
      it is valid until the next {!push}, {!clear} or {!Log.push} or
      {!Log.clear} of its log. *)

  val ids : 'm t -> int list
  (** The envelope ids in the view's order. *)

  val clear : 'm t -> unit
  (** Empty the pool and restore post order. Vectors of more than 256
      entries are handed back; smaller ones are kept, and keep one message
      of the cleared mail reachable (its first) until the next delivery to
      this pool overwrites it. The log is cleared on its own and keeps its
      storage. *)
end
