(** A process's mail for one step: a read-only view of what was delivered
    to it at the start of the slot, in arrival order.

    The contract:
    - A view is valid only during the step (or adversary callback) it was
      handed to. The engine reuses the storage behind it from the next slot
      on, so a view must never be stored; keep {!to_list} instead.
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

(** One destination's pool, as the lock-step engine keeps it: parallel
    [src]/[sent_at]/[msg]/[id] vectors in post order, grown by doubling
    and reused slot after slot, so a post allocates nothing per copy. *)
module Pool : sig
  type 'm mail := 'm t
  type 'm t

  val create : dst:Mewc_prelude.Pid.t -> 'm t

  val length : 'm t -> int

  val push : 'm t -> src:Mewc_prelude.Pid.t -> sent_at:int -> id:int -> 'm -> unit
  (** Append one message (envelope id [id]) at the end. *)

  val shuffle : 'm t -> Mewc_prelude.Rng.t -> unit
  (** Set the delivery order to the pool read newest-first and permuted by
      {!Mewc_prelude.Rng.shuffle}: the same draws, one per message, and the
      same permutation as shuffling the list of its messages newest-first.
      Holds until {!clear}. *)

  val view : 'm t -> 'm mail
  (** The pool as mail, in post order or, after {!shuffle}, in its
      permuted order. The view reads the pool in place (it is the same
      value each time, allocated with the pool); it is valid until the
      next {!push} or {!clear}. *)

  val ids : 'm t -> int list
  (** The envelope ids in the view's order. *)

  val clear : 'm t -> unit
  (** Empty the pool, keeping its storage, and restore post order. The
      storage keeps one message of the cleared mail reachable (its first),
      until the next delivery to this pool overwrites it. *)
end
