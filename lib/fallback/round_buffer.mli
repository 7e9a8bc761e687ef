(** Per-round mailboxes for the round-tagged fallbacks.

    A fallback tags every message with its protocol round, buffers what it
    receives by that tag, and ingests round [r] only when its clock enters
    a later round. This buffer takes tags [0 .. last]. It accepts a tag
    [r] only while [consumed <= r <= last] and drains rounds in order,
    each in arrival order. Entries live in one flat store, chained per
    round through an index array, so buffering and draining allocate
    nothing per message once the store has grown; the store is recycled
    whenever every entry has been drained.

    Its size follows what is pending, not [last]. Each round's chain head
    and tail sit in a ring over the rounds [consumed .. consumed + cap - 1].
    The ring starts with 8 slots (fewer when [last] is below 7) and
    doubles, moving every live round to its new slot, only when a tag
    lands beyond it; a correct run tags at most a round or two ahead, so
    it stays at 8. Far-future tags can grow it, but never past
    [last + 1] slots, the size of a per-round array. *)

type 'a t

val create : last:int -> 'a t
(** An empty buffer for round tags [0 .. last], with nothing consumed. *)

val consumed : 'a t -> int
(** Rounds strictly below this have been drained; later tags below it are
    dropped. *)

val add : 'a t -> round:int -> 'a -> unit
(** Buffer one entry under [round], or drop it when [round < consumed] or
    [round > last]. *)

val drain : 'a t -> upto:int -> (int -> (('a -> unit) -> unit) -> unit) -> unit
(** [drain b ~upto ingest] drains every round [r] in [consumed .. upto-1]
    in order and leaves [consumed = max consumed upto]. For each such
    round that holds entries it calls [ingest r iter] once, where
    [iter f] applies [f] to the round's entries in arrival order (and may
    be called more than once); an empty round is skipped. *)

val first_pending : 'a t -> int
(** The lowest round [>= consumed] holding an entry, or [max_int]. *)
