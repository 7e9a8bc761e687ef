(** A minimal growable vector: the engine's flat, pre-sized message pools.

    Unlike cons lists, a [Vec] is reused slot after slot — [clear] resets
    the length without releasing the backing store, so the steady-state hot
    loop allocates nothing per slot. Elements pushed after a [clear]
    overwrite the old ones in place. *)

type 'a t

val create : unit -> 'a t
(** An empty vector. The backing array is allocated lazily on first [push]
    and doubles as it fills. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the end (amortized O(1)). *)

val clear : 'a t -> unit
(** Reset the length to zero, keeping the backing store. Old elements stay
    reachable until overwritten — callers reuse the vector promptly, so the
    retention window is one slot. *)

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** Overwrite an element in place. Raises [Invalid_argument] when out of
    bounds. *)

val sorted_ints : int t -> int array
(** Snapshot the (int) elements into a fresh ascending-sorted array. *)

val iter : ('a -> unit) -> 'a t -> unit
(** In push order (oldest first). *)
