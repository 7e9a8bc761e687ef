(** Process identities.

    Processes in a system of size [n] are numbered [0 .. n-1]. The paper
    writes [p_1 .. p_n]; we use zero-based indices throughout and convert
    only when printing. *)

type t = int

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val all : n:int -> t list
(** [all ~n] is [[0; 1; ...; n-1]], the static process set Π. *)

val is_valid : n:int -> t -> bool
(** [is_valid ~n p] checks that [p] denotes a process of a system of size
    [n]. *)

val rotating_leader : n:int -> phase:int -> t
(** [rotating_leader ~n ~phase] is the leader of phase [phase] (1-based), the
    paper's [p_(j mod n)]: phases [1, 2, ..., n] map to processes
    [1, 2, ..., n-1, 0] in zero-based numbering. *)

val next_led_phase : n:int -> t -> from:int -> int
(** [next_led_phase ~n p ~from] is the first phase [j >= from] that [p]
    leads under {!rotating_leader}, i.e. the least [j >= from] with
    [j mod n = p]. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
