(** Agreement values.

    The protocols are parametric in the value domain (the paper's multi-valued
    vs binary distinction). A value costs a fixed number of words and has an
    injective wire encoding which is what actually gets signed. *)

module type S = sig
  type t

  val equal : t -> t -> bool
  val compare : t -> t -> int

  val encode : t -> string
  (** Injective: [encode a = encode b] implies [equal a b]. Signatures and
      certificates bind this encoding, never the OCaml value. *)

  val words : t -> int
  (** Cost of shipping one value; 1 for "values from a finite domain"
      (paper §2). *)

  val pp : Format.formatter -> t -> unit

  val codec : t Codec.t
  (** The value's [mewc-wire/1] encoding, for the message codecs that
      carry it. *)

  val gen : Mewc_prelude.Rng.t -> t
  (** A random well-formed value, for the codec laws. *)
end

module Str : S with type t = string
(** Multi-valued domain: interned strings, 1 word each. On the wire a value
    is at most 1024 bytes; generated values are at most 32, one metered
    word like the protocols' real values. *)

module Bool : S with type t = bool
(** Binary domain, for the paper's §7 strong BA. *)
