module type S = sig
  type t

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val encode : t -> string
  val words : t -> int
  val pp : Format.formatter -> t -> unit
  val codec : t Codec.t
  val gen : Mewc_prelude.Rng.t -> t
end

module Str = struct
  type t = string

  let equal = String.equal
  let compare = String.compare
  let encode v = v
  let words _ = 1
  let pp fmt v = Format.fprintf fmt "%S" v
  let codec = Codec.str_c ~max:1024
  let gen g = Codec.gen_bytes g (Mewc_prelude.Rng.int g 33)
end

module Bool = struct
  type t = bool

  let equal = Bool.equal
  let compare = Bool.compare
  let encode = function true -> "1" | false -> "0"
  let words _ = 1
  let pp = Format.pp_print_bool
  let codec = Codec.bool_c
  let gen = Mewc_prelude.Rng.bool
end
