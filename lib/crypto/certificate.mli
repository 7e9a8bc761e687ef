(** Typed quorum certificates.

    The protocols form several kinds of certificates — [QC_idk],
    [QC_commit(v)], [QC_finalized(v)], [QC_fallback], [QC_propose(v)],
    [QC_decide(v)] — all of which are threshold signatures over a tagged
    payload. This module fixes the wire encoding (purpose and payload are
    bound into the signed message) so that a certificate formed for one
    purpose can never be replayed for another. *)

type t

val purpose : t -> string
val payload : t -> string

val phased : phase:int -> string -> string
(** [phased ~phase enc] is [phase] in decimal, then ["|"], then [enc]: the
    payload of a phased protocol step. *)

val is_phased : t -> phase:int -> string -> bool
(** [is_phased c ~phase enc] is whether [payload c] is [phased ~phase enc],
    compared in place, without building that string. *)

val cardinality : t -> int

val signed_message : purpose:string -> payload:string -> string
(** The exact string that shares sign. Exposed so tests can cross-check. *)

val share : Pki.t -> Pki.Secret.t -> purpose:string -> payload:string -> Pki.Sig.t
(** One process's contribution towards a certificate. *)

(** The signed message that shares of one purpose (and phase) verify
    against, built once for the first value asked about and returned for
    it without allocating. A correct signer signs one value per purpose and
    phase, so only another value (a Byzantine one, or another process's
    input) is rebuilt, on every call, as without the memo. *)
module Signed_memo : sig
  type 'v t

  val create : purpose:string -> ?phase:int -> unit -> 'v t

  val message : 'v t -> equal:('v -> 'v -> bool) -> encode:('v -> string) -> 'v -> string
  (** [message m ~equal ~encode v] is {!signed_message} of [m]'s purpose
      over [encode v], or, when [m] was created with [~phase], over
      [phased ~phase (encode v)]. *)
end

val make :
  Pki.t -> k:int -> purpose:string -> payload:string -> Pki.Sig.t list -> t option
(** Batch [k] distinct valid shares into a certificate; [None] if the shares
    do not reach the threshold. *)

(** A certificate-in-progress: {!Pki.Tally} specialized to a purpose/payload
    pair. Shares are verified once, on delivery, and only signers are
    retained — the incremental replacement for collecting shares and
    re-verifying them all inside {!make}. *)
module Tally : sig
  type cert := t
  type t

  val create : Pki.t -> k:int -> purpose:string -> payload:string -> t
  val add : t -> Pki.Sig.t -> Pki.Tally.verdict
  val count : t -> int
  val mem : t -> Mewc_prelude.Pid.t -> bool
  val complete : t -> bool

  val certificate : t -> cert option
  (** [Some] iff {!complete}; byte-identical to the {!make} of the same
      valid shares. *)
end

(** The codec's window into the abstract certificate, mirroring
    {!Pki.Wire}: a decoded certificate is only a claim until {!verify}
    passes on its own purpose/payload. *)
module Wire : sig
  val view : t -> string * string * Pki.Tsig.t
  (** [(purpose, payload, tsig)]. *)

  val of_view : purpose:string -> payload:string -> tsig:Pki.Tsig.t -> t
end

val verify : Pki.t -> t -> k:int -> bool
(** [verify pki c ~k] checks the certificate carries at least [k] valid
    shares on its own purpose/payload. *)

val verify_as : Pki.t -> t -> k:int -> purpose:string -> bool
(** Additionally pins the expected purpose tag. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val words : t -> int
(** Always 1: a certificate is a threshold signature plus a constant number
    of domain values (paper §2: a word contains a constant number of
    signatures and values). The payload it authenticates is carried
    separately by the enclosing message and accounted there. *)
