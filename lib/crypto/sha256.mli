(** SHA-256 (FIPS 180-4) and HMAC-SHA-256 (RFC 2104).

    Used as the digest underlying signatures and threshold-signature shares,
    so that certificate payloads are bound to real message digests rather
    than to OCaml structural equality. The hashing is one portable C99 stub,
    [sha256_stubs.c]: byte-wise big-endian loads, no intrinsics, no CPU
    dispatch and no global mutable state, so it gives the same bytes on any
    host and is safe from any number of domains at once. Each function is
    one call that allocates only its result. Verified in the test suite
    against the official FIPS / NIST and RFC 4231 vectors and against an
    OCaml reference kernel. *)

type t
(** A 32-byte digest. *)

val digest : string -> t
(** [digest msg] hashes the whole string. *)

val to_hex : t -> string
(** Lowercase hexadecimal rendering (64 characters). *)

val to_raw : t -> string
(** The 32 raw digest bytes. *)

val of_raw : string -> t option
(** The inverse of {!to_raw}: adopt 32 raw bytes as a digest value; [None]
    on any other length. Exists for the wire codec only — adopting bytes
    does not make them a valid tag, verification still decides that. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val hmac : key:string -> string -> t
(** HMAC-SHA256 (RFC 2104). The simulated signature scheme uses this as its
    unforgeable tag: [hmac ~key:secret msg]. Equivalent to
    [hmac_with (hmac_key key) msg]; use the keyed form when the same key
    tags many messages. *)

(** {1 Precomputed keys}

    HMAC hashes the (normalized, xor-padded) key as the first block of both
    its inner and outer digest. For a fixed key those two compressions —
    and the key normalization feeding them — never change, so {!hmac_key}
    runs them once and {!hmac_with} starts each digest from the saved
    midstates, the inner digest never leaving the C stack. On the
    simulator's one-block messages this halves the compression count per
    tag. *)

type key
(** A key with its inner/outer HMAC midstates precomputed. Immutable and
    safe to share across domains. *)

val hmac_key : string -> key
val hmac_with : key -> string -> t
(** [hmac_with (hmac_key k) msg] = [hmac ~key:k msg], bit for bit. *)
