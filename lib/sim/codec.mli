(** The [mewc-wire/1] binary format: compact, versioned, length-prefixed —
    and decoded {e totally}.

    The lock-step engine ships OCaml values between processes by reference;
    the async runtime ships bytes, so everything a protocol message can
    carry — domain values, signatures, threshold certificates, envelopes —
    needs a stable binary encoding. Two properties are load-bearing:

    - {b Totality.} [decode] never raises, whatever the input: every
      malformed prefix maps to a typed {!error} ([Truncated], [Overlong],
      [Bad_tag], [Bad_length], [Bad_digest], [Trailing]). This is what lets
      the transport's decode-reject policy drop garbage instead of dying.
    - {b Canonicity.} Every value has exactly one encoding: varints are
      minimal (non-minimal is [Overlong]), booleans and option/variant tags
      are strict, signer sets are delta-coded in ascending order, lengths
      are exact and trailing bytes are rejected. Hence the testable law
      pair: [decode (encode v) = Ok v], and any input that decodes at all
      re-encodes byte-identically.

    Frames (the transport's unit) additionally carry a truncated-SHA-256
    digest over header and payload, so random byte corruption becomes a
    rejected frame — an omission — rather than a forged message from a
    correct process; a real deployment would use a per-link MAC here.
    {!scan} resynchronizes a byte stream on the magic after a rejected
    frame, which is what makes truncation survivable mid-stream.

    Each message codec lives beside the type it encodes: a value domain's
    in its {!Value.S} instance, a protocol message's next to the protocol's
    [msg] type, and the registry pairs each protocol with its codec. *)

type error =
  | Truncated  (** input ended inside a field *)
  | Overlong  (** non-minimal varint — a second spelling of a value *)
  | Bad_tag of { what : string; tag : int }
      (** unknown constructor/option/bool tag, or bad magic/version *)
  | Bad_length of { what : string; len : int }
      (** a count or length outside the field's declared bound *)
  | Bad_digest  (** frame checksum mismatch *)
  | Trailing of { left : int }  (** well-formed value, then [left] junk bytes *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

(** {1 Codecs} *)

type reader
(** A bounded cursor over an immutable byte string. *)

type 'a t = {
  write : Buffer.t -> 'a -> unit;
  read : reader -> ('a, error) result;
}
(** A codec pairs a total writer with a total reader. Writers may raise
    [Invalid_argument] on values outside the format's bounds (negative
    ints, oversized strings) — that is a sender-side bug, not a wire
    condition; readers never raise. *)

val encode : 'a t -> 'a -> string
val decode : 'a t -> string -> ('a, error) result
(** [decode c s] additionally rejects trailing bytes, so [decode c] is a
    partial inverse of [encode c] on exactly the canonical encodings. *)

val encoded_size : 'a t -> 'a -> int

(** {1 Primitive readers/writers}

    For hand-written variant codecs. Every [R] op advances the cursor only
    on success. *)

module W : sig
  val u8 : Buffer.t -> int -> unit
  val vint : Buffer.t -> int -> unit
  (** Minimal LEB128; raises [Invalid_argument] on negatives. *)

  val bool : Buffer.t -> bool -> unit
  val raw : Buffer.t -> string -> unit
  val str : Buffer.t -> string -> unit
  (** Length-prefixed bytes. *)
end

module R : sig
  val u8 : reader -> (int, error) result
  val vint : reader -> (int, error) result
  val bool : reader -> (bool, error) result
  val raw : len:int -> reader -> (string, error) result
  val str : max:int -> reader -> (string, error) result
end

(** {1 Combinators} *)

val vint_c : int t
val bool_c : bool t
val str_c : max:int -> string t
(** Length-prefixed bytes, at most [max] of them: the reader rejects a
    longer length and the writer raises [Invalid_argument] on a longer
    string. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val unit_c : unit t
(** Zero bytes: the payload of a constructor without arguments. *)

val conv : ('b -> 'a) -> ('a -> 'b) -> 'a t -> 'b t
(** [conv proj inj c] encodes [v] as [c] encodes [proj v] and decodes
    through [inj]: a record as the tuple of its fields, in order. *)

type 'a case

val case : int -> 'b t -> ('a -> 'b option) -> ('b -> 'a) -> 'a case
(** [case tag c proj inj]: the constructor [proj] recognizes, written as
    the byte [tag] then its arguments through [c]; [inj] rebuilds it. *)

val union : what:string -> 'a case list -> 'a t
(** A variant, one {!case} per constructor, each spelled once for both
    directions. The writer uses the first case whose [proj] matches; the
    reader dispatches on the tag and rejects an unknown one as
    [Bad_tag { what; _ }]. Raises [Invalid_argument] on duplicate tags. *)

val option_c : 'a t -> 'a option t
(** [None] is the tag 0, [Some v] the tag 1 then [v]. *)

(** {1 Domain codecs} *)

val sig_c : Mewc_crypto.Pki.Sig.t t
(** Signer id + 32-byte tag, via {!Mewc_crypto.Pki.Wire}. A decoded
    signature is a claim; verification still decides it. *)

val tsig_c : Mewc_crypto.Pki.Tsig.t t
(** Signer set (delta-coded ascending — canonical by construction) +
    32-byte aggregate tag. *)

val cert_c : Mewc_crypto.Certificate.t t
(** Purpose (≤ 64 bytes), payload (≤ 2048 bytes), threshold signature. *)

(** {1 Generators}

    Deterministic random {e well-formed} values for the codec laws:
    signatures and certificates are shape-valid but cryptographically
    meaningless — the codec neither knows nor cares. *)

val gen_bytes : Mewc_prelude.Rng.t -> int -> string
(** [gen_bytes g len]: [len] uniformly random bytes. *)

val gen_sig : Mewc_prelude.Rng.t -> Mewc_crypto.Pki.Sig.t
val gen_tsig : Mewc_prelude.Rng.t -> Mewc_crypto.Pki.Tsig.t
val gen_cert : Mewc_prelude.Rng.t -> Mewc_crypto.Certificate.t

(** {1 Frames}

    The transport's unit: what one [write] puts on a link. *)

type kind =
  | Msg  (** payload is one encoded protocol message *)
  | Done
      (** slot-barrier marker: the sender has written all its frames for
          slots [<= slot]; the payload is one varint, the next slot the
          sender needs stepped (see {!marker_next}) *)

type frame = {
  kind : kind;
  src : int;
  dst : int;
  slot : int;  (** sender's slot at send time *)
  seq : int;  (** index within the sender's slot, distinguishes same-link frames *)
  payload : string;
}

val version : int
(** 1 — the [mewc-wire/1] format. *)

val max_frame : int
(** 4096: a frame must fit in one atomic pipe write ([PIPE_BUF]), which is
    also the fuzz budget's input bound. *)

val digest_len : int
(** 8 — the truncated SHA-256 frame checksum. *)

val marker_payload : next:int -> string
(** The payload of a [Done] marker naming [next] as the sender's
    next-needed slot. *)

val marker_next : frame -> int
(** The next-needed slot a [Done] marker carries: its payload's varint,
    or [slot + 1] when the payload is missing, malformed or names a slot
    [<= slot]. The fallback asks for the next slot, which is always safe:
    a process steps it and, if it has nothing to do, that step is a
    no-op. *)

val gen_frame : Mewc_prelude.Rng.t -> frame
(** One in eight is a [Done] marker, whose payload names a next slot 1 to
    64 past its own; a [Msg] payload is ≤ 199 random bytes. *)

val encode_frame : frame -> string
(** Raises [Invalid_argument] if the encoding would exceed {!max_frame}. *)

val decode_frame : string -> (frame, error) result

val scan :
  string ->
  start:int ->
  [ `Frame of frame * int  (** parsed; next unconsumed index *)
  | `Need_more of int  (** keep bytes from this index, await more input *)
  | `Skip of int * error  (** malformed here; reject and rescan from index *)
  ]
(** One step of stream reassembly: find the next magic at or after
    [start], then try to parse a frame there. [`Need_more] is returned
    when the buffer holds a valid proper prefix (more bytes may complete
    it — the transport re-enters on the next read); [`Skip] stamps one
    decode rejection and resumes scanning {e past} the bad magic, which
    is how the stream regains framing after a truncated frame. *)

(** {1 Word reconciliation} *)

val word_bytes : int
(** 32: the byte budget backing one of the paper's "words" (a word holds a
    constant number of signatures/values; one signature tag is 32 bytes). *)

val words_of_bytes : int -> int
(** [ceil (bytes / word_bytes)] — an encoded size in words, comparable
    against [Meter]'s per-message charges. *)
