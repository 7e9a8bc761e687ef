(** Trusted public-key infrastructure with individual and threshold
    signatures (paper §2, "Cryptographic tools").

    The paper assumes an ideal signature scheme and an ideal
    [(k, n)]-threshold signature scheme in which [k] unique signatures on the
    same message batch into a single one-word certificate. We realize both
    with HMAC-SHA256 tags over a trusted setup:

    - a signature can only be produced through {!Sig.sign}, which requires
      the signer's {!Secret.t}; the adversary holds exactly the secrets of
      the processes it has corrupted, so unforgeability holds by
      construction;
    - a threshold signature can only be produced through {!Tsig.combine},
      which checks [k] valid shares from [k] distinct signers on the same
      message.

    A [Pki.t] value is the public side of the setup: it can verify anything
    but sign nothing. It also keeps counters of cryptographic operations so
    experiments can report signature complexity (Dolev–Reischuk's Omega(nt)
    lower bound counts signatures, not words). *)

type t

module Secret : sig
  type t
  (** Signing capability of one process. Handed to that process (or to the
      adversary once the process is corrupted) and to nobody else. *)

  val owner : t -> Mewc_prelude.Pid.t
end

val setup : ?seed:int64 -> ?cache_capacity:int -> n:int -> unit -> t * Secret.t array
(** [setup ~n ()] runs the trusted dealer: returns the public verifier and
    the [n] secrets, where secret [i] belongs to process [i].

    Setup also precomputes every key's HMAC midstates (see
    {!Sha256.hmac_key}) and allocates two bounded memo tables: one for
    genuine share tags keyed by [(signer, message)] — the work behind
    {!verify} — and one for aggregate tags keyed by [(signer bitset,
    message)], holding the signer set beside the tag — the work {!combine}
    and {!verify_tsig} would otherwise redo per receiver. {!sign} seeds the
    share-tag table with the tag it computes, so a signature is verified
    from the memo on the domain that made it.
    MAC keys never rotate, so cached tags cannot go stale; when a table
    reaches [cache_capacity] (default 16384 entries) it is cleared
    wholesale and refills — an epoch-clear costs recomputation, never
    correctness. Each domain has its own tables. {!cache_stats} reports
    hits and misses. *)

val n : t -> int

(** {1 Individual signatures} *)

module Sig : sig
  type t
  (** [<m>_p] — process [p]'s signature on a message. One word.

      A value also carries a verdict cell, invisible to {!equal},
      {!compare} and the {!Wire} view: the last [(pki, message)] pair it
      passed {!verify} under, so a signature delivered to every process is
      checked once per value. Polymorphic equality and hashing see the
      cell, and through it a [Pki.t] (which can hold closures): compare
      signatures with {!equal} and {!compare} only. *)

  val signer : t -> Mewc_prelude.Pid.t
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

val sign : t -> Secret.t -> string -> Sig.t
(** [sign pki secret msg] is [secret]'s owner's signature on [msg]. When
    [pki]'s setup issued [secret] to that owner, the tag is also stored in
    the calling domain's share-tag memo and the signature comes marked as
    verified under [(pki, msg)]; the store counts as neither a hit nor a
    miss. A secret from another setup never writes to the memo, and its
    signatures come unmarked. *)

val verify : t -> Sig.t -> msg:string -> bool
(** Checks that the signature is its signer's genuine tag on [msg]. A
    signature marked for this [pki] (compared physically) and an equal
    [msg] passes from its cell, counted as a share-tag hit; any other asks
    the calling domain's memo, and a pass marks it for [(pki, msg)].
    Decoded ({!Wire.sig_of_view}) and foreign signatures start unmarked. *)

(** {1 Threshold signatures} *)

module Tsig : sig
  type t
  (** A [(k, n)]-threshold signature: [k] unique shares batched into a
      certificate "with the same length as an individual signature"
      (paper §2) — one word. *)

  val cardinality : t -> int
  (** Number of distinct shares batched in (the [k] it was combined at). *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

val combine : t -> k:int -> msg:string -> Sig.t list -> Tsig.t option
(** [combine pki ~k ~msg shares] batches [k] unique valid signatures on
    [msg] into a threshold signature. Returns [None] when fewer than [k]
    distinct valid shares are supplied. Extra shares are ignored
    (deterministically: the [k] lowest signer ids are kept). *)

val verify_tsig : t -> Tsig.t -> k:int -> msg:string -> bool
(** Checks that the threshold signature is a valid batch of at least [k]
    shares on [msg]. A passing verdict is cached on the value itself (keys
    never rotate, so it cannot go stale), so verifying a broadcast
    certificate costs the hash work once per run rather than once per
    receiver; the cardinality-vs-[k] check always runs. *)

(** {1 Incremental quorum accounting}

    A tally tracks one certificate-in-progress: each share is verified once,
    when it is delivered, and only its signer is retained. This replaces the
    stockpile-then-{!combine} pattern, whose cost per certificate was
    re-verifying the whole share set — the dominant term at large [n]. *)

module Tally : sig
  type verdict =
    | Added  (** valid share from a new signer — the count advanced *)
    | Duplicate  (** valid share from an already-counted signer *)
    | Invalid  (** verification failed; the tally is unchanged *)

  type t

  val add : t -> Sig.t -> verdict
  (** Verify the share against the tally's message, then deduplicate by
      signer. Verification comes first so callers can tell a valid repeat
      from garbage. *)

  val count : t -> int
  (** Distinct valid signers accumulated so far. *)

  val mem : t -> Mewc_prelude.Pid.t -> bool
  val complete : t -> bool
  (** [count tl >= k]. *)

  val certificate : t -> Tsig.t option
  (** [Some] iff {!complete}; the result is byte-identical to what
      {!combine} would return for the same valid shares (the [k] lowest
      signer ids are kept). Counted as a combine. *)
end

val tally : t -> k:int -> msg:string -> Tally.t
(** A fresh empty tally for a [k]-of-[n] certificate on [msg]. *)

(** {1 Wire view}

    The one sanctioned window into the abstract signature types, for the
    binary codec ([Mewc_sim.Codec]) and nothing else. Reconstruction does
    not confer validity: a [Sig.t]/[Tsig.t] rebuilt from attacker-chosen
    bytes is just a claim, and {!verify}/{!verify_tsig} still decide it —
    unforgeability stays by-construction because only genuine tags pass. *)

module Wire : sig
  val sig_view : Sig.t -> Mewc_prelude.Pid.t * Sha256.t
  (** [(signer, tag)]. *)

  val sig_of_view : signer:Mewc_prelude.Pid.t -> tag:Sha256.t -> Sig.t

  val tsig_view : Tsig.t -> Mewc_prelude.Pid.t list * Sha256.t
  (** [(signers, tag)], signers in strictly ascending order. *)

  val tsig_of_view : signers:Mewc_prelude.Pid.t list -> tag:Sha256.t -> Tsig.t
  (** The rebuilt value starts with a cold verification cache. *)
end

(** {1 Operation counters} *)

val signatures_created : t -> int
val verifications_performed : t -> int
val combines_performed : t -> int

val release : t -> unit
(** Drop the calling domain's memo tables for this setup, once its run is
    over and its {!cache_stats} have been read. The counters survive; a
    later lookup starts a cold table. Tables on other domains are left to
    the usual sweep. *)

val reset_counters : t -> unit
(** Zeroes the operation counters and empties both memo tables (so
    back-to-back experiments on one PKI don't inherit warm caches). *)

(** {1 Profiling hook} *)

type timer = { time : 'a. string -> (unit -> 'a) -> 'a }
(** A polymorphic timing hook. The profiler lives above this library, so
    callers inject one (typically wrapping [Profile.span ~category:Crypto])
    rather than this module depending on it. *)

val set_timer : t -> timer option -> unit
(** Install ([Some]) or remove ([None], the default) the hook. When
    installed, every sign is timed under ["crypto.sign"] and the
    memo-table {e miss} paths under ["crypto.share_tag"] and
    ["crypto.aggregate_tag"], so memo hits and verdict-cell answers stay
    untimed. *)

val set_metrics : t -> Mewc_obs.Metrics.t option -> unit
(** Install ([Some]) or remove ([None], the default) a live-telemetry
    registry. When installed, every sign/verify/combine also bumps the
    ["pki.signs"]/["pki.verifies"]/["pki.combines"] counters — the same
    quantities as the atomic operation counters, but visible in heartbeat
    snapshots while a run is still in flight. *)

(** {1 Cache statistics} *)

type cache_stats = {
  verify_hits : int;
      (** share-tag hits: {!verify} skipped an HMAC, answered by the
          signature's verdict cell or by the memo *)
  verify_misses : int;
      (** share-tag memo misses: no one signed that tag on this domain (and
          no earlier verify there computed it), so {!verify} ran an HMAC *)
  agg_hits : int;  (** aggregate-tag memo hits: {!verify_tsig}/{!combine} skipped re-hashing k shares *)
  agg_misses : int;
}

val cache_stats : t -> cache_stats
(** Lookups in both memo tables since setup or {!reset_counters}, summed
    over domains. Share-tag hits + misses counts every {!verify} of a
    signer of this setup, whether the verdict cell or the memo answered
    it, plus the shares an aggregate miss looks up; {!sign}'s store is
    neither, so a signature verified on the domain that made it is a hit,
    and so is a marked one on any domain. *)

val no_cache_stats : cache_stats
(** All-zero stats, for runners without a PKI. *)

val cache_stats_to_json : cache_stats -> Mewc_prelude.Jsonx.t
(** Counts plus derived [verify_hit_rate]/[agg_hit_rate] fields. *)

val cache_stats_of_json : Mewc_prelude.Jsonx.t -> (cache_stats, string) result
(** Inverse of {!cache_stats_to_json}; the derived rate fields are
    recomputable and therefore ignored. *)
