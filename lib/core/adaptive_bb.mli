(** Adaptive Byzantine Broadcast — the paper's Algorithms 1 and 2 (§5).

    A designated sender broadcasts a value; every correct process decides
    the sender's value if the sender is correct, and some common value
    otherwise. Communication is O(n(f+1)) words with resilience
    [n = 2t + 1] — the first BB with this adaptive complexity.

    {2 Structure}

    - {b Round 1}: the sender disseminates ⟨v⟩sender; receivers adopt it as
      their weak-BA input.
    - {b Vetting} (Algorithm 2): n phases with rotating leaders. A leader
      that already holds an input keeps its phase silent. Otherwise it
      broadcasts a help request; processes answer with their sender-signed
      value, or with a signed "idk". A leader that collects a sender-signed
      value broadcasts it; one that collects t+1 idk signatures batches them
      into an idk quorum certificate — itself a valid value — and
      broadcasts that. After the first non-silent correct-leader phase all
      later correct leaders are silent, so non-silent phases number at most
      f + 1.
    - {b Weak BA} (§6) over the resulting values with the predicate
      [BB_valid(v)] = "v is signed by the sender, or by t+1 processes".
      The vetting guarantees every correct process enters with a valid
      input, and — when the sender is correct — that no idk certificate can
      exist (Lemma 10), making ⟨v⟩sender the only valid value, which unique
      validity then forces as the outcome.

    The BB decision is [v] when the weak BA decides a sender-signed [v],
    and ⊥ when it decides an idk certificate or its own ⊥. *)

type value = string

(** The weak BA runs over these wrapped values. [BB_valid] accepts both
    arms; only [Sender_signed] yields a real BB decision. *)
type bb_value =
  | Sender_signed of { value : value; sg : Mewc_crypto.Pki.Sig.t }
  | Idk_cert of Mewc_crypto.Certificate.t

module Bb_value : Mewc_sim.Value.S with type t = bb_value

module Fallback_bb : Fallback_intf.FALLBACK with type value = bb_value
(** The [A_fallback] instance the weak BA embeds over {!bb_value}. *)

module W : module type of Weak_ba.Make (Bb_value) (Fallback_bb)
(** The embedded weak-BA instance over {!bb_value}. *)

(** Public wire format (see {!Weak_ba.Make} on why). *)
type msg =
  | Send of { value : value; sg : Mewc_crypto.Pki.Sig.t }
  | Vet_help_req of { phase : int; sg : Mewc_crypto.Pki.Sig.t }
  | Vet_value of { phase : int; value : bb_value }
  | Vet_idk of { phase : int; share : Mewc_crypto.Pki.Sig.t }
  | Vet_bcast of { phase : int; value : bb_value }
  | Wba of W.msg

type state

val sender_purpose : string
val idk_purpose : string
val helpreq_purpose : string

(** {2 Slot layout (relative to [start_slot])} *)

val vet_base : int -> int
(** First slot of vetting phase [j] (the leader's help-request round). *)

val wba_start : Mewc_sim.Config.t -> int
(** Slot at which the embedded weak BA begins. *)

type decision =
  | Decided of value  (** a sender-signed value *)
  | No_decision  (** ⊥ — possible only with a Byzantine sender *)

val equal_decision : decision -> decision -> bool
val pp_decision : Format.formatter -> decision -> unit

val words : msg -> int
val pp_msg : Format.formatter -> msg -> unit

val codec : msg Mewc_sim.Codec.t
(** The [mewc-wire/1] encoding of {!msg}, the embedded weak BA's and
    fallback's included. *)

val gen : Mewc_prelude.Rng.t -> msg
(** A random well-formed message for the codec laws: every constructor, at
    every nesting level, has positive probability. *)

val bb_valid : pki:Mewc_crypto.Pki.t -> cfg:Mewc_sim.Config.t -> sender:Mewc_prelude.Pid.t -> bb_value -> bool
(** The paper's [BB_valid] predicate, exposed for tests. *)

val init :
  cfg:Mewc_sim.Config.t ->
  pki:Mewc_crypto.Pki.t ->
  secret:Mewc_crypto.Pki.Secret.t ->
  pid:Mewc_prelude.Pid.t ->
  sender:Mewc_prelude.Pid.t ->
  input:value option ->
  start_slot:int ->
  state
(** [input] is the sender's broadcast value; it is ignored for [pid <>
    sender] (pass [None]). *)

val step :
  slot:int ->
  inbox:msg Mewc_sim.Mail.t ->
  state ->
  state * msg Mewc_sim.Process.send list

val wake : after:int -> state -> int
(** The {!Mewc_sim.Process.t} next-wake query (sender dissemination, leader
    help requests, weak-BA init, then the weak BA's own query). *)

val decision : state -> decision option

val decided_at : state -> int option
(** Slot at which the decision was reached (latency metric). *)

val horizon : Mewc_sim.Config.t -> int

(** {2 Introspection} *)

val vetting_phase_initiated : state -> bool
val adopted_value : state -> bb_value option
val fallback_entered : state -> bool
