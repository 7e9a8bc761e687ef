(** Binary strong Byzantine Agreement, linear in the failure-free case — the
    paper's Algorithm 5 (§7).

    The first optimally-resilient ([n = 2t + 1]) strong BA with O(n)
    communication when f = 0 (and O(n²) otherwise — the open question of a
    fully adaptive strong BA is exactly what the paper leaves open).

    {2 Structure}

    A fixed leader collects all signed binary inputs; because values are
    binary and [n = 2t + 1], some value has [t + 1] signatures in a
    failure-free run, so the leader can batch a propose certificate
    (Lemma 8). It then collects {e all n} signatures on that value into a
    decide certificate; a process receiving the signed-by-all certificate
    decides immediately. Any process that has not decided by round 5
    broadcasts a fallback notice; everyone who hears one echoes it once and
    enters [A_fallback] after a 2δ safety window with δ' = 2δ rounds,
    adopting any certified decision learned during the window — so
    fallback-decided and fast-decided processes agree (Lemma 26). *)

module Make (F : Fallback_intf.FALLBACK with type value = bool) : sig
  (** Public wire format (see {!Weak_ba.Make} on why). *)
  type msg =
    | Input of { value : bool; share : Mewc_crypto.Pki.Sig.t }
    | Propose of { value : bool; qc : Mewc_crypto.Certificate.t }
    | Decide_share of { value : bool; share : Mewc_crypto.Pki.Sig.t }
    | Decide of { value : bool; qc : Mewc_crypto.Certificate.t }
    | Fallback of { decision : (bool * Mewc_crypto.Certificate.t) option }
    | Fb of F.msg

  type state

  val propose_purpose : string
  val decide_purpose : string

  val words : msg -> int
  val pp_msg : Format.formatter -> msg -> unit

  val codec : F.msg Mewc_sim.Codec.t -> msg Mewc_sim.Codec.t
  (** The [mewc-wire/1] encoding of {!msg}, given the fallback's. *)

  val gen : (Mewc_prelude.Rng.t -> F.msg) -> Mewc_prelude.Rng.t -> msg
  (** A random well-formed message (see {!Weak_ba.Make.gen}). *)

  val init :
    cfg:Mewc_sim.Config.t ->
    pki:Mewc_crypto.Pki.t ->
    secret:Mewc_crypto.Pki.Secret.t ->
    pid:Mewc_prelude.Pid.t ->
    leader:Mewc_prelude.Pid.t ->
    input:bool ->
    start_slot:int ->
    state

  val step :
    slot:int ->
    inbox:msg Mewc_sim.Mail.t ->
    state ->
    state * msg Mewc_sim.Process.send list

  val wake : after:int -> state -> int
  (** The {!Mewc_sim.Process.t} next-wake query (input round, the adopt-or-
      fallback branch, the scheduled or live fallback). *)

  val decision : state -> bool option

  val decided_at : state -> int option
  (** Slot at which the decision was reached (latency metric). *)

  val horizon : Mewc_sim.Config.t -> int

  (** {2 Introspection} *)

  val decided_fast : state -> bool
  (** Decided from the signed-by-all certificate, without the fallback. *)

  val fallback_entered : state -> bool
end
