(** Adaptive weak Byzantine Agreement — the paper's Algorithms 3 and 4 (§6).

    Weak BA satisfies agreement, termination and {e unique validity}
    ({!Validity}) with resilience [n = 2t + 1] and adaptive communication
    complexity O(n(f+1)) words — quadratic only in runs with f = Θ(n)
    failures, where the quadratic fallback is invoked.

    {2 Structure (paper §6)}

    [t + 1] leader-based phases (Algorithm 4), each five rounds:
    propose → vote/forward-commit → commit-certificate → decide →
    finalize-certificate. A leader that has already decided keeps its phase
    {e silent}, which is what makes the protocol adaptive: after the first
    completed correct-leader phase every later correct leader is silent, so
    at most f + 1 phases are non-silent.

    The key quorum is ⌈(n+t+1)/2⌉ ({!Mewc_sim.Config.big_quorum}): two such
    quorums always intersect in a correct process, preserving safety for any
    f, while failing to assemble only when f ≥ (n−t−1)/2 — i.e. when f is
    already Θ(t) and a quadratic fallback is affordable.

    After the phases: undecided processes broadcast help requests; decided
    processes answer them directly. If [t + 1] help requests accumulate —
    proof that f ≥ (n−t−1)/2 — a fallback certificate is formed and
    broadcast, and everyone enters [A_fallback] after a 2δ safety window
    with δ' = 2δ rounds (Lemmas 17–18), using as input any decided value
    learned during the window (Lemma 19).

    {2 Deviations from the pseudocode, and why}

    - Fallback certificates are accepted during a fixed post-help window
      rather than forever: the paper's processes never halt, whereas a run
      here has a static horizon. A certificate surfacing after the window
      can only exist in runs where every correct process has already
      decided (if any correct process was still undecided after the help
      round, either it was helped within the window, or no correct process
      had decided and then all correct processes formed the certificate
      themselves inside the window) — so ignoring it affects nothing.
      Tests exercise exactly this adversarial schedule. *)

module Make (V : Mewc_sim.Value.S) (F : Fallback_intf.FALLBACK with type value = V.t) : sig
  (** The wire format is deliberately public: Byzantine test strategies (and
      downstream users writing their own) forge arbitrary messages with it —
      everything unforgeable lives inside the signatures and certificates,
      not in the constructors. *)
  type msg =
    | Propose of { phase : int; value : V.t; sg : Mewc_crypto.Pki.Sig.t }
    | Vote of { phase : int; value : V.t; share : Mewc_crypto.Pki.Sig.t }
    | Commit_answer of {
        phase : int;
        value : V.t;
        level : int;
        qc : Mewc_crypto.Certificate.t;
      }
    | Commit_bcast of {
        phase : int;
        value : V.t;
        level : int;
        qc : Mewc_crypto.Certificate.t;
      }
    | Decide_share of { phase : int; value : V.t; share : Mewc_crypto.Pki.Sig.t }
    | Finalized of { phase : int; value : V.t; qc : Mewc_crypto.Certificate.t }
    | Help_req of { sg : Mewc_crypto.Pki.Sig.t }
    | Help of { phase : int; value : V.t; qc : Mewc_crypto.Certificate.t }
    | Fallback_cert of {
        qc : Mewc_crypto.Certificate.t;
        decision : (int * V.t * Mewc_crypto.Certificate.t) option;
      }
    | Fb of F.msg

  type state

  (** {2 Certificate purposes (for forging shares in tests)} *)

  val propose_purpose : string
  val commit_purpose : string
  val finalize_purpose : string
  val helpreq_purpose : string

  val phased_payload : int -> V.t -> string
  (** The payload string that phase-[j] shares sign for a value. *)

  (** {2 Slot layout (relative to [start_slot])} *)

  val base : int -> int
  (** First slot of phase [j] (the leader's propose round). *)

  val help_base : Mewc_sim.Config.t -> int
  (** Slot of the help-request round, right after the last phase. *)

  val fb_window_end : Mewc_sim.Config.t -> int
  (** Last slot at which fallback certificates are honoured. *)

  type outcome =
    | Value of V.t
    | Bot  (** the ⊥ default of unique validity *)

  val words : msg -> int
  val pp_msg : Format.formatter -> msg -> unit
  val pp_outcome : Format.formatter -> outcome -> unit
  val equal_outcome : outcome -> outcome -> bool

  val codec : F.msg Mewc_sim.Codec.t -> msg Mewc_sim.Codec.t
  (** The [mewc-wire/1] encoding of {!msg}, given the fallback's. *)

  val gen : (Mewc_prelude.Rng.t -> F.msg) -> Mewc_prelude.Rng.t -> msg
  (** A random well-formed message for the codec laws (every constructor
      has positive probability), given a generator of fallback messages. *)

  val init :
    ?quorum_override:int ->
    cfg:Mewc_sim.Config.t ->
    pki:Mewc_crypto.Pki.t ->
    secret:Mewc_crypto.Pki.Secret.t ->
    pid:Mewc_prelude.Pid.t ->
    input:V.t ->
    validate:(V.t -> bool) ->
    start_slot:int ->
    unit ->
    state
  (** Precondition (paper §5/§6): every correct process's [input] satisfies
      [validate].

      [quorum_override] replaces the ⌈(n+t+1)/2⌉ commit/finalize quorum —
      {b it exists only for the quorum ablation} (experiment ABL-QUORUM),
      which shows that running with the naive [t + 1] quorum lets a
      Byzantine leader forge two conflicting finalize certificates and
      break agreement, exactly the failure mode §6 designs around. Never
      set it in real use. *)

  val step :
    slot:int ->
    inbox:msg Mewc_sim.Mail.t ->
    state ->
    state * msg Mewc_sim.Process.send list

  val wake : after:int -> state -> int
  (** The {!Mewc_sim.Process.t} next-wake query: the first slot at or after
      [after] where an empty-inbox step could still act (this process's
      phase-leader proposals, the help window, the scheduled or live
      fallback), else {!Mewc_sim.Process.never}. *)

  val decision : state -> outcome option
  (** [None] until the process decides; decided values never change. *)

  val decided_at : state -> int option
  (** Slot at which the decision was reached (latency metric). *)

  val horizon : Mewc_sim.Config.t -> int
  (** Slots from [start_slot] after which every correct process has
      decided. *)

  (** {2 Introspection (experiments and tests)} *)

  val initiated_phase : state -> bool
  (** Did this process run a non-silent phase as leader? *)

  val sent_help_request : state -> bool
  val fallback_entered : state -> bool
  val commit_level : state -> int
  val decided_in_phase : state -> int option
  (** Phase whose finalize certificate this process decided on, if the
      decision came from the phases part. *)
end
