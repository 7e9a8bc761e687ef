(** [A_fallback]: synchronous strong Byzantine Agreement with optimal
    resilience [n = 2t + 1] — the black box the paper instantiates with
    Momose–Ren's DISC'21 protocol (see DESIGN.md for the substitution note).

    The protocol provides exactly the three properties the paper relies on
    (§6, Lemmas 18–22): {b agreement}, {b termination} within a statically
    known number of rounds, and {b strong unanimity} (if all correct
    processes propose the same value, that value is decided).

    {2 Construction}

    Round 0 is an all-to-all exchange of signed inputs; a value carrying
    [t + 1] distinct input signatures in some process's view is {e popular}
    there and can be certified with an [(t+1, n)]-threshold input
    certificate. When all correct processes propose [v], every correct view
    has popular value exactly [v] and no other value can ever be certified —
    this pins unanimity.

    Then [t + 1] phases with rotating kings. Each phase has six rounds:

    + {b status}: everyone reports its lock and input certificate to the king;
    + {b propose}: the king signs and broadcasts a justified proposal
      (highest reported lock, else an input certificate, else its own value
      unjustified);
    + {b echo}: everyone forwards the king proposals it received (at most
      two distinct ones — enough to expose equivocation to all);
    + {b vote}: a process votes iff it saw {e exactly one} proposal value
      from this king and the justification dominates its own lock — so two
      correct processes can never vote for different values in one phase;
    + {b commit}: the king batches [t + 1] votes into a commit certificate
      with level = phase number and broadcasts it; receivers re-lock;
    + {b ack}: lockers broadcast signed acks carrying the commit
      certificate; [t + 1] acks batch into a decide certificate.

    A process that decides broadcasts the decide certificate once and goes
    quiescent, so phases after the first completed correct-king phase are
    silent: word complexity is O(n²·(k+1)) where [k] is the number of kings
    tried before a correct king completes.

    {2 Skewed starts}

    When entered from the weak BA's fallback path, processes may start up to
    δ apart; the paper handles this by running rounds of δ' = 2δ (Lemma 18).
    Accordingly every message is tagged with its round number, receivers
    buffer by round and act on round [r] messages when their local clock
    enters round [r + 1]; with [round_len >= skew + 1] every correct round-r
    message is ingested on time and late (Byzantine-timed) messages are
    ignored. *)

module Make (V : Mewc_sim.Value.S) : sig
  type justification =
    | Unjustified
    | Input_cert of Mewc_crypto.Certificate.t
    | Lock_just of { level : int; qc : Mewc_crypto.Certificate.t }

  type proposal = {
    p_phase : int;
    p_value : V.t;
    p_just : justification;
    p_king_sig : Mewc_crypto.Pki.Sig.t;
    p_just_valid : bool;
  }

  (** Public wire format, so Byzantine test strategies can forge messages;
      unforgeability lives in the signatures, not the constructors. Every
      message carries the protocol round it belongs to ([round]), which
      receivers use for buffering under skewed starts. *)
  type body =
    | Input of { value : V.t; share : Mewc_crypto.Pki.Sig.t }
    | Status of {
        phase : int;
        lock : (int * V.t * Mewc_crypto.Certificate.t) option;
        input_qc : (V.t * Mewc_crypto.Certificate.t) option;
      }
    | Propose of proposal
    | Echo of proposal
    | Vote of { phase : int; value : V.t; share : Mewc_crypto.Pki.Sig.t }
    | Commit of { phase : int; value : V.t; qc : Mewc_crypto.Certificate.t }
    | Ack of {
        phase : int;
        value : V.t;
        share : Mewc_crypto.Pki.Sig.t;
        qc : Mewc_crypto.Certificate.t;
      }
    | Decided of { phase : int; value : V.t; qc : Mewc_crypto.Certificate.t }

  type msg = { round : int; body : body }
  type state

  val input_purpose : string
  val propose_purpose : string
  val commit_purpose : string
  val ack_purpose : string

  val phased_payload : int -> V.t -> string

  val base : int -> int
  (** [base j] is the first round of phase [j] (its status round). *)

  val words : msg -> int

  val init :
    cfg:Mewc_sim.Config.t ->
    pki:Mewc_crypto.Pki.t ->
    secret:Mewc_crypto.Pki.Secret.t ->
    pid:Mewc_prelude.Pid.t ->
    input:V.t ->
    start_slot:int ->
    round_len:int ->
    state
  (** [round_len] is δ' in slots: 1 standalone, 2 when started with skew. *)

  val receive : state -> slot:int -> src:Mewc_prelude.Pid.t -> msg -> unit
  (** Buffer one message delivered at [slot] by its round tag, dropping it
      when its round was already ingested (late) or lies past the last
      round. A round counts as ingested once a boundary of a later round
      has passed, whether or not this process stepped there. *)

  val step :
    slot:int ->
    inbox:msg Mewc_sim.Mail.t ->
    state ->
    state * msg Mewc_sim.Process.send list
  (** Receive [inbox], then, at a round boundary, ingest every buffered
      earlier round and emit this round's messages. *)

  val decision : state -> V.t option

  val wake : after:int -> state -> int
  (** The {!Mewc_sim.Process.t} next-wake query: the first round boundary
      at or after [after] at which a step would ingest a buffered round or
      send. A step sends at round 0, at each phase's status round while
      undecided, at the propose and commit rounds of the phases this
      process is king of, at the echo and vote rounds of a phase it holds
      proposals for, at the ack round of a phase it holds a commit
      certificate for, and at the first boundary after it decides (the
      announcement). Once decided and announced with nothing buffered it
      answers {!Mewc_sim.Process.never}. Every other step is a no-op except
      that it would mark empty rounds ingested, which {!receive} and
      {!step} do for themselves. *)

  val decided_at : state -> int option
  (** Slot at which this process decided (latency metric). *)

  val rounds : Mewc_sim.Config.t -> int
  (** Number of protocol rounds until every correct process has decided. *)

  val horizon : Mewc_sim.Config.t -> round_len:int -> int
  (** Slots (from [start_slot] of the earliest process) after which every
      correct process has decided, accounting for 1 slot of start skew. *)

  val pp_msg : Format.formatter -> msg -> unit

  val codec : msg Mewc_sim.Codec.t
  (** The [mewc-wire/1] encoding of {!msg}, over [V.codec]. *)

  val gen : Mewc_prelude.Rng.t -> msg
  (** A random well-formed message for the codec laws: every constructor,
      at every nesting level, has positive probability. *)

  (** {2 Introspection for tests and experiments} *)

  val locked_value : state -> V.t option
  val popular_value : state -> V.t option
end
