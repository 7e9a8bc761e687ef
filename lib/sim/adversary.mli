(** The adaptive Byzantine adversary (paper §2).

    The adversary may corrupt up to [t] processes {e during} the run
    (adaptive corruption), sees the entire system state (a strict
    over-approximation of "rushing": it observes every message, every
    process's internal state, and the messages correct processes send in the
    current slot before choosing its own), and drives each corrupted process
    arbitrarily — except that it cannot forge signatures of processes it has
    not corrupted, which the crypto layer enforces by construction.

    Corruption is irrevocable and takes effect at the start of a slot,
    before correct processes step. A process corrupted in slot [s] no longer
    runs its protocol step in slot [s]; messages it sent earlier are already
    in flight and will be delivered (the adversary cannot unsend). *)

type ('s, 'm) view = {
  mutable slot : int;
  cfg : Config.t;
  mutable states : 's array Lazy.t;
      (** protocol states; for corrupted processes, the state frozen at
          corruption time *)
  mutable corrupted : bool array Lazy.t;
  mutable inboxes : 'm Mail.t array Lazy.t;
      (** what each process received this slot, as views valid until
          this slot's Byzantine step returns ({!Mail}) *)
  mutable correct_outgoing : 'm Envelope.t list Lazy.t;
      (** messages correct processes send in this slot, one envelope per
          destination ({!Process.expand}) — empty during the corruption
          decision, populated for Byzantine steps (rushing) *)
}
(** The engine hands out defensive copies of its arrays so an adversary can
    never mutate the run from under it — but the copies are {e lazy}: an
    adversary that never looks (honest, crash, staggered-crash — the bulk
    of every sweep) costs the engine nothing per slot, and the same holds
    for the envelope list behind [correct_outgoing].

    The engine keeps {e one} view per run and updates it in place before
    each callback: it sets [slot], and re-arms a thunk only if an
    adversary forced it since, so an unforced thunk is the same value from
    slot to slot and snapshots at its first force. The fields are mutable
    for the engine's sake; adversary code only reads them. Force inside
    the [corrupt]/[byz_step] callback that received the view: a view
    stashed and read in a later callback shows that callback's slot and
    state, not the one it was handed in. *)

val states : ('s, 'm) view -> 's array
val corrupted : ('s, 'm) view -> bool array
val inboxes : ('s, 'm) view -> 'm Mail.t array
val correct_outgoing : ('s, 'm) view -> 'm Envelope.t list
(** Forcing accessors for the lazy fields. *)

type ('s, 'm) t = {
  name : string;
  corrupt : ('s, 'm) view -> Mewc_prelude.Pid.t list;
      (** Called once per slot before correct processes step: processes to
          corrupt now. The engine enforces the cumulative budget [t]. *)
  byz_step : pid:Mewc_prelude.Pid.t -> ('s, 'm) view -> 'm Process.send list;
      (** Called once per slot for each corrupted process, after correct
          processes have stepped. Returns the messages that process sends. *)
}

type ('s, 'm) factory =
  pki:Mewc_crypto.Pki.t -> secrets:Mewc_crypto.Pki.Secret.t array -> ('s, 'm) t
(** Adversaries that need to {e sign} (equivocate, forge certificates from
    corrupted shares, …) are built after the trusted setup, closing over the
    secrets of the processes they will corrupt — and only those ever get
    used, mirroring the model: corruption hands the adversary that process's
    signing key and nothing else. Runners take factories. *)

val const : ('s, 'm) t -> ('s, 'm) factory
(** Lift an adversary that never signs (crash-style). *)

val honest : name:string -> ('s, 'm) t
(** Corrupts nobody: failure-free runs (f = 0). *)

val crash : ?at:int -> victims:Mewc_prelude.Pid.t list -> unit -> ('s, 'm) t
(** Corrupts [victims] at slot [at] (default 0) and keeps them silent
    forever: pure crash failures, the "benign" end of Byzantine. *)

val staggered_crash :
  victims:Mewc_prelude.Pid.t list -> every:int -> ('s, 'm) t
(** Crashes one further victim every [every] slots (first at slot 0) —
    an adaptive-corruption schedule. *)
