(** Adversary combinators.

    Beyond plain crashes ({!Adversary.crash}), most interesting Byzantine
    behaviours are small perturbations of the honest protocol: run the real
    state machine but censor, redirect, duplicate or rewrite selected
    messages. [deviant] packages that pattern; the protocol-specific attack
    zoo ({!Mewc_core.Attacks}) is built from it plus hand-rolled senders. *)

val deviant :
  name:string ->
  victims:Mewc_prelude.Pid.t list ->
  machine:(Mewc_prelude.Pid.t -> ('m_state, 'm) Process.t) ->
  mangle:
    (slot:int ->
    pid:Mewc_prelude.Pid.t ->
    inbox:'m Mail.t ->
    'm Process.send list ->
    'm Process.send list) ->
  ('s, 'm) Adversary.t
(** Corrupts [victims] at slot 0. Each corrupted process privately runs
    [machine pid] — typically the honest protocol, possibly with different
    parameters — and its outgoing messages pass through [mangle] before
    hitting the network; [mangle] also sees the process's inbox, so it can
    censor, rewrite or inject messages based on what was heard. A mangle
    that keeps or drops sends by destination goes through {!Process.filter}
    (or {!Process.expand}), which lists a broadcast as its [n] copies. The
    adversary's internal states are independent of the engine's ['s] states
    (which belong to correct processes). *)

val scripted :
  name:string ->
  victims:Mewc_prelude.Pid.t list ->
  script:
    (slot:int ->
    pid:Mewc_prelude.Pid.t ->
    inbox:'m Mail.t ->
    'm Process.send list) ->
  ('s, 'm) Adversary.t
(** Corrupts [victims] at slot 0 and drives them with a stateless-per-slot
    script over their inboxes (close over refs for stateful attacks). *)

val compose : ('s, 'm) Adversary.t -> ('s, 'm) Adversary.t -> ('s, 'm) Adversary.t
(** Union of two adversaries: corruptions are merged (budget still enforced
    by the engine); each corrupted process is driven by whichever adversary
    listed it first (the left one wins ties). Useful to combine, e.g., an
    equivocating sender with crash failures elsewhere. *)
