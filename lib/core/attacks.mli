(** The Byzantine attack zoo.

    Protocol-specific adversary strategies exercising the failure modes the
    paper's proofs defend against. Every attack is an
    {!Mewc_sim.Adversary.factory}: it receives the trusted setup and uses
    only the secrets of the processes it corrupts. Used throughout the test
    suite and the complexity experiments; exported so downstream users can
    stress their own deployments. *)

open Mewc_prelude
open Mewc_sim

(** {1 Byzantine Broadcast (Algorithms 1–2)} *)

val bb_equivocating_sender :
  cfg:Config.t ->
  sender:Pid.t ->
  v1:string ->
  v2:string ->
  (Adaptive_bb.state, Adaptive_bb.msg) Adversary.factory
(** The sender signs two different values and sends each to half the
    processes, then goes silent. Both are valid BB values, so the weak BA
    may decide either — or ⊥ (more than one valid value exists). Tests BB
    agreement under the attack the BB validity proof (Lemma 12) rules out
    for {e correct} senders. *)

val bb_selective_sender :
  cfg:Config.t ->
  sender:Pid.t ->
  value:string ->
  recipients:Pid.t list ->
  (Adaptive_bb.state, Adaptive_bb.msg) Adversary.factory
(** The sender delivers its signed value to [recipients] only and goes
    silent: the vetting phases must spread the value (or produce an idk
    certificate) so that every correct process enters the weak BA with a
    valid input (Lemma 11). *)

val bb_fake_idk_leader :
  cfg:Config.t ->
  byz:Pid.t list ->
  (Adaptive_bb.state, Adaptive_bb.msg) Adversary.factory
(** Lemma 10's guarantee under attack: with a {e correct} sender, a
    Byzantine vetting leader (the first pid in [byz]) tries to push an idk
    certificate anyway — built from its own colleagues' t idk signatures,
    one short of the t+1 quorum, and padded with under-sized certificates.
    Every forgery must bounce off `BB_valid`, leaving the sender's value as
    the only decision. *)

(** {1 Weak BA (Algorithms 3–4)} *)

val wba_exclusive_finalizer :
  cfg:Config.t ->
  leader:Pid.t ->
  lucky:Pid.t ->
  (Instances.Weak_str.state, Instances.Weak_str.msg) Adversary.factory
(** The phase-[leader] leader runs the protocol honestly but reveals the
    finalize certificate to [lucky] alone — the paper's own example of why
    the help round exists ("a Byzantine leader causes the single correct
    leader to decide and not initiate its phase", §6). *)

val wba_busy_byz_leaders :
  cfg:Config.t ->
  leaders:Pid.t list ->
  (Instances.Weak_str.state, Instances.Weak_str.msg) Adversary.factory
(** Byzantine leaders run their phases (extracting votes and decide shares
    from correct processes — the O(n) per-phase cost) but never release the
    finalize certificate. This realizes the O(n(f+1)) worst case of §6.1. *)

val wba_help_req_spammers :
  cfg:Config.t ->
  spammers:Pid.t list ->
  (Instances.Weak_str.state, Instances.Weak_str.msg) Adversary.factory
(** Silent throughout the phases, then every spammer sends a signed help
    request: decided correct processes answer each one, exhibiting the
    "number of messages sent by correct processes is linear in the number of
    help requests" behaviour of §6 (O(nf) when only Byzantine processes
    ask). *)

val wba_lonely_decider :
  cfg:Config.t ->
  lucky:Pid.t ->
  (Instances.Weak_str.state, Instances.Weak_str.msg) Adversary.factory
(** The paper's §6 scenario in full: processes p1..pt are Byzantine; p1 runs
    its phase honestly but reveals the finalize certificate to [lucky]
    alone, and no other Byzantine leader initiates. With [lucky = p_(t+1)]
    (the last rotating leader, which then stays silent because it has
    decided), exactly one correct process decides during the phases and all
    the others must be rescued by the help round. *)

val wba_late_fallback_cert :
  cfg:Config.t ->
  victim:Pid.t ->
  (Instances.Weak_str.state, Instances.Weak_str.msg) Adversary.factory
(** On top of {!wba_lonely_decider} (with [lucky = p_(t+1)]), the adversary
    harvests the correct help-request signatures — too few to let any
    correct process form the certificate — tops them up with Byzantine
    ones, and delivers the resulting fallback certificate to [victim] alone
    at the very edge of the acceptance window: the adversarial schedule
    behind the bounded-window deviation discussed in {!Weak_ba}. *)

val wba_invalid_fallback_king :
  cfg:Config.t ->
  byz:Pid.t list ->
  evil:string ->
  (Instances.Weak_str.state, Instances.Weak_str.msg) Adversary.factory
(** Drives weak BA to its ⊥ outcome, witnessing unique validity's default
    case. The Byzantine processes (headed by the king of the fallback's
    first phase — pass pid 1 first) stay silent through the phases, so with
    f ≥ (n−t−1)/2 nobody decides and every correct process enters
    [A_fallback]; the Byzantine king then drives the fallback to decide the
    invalid value [evil], which the weak BA wraps to ⊥. Requires divergent
    correct inputs (otherwise the fallback's input certificates block the
    unjustified proposal — also worth testing!). *)

val wba_small_quorum_split :
  cfg:Config.t ->
  quorum:int ->
  v1:string ->
  v2:string ->
  (Instances.Weak_str.state, Instances.Weak_str.msg) Adversary.factory
(** The ablation attack for the paper's central quorum insight (§6): a
    Byzantine phase-1 leader equivocates between the even- and odd-pid
    correct processes and completes {e both} commit and finalize
    certificates using its [t] Byzantine signatures. Against a weak BA
    ablated to [quorum = t + 1] this yields two conflicting finalize
    certificates and an agreement violation; against the sound
    ⌈(n+t+1)/2⌉ quorum the same attack cannot complete either certificate.
    Run it with {!Instances.Weak_ba_protocol}'s [quorum_override]. *)

val wba_fuzzer :
  cfg:Config.t ->
  victims:Pid.t list ->
  seed:int64 ->
  (Instances.Weak_str.state, Instances.Weak_str.msg) Adversary.factory
(** A protocol-aware Byzantine fuzzer: every corrupted process sprays
    randomly generated weak-BA messages each slot — self-signed proposals
    and votes for random phases and values, replays of any certificate it
    has observed on the wire (re-targeted at wrong phases, levels and
    constructors), bogus help requests and fallback certificates, and junk
    addressed into the embedded [A_fallback]. Everything it sends is
    forgeable without foreign keys, so safety (agreement, unique validity,
    termination) must survive any seed — the randomized safety property in
    the test suite. *)

(** {1 Strong BA (Algorithm 5)} *)

val sba_withholding_leader :
  cfg:Config.t ->
  leader:Pid.t ->
  lucky:Pid.t ->
  (Instances.Strong_bool.state, Instances.Strong_bool.msg) Adversary.factory
(** The leader runs Algorithm 5 honestly but sends the signed-by-all decide
    certificate to [lucky] alone: [lucky] decides fast, everyone else
    enters the fallback, and the 2δ adoption window (lines 20–24) must
    reconcile them — the exact scenario of Lemma 26. *)

(** {1 A_fallback (echo phase king)} *)

val epk_lock_carryover_king :
  cfg:Config.t ->
  target:Pid.t ->
  (Instances.Fallback_str.state, Instances.Fallback_str.msg) Adversary.factory
(** The phase-1 king runs its phase honestly but reveals the commit
    certificate to [target] alone and suppresses its own acks: [target]
    locks the king's value without a decision forming. The next (correct)
    king must learn the lock from [target]'s status report and propose the
    locked value with a lock justification — the cross-phase safety
    mechanism — so the final decision is the Byzantine king's value even
    though only one correct process ever saw its certificate. *)

val epk_equivocating_king :
  cfg:Config.t ->
  king:Pid.t ->
  v1:string ->
  v2:string ->
  (Instances.Fallback_str.state, Instances.Fallback_str.msg) Adversary.factory
(** The king of phase [king] signs two proposals and splits them between
    odd and even processes. The echo round must expose the equivocation so
    that no value is certified in that phase, and a later king must still
    drive everyone to one decision. *)
