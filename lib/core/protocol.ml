(** The protocol-instance interface behind the generic runner.

    Every agreement protocol in the zoo — the standalone fallback, weak BA,
    BB, binary BB, strong BA — is packaged as a first-class module of type
    {!S}: its value domain, wire format and word costs, static horizon,
    per-process machine, decided-projections, and standard monitor suite.
    {!Instances.run} consumes any such module, so runners, sweeps and fuzzing
    campaigns are written once instead of five times.

    Protocol-specific run knobs (inputs, sender, round length, the unsafe
    [quorum_override] ablation, …) live in the instance's [params] type;
    [default_params] gives a canonical configuration and [mutate_params] a
    deterministically perturbed one, which is how the fuzzer's generic
    equivocation behavior obtains a second, conflicting run of the same
    machine without knowing the protocol's value domain. *)

open Mewc_prelude
open Mewc_crypto
open Mewc_sim

type counters = {
  fallback_runs : int;
  nonsilent_phases : int;
  help_requests : int;
}
(** The protocol-specific tallies surfaced in [agreement_outcome], computed
    from the final states of never-corrupted processes. Instances without a
    notion of, say, help requests report 0. *)

module type S = sig
  type value
  (** The agreement domain (multi-valued or binary). *)

  type params
  (** Per-run knobs: inputs plus whatever the instance's [init] takes. *)

  type state
  type msg
  type decision

  val name : string
  (** Stable identifier, also the CLI spelling (e.g. ["weak-ba"]). *)

  val words : msg -> int
  (** The paper's word measure for one message. *)

  val encode_msg : msg -> string
  (** Render a message for traces and corpora (wire format, human-legible). *)

  val default_params : Config.t -> params

  val mutate_params : params -> salt:int -> params
  (** A deterministic perturbation of the inputs — same knobs, conflicting
      values. [salt] selects among perturbations. *)

  val validate_params : cfg:Config.t -> params:params -> unit
  (** Raises [Invalid_argument] on ill-formed params (wrong input arity). *)

  val horizon : cfg:Config.t -> params:params -> int

  val machine :
    cfg:Config.t ->
    pki:Pki.t ->
    secret:Pki.Secret.t ->
    params:params ->
    pid:Pid.t ->
    (state, msg) Process.t
  (** One process's state machine, built after trusted setup. *)

  val decision : state -> decision option
  val decided_at : state -> int option

  val decided_str : state -> string option
  (** The engine/monitor projection: the printed decision, if any. Two
      states agree iff their projections are equal strings. *)

  val monitors : cfg:Config.t -> params:params -> msg Monitor.t list
  (** The standard online suite for these params. Instances whose params
      select a deliberately unsafe ablation return the reduced suite that
      ablation is specified against. *)

  val counters : state list -> counters
  (** Tallies over the final states of never-corrupted processes. *)

  val spray :
    (cfg:Config.t ->
    params:params ->
    pki:Pki.t ->
    rng:Rng.t ->
    (pid:Pid.t ->
    slot:int ->
    inbox:msg Mail.t ->
    active:(Pid.t * Pki.Secret.t) list ->
    msg Process.send list))
    option
  (** Attack-legal share spray: a stateful forger that harvests shares and
      certificates from its inbox and crafts protocol-shaped forgeries —
      equivocating proposals, certificates completed by topping harvested
      shares up with corrupted ones — within the crypto limits. [active]
      is the corrupted processes (and their secrets) {e as of this slot},
      so a forger can never sign for a process not yet corrupted. [None]
      if the instance has no bespoke forger; the fuzzer then degrades the
      spray behavior to a rushing echo. *)
end

type ('p, 's, 'm, 'd) t =
  (module S
     with type params = 'p
      and type state = 's
      and type msg = 'm
      and type decision = 'd)
(** A protocol instance packed with its type identities, as taken by
    {!Instances.run}. *)
