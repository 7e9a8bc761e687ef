(** Strong BA from n parallel Dolev–Strong broadcasts — an alternative
    [A_fallback] implementation.

    The paper treats its fallback as a black box ("we can use a fallback
    algorithm with O(nt) communication complexity", §6); this module makes
    that claim executable by providing a {e second}, completely different
    protocol satisfying {!Mewc_core.Fallback_intf.FALLBACK}: every process
    Dolev–Strong-broadcasts its input (t+2 rounds, signature chains); by BB
    agreement all correct processes end with identical outcome vectors, and
    with [n = 2t + 1] the most frequent delivered value is the decision —
    strong unanimity because a unanimous value is delivered by all
    [n − f ≥ t + 1] correct instances while Byzantine instances number at
    most [t < t + 1].

    Cost: Θ(n³)-class words (n instances of quadratic-message chains that
    threshold signatures cannot batch) — far above {!Echo_phase_king}, which
    is the point of the ABL-FALLBACK comparison: the weak BA works with
    either black box, and the word meter shows why the paper wants a
    quadratic one.

    Like {!Echo_phase_king}, messages are round-tagged and buffered, so the
    protocol tolerates one slot of start skew when run with
    [round_len >= 2]. *)

module Make (V : Mewc_sim.Value.S) : sig
  type msg
  type state

  val words : msg -> int
  val pp_msg : Format.formatter -> msg -> unit

  val init :
    cfg:Mewc_sim.Config.t ->
    pki:Mewc_crypto.Pki.t ->
    secret:Mewc_crypto.Pki.Secret.t ->
    pid:Mewc_prelude.Pid.t ->
    input:V.t ->
    start_slot:int ->
    round_len:int ->
    state

  val receive : state -> slot:int -> src:Mewc_prelude.Pid.t -> msg -> unit
  (** Buffer one delivered chain by its round tag (the
      {!Mewc_core.Fallback_intf.FALLBACK} receive path). *)

  val step :
    slot:int ->
    inbox:msg Mewc_sim.Mail.t ->
    state ->
    state * msg Mewc_sim.Process.send list

  val decision : state -> V.t option
  val decided_at : state -> int option
  val horizon : Mewc_sim.Config.t -> round_len:int -> int

  val wake : after:int -> state -> int
  (** The {!Mewc_core.Fallback_intf.FALLBACK} next-wake query: the first
      round boundary at or after [after] while rounds remain, else
      {!Mewc_sim.Process.never}. *)
end
