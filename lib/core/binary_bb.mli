(** Binary Byzantine Broadcast via the paper's §5 reduction, instantiated
    with the §7 strong BA.

    "There is a simple reduction from BB to BA with the strong unanimity
    validity property: the designated sender starts by sending its value to
    all processes, and then they all execute the BA solution and decide on
    its output" (§5). For {e binary} values the strong-unanimity BA can be
    Algorithm 5, giving a binary BB with O(n) words in failure-free runs —
    a corollary the paper leaves implicit, reproduced here both as a usable
    protocol and as the Figure-1 edge "BB → strong BA".

    If the sender is correct, all correct processes enter the BA with the
    sender's bit and strong unanimity forces it. If the sender is silent or
    equivocates, receivers enter with their local default (the bit they
    received, or [false]); agreement still holds by the BA. *)

module Make (F : Fallback_intf.FALLBACK with type value = bool) : sig
  module Ba : module type of Ff_strong_ba.Make (F)

  type msg =
    | Send of { value : bool; sg : Mewc_crypto.Pki.Sig.t }
    | Ba of Ba.msg

  type state

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
    sender:Mewc_prelude.Pid.t ->
    input:bool option ->
    start_slot:int ->
    state

  val step :
    slot:int ->
    inbox:msg Mewc_sim.Mail.t ->
    state ->
    state * msg Mewc_sim.Process.send list

  val wake : after:int -> state -> int
  (** The {!Mewc_sim.Process.t} next-wake query (sender dissemination,
      embedded BA init, then the embedded BA's own query). *)

  val decision : state -> bool option
  val decided_at : state -> int option
  val decided_fast : state -> bool
  val horizon : Mewc_sim.Config.t -> int
end
