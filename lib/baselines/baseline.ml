(** The interface both Table-1 baselines share: a designated sender
    broadcasts a string, and every correct process decides it or ⊥.
    [Mewc_core.Instances] packages any such module as a protocol instance. *)

module type S = sig
  type value = string
  type msg
  type state
  type decision = Decided of value | No_decision

  val name : string
  (** The protocol's CLI spelling. *)

  val equal_decision : decision -> decision -> bool
  val pp_decision : Format.formatter -> decision -> unit
  val words : msg -> int
  val pp_msg : Format.formatter -> msg -> unit
  val sender_purpose : string

  val init :
    cfg:Mewc_sim.Config.t ->
    pki:Mewc_crypto.Pki.t ->
    secret:Mewc_crypto.Pki.Secret.t ->
    pid:Mewc_prelude.Pid.t ->
    sender:Mewc_prelude.Pid.t ->
    input:value option ->
    start_slot:int ->
    state

  val step :
    slot:int ->
    inbox:msg Mewc_sim.Mail.t ->
    state ->
    state * msg Mewc_sim.Process.send list

  val decision : state -> decision option
  val decided_at : state -> int option
  val horizon : Mewc_sim.Config.t -> int
end
