(** The [A_fallback] black box (paper §6).

    The weak BA (and §7's strong BA) embed a quadratic synchronous strong BA
    as a sub-protocol. This is its required interface: a slot-driven state
    machine with per-process start slots and a configurable round duration
    [round_len] = δ'/δ, providing agreement, termination within a static
    horizon, and strong unanimity as long as correct processes start within
    one slot of each other and [round_len >= 2].

    [Mewc_fallback.Echo_phase_king.Make] implements this signature (see
    DESIGN.md for the substitution note vs the paper's Momose–Ren
    instantiation); any other strong BA can be plugged in. *)

module type FALLBACK = sig
  type value
  type msg
  type state

  val words : msg -> int

  val init :
    cfg:Mewc_sim.Config.t ->
    pki:Mewc_crypto.Pki.t ->
    secret:Mewc_crypto.Pki.Secret.t ->
    pid:Mewc_prelude.Pid.t ->
    input:value ->
    start_slot:int ->
    round_len:int ->
    state

  val receive : state -> slot:int -> src:Mewc_prelude.Pid.t -> msg -> unit
  (** Take one message delivered at [slot] into the state (in place).
      Host protocols call it from their own ingestion, in delivery order,
      and then [step ~slot ~inbox:Mail.empty]; [step]'s own [inbox] is
      received the same way first. *)

  val step :
    slot:int ->
    inbox:msg Mewc_sim.Mail.t ->
    state ->
    state * msg Mewc_sim.Process.send list

  val decision : state -> value option

  val wake : after:int -> state -> int
  (** The {!Mewc_sim.Process.t} next-wake query, lifted to the fallback:
      [wake ~after st] is the earliest slot [>= after] at which an
      inbox-free step may act (or {!Mewc_sim.Process.never}). At every slot
      in between, [step ~slot ~inbox:Mail.empty st] sends nothing and changes
      nothing a later step or [receive] can observe: a skipped round
      boundary may only leave bookkeeping behind (such as the ingested-round
      mark over rounds with no mail) that the next [receive] or [step]
      brings up to date before it reads it. Host protocols fold this into
      their own query while a fallback instance is live, so the
      event-driven scheduler files only the round boundaries that act and
      skips the rest. *)

  val horizon : Mewc_sim.Config.t -> round_len:int -> int
  (** Slots from the earliest correct start until every correct process has
      decided (accounting for one slot of start skew). *)

  val pp_msg : Format.formatter -> msg -> unit
end
