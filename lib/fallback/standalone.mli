(** Run {!Echo_phase_king} as a standalone strong BA instance.

    Used directly by the Table-1 "Strong BA, multi-valued" experiments and
    by tests; the weak BA embeds the protocol through its own message type
    instead. *)

module Make (V : Mewc_sim.Value.S) : sig
  module P : sig
    type msg
    type state
  end

  type outcome = {
    decisions : V.t option array;
        (** per process; [None] for processes corrupted before deciding *)
    corrupted : Mewc_prelude.Pid.t list;
    f : int;
    words : int;  (** words sent by correct processes *)
    messages : int;
    signatures : int;  (** signatures created during the run *)
    slots : int;
  }

  val run :
    cfg:Mewc_sim.Config.t ->
    ?seed:int64 ->
    ?round_len:int ->
    ?record_trace:bool ->
    inputs:V.t array ->
    adversary:(P.state, P.msg) Mewc_sim.Adversary.factory ->
    unit ->
    outcome

  val decision_of_state : P.state -> V.t option
end
