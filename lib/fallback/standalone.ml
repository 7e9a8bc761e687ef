open Mewc_crypto
open Mewc_sim

module Make (V : Value.S) = struct
  module P = Echo_phase_king.Make (V)

  type outcome = {
    decisions : V.t option array;
    corrupted : Mewc_prelude.Pid.t list;
    f : int;
    words : int;
    messages : int;
    signatures : int;
    slots : int;
  }

  let decision_of_state = P.decision

  let run ~cfg ?(seed = 1L) ?(round_len = 1) ?(record_trace = false) ~inputs
      ~adversary () =
    let n = cfg.Config.n in
    if Array.length inputs <> n then
      invalid_arg "Standalone.run: need one input per process";
    let pki, secrets = Pki.setup ~seed ~n () in
    let protocol pid =
      {
        Process.init =
          P.init ~cfg ~pki ~secret:secrets.(pid) ~pid ~input:inputs.(pid)
            ~start_slot:0 ~round_len;
        step = (fun ~slot ~inbox st -> P.step ~slot ~inbox st);
        wake = Some P.wake;
      }
    in
    let adversary = adversary ~pki ~secrets in
    let horizon = P.horizon cfg ~round_len in
    let res =
      Engine.run ~cfg
        ~options:{ Engine.default_options with record_trace }
        ~words:P.words ~horizon ~protocol ~adversary ()
    in
    {
      decisions = Array.map P.decision res.Engine.states;
      corrupted = res.Engine.corrupted;
      f = res.Engine.f;
      words = Meter.correct_words res.Engine.meter;
      messages = Meter.correct_messages res.Engine.meter;
      signatures = Pki.signatures_created pki;
      slots = res.Engine.slots;
    }
end
