open Mewc_prelude
open Mewc_crypto
open Mewc_sim

type value = string

let name = "naive-bb"

module Opt_value = struct
  type t = value option

  let encode = function None -> "n" | Some v -> "s|" ^ v
  let equal a b = String.equal (encode a) (encode b)
  let compare a b = String.compare (encode a) (encode b)
  let words _ = 1

  let pp fmt = function
    | None -> Format.pp_print_string fmt "⊥"
    | Some v -> Format.fprintf fmt "%S" v

  let codec = Codec.option_c Value.Str.codec
  let gen g = if Rng.bool g then None else Some (Value.Str.gen g)
end

module Ba = Mewc_fallback.Echo_phase_king.Make (Opt_value)

let sender_purpose = "naive-val"

type msg = Send of { value : value; sg : Pki.Sig.t } | Ba of Ba.msg
type decision = Decided of value | No_decision

let equal_decision a b =
  match (a, b) with
  | Decided x, Decided y -> String.equal x y
  | No_decision, No_decision -> true
  | Decided _, No_decision | No_decision, Decided _ -> false

let pp_decision fmt = function
  | Decided v -> Format.fprintf fmt "decide(%s)" v
  | No_decision -> Format.pp_print_string fmt "decide(⊥)"

let words = function Send _ -> 2 | Ba m -> Ba.words m

let pp_msg fmt = function
  | Send { value; _ } -> Format.fprintf fmt "send(%s)" value
  | Ba m -> Format.fprintf fmt "ba:%a" Ba.pp_msg m

type state = {
  cfg : Config.t;
  pki : Pki.t;
  secret : Pki.Secret.t;
  pid : Pid.t;
  sender : Pid.t;
  input : value option;
  start_slot : int;
  mutable received : value option;
  mutable ba : Ba.state option;
  mutable pending : Ba.msg Envelope.t list;
}

let ba_start = 2
let horizon cfg = ba_start + Ba.horizon cfg ~round_len:1

let init ~cfg ~pki ~secret ~pid ~sender ~input ~start_slot =
  {
    cfg;
    pki;
    secret;
    pid;
    sender;
    input;
    start_slot;
    received = None;
    ba = None;
    pending = [];
  }

let decision st =
  match st.ba with
  | None -> None
  | Some ba -> (
    match Ba.decision ba with
    | None -> None
    | Some (Some v) -> Some (Decided v)
    | Some None -> Some No_decision)

let decided_at st = Option.bind st.ba Ba.decided_at

let step ~slot ~inbox st =
  let rel = slot - st.start_slot in
  if rel < 0 then (st, [])
  else begin
    List.iter
      (fun env ->
        match env.Envelope.msg with
        | Send { value; sg } ->
          if
            rel = 1
            && Pid.equal env.Envelope.src st.sender
            && Pki.verify st.pki sg
                 ~msg:
                   (Certificate.signed_message ~purpose:sender_purpose
                      ~payload:value)
            && st.received = None
          then st.received <- Some value
        | Ba inner ->
          st.pending <- { env with Envelope.msg = inner } :: st.pending)
      (Mail.to_list inbox);
    let sends =
      if rel = 0 then begin
        match (Pid.equal st.pid st.sender, st.input) with
        | true, Some v ->
          st.received <- Some v;
          let sg =
            Pki.sign st.pki st.secret
              (Certificate.signed_message ~purpose:sender_purpose ~payload:v)
          in
          Process.broadcast (Send { value = v; sg })
        | true, None -> invalid_arg "Naive_bb: sender needs an input"
        | false, _ -> []
      end
      else if rel >= ba_start then begin
        if rel = ba_start && st.ba = None then
          st.ba <-
            Some
              (Ba.init ~cfg:st.cfg ~pki:st.pki ~secret:st.secret ~pid:st.pid
                 ~input:st.received ~start_slot:(st.start_slot + ba_start)
                 ~round_len:1);
        match st.ba with
        | None -> []
        | Some ba ->
          let inbox = Mail.of_list (List.rev st.pending) in
          st.pending <- [];
          let ba', sends = Ba.step ~slot ~inbox ba in
          st.ba <- Some ba';
          Process.map (fun m -> Ba m) sends
      end
      else []
    in
    (st, sends)
  end
