open Mewc_prelude
open Mewc_crypto
open Mewc_sim

type value = string
type msg = { value : value; chain : Pki.Sig.t list }
type decision = Decided of value | No_decision

let name = "dolev-strong"

let sender_purpose = "ds-val"

let equal_decision a b =
  match (a, b) with
  | Decided x, Decided y -> String.equal x y
  | No_decision, No_decision -> true
  | Decided _, No_decision | No_decision, Decided _ -> false

let pp_decision fmt = function
  | Decided v -> Format.fprintf fmt "decide(%s)" v
  | No_decision -> Format.pp_print_string fmt "decide(⊥)"

let words m = 1 + List.length m.chain

let pp_msg fmt { value; chain } =
  let signer sg = Printf.sprintf "p%d" (Pki.Sig.signer sg) in
  Format.fprintf fmt "relay(%s, chain=%s)" value
    (String.concat "," (List.map signer chain))

type state = {
  cfg : Config.t;
  pki : Pki.t;
  secret : Pki.Secret.t;
  pid : Pid.t;
  sender : Pid.t;
  input : value option;
  start_slot : int;
  mutable extracted : value list;  (* at most 2, newest first *)
  mutable to_relay : msg list;  (* extracted this slot, relay now *)
  mutable decision : decision option;
  mutable decided_at : int option;
}

let horizon cfg = cfg.Config.t + 3

let init ~cfg ~pki ~secret ~pid ~sender ~input ~start_slot =
  {
    cfg;
    pki;
    secret;
    pid;
    sender;
    input;
    start_slot;
    extracted = [];
    to_relay = [];
    decision = None;
    decided_at = None;
  }

let decision st = st.decision
let decided_at st = st.decided_at

(* A chain is valid in round [r] when it carries at least [r] distinct
   signers, the first being the designated sender, all signing the value. *)
let chain_valid st ~r { value; chain } =
  let payload = Certificate.signed_message ~purpose:sender_purpose ~payload:value in
  match chain with
  | first :: _ ->
    Pid.equal (Pki.Sig.signer first) st.sender
    && List.length (List.sort_uniq Pid.compare (List.map Pki.Sig.signer chain)) >= r
    && List.for_all (fun sg -> Pki.verify st.pki sg ~msg:payload) chain
  | [] -> false

let ingest st ~r _src m =
  if
    r >= 1
    && r <= st.cfg.Config.t + 1
    && List.length st.extracted < 2
    && (not (List.exists (String.equal m.value) st.extracted))
    && chain_valid st ~r m
  then begin
    st.extracted <- m.value :: st.extracted;
    let own =
      Pki.sign st.pki st.secret
        (Certificate.signed_message ~purpose:sender_purpose ~payload:m.value)
    in
    st.to_relay <- { m with chain = m.chain @ [ own ] } :: st.to_relay
  end

let step ~slot ~inbox st =
  let r = slot - st.start_slot in
  if r < 0 then (st, [])
  else begin
    Mail.iter (ingest st ~r) inbox;
    let n = st.cfg.Config.n in
    let sends =
      if r = 0 then begin
        match (Pid.equal st.pid st.sender, st.input) with
        | true, Some v ->
          let sg =
            Pki.sign st.pki st.secret
              (Certificate.signed_message ~purpose:sender_purpose ~payload:v)
          in
          st.extracted <- [ v ];
          Process.broadcast_others ~n ~self:st.pid { value = v; chain = [ sg ] }
        | true, None -> invalid_arg "Dolev_strong: sender needs an input"
        | false, _ -> []
      end
      else if r <= st.cfg.Config.t + 1 then begin
        let out =
          List.concat_map
            (fun m -> Process.broadcast_others ~n ~self:st.pid m)
            (List.rev st.to_relay)
        in
        st.to_relay <- [];
        out
      end
      else []
    in
    if r = st.cfg.Config.t + 2 && st.decision = None then begin
      st.decision <-
        Some (match st.extracted with [ v ] -> Decided v | _ -> No_decision);
      st.decided_at <- Some slot
    end;
    (st, sends)
  end
