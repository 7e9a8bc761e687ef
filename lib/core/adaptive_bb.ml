open Mewc_prelude
open Mewc_crypto
open Mewc_sim

type value = string

type bb_value =
  | Sender_signed of { value : value; sg : Pki.Sig.t }
  | Idk_cert of Certificate.t

let sender_purpose = "bb-val"
let idk_purpose = "bb-idk"
let helpreq_purpose = "bb-helpreq"

module Bb_value = struct
  type t = bb_value

  (* Two sender-signed wrappers of the same value are the same agreement
     value, as are two idk certificates from the same phase: equality (and
     the encoding that signatures bind) ignores which particular shares
     authenticate the claim. *)
  let encode = function
    | Sender_signed { value; _ } -> "snd|" ^ value
    | Idk_cert qc -> "idk|" ^ Certificate.payload qc

  let equal a b = String.equal (encode a) (encode b)
  let compare a b = String.compare (encode a) (encode b)
  let words = function Sender_signed _ -> 2 | Idk_cert _ -> 1

  let pp fmt = function
    | Sender_signed { value; _ } -> Format.fprintf fmt "<%s>sender" value
    | Idk_cert qc -> Format.fprintf fmt "QCidk(j=%s)" (Certificate.payload qc)

  let codec : t Codec.t =
    let open Codec in
    union ~what:"bb-value"
      [
        case 0 (pair Value.Str.codec sig_c)
          (function Sender_signed { value; sg } -> Some (value, sg) | _ -> None)
          (fun (value, sg) -> Sender_signed { value; sg });
        case 1 cert_c (function Idk_cert c -> Some c | _ -> None) (fun c -> Idk_cert c);
      ]

  let gen g =
    if Rng.bool g then
      Sender_signed { value = Value.Str.gen g; sg = Codec.gen_sig g }
    else Idk_cert (Codec.gen_cert g)
end

module Fallback_bb = struct
  include Mewc_fallback.Echo_phase_king.Make (Bb_value)

  type nonrec value = bb_value
end

module W = Weak_ba.Make (Bb_value) (Fallback_bb)

type msg =
  | Send of { value : value; sg : Pki.Sig.t }
  | Vet_help_req of { phase : int; sg : Pki.Sig.t }
  | Vet_value of { phase : int; value : bb_value }
  | Vet_idk of { phase : int; share : Pki.Sig.t }
  | Vet_bcast of { phase : int; value : bb_value }
  | Wba of W.msg

type decision = Decided of value | No_decision

let equal_decision a b =
  match (a, b) with
  | Decided x, Decided y -> String.equal x y
  | No_decision, No_decision -> true
  | Decided _, No_decision | No_decision, Decided _ -> false

let pp_decision fmt = function
  | Decided v -> Format.fprintf fmt "decide(%s)" v
  | No_decision -> Format.pp_print_string fmt "decide(⊥)"

let words = function
  | Send _ -> 2
  | Vet_help_req _ -> 2
  | Vet_value { value; _ } -> 1 + Bb_value.words value
  | Vet_idk _ -> 2
  | Vet_bcast { value; _ } -> 1 + Bb_value.words value
  | Wba m -> W.words m

let pp_msg fmt = function
  | Send { value; _ } -> Format.fprintf fmt "send(%s)" value
  | Vet_help_req { phase; _ } -> Format.fprintf fmt "vet-help-req(j=%d)" phase
  | Vet_value { phase; value } ->
    Format.fprintf fmt "vet-value(j=%d, %a)" phase Bb_value.pp value
  | Vet_idk { phase; _ } -> Format.fprintf fmt "vet-idk(j=%d)" phase
  | Vet_bcast { phase; value } ->
    Format.fprintf fmt "vet-bcast(j=%d, %a)" phase Bb_value.pp value
  | Wba m -> Format.fprintf fmt "wba:%a" W.pp_msg m

(* ---- the mewc-wire/1 codec ------------------------------------------------ *)

let codec : msg Codec.t =
  let wba = W.codec Fallback_bb.codec in
  let open Codec in
  let phase_sig = pair vint_c sig_c and phase_value = pair vint_c Bb_value.codec in
  union ~what:"adaptive-bb"
    [
      case 0 (pair Value.Str.codec sig_c)
        (function Send { value; sg } -> Some (value, sg) | _ -> None)
        (fun (value, sg) -> Send { value; sg });
      case 1 phase_sig
        (function Vet_help_req { phase; sg } -> Some (phase, sg) | _ -> None)
        (fun (phase, sg) -> Vet_help_req { phase; sg });
      case 2 phase_value
        (function Vet_value { phase; value } -> Some (phase, value) | _ -> None)
        (fun (phase, value) -> Vet_value { phase; value });
      case 3 phase_sig
        (function Vet_idk { phase; share } -> Some (phase, share) | _ -> None)
        (fun (phase, share) -> Vet_idk { phase; share });
      case 4 phase_value
        (function Vet_bcast { phase; value } -> Some (phase, value) | _ -> None)
        (fun (phase, value) -> Vet_bcast { phase; value });
      case 5 wba (function Wba m -> Some m | _ -> None) (fun m -> Wba m);
    ]

(* Half the draws nest a weak-BA message (see {!Weak_ba.Make.gen}). *)
let gen g =
  let phase () = Rng.int g 8 in
  if Rng.bool g then Wba (W.gen Fallback_bb.gen g)
  else
    match Rng.int g 5 with
    | 0 -> Send { value = Value.Str.gen g; sg = Codec.gen_sig g }
    | 1 -> Vet_help_req { phase = phase (); sg = Codec.gen_sig g }
    | 2 -> Vet_value { phase = phase (); value = Bb_value.gen g }
    | 3 -> Vet_idk { phase = phase (); share = Codec.gen_sig g }
    | _ -> Vet_bcast { phase = phase (); value = Bb_value.gen g }

let bb_valid ~pki ~cfg ~sender v =
  match v with
  | Sender_signed { value; sg } ->
    Pid.equal (Pki.Sig.signer sg) sender
    && Pki.verify pki sg
         ~msg:
           (Certificate.signed_message ~purpose:sender_purpose ~payload:value)
  | Idk_cert qc ->
    Certificate.verify_as pki qc ~k:(Config.small_quorum cfg) ~purpose:idk_purpose

type vet_scratch = {
  mutable sender_signed_answer : bb_value option;  (* leader: best answer *)
  mutable idk_shares : Certificate.Tally.t option;  (* leader, from the first share *)
  mutable help_req_seen : bool;
  mutable bcast_recv : bb_value option;
}

let fresh_scratch () =
  {
    sender_signed_answer = None;
    idk_shares = None;
    help_req_seen = false;
    bcast_recv = None;
  }

type state = {
  cfg : Config.t;
  pki : Pki.t;
  secret : Pki.Secret.t;
  pid : Pid.t;
  sender : Pid.t;
  input : value option;
  start_slot : int;
  scratch : (int, vet_scratch) Hashtbl.t;
  mutable vi : bb_value option;
  mutable initiated : bool;
  mutable wba : W.state option;
  mutable pending_wba : W.msg Envelope.t list;  (* reversed *)
}

(* Slot layout: slot 0 = sender dissemination; vetting phase j in 1..n spans
   slots 1+3(j-1) .. 3+3(j-1) (help-req, answers, leader broadcast); the
   leader broadcast of phase j is processed at the first slot of phase j+1;
   the weak BA starts right after the last vetting phase. *)
let vet_base j = 1 + (3 * (j - 1))
let wba_start cfg = 1 + (3 * cfg.Config.n)
let horizon cfg = wba_start cfg + W.horizon cfg

let leader j cfg = Pid.rotating_leader ~n:cfg.Config.n ~phase:j

let init ~cfg ~pki ~secret ~pid ~sender ~input ~start_slot =
  Composition.note ~user:"Byzantine Broadcast" ~uses:"weak BA";
  Composition.note ~user:"Byzantine Broadcast" ~uses:"unique validity (BB_valid)";
  {
    cfg;
    pki;
    secret;
    pid;
    sender;
    input;
    start_slot;
    scratch = Hashtbl.create 16;
    vi = None;
    initiated = false;
    wba = None;
    pending_wba = [];
  }

let scratch_of st j =
  match Hashtbl.find_opt st.scratch j with
  | Some s -> s
  | None ->
    let s = fresh_scratch () in
    Hashtbl.add st.scratch j s;
    s

let decision st =
  match st.wba with
  | None -> None
  | Some w -> (
    match W.decision w with
    | None -> None
    | Some (W.Value (Sender_signed { value; _ })) -> Some (Decided value)
    | Some (W.Value (Idk_cert _)) | Some W.Bot -> Some No_decision)

let decided_at st =
  match st.wba with None -> None | Some w -> W.decided_at w

let vetting_phase_initiated st = st.initiated
let adopted_value st = st.vi

let fallback_entered st =
  match st.wba with None -> false | Some w -> W.fallback_entered w

let ingest st ~rel env =
  let cfg = st.cfg in
  let n = cfg.Config.n in
  let src = env.Envelope.src in
  match env.Envelope.msg with
  | Send { value; sg } ->
    (* Line 3–4: adopt the sender's signed value received in round 1. *)
    if
      rel = 1
      && Pid.equal src st.sender
      && bb_valid ~pki:st.pki ~cfg ~sender:st.sender (Sender_signed { value; sg })
      && st.vi = None
    then st.vi <- Some (Sender_signed { value; sg })
  | Vet_help_req { phase = j; sg } ->
    if j >= 1 && j <= n && rel = vet_base j + 1 then begin
      let msg =
        Certificate.signed_message ~purpose:helpreq_purpose
          ~payload:(string_of_int j)
      in
      if Pid.equal (Pki.Sig.signer sg) (leader j cfg) && Pki.verify st.pki sg ~msg
      then (scratch_of st j).help_req_seen <- true
    end
  | Vet_value { phase = j; value } ->
    if
      j >= 1 && j <= n
      && rel = vet_base j + 2
      && Pid.equal st.pid (leader j cfg)
    then begin
      match value with
      | Sender_signed _ when bb_valid ~pki:st.pki ~cfg ~sender:st.sender value ->
        let sc = scratch_of st j in
        if sc.sender_signed_answer = None then sc.sender_signed_answer <- Some value
      | Sender_signed _ | Idk_cert _ -> ()
    end
  | Vet_idk { phase = j; share } ->
    if
      j >= 1 && j <= n
      && rel = vet_base j + 2
      && Pid.equal st.pid (leader j cfg)
    then begin
      let sc = scratch_of st j in
      let tl =
        match sc.idk_shares with
        | Some tl -> tl
        | None ->
          let tl =
            Certificate.Tally.create st.pki ~k:(Config.small_quorum cfg)
              ~purpose:idk_purpose ~payload:(string_of_int j)
          in
          sc.idk_shares <- Some tl;
          tl
      in
      ignore (Certificate.Tally.add tl share : Pki.Tally.verdict)
    end
  | Vet_bcast { phase = j; value } ->
    (* Line 28: return the leader's value iff BB_valid holds. *)
    if
      j >= 1 && j <= n
      && rel = vet_base j + 3
      && Pid.equal src (leader j cfg)
      && bb_valid ~pki:st.pki ~cfg ~sender:st.sender value
    then (scratch_of st j).bcast_recv <- Some value
  | Wba inner ->
    if rel >= wba_start cfg then
      st.pending_wba <- { env with Envelope.msg = inner } :: st.pending_wba

let emit st ~slot ~rel =
  let cfg = st.cfg in
  let n = cfg.Config.n in
  if rel = 0 then begin
    if Pid.equal st.pid st.sender then begin
      match st.input with
      | Some v ->
        let sg =
          Certificate.share st.pki st.secret ~purpose:sender_purpose ~payload:v
        in
        (* The sender adopts its own signed value directly. *)
        st.vi <- Some (Sender_signed { value = v; sg });
        Process.broadcast (Send { value = v; sg })
      | None -> invalid_arg "Adaptive_bb: the sender needs an input"
    end
    else []
  end
  else if rel < wba_start cfg then begin
    let j = ((rel - 1) / 3) + 1 in
    let off = (rel - 1) mod 3 in
    let lead = leader j cfg in
    let am_leader = Pid.equal st.pid lead in
    (* Line 7–8: adopt the previous phase's vetted value first. *)
    (if off = 0 && j > 1 then
       match (scratch_of st (j - 1)).bcast_recv with
       | Some v -> st.vi <- Some v
       | None -> ());
    match off with
    | 0 ->
      if am_leader && st.vi = None then begin
        st.initiated <- true;
        let sg =
          Certificate.share st.pki st.secret ~purpose:helpreq_purpose
            ~payload:(string_of_int j)
        in
        Process.broadcast (Vet_help_req { phase = j; sg })
      end
      else []
    | 1 ->
      if (scratch_of st j).help_req_seen then begin
        match st.vi with
        | Some (Sender_signed _ as v) ->
          [ Process.Unicast (Vet_value { phase = j; value = v }, lead) ]
        | Some (Idk_cert _) | None ->
          (* A held idk certificate cannot help the leader form anything;
             contribute a fresh idk signature instead, which is what the
             paper's Lemma 9 needs from every process lacking a
             sender-signed value. *)
          let share =
            Certificate.share st.pki st.secret ~purpose:idk_purpose
              ~payload:(string_of_int j)
          in
          [ Process.Unicast (Vet_idk { phase = j; share }, lead) ]
      end
      else []
    | 2 ->
      if am_leader && st.initiated && rel = vet_base j + 2 then begin
        let sc = scratch_of st j in
        match sc.sender_signed_answer with
        | Some v -> Process.broadcast (Vet_bcast { phase = j; value = v })
        | None -> (
          match Option.bind sc.idk_shares Certificate.Tally.certificate with
          | Some qc ->
            Process.broadcast (Vet_bcast { phase = j; value = Idk_cert qc })
          | None -> [])
      end
      else []
    | _ -> assert false
  end
  else begin
    (* Weak BA section. *)
    if rel = wba_start cfg && st.wba = None then begin
      (* Catch the very last vetting broadcast (phase n). *)
      (match (scratch_of st n).bcast_recv with
      | Some v -> st.vi <- Some v
      | None -> ());
      let input =
        match st.vi with
        | Some v -> v
        | None ->
          (* Lemma 11 rules this out on the reliable network, but injected
             message loss can leave a correct process with nothing vetted.
             Degrade instead of crashing the run: propose a placeholder
             whose signature does not cover its claimed value, so
             [bb_valid] rejects it everywhere (this process included) and
             weak BA drifts toward ⊥ — a stall the harness can classify,
             not a bogus decision. *)
          let sg =
            Certificate.share st.pki st.secret ~purpose:sender_purpose
              ~payload:"?"
          in
          Sender_signed { value = "⊥"; sg }
      in
      st.wba <-
        Some
          (W.init ~cfg ~pki:st.pki ~secret:st.secret ~pid:st.pid ~input
             ~validate:(bb_valid ~pki:st.pki ~cfg ~sender:st.sender)
             ~start_slot:(st.start_slot + wba_start cfg) ())
    end;
    match st.wba with
    | None -> []
    | Some w ->
      let inbox = Mail.of_list (List.rev st.pending_wba) in
      st.pending_wba <- [];
      let w', sends = W.step ~slot ~inbox w in
      st.wba <- Some w';
      Process.map (fun m -> Wba m) sends
  end

(* Inbox-free actions: the sender's dissemination at slot 0, a phase
   leader's help request when it still lacks a vetted value (vetting offset
   0), the unconditional weak-BA init at [wba_start], then the embedded
   weak BA's own timer. Everything else in the vetting phases — including
   the off-0 adoption of the previous phase's broadcast — reads scratch
   state that is populated strictly by same-slot ingestion ([Vet_bcast] of
   phase j-1 lands exactly at phase j's offset-0 slot), so a delivery
   already wakes it. *)
let wake ~after st =
  let cfg = st.cfg in
  let rel = if after > st.start_slot then after - st.start_slot else 0 in
  let send =
    if rel = 0 && Pid.equal st.pid st.sender then st.start_slot
    else Process.never
  in
  let help_req =
    if Option.is_none st.vi then
      let j = Pid.next_led_phase ~n:cfg.Config.n st.pid ~from:(((rel + 1) / 3) + 1) in
      if j <= cfg.Config.n then st.start_slot + vet_base j else Process.never
    else Process.never
  in
  let wba =
    if rel <= wba_start cfg then st.start_slot + wba_start cfg
    else match st.wba with Some w -> W.wake ~after w | None -> Process.never
  in
  Int.min send (Int.min help_req wba)

let step ~slot ~inbox st =
  let rel = slot - st.start_slot in
  if rel < 0 then (st, [])
  else begin
    List.iter (fun env -> ingest st ~rel env) (Mail.to_list inbox);
    (st, emit st ~slot ~rel)
  end
