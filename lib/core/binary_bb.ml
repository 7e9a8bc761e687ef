open Mewc_prelude
open Mewc_crypto
open Mewc_sim

module Make (F : Fallback_intf.FALLBACK with type value = bool) = struct
  module Ba = Ff_strong_ba.Make (F)

  let sender_purpose = "bbb-val"

  type msg = Send of { value : bool; sg : Pki.Sig.t } | Ba of Ba.msg

  let words = function Send _ -> 2 | Ba m -> Ba.words m

  let pp_msg fmt = function
    | Send { value; _ } -> Format.fprintf fmt "send(%b)" value
    | Ba m -> Format.fprintf fmt "ba:%a" Ba.pp_msg m

  let codec fb : msg Codec.t =
    let open Codec in
    union ~what:"binary-bb"
      [
        case 0 (pair bool_c sig_c)
          (function Send { value; sg } -> Some (value, sg) | _ -> None)
          (fun (value, sg) -> Send { value; sg });
        case 1 (Ba.codec fb) (function Ba m -> Some m | _ -> None) (fun m -> Ba m);
      ]

  let gen fb g =
    if Rng.int g 4 = 0 then Send { value = Rng.bool g; sg = Codec.gen_sig g }
    else Ba (Ba.gen fb g)

  type state = {
    cfg : Config.t;
    pki : Pki.t;
    secret : Pki.Secret.t;
    pid : Pid.t;
    sender : Pid.t;
    input : bool option;
    start_slot : int;
    mutable received : bool option;
    mutable ba : Ba.state option;
    mutable pending : Ba.msg Envelope.t list;
  }

  let ba_start = 2
  let horizon cfg = ba_start + Ba.horizon cfg

  let init ~cfg ~pki ~secret ~pid ~sender ~input ~start_slot =
    Composition.note ~user:"binary Byzantine Broadcast (§5 reduction)"
      ~uses:"strong BA (failure-free linear)";
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

  let decision st = Option.bind st.ba Ba.decision
  let decided_at st = Option.bind st.ba Ba.decided_at
  let decided_fast st = match st.ba with Some ba -> Ba.decided_fast ba | None -> false

  (* Inbox-free actions: the sender's dissemination at slot 0, the
     unconditional embedded-BA init at [ba_start], then whatever the
     embedded BA's own timer wants. A process whose [ba] never initialized
     (it was down at [ba_start]) stays inert forever — under both
     schedulers. *)
  let wake ~after st =
    let rel = after - st.start_slot in
    if rel <= 0 && Pid.equal st.pid st.sender then st.start_slot
    else if rel <= ba_start then st.start_slot + ba_start
    else match st.ba with Some ba -> Ba.wake ~after ba | None -> Process.never

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
                        ~payload:(Value.Bool.encode value))
              && st.received = None
            then st.received <- Some value
          | Ba inner -> st.pending <- { env with Envelope.msg = inner } :: st.pending)
        (Mail.to_list inbox);
      let sends =
        if rel = 0 then begin
          match (Pid.equal st.pid st.sender, st.input) with
          | true, Some v ->
            st.received <- Some v;
            let sg =
              Pki.sign st.pki st.secret
                (Certificate.signed_message ~purpose:sender_purpose
                   ~payload:(Value.Bool.encode v))
            in
            Process.broadcast (Send { value = v; sg })
          | true, None -> invalid_arg "Binary_bb: sender needs an input"
          | false, _ -> []
        end
        else if rel >= ba_start then begin
          if rel = ba_start && st.ba = None then
            st.ba <-
              Some
                (Ba.init ~cfg:st.cfg ~pki:st.pki ~secret:st.secret ~pid:st.pid
                   ~leader:st.sender
                   ~input:(Option.value ~default:false st.received)
                   ~start_slot:(st.start_slot + ba_start));
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
end
