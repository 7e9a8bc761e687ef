open Mewc_prelude
open Mewc_crypto
open Mewc_sim

module Make (F : Fallback_intf.FALLBACK with type value = bool) = struct
  let propose_purpose = "sba-propose"
  let decide_purpose = "sba-decide"
  let enc = Value.Bool.encode

  type msg =
    | Input of { value : bool; share : Pki.Sig.t }
    | Propose of { value : bool; qc : Certificate.t }
    | Decide_share of { value : bool; share : Pki.Sig.t }
    | Decide of { value : bool; qc : Certificate.t }
    | Fallback of { decision : (bool * Certificate.t) option }
    | Fb of F.msg

  let words = function
    | Input _ | Propose _ | Decide_share _ | Decide _ -> 2
    | Fallback { decision } -> 1 + (match decision with Some _ -> 2 | None -> 0)
    | Fb m -> F.words m

  let pp_msg fmt = function
    | Input { value; _ } -> Format.fprintf fmt "input(%b)" value
    | Propose { value; _ } -> Format.fprintf fmt "propose(%b)" value
    | Decide_share { value; _ } -> Format.fprintf fmt "decide-share(%b)" value
    | Decide { value; _ } -> Format.fprintf fmt "decide(%b)" value
    | Fallback _ -> Format.pp_print_string fmt "fallback"
    | Fb m -> Format.fprintf fmt "fb:%a" F.pp_msg m

  (* ---- the mewc-wire/1 codec, over the fallback's ------------------------- *)

  let codec (fb : F.msg Codec.t) : msg Codec.t =
    let open Codec in
    let vs = pair bool_c sig_c and vc = pair bool_c cert_c in
    union ~what:"strong-ba"
      [
        case 0 vs
          (function Input { value; share } -> Some (value, share) | _ -> None)
          (fun (value, share) -> Input { value; share });
        case 1 vc
          (function Propose { value; qc } -> Some (value, qc) | _ -> None)
          (fun (value, qc) -> Propose { value; qc });
        case 2 vs
          (function Decide_share { value; share } -> Some (value, share) | _ -> None)
          (fun (value, share) -> Decide_share { value; share });
        case 3 vc
          (function Decide { value; qc } -> Some (value, qc) | _ -> None)
          (fun (value, qc) -> Decide { value; qc });
        case 4 (option_c vc)
          (function Fallback { decision } -> Some decision | _ -> None)
          (fun decision -> Fallback { decision });
        case 5 fb (function Fb m -> Some m | _ -> None) (fun m -> Fb m);
      ]

  (* Half the draws nest a fallback message (see {!Weak_ba.Make.gen}). *)
  let gen fb g =
    let value () = Rng.bool g in
    if Rng.bool g then Fb (fb g)
    else
      match Rng.int g 5 with
      | 0 -> Input { value = value (); share = Codec.gen_sig g }
      | 1 -> Propose { value = value (); qc = Codec.gen_cert g }
      | 2 -> Decide_share { value = value (); share = Codec.gen_sig g }
      | 3 -> Decide { value = value (); qc = Codec.gen_cert g }
      | _ ->
        let decision =
          if Rng.bool g then None else Some (value (), Codec.gen_cert g)
        in
        Fallback { decision }

  type state = {
    cfg : Config.t;
    pki : Pki.t;
    secret : Pki.Secret.t;
    pid : Pid.t;
    leader : Pid.t;
    input : bool;
    start_slot : int;
    input_shares : Certificate.Tally.t array;
        (* leader: [|for false; for true|]; [||] elsewhere *)
    decide_shares : Certificate.Tally.t array;  (* likewise *)
    mutable proposal : (bool * Certificate.t) option;
    mutable decide_recv : (bool * Certificate.t) option;
    mutable decision : bool option;
    mutable proof : Certificate.t option;
    mutable decided_fast : bool;
    mutable bu_decision : bool;
    mutable bu_proof : (bool * Certificate.t) option;
    mutable fb_sched : int option;
    mutable fb_rebroadcast : bool;
    mutable fb_state : F.state option;
    mutable pending_fb : (Pid.t * F.msg) list;
        (* newest first: mail that arrived before the fallback started *)
    mutable decided_at : int option;
  }

  let idx b = if b then 1 else 0

  (* Relative schedule: rounds 1–5 of Algorithm 5 are slots 0–4; the
     fallback notice window spans slots 5–7 and A_fallback starts within
     [6, 9]. See Weak_ba's .mli for why a bounded window is sound. *)
  let fb_window_end = 7
  let horizon cfg = 9 + F.horizon cfg ~round_len:2 + 1

  let init ~cfg ~pki ~secret ~pid ~leader ~input ~start_slot =
    Composition.note ~user:"strong BA (failure-free linear)"
      ~uses:"threshold signatures";
    (* Only the leader collects shares: at n processes, a tally on every
       process would hold n² bits of signer sets. *)
    let leader_tallies f = if Pid.equal pid leader then Array.init 2 f else [||] in
    {
      cfg;
      pki;
      secret;
      pid;
      leader;
      input;
      start_slot;
      input_shares =
        leader_tallies (fun i ->
            Certificate.Tally.create pki ~k:(Config.small_quorum cfg)
              ~purpose:propose_purpose ~payload:(enc (i = 1)));
      decide_shares =
        leader_tallies (fun i ->
            Certificate.Tally.create pki ~k:cfg.Config.n ~purpose:decide_purpose
              ~payload:(enc (i = 1)));
      proposal = None;
      decide_recv = None;
      decision = None;
      proof = None;
      decided_fast = false;
      bu_decision = input;
      bu_proof = None;
      fb_sched = None;
      fb_rebroadcast = false;
      fb_state = None;
      pending_fb = [];
      decided_at = None;
    }

  let decision st = st.decision
  let decided_at st = st.decided_at
  let decided_fast st = st.decided_fast
  let fallback_entered st = st.fb_state <> None

  let verify_qc st ~purpose ~k ~value qc =
    Certificate.verify_as st.pki qc ~k ~purpose
    && String.equal (Certificate.payload qc) (enc value)

  let ingest st ~rel src msg =
    let cfg = st.cfg in
    let am_leader = Pid.equal st.pid st.leader in
    match msg with
    | Input { value; share } ->
      if rel = 1 && am_leader then
        ignore
          (Certificate.Tally.add st.input_shares.(idx value) share
            : Pki.Tally.verdict)
    | Propose { value; qc } ->
      if
        rel = 2
        && Pid.equal src st.leader
        && verify_qc st ~purpose:propose_purpose ~k:(Config.small_quorum cfg)
             ~value qc
        && st.proposal = None
      then st.proposal <- Some (value, qc)
    | Decide_share { value; share } ->
      if rel = 3 && am_leader then
        ignore
          (Certificate.Tally.add st.decide_shares.(idx value) share
            : Pki.Tally.verdict)
    | Decide { value; qc } ->
      if
        rel = 4
        && Pid.equal src st.leader
        && verify_qc st ~purpose:decide_purpose ~k:cfg.Config.n ~value qc
        && st.decide_recv = None
      then st.decide_recv <- Some (value, qc)
    | Fallback { decision } ->
      if rel >= 5 && rel <= fb_window_end then begin
        (match decision with
        | Some (v, qc)
          when st.decision = None
               && verify_qc st ~purpose:decide_purpose ~k:cfg.Config.n ~value:v qc ->
          (* Line 22–24: adopt a certified decision during the window. *)
          st.bu_decision <- v;
          st.bu_proof <- Some (v, qc)
        | _ -> ());
        if st.fb_sched = None then begin
          st.fb_sched <- Some (st.start_slot + rel + 2);
          st.fb_rebroadcast <- true
        end
      end
    | Fb inner -> (
      match st.fb_state with
      | Some fb ->
        F.receive fb ~slot:(st.start_slot + rel) ~src inner
      | None -> st.pending_fb <- (src, inner) :: st.pending_fb)

  let step_fallback st ~slot =
    match st.fb_state with
    | None -> []
    | Some fb ->
      let fb', sends = F.step ~slot ~inbox:Mail.empty fb in
      (* [F.step] returns its mutable state: keep the box it sits in. *)
      if fb' != fb then st.fb_state <- Some fb';
      (match F.decision fb' with
      | Some fv when st.decision = None -> st.decision <- Some fv
      | _ -> ());
      Process.map (fun m -> Fb m) sends

  let emit st ~slot ~rel =
    let cfg = st.cfg in
    match rel with
    | 0 ->
      let share =
        Certificate.share st.pki st.secret ~purpose:propose_purpose
          ~payload:(enc st.input)
      in
      [ Process.Unicast (Input { value = st.input; share }, st.leader) ]
    | 1 ->
      if Pid.equal st.pid st.leader then begin
        let pick value =
          Certificate.Tally.certificate st.input_shares.(idx value)
          |> Option.map (fun qc -> (value, qc))
        in
        match (pick false, pick true) with
        | Some (v, qc), _ | None, Some (v, qc) ->
          Process.broadcast (Propose { value = v; qc })
        | None, None -> []
      end
      else []
    | 2 -> (
      match st.proposal with
      | Some (v, _) ->
        let share =
          Certificate.share st.pki st.secret ~purpose:decide_purpose
            ~payload:(enc v)
        in
        [ Process.Unicast (Decide_share { value = v; share }, st.leader) ]
      | None -> [])
    | 3 ->
      if Pid.equal st.pid st.leader then begin
        let pick value =
          Certificate.Tally.certificate st.decide_shares.(idx value)
          |> Option.map (fun qc -> (value, qc))
        in
        match (pick false, pick true) with
        | Some (v, qc), _ | None, Some (v, qc) ->
          Process.broadcast (Decide { value = v; qc })
        | None, None -> []
      end
      else []
    | 4 -> (
      (* Round 5, lines 13–18. *)
      match st.decide_recv with
      | Some (v, qc) ->
        st.decision <- Some v;
        st.proof <- Some qc;
        st.decided_fast <- true;
        st.bu_decision <- v;
        st.bu_proof <- Some (v, qc);
        []
      | None ->
        st.fb_sched <- Some (st.start_slot + rel + 2);
        Process.broadcast (Fallback { decision = None }))
    | _ ->
      let out = ref [] in
      if st.fb_rebroadcast then begin
        st.fb_rebroadcast <- false;
        out :=
          Process.broadcast (Fallback { decision = st.bu_proof }) @ !out
      end;
      (match st.fb_sched with
      | Some start when slot = start && st.fb_state = None ->
        Composition.note ~user:"strong BA (failure-free linear)"
          ~uses:"A-fallback (echo-phase-king)";
        let fb =
          F.init ~cfg ~pki:st.pki ~secret:st.secret ~pid:st.pid
            ~input:st.bu_decision ~start_slot:start ~round_len:2
        in
        List.iter
          (fun (src, m) -> F.receive fb ~slot ~src m)
          (List.rev st.pending_fb);
        st.pending_fb <- [];
        st.fb_state <- Some fb
      | _ -> ());
      match (step_fallback st ~slot, !out) with
      | fb, [] -> fb
      | fb, out -> fb @ out

  (* Inbox-free actions: everyone's Input send at slot 0 and the adopt-or-
     schedule-fallback branch at slot 4; afterwards the scheduled fallback
     start and the live fallback's round boundaries. Slots 1–3 emit only
     from state populated by same-slot ingestion, and [fb_rebroadcast] is
     set and consumed within one step, so deliveries cover them. *)
  let wake ~after st =
    let rel = after - st.start_slot in
    let round =
      if rel <= 0 then st.start_slot
      else if rel <= 4 then st.start_slot + 4
      else Process.never
    in
    let sched =
      match st.fb_sched with
      | Some s when s >= after -> s
      | Some _ | None -> Process.never
    in
    let fb =
      match st.fb_state with Some fb -> F.wake ~after fb | None -> Process.never
    in
    Int.min round (Int.min sched fb)

  let step ~slot ~inbox st =
    let rel = slot - st.start_slot in
    if rel < 0 then (st, [])
    else begin
      Mail.iter (fun src msg -> ingest st ~rel src msg) inbox;
      let sends = emit st ~slot ~rel in
      if st.decision <> None && st.decided_at = None then
        st.decided_at <- Some slot;
      (st, sends)
    end
end
