open Mewc_prelude
open Mewc_crypto
open Mewc_sim

module Make (V : Value.S) (F : Fallback_intf.FALLBACK with type value = V.t) =
struct
  let propose_purpose = "wba-propose"
  let commit_purpose = "wba-commit"
  let finalize_purpose = "wba-fin"
  let helpreq_purpose = "wba-helpreq"
  let phased_payload phase v = Certificate.phased ~phase (V.encode v)

  type msg =
    | Propose of { phase : int; value : V.t; sg : Pki.Sig.t }
    | Vote of { phase : int; value : V.t; share : Pki.Sig.t }
    | Commit_answer of { phase : int; value : V.t; level : int; qc : Certificate.t }
    | Commit_bcast of { phase : int; value : V.t; level : int; qc : Certificate.t }
    | Decide_share of { phase : int; value : V.t; share : Pki.Sig.t }
    | Finalized of { phase : int; value : V.t; qc : Certificate.t }
    | Help_req of { sg : Pki.Sig.t }
    | Help of { phase : int; value : V.t; qc : Certificate.t }
    | Fallback_cert of {
        qc : Certificate.t;
        decision : (int * V.t * Certificate.t) option;
      }
    | Fb of F.msg

  type outcome = Value of V.t | Bot

  let equal_outcome a b =
    match (a, b) with
    | Value x, Value y -> V.equal x y
    | Bot, Bot -> true
    | Value _, Bot | Bot, Value _ -> false

  let pp_outcome fmt = function
    | Value v -> V.pp fmt v
    | Bot -> Format.pp_print_string fmt "⊥"

  let words = function
    | Propose _ -> 3
    | Vote _ -> 3
    | Commit_answer _ | Commit_bcast _ -> 4
    | Decide_share _ -> 3
    | Finalized _ -> 3
    | Help_req _ -> 1
    | Help _ -> 3
    | Fallback_cert { decision; _ } -> 1 + (match decision with Some _ -> 3 | None -> 0)
    | Fb m -> F.words m

  let pp_msg fmt = function
    | Propose { phase; value; _ } ->
      Format.fprintf fmt "propose(j=%d, %a)" phase V.pp value
    | Vote { phase; value; _ } -> Format.fprintf fmt "vote(j=%d, %a)" phase V.pp value
    | Commit_answer { phase; value; level; _ } ->
      Format.fprintf fmt "commit-answer(j=%d, %a, lvl=%d)" phase V.pp value level
    | Commit_bcast { phase; value; level; _ } ->
      Format.fprintf fmt "commit(j=%d, %a, lvl=%d)" phase V.pp value level
    | Decide_share { phase; value; _ } ->
      Format.fprintf fmt "decide(j=%d, %a)" phase V.pp value
    | Finalized { phase; value; _ } ->
      Format.fprintf fmt "finalized(j=%d, %a)" phase V.pp value
    | Help_req _ -> Format.pp_print_string fmt "help_req"
    | Help { value; _ } -> Format.fprintf fmt "help(%a)" V.pp value
    | Fallback_cert _ -> Format.pp_print_string fmt "fallback-cert"
    | Fb m -> Format.fprintf fmt "fb:%a" F.pp_msg m

  (* ---- the mewc-wire/1 codec, over the fallback's ------------------------- *)

  let codec (fb : F.msg Codec.t) : msg Codec.t =
    let open Codec in
    let pvs = triple vint_c V.codec sig_c and pvc = triple vint_c V.codec cert_c in
    let pvlc = triple vint_c V.codec (pair vint_c cert_c) in
    union ~what:"weak-ba"
      [
        case 0 pvs
          (function Propose { phase; value; sg } -> Some (phase, value, sg) | _ -> None)
          (fun (phase, value, sg) -> Propose { phase; value; sg });
        case 1 pvs
          (function
            | Vote { phase; value; share } -> Some (phase, value, share) | _ -> None)
          (fun (phase, value, share) -> Vote { phase; value; share });
        case 2 pvlc
          (function
            | Commit_answer { phase; value; level; qc } ->
              Some (phase, value, (level, qc))
            | _ -> None)
          (fun (phase, value, (level, qc)) -> Commit_answer { phase; value; level; qc });
        case 3 pvlc
          (function
            | Commit_bcast { phase; value; level; qc } ->
              Some (phase, value, (level, qc))
            | _ -> None)
          (fun (phase, value, (level, qc)) -> Commit_bcast { phase; value; level; qc });
        case 4 pvs
          (function
            | Decide_share { phase; value; share } -> Some (phase, value, share)
            | _ -> None)
          (fun (phase, value, share) -> Decide_share { phase; value; share });
        case 5 pvc
          (function Finalized { phase; value; qc } -> Some (phase, value, qc) | _ -> None)
          (fun (phase, value, qc) -> Finalized { phase; value; qc });
        case 6 sig_c
          (function Help_req { sg } -> Some sg | _ -> None)
          (fun sg -> Help_req { sg });
        case 7 pvc
          (function Help { phase; value; qc } -> Some (phase, value, qc) | _ -> None)
          (fun (phase, value, qc) -> Help { phase; value; qc });
        case 8
          (pair cert_c (option_c (triple vint_c V.codec cert_c)))
          (function Fallback_cert { qc; decision } -> Some (qc, decision) | _ -> None)
          (fun (qc, decision) -> Fallback_cert { qc; decision });
        case 9 fb (function Fb m -> Some m | _ -> None) (fun m -> Fb m);
      ]

  (* Half the draws nest a fallback message, so a few thousand draws reach
     every constructor at every level, the embedded ones included. *)
  let gen fb g =
    let phase () = Rng.int g 8 in
    let value () = V.gen g in
    let sg () = Codec.gen_sig g in
    let qc () = Codec.gen_cert g in
    if Rng.bool g then Fb (fb g)
    else
      match Rng.int g 9 with
      | 0 -> Propose { phase = phase (); value = value (); sg = sg () }
      | 1 -> Vote { phase = phase (); value = value (); share = sg () }
      | 2 ->
        Commit_answer
          { phase = phase (); value = value (); level = Rng.int g 4; qc = qc () }
      | 3 ->
        Commit_bcast
          { phase = phase (); value = value (); level = Rng.int g 4; qc = qc () }
      | 4 -> Decide_share { phase = phase (); value = value (); share = sg () }
      | 5 -> Finalized { phase = phase (); value = value (); qc = qc () }
      | 6 -> Help_req { sg = sg () }
      | 7 -> Help { phase = phase (); value = value (); qc = qc () }
      | _ ->
        let decision =
          if Rng.bool g then None else Some (phase (), value (), qc ())
        in
        Fallback_cert { qc = qc (); decision }

  type phase_scratch = {
    mutable proposal : (V.t * bool) option;
        (* first leader-signed proposal this phase; bool = validate(v) *)
    mutable commit_answers : (int * V.t * Certificate.t) list;  (* leader *)
    mutable votes : (V.t * Certificate.Tally.t) list;  (* leader *)
    mutable decide_shares : (V.t * Certificate.Tally.t) list;  (* leader *)
    mutable commit_recv : (V.t * int * Certificate.t) option;
        (* commit broadcast accepted this phase *)
    propose_msg : V.t Certificate.Signed_memo.t;
  }

  let fresh_scratch j =
    {
      proposal = None;
      commit_answers = [];
      votes = [];
      decide_shares = [];
      commit_recv = None;
      propose_msg = Certificate.Signed_memo.create ~purpose:propose_purpose ~phase:j ();
    }

  type state = {
    cfg : Config.t;
    pki : Pki.t;
    secret : Pki.Secret.t;
    pid : Pid.t;
    input : V.t;
    validate : V.t -> bool;
    start_slot : int;
    quorum_override : int option;
    scratch : (int, phase_scratch) Hashtbl.t;
    mutable decision : outcome option;
    mutable decide_proof : (int * V.t * Certificate.t) option;
    mutable commit : V.t option;
    mutable commit_proof : Certificate.t option;
    mutable commit_level : int;
    mutable initiated : bool;
    mutable sent_help : bool;
    mutable help_sigs : Certificate.Tally.t option;  (* from the first request *)
    mutable help_answers : msg Process.send list;  (* queued during ingestion *)
    mutable bu_decision : V.t;
    mutable bu_proof : (int * V.t * Certificate.t) option;
    mutable fb_sched : int option;  (* absolute slot *)
    mutable fb_rebroadcast : Certificate.t option;  (* to send this slot *)
    mutable fb_state : F.state option;
    mutable pending_fb : (Pid.t * F.msg) list;
        (* newest first: mail that arrived before the fallback started *)
    mutable decided_in_phase : int option;
    mutable decided_at : int option;
  }

  let phases cfg = cfg.Config.t + 1
  let base j = 5 * (j - 1)
  let help_base cfg = 5 * phases cfg

  (* Fallback certificates are honoured when they arrive within this window
     after the help round; see the .mli for why later ones are moot. *)
  let fb_window_end cfg = help_base cfg + 4
  let latest_fb_start cfg = fb_window_end cfg + 2

  let horizon cfg = latest_fb_start cfg + F.horizon cfg ~round_len:2 + 1

  let leader j cfg = Pid.rotating_leader ~n:cfg.Config.n ~phase:j

  let init ?quorum_override ~cfg ~pki ~secret ~pid ~input ~validate
      ~start_slot () =
    Composition.note ~user:"weak BA" ~uses:"threshold signatures";
    {
      cfg;
      pki;
      secret;
      pid;
      input;
      validate;
      start_slot;
      quorum_override;
      scratch = Hashtbl.create 16;
      decision = None;
      decide_proof = None;
      commit = None;
      commit_proof = None;
      commit_level = 0;
      initiated = false;
      sent_help = false;
      help_sigs = None;
      help_answers = [];
      bu_decision = input;
      bu_proof = None;
      fb_sched = None;
      fb_rebroadcast = None;
      fb_state = None;
      pending_fb = [];
      decided_in_phase = None;
      decided_at = None;
    }

  let decision st = st.decision
  let decided_at st = st.decided_at
  let initiated_phase st = st.initiated
  let sent_help_request st = st.sent_help
  let fallback_entered st = st.fb_state <> None
  let commit_level st = st.commit_level
  let decided_in_phase st = st.decided_in_phase

  let scratch_of st j =
    match Hashtbl.find st.scratch j with
    | s -> s
    | exception Not_found ->
      let s = fresh_scratch j in
      Hashtbl.add st.scratch j s;
      s

  (* The leader's signed proposal message for [value]: only a Byzantine
     leader makes another value cost a rebuild. *)
  let propose_msg sc value =
    Certificate.Signed_memo.message sc.propose_msg ~equal:V.equal ~encode:V.encode
      value

  let quorum st =
    match st.quorum_override with
    | Some q -> q
    | None -> Config.big_quorum st.cfg

  let verify_commit_qc st ~level ~value qc =
    Certificate.verify_as st.pki qc ~k:(quorum st) ~purpose:commit_purpose
    && Certificate.is_phased qc ~phase:level (V.encode value)

  let verify_finalize_qc st ~phase ~value qc =
    Certificate.verify_as st.pki qc ~k:(quorum st) ~purpose:finalize_purpose
    && Certificate.is_phased qc ~phase (V.encode value)

  let decide_from_finalize st ~phase ~value ~qc =
    if st.decision = None then begin
      st.decision <- Some (Value value);
      st.decide_proof <- Some (phase, value, qc);
      st.decided_in_phase <- Some phase
    end

  (* ---- message ingestion -------------------------------------------- *)

  let ingest st ~rel src msg =
    let cfg = st.cfg in
    match msg with
    | Propose { phase = j; value; sg } ->
      if j >= 1 && j <= phases cfg && rel = base j + 1 then begin
        let sc = scratch_of st j in
        if
          Pid.equal (Pki.Sig.signer sg) (leader j cfg)
          && Pki.verify st.pki sg ~msg:(propose_msg sc value)
        then begin
          if sc.proposal = None then
            sc.proposal <- Some (value, st.validate value)
        end
      end
    | Vote { phase = j; value; share } ->
      if
        j >= 1 && j <= phases cfg
        && rel = base j + 2
        && Pid.equal st.pid (leader j cfg)
      then begin
        let sc = scratch_of st j in
        let tl =
          match List.find_opt (fun (v, _) -> V.equal v value) sc.votes with
          | Some (_, tl) -> tl
          | None ->
            let tl =
              Certificate.Tally.create st.pki ~k:(quorum st)
                ~purpose:commit_purpose ~payload:(phased_payload j value)
            in
            sc.votes <- (value, tl) :: sc.votes;
            tl
        in
        ignore (Certificate.Tally.add tl share : Pki.Tally.verdict)
      end
    | Commit_answer { phase = j; value; level; qc } ->
      if
        j >= 1 && j <= phases cfg
        && rel = base j + 2
        && Pid.equal st.pid (leader j cfg)
        && level >= 1 && level < j
        && verify_commit_qc st ~level ~value qc
        && List.length (scratch_of st j).commit_answers <= cfg.Config.n
      then begin
        let sc = scratch_of st j in
        sc.commit_answers <- (level, value, qc) :: sc.commit_answers
      end
    | Commit_bcast { phase = j; value; level; qc } ->
      (* Algorithm 4 line 43: accept in round 4 of phase j, from the phase's
         leader, when the level dominates ours and the certificate checks. *)
      if
        j >= 1 && j <= phases cfg
        && rel = base j + 3
        && Pid.equal src (leader j cfg)
        && level >= 1 && level <= j
        && level >= st.commit_level
        && verify_commit_qc st ~level ~value qc
      then begin
        let sc = scratch_of st j in
        if sc.commit_recv = None then sc.commit_recv <- Some (value, level, qc)
      end
    | Decide_share { phase = j; value; share } ->
      if
        j >= 1 && j <= phases cfg
        && rel = base j + 4
        && Pid.equal st.pid (leader j cfg)
      then begin
        let sc = scratch_of st j in
        let tl =
          match List.find_opt (fun (v, _) -> V.equal v value) sc.decide_shares with
          | Some (_, tl) -> tl
          | None ->
            let tl =
              Certificate.Tally.create st.pki ~k:(quorum st)
                ~purpose:finalize_purpose ~payload:(phased_payload j value)
            in
            sc.decide_shares <- (value, tl) :: sc.decide_shares;
            tl
        in
        ignore (Certificate.Tally.add tl share : Pki.Tally.verdict)
      end
    | Finalized { phase = j; value; qc } ->
      (* A valid finalize certificate is unique system-wide (Lemma 15), so
         honouring it whenever it surfaces is safe and only helps
         termination. *)
      if j >= 1 && j <= phases cfg && verify_finalize_qc st ~phase:j ~value qc
      then decide_from_finalize st ~phase:j ~value ~qc
    | Help_req { sg } ->
      if rel = help_base cfg + 1 then begin
        let help_sigs =
          match st.help_sigs with
          | Some tl -> tl
          | None ->
            let tl =
              Certificate.Tally.create st.pki ~k:(Config.small_quorum cfg)
                ~purpose:helpreq_purpose ~payload:""
            in
            st.help_sigs <- Some tl;
            tl
        in
        match Certificate.Tally.add help_sigs sg with
        | Pki.Tally.Invalid -> ()
        | Pki.Tally.Added | Pki.Tally.Duplicate -> (
          (* Every valid request gets an answer, repeats included — only
             the tally's signer count deduplicates. *)
          match (st.decision, st.decide_proof) with
          | Some (Value _), Some (j, v, qc) ->
            st.help_answers <-
              Process.Unicast (Help { phase = j; value = v; qc }, src)
              :: st.help_answers
          | _ -> ())
      end
    | Help { phase = j; value; qc } ->
      if
        rel = help_base cfg + 2
        && j >= 1 && j <= phases cfg
        && st.validate value
        && verify_finalize_qc st ~phase:j ~value qc
      then decide_from_finalize st ~phase:j ~value ~qc
    | Fallback_cert { qc; decision } ->
      if
        rel >= help_base cfg + 1
        && rel <= fb_window_end cfg
        && Certificate.verify_as st.pki qc ~k:(Config.small_quorum cfg)
             ~purpose:helpreq_purpose
      then begin
        (match decision with
        | Some (j, v, fqc)
          when st.decision = None
               && j >= 1 && j <= phases cfg
               && st.validate v
               && verify_finalize_qc st ~phase:j ~value:v fqc ->
          (* Line 17–20: during the safety window, adopt any decision value
             already reached in the system as our fallback input. *)
          st.bu_decision <- v;
          st.bu_proof <- Some (j, v, fqc)
        | _ -> ());
        if st.fb_sched = None then begin
          st.fb_sched <- Some (st.start_slot + rel + 2);
          st.fb_rebroadcast <- Some qc
        end
      end
    | Fb inner -> (
      match st.fb_state with
      | Some fb -> F.receive fb ~slot:(st.start_slot + rel) ~src inner
      | None -> st.pending_fb <- (src, inner) :: st.pending_fb)

  (* ---- emission ------------------------------------------------------ *)

  let emit_phase_slot st ~rel =
    let cfg = st.cfg in
    let j = (rel / 5) + 1 in
    let off = rel mod 5 in
    let lead = leader j cfg in
    let am_leader = Pid.equal st.pid lead in
    let sc = scratch_of st j in
    match off with
    | 0 ->
      if am_leader && st.decision = None then begin
        st.initiated <- true;
        let sg =
          Certificate.share st.pki st.secret ~purpose:propose_purpose
            ~payload:(phased_payload j st.input)
        in
        Process.broadcast (Propose { phase = j; value = st.input; sg })
      end
      else []
    | 1 -> (
      match sc.proposal with
      | Some (v, valid) -> (
        match st.commit with
        | None ->
          if valid then
            let share =
              Certificate.share st.pki st.secret ~purpose:commit_purpose
                ~payload:(phased_payload j v)
            in
            [ Process.Unicast (Vote { phase = j; value = v; share }, lead) ]
          else []
        | Some cv -> (
          match st.commit_proof with
          | Some qc ->
            [
              Process.Unicast
                ( Commit_answer
                    { phase = j; value = cv; level = st.commit_level; qc },
                  lead );
            ]
          | None -> []))
      | None -> [])
    | 2 ->
      if am_leader then begin
        match
          List.sort (fun (a, _, _) (b, _, _) -> Int.compare b a) sc.commit_answers
        with
        | (level, v, qc) :: _ ->
          Process.broadcast (Commit_bcast { phase = j; value = v; level; qc })
        | [] -> (
          let ready =
            List.filter (fun (_, tl) -> Certificate.Tally.complete tl) sc.votes
            |> List.sort (fun (a, _) (b, _) -> V.compare a b)
          in
          match ready with
          | (v, tl) :: _ -> (
            match Certificate.Tally.certificate tl with
            | Some qc ->
              Process.broadcast
                (Commit_bcast { phase = j; value = v; level = j; qc })
            | None -> [])
          | [] -> [])
      end
      else []
    | 3 -> (
      match sc.commit_recv with
      | Some (v, level, qc) ->
        st.commit <- Some v;
        st.commit_proof <- Some qc;
        st.commit_level <- level;
        let share =
          Certificate.share st.pki st.secret ~purpose:finalize_purpose
            ~payload:(phased_payload j v)
        in
        [ Process.Unicast (Decide_share { phase = j; value = v; share }, lead) ]
      | None -> [])
    | 4 ->
      if am_leader then begin
        let ready =
          List.filter
            (fun (_, tl) -> Certificate.Tally.complete tl)
            sc.decide_shares
          |> List.sort (fun (a, _) (b, _) -> V.compare a b)
        in
        match ready with
        | (v, tl) :: _ -> (
          match Certificate.Tally.certificate tl with
          | Some qc ->
            Process.broadcast (Finalized { phase = j; value = v; qc })
          | None -> [])
        | [] -> []
      end
      else []
    | _ -> assert false

  let step_fallback st ~slot =
    match st.fb_state with
    | None -> []
    | Some fb ->
      let fb', sends = F.step ~slot ~inbox:Mail.empty fb in
      (* [F.step] returns its mutable state: keep the box it sits in. *)
      if fb' != fb then st.fb_state <- Some fb';
      (match F.decision fb' with
      | Some fv when st.decision = None ->
        (* Lines 25–29: adopt a valid fallback output, else ⊥. *)
        st.decision <- Some (if st.validate fv then Value fv else Bot)
      | _ -> ());
      Process.map (fun m -> Fb m) sends

  (* The event-driven wake query. Below [help_base] the only inbox-free
     action is the phase leader's proposal at offset 0 (offsets 1–4 emit
     from scratch state populated strictly by same-slot ingestion, so a
     delivery already wakes them). At and past [help_base]: the help
     request (offset 0, undecided only), the backup-decision latch
     (offset 2), the scheduled fallback start, and the live fallback's own
     round boundaries. [fb_rebroadcast] and the help-answer queue are
     set-and-consumed within a single step (their ingestion guards pin them
     to the very slot that flushes them), so they never need a timer. *)
  let wake ~after st =
    let cfg = st.cfg in
    let hb = help_base cfg in
    let rel = if after > st.start_slot then after - st.start_slot else 0 in
    let undecided = Option.is_none st.decision in
    let lead =
      if undecided && rel < hb then
        let j =
          Pid.next_led_phase ~n:cfg.Config.n st.pid ~from:(((rel + 4) / 5) + 1)
        in
        if j <= phases cfg then st.start_slot + base j else Process.never
      else Process.never
    in
    let help =
      if undecided && rel <= hb then st.start_slot + hb
      else if rel <= hb + 2 then st.start_slot + hb + 2
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
    Int.min (Int.min lead help) (Int.min sched fb)

  let step ~slot ~inbox st =
    let cfg = st.cfg in
    let rel = slot - st.start_slot in
    if rel < 0 then (st, [])
    else begin
      Mail.iter (fun src msg -> ingest st ~rel src msg) inbox;
      let hb = help_base cfg in
      let sends =
        if rel < hb then emit_phase_slot st ~rel
        else begin
          let out = ref [] in
          if rel = hb && st.decision = None then begin
            st.sent_help <- true;
            let sg =
              Certificate.share st.pki st.secret ~purpose:helpreq_purpose
                ~payload:""
            in
            out := Process.broadcast (Help_req { sg })
          end;
          if rel = hb + 1 then begin
            out := st.help_answers @ !out;
            st.help_answers <- [];
            if st.fb_sched = None then begin
              (* [certificate] counts a combine, so it runs only here. *)
              match Option.bind st.help_sigs Certificate.Tally.certificate with
              | Some qc ->
                st.fb_sched <- Some (slot + 2);
                out :=
                  Process.broadcast
                    (Fallback_cert { qc; decision = st.decide_proof })
                  @ !out
              | None -> ()
            end
          end;
          if rel = hb + 2 then begin
            (* Line 15: the backup decision defaults to our own state. *)
            match st.decision with
            | Some (Value v) ->
              st.bu_decision <- v;
              st.bu_proof <- st.decide_proof
            | Some Bot | None -> ()
          end;
          (match st.fb_rebroadcast with
          | Some qc ->
            st.fb_rebroadcast <- None;
            let decision =
              match st.decide_proof with Some p -> Some p | None -> st.bu_proof
            in
            out :=
              Process.broadcast (Fallback_cert { qc; decision })
              @ !out
          | None -> ());
          (match st.fb_sched with
          | Some start when slot = start && st.fb_state = None ->
            Composition.note ~user:"weak BA" ~uses:"A-fallback (echo-phase-king)";
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
        end
      in
      if st.decision <> None && st.decided_at = None then
        st.decided_at <- Some slot;
      (st, sends)
    end
end
