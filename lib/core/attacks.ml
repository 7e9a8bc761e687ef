open Mewc_prelude
open Mewc_crypto
open Mewc_sim

(* --- Byzantine Broadcast ------------------------------------------------ *)

let bb_equivocating_sender ~cfg ~sender ~v1 ~v2 ~pki ~secrets =
  let n = cfg.Config.n in
  Strategies.scripted
    ~name:(Printf.sprintf "bb-equivocating-sender(p%d)" sender)
    ~victims:[ sender ]
    ~script:(fun ~slot ~pid ~inbox:_ ->
      if slot = 0 && Pid.equal pid sender then begin
        let signed v =
          Certificate.share pki secrets.(sender)
            ~purpose:Adaptive_bb.sender_purpose ~payload:v
        in
        let sg1 = signed v1 and sg2 = signed v2 in
        List.filter_map
          (fun p ->
            if Pid.equal p sender then None
            else if p mod 2 = 0 then
              Some (Process.Unicast (Adaptive_bb.Send { value = v1; sg = sg1 }, p))
            else
              Some (Process.Unicast (Adaptive_bb.Send { value = v2; sg = sg2 }, p)))
          (Pid.all ~n)
      end
      else [])

let bb_selective_sender ~cfg ~sender ~value ~recipients ~pki ~secrets =
  ignore cfg;
  Strategies.scripted
    ~name:(Printf.sprintf "bb-selective-sender(p%d)" sender)
    ~victims:[ sender ]
    ~script:(fun ~slot ~pid ~inbox:_ ->
      if slot = 0 && Pid.equal pid sender then begin
        let sg =
          Certificate.share pki secrets.(sender)
            ~purpose:Adaptive_bb.sender_purpose ~payload:value
        in
        List.map
          (fun p -> Process.Unicast (Adaptive_bb.Send { value; sg }, p))
          recipients
      end
      else [])

let bb_fake_idk_leader ~cfg ~byz ~pki ~secrets =
  match byz with
  | [] -> invalid_arg "bb_fake_idk_leader: need Byzantine pids"
  | leader :: _ ->
    let n = cfg.Config.n in
    let vet_phase = leader (* pid j leads vetting phase j *) in
    let bcast_slot = Adaptive_bb.vet_base vet_phase + 2 in
    Strategies.scripted
      ~name:(Printf.sprintf "bb-fake-idk-leader(p%d)" leader)
      ~victims:byz
      ~script:(fun ~slot ~pid ~inbox:_ ->
        if Pid.equal pid leader && slot = bcast_slot then begin
          (* All Byzantine idk shares for this phase: f <= t of them, which
             is at most t — one short of the quorum BB_valid demands. *)
          let shares =
            List.map
              (fun p ->
                Certificate.share pki secrets.(p)
                  ~purpose:Adaptive_bb.idk_purpose
                  ~payload:(string_of_int vet_phase))
              byz
          in
          match
            Certificate.make pki ~k:(List.length byz)
              ~purpose:Adaptive_bb.idk_purpose
              ~payload:(string_of_int vet_phase) shares
          with
          | Some under_sized ->
            Process.broadcast_others ~n ~self:pid
              (Adaptive_bb.Vet_bcast
                 { phase = vet_phase; value = Adaptive_bb.Idk_cert under_sized })
          | None -> []
        end
        else [])

(* --- Weak BA ------------------------------------------------------------ *)

module W = Instances.Weak_str
module E = Instances.Epk_str

let weak_machine ~cfg ~pki ~secrets ~input pid =
  {
    Process.init =
      W.init ~cfg ~pki ~secret:secrets.(pid) ~pid ~input
        ~validate:(fun _ -> true) ~start_slot:0 ();
    step = (fun ~slot ~inbox st -> W.step ~slot ~inbox st);
    wake = None;
  }

let wba_exclusive_finalizer ~cfg ~leader ~lucky ~pki ~secrets =
  Strategies.deviant
    ~name:(Printf.sprintf "wba-exclusive-finalizer(p%d->p%d)" leader lucky)
    ~victims:[ leader ]
    ~machine:(weak_machine ~cfg ~pki ~secrets ~input:"byz")
    ~mangle:(fun ~slot:_ ~pid:_ ~inbox:_ sends ->
      Process.filter ~n:cfg.Config.n
        (fun m dst ->
          match m with W.Finalized _ -> Pid.equal dst lucky | _ -> true)
        sends)

let wba_busy_byz_leaders ~cfg ~leaders ~pki ~secrets =
  Strategies.deviant
    ~name:(Printf.sprintf "wba-busy-byz-leaders(%d)" (List.length leaders))
    ~victims:leaders
    ~machine:(weak_machine ~cfg ~pki ~secrets ~input:"byz")
    ~mangle:(fun ~slot:_ ~pid:_ ~inbox:_ sends ->
      Process.filter ~n:cfg.Config.n
        (fun m _ -> match m with W.Finalized _ -> false | _ -> true)
        sends)

let wba_help_req_spammers ~cfg ~spammers ~pki ~secrets =
  (* Spammers follow the protocol (so the phases succeed and everyone
     decides) and additionally inject signed help requests at the help
     round even though they need no help. *)
  let hb = W.help_base cfg in
  Strategies.deviant
    ~name:(Printf.sprintf "wba-help-req-spammers(%d)" (List.length spammers))
    ~victims:spammers
    ~machine:(weak_machine ~cfg ~pki ~secrets ~input:"byz")
    ~mangle:(fun ~slot ~pid ~inbox:_ sends ->
      if slot = hb then begin
        let sg =
          Certificate.share pki secrets.(pid) ~purpose:W.helpreq_purpose
            ~payload:""
        in
        Process.broadcast_others ~n:cfg.Config.n ~self:pid (W.Help_req { sg })
        @ sends
      end
      else sends)

(* Shared behaviour of the "lonely decider" family: Byzantine processes
   p1..pt run the honest protocol, except that (a) none of them ever sends a
   help request, (b) only p1 initiates its phase, and (c) p1 reveals the
   finalize certificate to [lucky] alone. With lucky = p_(t+1) — the last
   rotating leader — exactly one correct process decides during the phases
   and every other correct one must go through the help round: the paper's
   §6 scenario ("a Byzantine leader causes the single correct leader to
   decide and not initiate its phase"). *)
let lonely_mangle ~n ~lucky ~extra ~slot ~pid ~inbox sends =
  let censored =
    Process.filter ~n
      (fun m dst ->
        match m with
        | W.Help_req _ -> false
        | W.Propose _ -> pid = 1
        | W.Finalized _ -> pid = 1 && Mewc_prelude.Pid.equal dst lucky
        | _ -> true)
      sends
  in
  extra ~slot ~pid ~inbox @ censored

let wba_lonely_decider ~cfg ~lucky ~pki ~secrets =
  let victims = List.init cfg.Config.t (fun i -> i + 1) in
  Strategies.deviant
    ~name:(Printf.sprintf "wba-lonely-decider(lucky=p%d)" lucky)
    ~victims
    ~machine:(weak_machine ~cfg ~pki ~secrets ~input:"byz")
    ~mangle:
      (lonely_mangle ~n:cfg.Config.n ~lucky
         ~extra:(fun ~slot:_ ~pid:_ ~inbox:_ -> []))

let wba_late_fallback_cert ~cfg ~victim ~pki ~secrets =
  (* On top of the lonely-decider scenario (which leaves t correct processes
     asking for help while fewer than t+1 correct help requests exist), one
     Byzantine process harvests the correct help-request signatures, tops
     them up with Byzantine ones, and delivers the resulting fallback
     certificate to [victim] alone at the very edge of the acceptance
     window. *)
  let t = cfg.Config.t in
  let victims = List.init t (fun i -> i + 1) in
  let lucky = t + 1 in
  let hb = W.help_base cfg in
  let window_end = W.fb_window_end cfg in
  let harvested : Pki.Sig.t Pid.Map.t ref = ref Pid.Map.empty in
  List.iter
    (fun p ->
      harvested :=
        Pid.Map.add p
          (Certificate.share pki secrets.(p) ~purpose:W.helpreq_purpose
             ~payload:"")
          !harvested)
    victims;
  let extra ~slot ~pid ~inbox =
    if pid <> 2 then []
    else if slot = hb + 1 then begin
      Mail.iter
        (fun _src msg ->
          match msg with
          | W.Help_req { sg } ->
            harvested := Pid.Map.add (Pki.Sig.signer sg) sg !harvested
          | _ -> ())
        inbox;
      []
    end
    else if slot = window_end - 1 then begin
      (* Sent now, the certificate arrives exactly at the last slot of the
         victim's acceptance window. *)
      let shares = List.map snd (Pid.Map.bindings !harvested) in
      match
        Certificate.make pki ~k:(Config.small_quorum cfg)
          ~purpose:W.helpreq_purpose ~payload:"" shares
      with
      | Some qc ->
        [ Process.Unicast (W.Fallback_cert { qc; decision = None }, victim) ]
      | None -> []
    end
    else []
  in
  Strategies.deviant ~name:"wba-late-fallback-cert" ~victims
    ~machine:(weak_machine ~cfg ~pki ~secrets ~input:"byz")
    ~mangle:(lonely_mangle ~n:cfg.Config.n ~lucky ~extra)

let wba_invalid_fallback_king ~cfg ~byz ~evil ~pki ~secrets =
  match byz with
  | [] -> invalid_arg "wba_invalid_fallback_king: need Byzantine pids"
  | king :: _ ->
    (* The Byzantine processes stay silent through the phases so no correct
       process can decide (the big quorum is out of reach); all correct
       processes then form the fallback certificate themselves and start
       A_fallback at a deterministic slot S. The first Byzantine pid must be
       the king of the fallback's first phase: it proposes an unjustified
       invalid value, collects votes, certifies and finalizes it — driving
       the weak BA to its ⊥ outcome (possible here because the correct
       inputs diverge, so more than one valid value exists). *)
    let fb_start = W.help_base cfg + 3 in
    let slot_of_round r = fb_start + (2 * r) in
    let epk_phase = king (* p_k is king of phase k *) in
    let propose_slot = slot_of_round (E.base epk_phase + 1) in
    let commit_slot = slot_of_round (E.base epk_phase + 4) in
    let votes : Pki.Sig.t Pid.Map.t ref = ref Pid.Map.empty in
    Strategies.scripted
      ~name:(Printf.sprintf "wba-invalid-fallback-king(p%d)" king)
      ~victims:byz
      ~script:(fun ~slot ~pid ~inbox ->
        if not (Pid.equal pid king) then []
        else begin
          (* Harvest votes for the evil value as they come in. *)
          Mail.iter
            (fun _src msg ->
              match msg with
              | W.Fb { E.body = E.Vote { phase; value; share }; _ }
                when phase = epk_phase && String.equal value evil ->
                votes := Pid.Map.add (Pki.Sig.signer share) share !votes
              | _ -> ())
            inbox;
          if slot = propose_slot then begin
            let p =
              {
                E.p_phase = epk_phase;
                p_value = evil;
                p_just = E.Unjustified;
                p_king_sig =
                  Certificate.share pki secrets.(king)
                    ~purpose:E.propose_purpose
                    ~payload:(E.phased_payload epk_phase evil);
                p_just_valid = true;
              }
            in
            Process.broadcast_others ~n:cfg.Config.n ~self:pid
              (W.Fb { E.round = E.base epk_phase + 1; body = E.Propose p })
          end
          else if slot = commit_slot then begin
            let shares = List.map snd (Pid.Map.bindings !votes) in
            match
              Certificate.make pki ~k:(Config.small_quorum cfg)
                ~purpose:E.commit_purpose
                ~payload:(E.phased_payload epk_phase evil)
                shares
            with
            | Some qc ->
              Process.broadcast_others ~n:cfg.Config.n ~self:pid
                (W.Fb
                   {
                     E.round = E.base epk_phase + 4;
                     body = E.Commit { phase = epk_phase; value = evil; qc };
                   })
            | None -> []
          end
          else []
        end)

let wba_small_quorum_split ~cfg ~quorum ~v1 ~v2 ~pki ~secrets =
  (* Split-brain attack against an (ablated) weak BA running with commit /
     finalize quorums of size [quorum] (intended: t+1). The Byzantine phase-1
     leader equivocates its proposal between the even-pid and odd-pid correct
     processes, tops up each side's votes and decide shares with Byzantine
     signatures, and hands each side its own finalize certificate. With
     quorum t+1 both certificates assemble - two quorums of t+1 need not
     intersect in a correct process - and agreement is gone; with the
     paper's big quorum the same attack cannot finish a certificate for
     either side. *)
  let t = cfg.Config.t in
  let byz = List.init t (fun i -> i + 1) in
  let n = cfg.Config.n in
  let correct p = not (List.mem p byz) in
  let side_of p = if p mod 2 = 0 then `A else `B in
  let value_of_side = function `A -> v1 | `B -> v2 in
  let byz_shares ~purpose ~payload =
    List.map (fun p -> Certificate.share pki secrets.(p) ~purpose ~payload) byz
  in
  let collected_votes : (Pid.t, Pki.Sig.t) Hashtbl.t = Hashtbl.create 8 in
  let collected_decides : (Pid.t, Pki.Sig.t) Hashtbl.t = Hashtbl.create 8 in
  let targets side =
    List.filter (fun p -> correct p && side_of p = side) (Pid.all ~n)
  in
  let per_side make =
    List.concat_map
      (fun side ->
        List.filter_map
          (fun p ->
            Option.map
              (fun (m, dst) -> Process.Unicast (m, dst))
              (make (value_of_side side) p))
          (targets side))
      [ `A; `B ]
  in
  Strategies.scripted
    ~name:(Printf.sprintf "wba-small-quorum-split(q=%d)" quorum)
    ~victims:byz
    ~script:(fun ~slot ~pid ~inbox ->
      if not (Pid.equal pid 1) then []
      else begin
        Mail.iter
          (fun _src msg ->
            match msg with
            | W.Vote { phase = 1; share; _ } ->
              Hashtbl.replace collected_votes (Pki.Sig.signer share) share
            | W.Decide_share { phase = 1; share; _ } ->
              Hashtbl.replace collected_decides (Pki.Sig.signer share) share
            | _ -> ())
          inbox;
        let side_shares table p =
          Hashtbl.fold
            (fun signer sg acc ->
              if correct signer && side_of signer = side_of p then sg :: acc
              else acc)
            table []
        in
        match slot with
        | 0 ->
          per_side (fun v p ->
              let sg =
                Certificate.share pki secrets.(1) ~purpose:W.propose_purpose
                  ~payload:(W.phased_payload 1 v)
              in
              Some (W.Propose { phase = 1; value = v; sg }, p))
        | 2 ->
          per_side (fun v p ->
              let payload = W.phased_payload 1 v in
              let shares =
                byz_shares ~purpose:W.commit_purpose ~payload
                @ side_shares collected_votes p
              in
              Certificate.make pki ~k:quorum ~purpose:W.commit_purpose ~payload
                shares
              |> Option.map (fun qc ->
                     (W.Commit_bcast { phase = 1; value = v; level = 1; qc }, p)))
        | 4 ->
          per_side (fun v p ->
              let payload = W.phased_payload 1 v in
              let shares =
                byz_shares ~purpose:W.finalize_purpose ~payload
                @ side_shares collected_decides p
              in
              Certificate.make pki ~k:quorum ~purpose:W.finalize_purpose ~payload
                shares
              |> Option.map (fun qc -> (W.Finalized { phase = 1; value = v; qc }, p)))
        | _ -> []
      end)


let wba_fuzzer ~cfg ~victims ~seed ~pki ~secrets =
  let n = cfg.Config.n in
  let phases = cfg.Config.t + 1 in
  let rng = Rng.create seed in
  (* Pool of values to lie about, plus every certificate observed on the
     wire (to replay out of context). *)
  let values = [| "v"; "w"; "fuzz"; "x0"; "x1"; "" |] in
  let certs : Certificate.t list ref = ref [] in
  let remember qc = if List.length !certs < 64 then certs := qc :: !certs in
  let harvest _src msg =
    match msg with
    | W.Commit_answer { qc; _ } | W.Commit_bcast { qc; _ }
    | W.Finalized { qc; _ } | W.Help { qc; _ } ->
      remember qc
    | W.Fallback_cert { qc; decision } ->
      remember qc;
      (match decision with Some (_, _, fqc) -> remember fqc | None -> ())
    | W.Propose _ | W.Vote _ | W.Decide_share _ | W.Help_req _ | W.Fb _ -> ()
  in
  let random_value () = values.(Rng.int rng (Array.length values)) in
  let random_phase () = 1 + Rng.int rng phases in
  let random_dst () = Rng.int rng n in
  let random_msg pid =
    let value = random_value () in
    let phase = random_phase () in
    let share purpose payload = Certificate.share pki secrets.(pid) ~purpose ~payload in
    match Rng.int rng 8 with
    | 0 ->
      W.Propose
        { phase; value; sg = share W.propose_purpose (W.phased_payload phase value) }
    | 1 ->
      W.Vote
        { phase; value; share = share W.commit_purpose (W.phased_payload phase value) }
    | 2 ->
      W.Decide_share
        { phase; value; share = share W.finalize_purpose (W.phased_payload phase value) }
    | 3 -> W.Help_req { sg = share W.helpreq_purpose "" }
    | 4 | 5 -> (
      match !certs with
      | [] -> W.Help_req { sg = share W.helpreq_purpose "" }
      | cs -> (
        let qc = List.nth cs (Rng.int rng (List.length cs)) in
        match Rng.int rng 4 with
        | 0 -> W.Commit_bcast { phase; value; level = random_phase (); qc }
        | 1 -> W.Commit_answer { phase; value; level = random_phase (); qc }
        | 2 -> W.Finalized { phase; value; qc }
        | _ -> W.Fallback_cert { qc; decision = None }))
    | 6 ->
      W.Help { phase; value; qc = (match !certs with [] -> Certificate.make pki ~k:1 ~purpose:"junk" ~payload:"j" [ share "junk" "j" ] |> Option.get | c :: _ -> c) }
    | _ ->
      let round = Rng.int rng 40 in
      W.Fb
        {
          E.round;
          body =
            (if Rng.bool rng then
               E.Input { value; share = share E.input_purpose value }
             else
               E.Vote
                 {
                   phase = random_phase ();
                   value;
                   share = share E.commit_purpose (E.phased_payload phase value);
                 });
        }
  in
  Strategies.scripted
    ~name:(Printf.sprintf "wba-fuzzer(%d victims, seed %Ld)" (List.length victims) seed)
    ~victims
    ~script:(fun ~slot:_ ~pid ~inbox ->
      Mail.iter harvest inbox;
      List.init (Rng.int rng 4) (fun _ ->
          let m, dst = (random_msg pid, random_dst ()) in
          Process.Unicast (m, dst)))

(* --- Strong BA (Algorithm 5) -------------------------------------------- *)

module S = Instances.Strong_bool

let sba_withholding_leader ~cfg ~leader ~lucky ~pki ~secrets =
  Strategies.deviant
    ~name:(Printf.sprintf "sba-withholding-leader(p%d->p%d)" leader lucky)
    ~victims:[ leader ]
    ~machine:(fun pid ->
      {
        Process.init =
          S.init ~cfg ~pki ~secret:secrets.(pid) ~pid ~leader ~input:true
            ~start_slot:0;
        step = (fun ~slot ~inbox st -> S.step ~slot ~inbox st);
        wake = None;
      })
    ~mangle:(fun ~slot:_ ~pid:_ ~inbox:_ sends ->
      Process.filter ~n:cfg.Config.n
        (fun m dst ->
          match m with S.Decide _ -> Pid.equal dst lucky | _ -> true)
        sends)

(* --- Echo phase king ----------------------------------------------------- *)

let epk_lock_carryover_king ~cfg ~target ~pki ~secrets =
  let king = 1 in
  Strategies.deviant
    ~name:(Printf.sprintf "epk-lock-carryover-king(->p%d)" target)
    ~victims:[ king ]
    ~machine:(fun pid ->
      {
        Process.init =
          E.init ~cfg ~pki ~secret:secrets.(pid) ~pid ~input:"king-value"
            ~start_slot:0 ~round_len:1;
        step = (fun ~slot ~inbox st -> E.step ~slot ~inbox st);
        wake = None;
      })
    ~mangle:(fun ~slot:_ ~pid:_ ~inbox:_ sends ->
      Process.filter ~n:cfg.Config.n
        (fun (m : E.msg) dst ->
          match m.E.body with
          | E.Commit _ -> Pid.equal dst target
          | E.Ack _ | E.Decided _ -> false
          | E.Input _ | E.Status _ | E.Propose _ | E.Echo _ | E.Vote _ -> true)
        sends)

let epk_equivocating_king ~cfg ~king ~v1 ~v2 ~pki ~secrets =
  let n = cfg.Config.n in
  let propose_round = E.base king + 1 in
  Strategies.scripted
    ~name:(Printf.sprintf "epk-equivocating-king(p%d)" king)
    ~victims:[ king ]
    ~script:(fun ~slot ~pid ~inbox:_ ->
      if slot = 0 then begin
        (* Participate in the input exchange so the run looks normal. *)
        let share =
          Certificate.share pki secrets.(pid) ~purpose:E.input_purpose
            ~payload:v1
        in
        Process.broadcast_others ~n ~self:pid
          { E.round = 0; body = E.Input { value = v1; share } }
      end
      else if slot = propose_round then begin
        let proposal v =
          {
            E.p_phase = king;
            p_value = v;
            p_just = E.Unjustified;
            p_king_sig =
              Certificate.share pki secrets.(king) ~purpose:E.propose_purpose
                ~payload:(E.phased_payload king v);
            p_just_valid = true;
          }
        in
        let p1 = proposal v1 and p2 = proposal v2 in
        List.filter_map
          (fun p ->
            if Pid.equal p king then None
            else
              let chosen = if p mod 2 = 0 then p1 else p2 in
              Some
                (Process.Unicast
                   ({ E.round = propose_round; body = E.Propose chosen }, p)))
          (Pid.all ~n)
      end
      else [])
