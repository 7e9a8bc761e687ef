(* The gauntlet: every protocol against its attack zoo, checking the
   paper's three properties (agreement, termination, validity) survive.

     dune exec examples/byzantine_gauntlet.exe

   Each line is one adversarial execution; PASS means every correct process
   decided, all on the same value, and the validity clause for that
   scenario held. This is the same machinery the test suite uses —
   exposed as an example so downstream users can gauntlet their own
   deployments. *)

open Mewc_sim
open Mewc_core
module W = Instances.Weak_str

let check name ~decided_same ~extra =
  Printf.printf "  %-52s %s\n" name
    (if decided_same && extra then "PASS" else "FAIL")

let correct_decisions (o : _ Instances.agreement_outcome) =
  Array.to_list o.decisions
  |> List.mapi (fun p d -> (p, d))
  |> List.filter (fun (p, _) -> not (List.mem p o.corrupted))
  |> List.map snd

let all_same ds =
  List.for_all (fun d -> d <> None) ds
  && List.length (List.sort_uniq compare ds) = 1

let () =
  let n = 9 in
  let cfg = Config.optimal ~n in
  let honest ~pki ~secrets =
    Adversary.const (Adversary.honest ~name:"honest") ~pki ~secrets
  in

  Printf.printf "Byzantine Broadcast (n = %d):\n" n;
  let bb name ?(validity = fun _ -> true) adversary =
    let o =
      Instances.run (module Instances.Bb_protocol) ~cfg
        ~params:(Instances.Bb_protocol.default_params cfg) ~adversary ()
    in
    let ds = correct_decisions o in
    check name ~decided_same:(all_same ds) ~extra:(validity ds)
  in
  bb "honest run"
    ~validity:(List.for_all (fun d -> d = Some (Adaptive_bb.Decided "v")))
    honest;
  bb "crashed sender"
    ~validity:(List.for_all (fun d -> d = Some Adaptive_bb.No_decision))
    (Adversary.const (Adversary.crash ~victims:[ 0 ] ()));
  bb "t crashes"
    ~validity:(List.for_all (fun d -> d = Some (Adaptive_bb.Decided "v")))
    (Adversary.const (Adversary.crash ~victims:[ 1; 2; 3; 4 ] ()));
  bb "equivocating sender"
    (Attacks.bb_equivocating_sender ~cfg ~sender:0 ~v1:"a" ~v2:"b");
  bb "selective sender (one recipient)"
    (Attacks.bb_selective_sender ~cfg ~sender:0 ~value:"rare" ~recipients:[ 5 ]);

  Printf.printf "\nWeak BA (n = %d):\n" n;
  let weak name ?(validate = fun _ -> true) ?(validity = fun _ -> true) ~inputs
      adversary =
    let o =
      Instances.run (module Instances.Weak_ba_protocol) ~cfg
        ~params:{ Instances.Weak_ba_protocol.inputs; validate; quorum_override = None }
        ~adversary ()
    in
    let ds = correct_decisions o in
    check name ~decided_same:(all_same ds) ~extra:(validity ds)
  in
  weak "honest, unanimous" ~inputs:(Array.make n "u")
    ~validity:(List.for_all (fun d -> d = Some (W.Value "u")))
    honest;
  weak "lonely decider (help round)" ~inputs:(Array.make n "u")
    (Attacks.wba_lonely_decider ~cfg ~lucky:5);
  weak "busy Byzantine leaders" ~inputs:(Array.make n "u")
    (Attacks.wba_busy_byz_leaders ~cfg ~leaders:[ 1; 2 ]);
  weak "help-request spam" ~inputs:(Array.make n "u")
    (Attacks.wba_help_req_spammers ~cfg ~spammers:[ 7; 8 ]);
  weak "late fallback certificate" ~inputs:(Array.make n "u")
    (Attacks.wba_late_fallback_cert ~cfg ~victim:0);
  weak "invalid fallback king (⊥ outcome)"
    ~validate:(fun v -> v <> "EVIL")
    ~inputs:(Array.init n (fun i -> Printf.sprintf "x%d" i))
    ~validity:(List.for_all (fun d -> d = Some W.Bot))
    (Attacks.wba_invalid_fallback_king ~cfg ~byz:[ 1; 6; 7; 8 ] ~evil:"EVIL");

  Printf.printf "\nStrong BA (n = %d):\n" n;
  let strong name ?(validity = fun _ -> true) ~inputs adversary =
    let o =
      Instances.run (module Instances.Strong_ba_protocol) ~cfg
        ~params:{ Instances.Strong_ba_protocol.leader = 0; inputs } ~adversary ()
    in
    let ds = correct_decisions o in
    check name ~decided_same:(all_same ds) ~extra:(validity ds)
  in
  strong "honest, unanimous true" ~inputs:(Array.make n true)
    ~validity:(List.for_all (fun d -> d = Some true))
    honest;
  strong "leader crash" ~inputs:(Array.init n (fun i -> i mod 2 = 0))
    (Adversary.const (Adversary.crash ~victims:[ 0 ] ()));
  strong "withholding leader (Lemma 26)" ~inputs:(Array.make n true)
    ~validity:(List.for_all (fun d -> d = Some true))
    (Attacks.sba_withholding_leader ~cfg ~leader:0 ~lucky:3);

  Printf.printf "\nA_fallback / echo phase king (n = %d):\n" n;
  let epk name ?(validity = fun _ -> true) ~inputs adversary =
    let o =
      Instances.run (module Instances.Fallback_protocol) ~cfg
        ~params:{ (Instances.Fallback_protocol.default_params cfg) with inputs }
        ~adversary ()
    in
    let ds = correct_decisions o in
    check name ~decided_same:(all_same ds) ~extra:(validity ds)
  in
  epk "unanimity vs equivocating king" ~inputs:(Array.make n "good")
    ~validity:(List.for_all (fun d -> d = Some "good"))
    (Attacks.epk_equivocating_king ~cfg ~king:1 ~v1:"e1" ~v2:"e2");
  epk "divergent inputs, staggered crashes"
    ~inputs:(Array.init n (fun i -> Printf.sprintf "x%d" (i mod 3)))
    (Adversary.const (Adversary.staggered_crash ~victims:[ 1; 2; 3 ] ~every:5))
