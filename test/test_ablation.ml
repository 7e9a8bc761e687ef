(* Ablations and extensions:
   - the quorum ablation: the paper's central ⌈(n+t+1)/2⌉ insight made
     falsifiable — the same attack breaks agreement at quorum t+1 and is
     harmless at the sound quorum;
   - generalized resilience n > 2t+1 (paper §8's future direction);
   - decision latency (early-stopping behaviour);
   - delivery-order robustness (protocols may not depend on within-slot
     message order). *)

open Mewc_sim
open Mewc_core
module W = Instances.Weak_str
module Wp = Instances.Weak_ba_protocol
module Bp = Instances.Bb_protocol
module Sp = Instances.Strong_ba_protocol

let cfg = Test_util.cfg

let correct_decisions (o : _ Instances.agreement_outcome) =
  Array.to_list o.decisions
  |> List.mapi (fun p d -> (p, d))
  |> List.filter (fun (p, _) -> not (List.mem p o.corrupted))
  |> List.map snd

(* --- quorum ablation ------------------------------------------------- *)

let quorum_ablation_breaks_agreement () =
  (* Running with the naive t+1 quorum, the split-brain attack must
     produce two different decisions among correct processes: this is the
     disagreement the paper's quorum choice exists to prevent. *)
  let n = 9 in
  let c = cfg n in
  let small = Config.small_quorum c in
  let o =
    Instances.run (module Wp) ~cfg:c
      ~params:
        { (Wp.default_params c) with inputs = Array.make n "input"; quorum_override = Some small }
      ~adversary:(Attacks.wba_small_quorum_split ~cfg:c ~quorum:small ~v1:"A" ~v2:"B")
      ()
  in
  let decided =
    correct_decisions o |> List.filter_map Fun.id |> List.sort_uniq compare
  in
  Alcotest.(check bool)
    (Printf.sprintf "agreement violated (%d distinct decisions)"
       (List.length decided))
    true
    (List.length decided >= 2);
  Alcotest.(check bool) "A and B both decided" true
    (List.mem (W.Value "A") decided && List.mem (W.Value "B") decided)

let sound_quorum_resists_the_same_attack () =
  (* Identical attack, sound quorum: at most one side's certificate can
     complete (two big quorums intersect in a correct process), so
     agreement holds. *)
  let n = 9 in
  let c = cfg n in
  let big = Config.big_quorum c in
  let o =
    Instances.run (module Wp) ~cfg:c
      ~params:{ (Wp.default_params c) with inputs = Array.make n "input" }
      ~adversary:(Attacks.wba_small_quorum_split ~cfg:c ~quorum:big ~v1:"A" ~v2:"B")
      ()
  in
  ignore
    (Test_util.check_agreement ~pp:W.pp_outcome ~equal:W.equal_outcome
       ~corrupted:o.corrupted o.decisions)

let ablation_attack_certificates_rejected () =
  (* Forged small-quorum certificates must be rejected by sound-quorum
     verifiers even when delivered. *)
  let n = 9 in
  let c = cfg n in
  let small = Config.small_quorum c in
  let o =
    Instances.run (module Wp) ~cfg:c
      ~params:{ (Wp.default_params c) with inputs = Array.make n "input" }
      ~adversary:
        (Attacks.wba_small_quorum_split ~cfg:c ~quorum:small ~v1:"A" ~v2:"B")
      ()
  in
  (* The attack's t+1-sized finalize certificates fail verification at
     k = big quorum, so nobody decides in phase 1 from them; the run still
     terminates in agreement (later the fallback machinery covers it). *)
  ignore
    (Test_util.check_agreement ~pp:W.pp_outcome ~equal:W.equal_outcome
       ~corrupted:o.corrupted o.decisions)

(* --- generalized resilience (paper §8) -------------------------------- *)

let resilience_beyond_optimal () =
  (* n = 11, t = 3 (n > 2t+1): all protocols keep their guarantees; the
     weak BA fallback threshold (n - big_quorum) grows accordingly. *)
  let c = Config.create ~n:11 ~t:3 in
  List.iter
    (fun f ->
      let victims = List.init f (fun i -> i + 1) in
      let o =
        Instances.run (module Wp) ~cfg:c ~params:(Wp.default_params c)
          ~adversary:(Adversary.const (Adversary.crash ~victims ()))
          ()
      in
      let got =
        Test_util.check_agreement ~pp:W.pp_outcome ~equal:W.equal_outcome
          ~corrupted:o.corrupted o.decisions
      in
      Alcotest.(check bool) (Printf.sprintf "f=%d decides v" f) true
        (W.equal_outcome got (W.Value "v")))
    [ 0; 1; 2; 3 ]

let resilience_fallback_threshold_shifts () =
  (* With n = 4t+1-ish slack, even f = t keeps n - f above the big quorum,
     so the fallback is never needed at all. *)
  let c = Config.create ~n:13 ~t:3 in
  let o =
    Instances.run (module Wp) ~cfg:c ~params:(Wp.default_params c)
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1; 2; 3 ] ()))
      ()
  in
  Alcotest.(check int) "no fallback even at f=t" 0 o.fallback_runs;
  Alcotest.(check bool) "quorum still reachable" true
    (Config.big_quorum c <= 13 - 3)

(* --- smallest system: n = 3, t = 1 ------------------------------------- *)

let smallest_system () =
  let c = cfg 3 in
  let honest ~pki ~secrets =
    Adversary.const (Adversary.honest ~name:"h") ~pki ~secrets
  in
  let one_crash ~pki ~secrets =
    Adversary.const (Adversary.crash ~victims:[ 1 ] ()) ~pki ~secrets
  in
  let check_weak adversary expect =
    let o =
      Instances.run (module Wp) ~cfg:c ~params:(Wp.default_params c) ~adversary ()
    in
    let got =
      Test_util.check_agreement ~pp:W.pp_outcome ~equal:W.equal_outcome
        ~corrupted:o.corrupted o.decisions
    in
    Alcotest.(check bool) "weak decides v" true (W.equal_outcome got expect)
  in
  check_weak honest (W.Value "v");
  check_weak one_crash (W.Value "v");
  let o =
    Instances.run (module Bp) ~cfg:c ~params:{ Bp.sender = 0; input = "m" }
      ~adversary:honest ()
  in
  let got =
    Test_util.check_agreement ~pp:Adaptive_bb.pp_decision
      ~equal:Adaptive_bb.equal_decision ~corrupted:o.corrupted o.decisions
  in
  Alcotest.(check bool) "bb decides m" true
    (Adaptive_bb.equal_decision got (Adaptive_bb.Decided "m"));
  let o =
    Instances.run (module Sp) ~cfg:c ~params:{ Sp.leader = 0; inputs = [| true; false; true |] }
      ~adversary:honest ()
  in
  ignore
    (Test_util.check_agreement ~pp:Format.pp_print_bool ~equal:Bool.equal
       ~corrupted:o.corrupted o.decisions);
  let o =
    Instances.run (module Instances.Fallback_protocol) ~cfg:c
      ~params:
        {
          (Instances.Fallback_protocol.default_params c) with
          inputs = [| "a"; "b"; "c" |];
        }
      ~adversary:one_crash ()
  in
  ignore
    (Test_util.check_agreement ~pp:Test_util.pp_str ~equal:String.equal
       ~corrupted:o.corrupted o.decisions)

(* --- latency ----------------------------------------------------------- *)

let latency_failure_free () =
  let n = 9 in
  let honest ~pki ~secrets =
    Adversary.const (Adversary.honest ~name:"h") ~pki ~secrets
  in
  let weak =
    Instances.run (module Wp) ~cfg:(cfg n) ~params:(Wp.default_params (cfg n))
      ~adversary:honest ()
  in
  (* Weak BA: phase 1 spans slots 0-4; the finalize certificate lands at
     slot 5. *)
  Alcotest.(check int) "weak BA latency" 5 weak.latency;
  let strong =
    Instances.run (module Sp) ~cfg:(cfg n) ~params:(Sp.default_params (cfg n))
      ~adversary:honest ()
  in
  (* Algorithm 5 decides in round 5 = slot 4 ("4 all-to-leader and
     leader-to-all rounds", §7.1). *)
  Alcotest.(check int) "strong BA latency" 4 strong.latency;
  let bb =
    Instances.run (module Bp) ~cfg:(cfg n) ~params:(Bp.default_params (cfg n))
      ~adversary:honest ()
  in
  (* BB: 1 dissemination slot + 3n vetting slots + the weak BA's 5. *)
  Alcotest.(check int) "BB latency" (1 + (3 * n) + 5) bb.latency

let latency_grows_with_byzantine_leaders () =
  let n = 9 in
  let lat k =
    let leaders = List.init k (fun i -> i + 1) in
    let o =
      Instances.run (module Wp) ~cfg:(cfg n) ~params:(Wp.default_params (cfg n))
        ~adversary:
          (if k = 0 then Adversary.const (Adversary.honest ~name:"h")
           else Attacks.wba_busy_byz_leaders ~cfg:(cfg n) ~leaders)
        ()
    in
    o.Instances.latency
  in
  (* Each Byzantine leader burns one 5-slot phase before the first correct
     leader finalizes. *)
  Alcotest.(check (list int)) "latency ladder" [ 5; 10; 15; 20 ]
    [ lat 0; lat 1; lat 2; lat 3 ]

let latency_reported_under_fallback () =
  let n = 9 in
  let o =
    Instances.run (module Wp) ~cfg:(cfg n) ~params:(Wp.default_params (cfg n))
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1; 2; 3; 4 ] ()))
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "fallback latency %d sane" o.latency)
    true
    (o.latency > W.help_base (cfg n) && o.latency < W.horizon (cfg n))

(* --- delivery-order robustness ---------------------------------------- *)

let order_insensitive protocol_run =
  let base = protocol_run None in
  List.iter
    (fun seed ->
      let shuffled = protocol_run (Some seed) in
      Alcotest.(check bool)
        (Printf.sprintf "same decisions under shuffle %Ld" seed)
        true
        (base = shuffled))
    [ 3L; 77L; 123456789L ]

let shuffle_weak_ba () =
  order_insensitive (fun shuffle_seed ->
      let o =
        Instances.run (module Wp) ~cfg:(cfg 9)
          ~options:{ Instances.default_options with Instances.shuffle_seed }
          ~params:
            {
              (Wp.default_params (cfg 9)) with
              inputs = Array.init 9 (fun i -> Printf.sprintf "x%d" (i mod 3));
            }
          ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1; 2 ] ()))
          ()
      in
      (correct_decisions o, o.Instances.words))

let shuffle_weak_ba_fallback_path () =
  order_insensitive (fun shuffle_seed ->
      let o =
        Instances.run (module Wp) ~cfg:(cfg 9)
          ~options:{ Instances.default_options with Instances.shuffle_seed }
          ~params:(Wp.default_params (cfg 9))
          ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1; 2; 3; 4 ] ()))
          ()
      in
      (correct_decisions o, o.Instances.words))

let shuffle_bb () =
  order_insensitive (fun shuffle_seed ->
      let o =
        Instances.run (module Bp) ~cfg:(cfg 9)
          ~options:{ Instances.default_options with Instances.shuffle_seed }
          ~params:(Bp.default_params (cfg 9))
          ~adversary:(Adversary.const (Adversary.crash ~victims:[ 0 ] ()))
          ()
      in
      (correct_decisions o, o.Instances.words))

let shuffle_equivocating_sender_agreement () =
  (* Under an equivocating sender, the within-slot delivery order may
     legitimately change *which* value wins, but agreement must hold under
     every order. *)
  List.iter
    (fun seed ->
      let o =
        Instances.run (module Bp) ~cfg:(cfg 9)
          ~options:
            { Instances.default_options with Instances.shuffle_seed = Some seed }
          ~params:{ Bp.sender = 0; input = "ignored" }
          ~adversary:
            (Attacks.bb_equivocating_sender ~cfg:(cfg 9) ~sender:0 ~v1:"a" ~v2:"b")
          ()
      in
      ignore
        (Test_util.check_agreement ~pp:Adaptive_bb.pp_decision
           ~equal:Adaptive_bb.equal_decision ~corrupted:o.corrupted o.decisions))
    [ 1L; 2L; 3L; 42L; 1000L ]

let shuffle_strong_ba () =
  order_insensitive (fun shuffle_seed ->
      let o =
        Instances.run (module Sp) ~cfg:(cfg 9)
          ~options:{ Instances.default_options with Instances.shuffle_seed }
          ~params:{ Sp.leader = 0; inputs = Array.init 9 (fun i -> i mod 2 = 0) }
          ~adversary:(Adversary.const (Adversary.crash ~victims:[ 0; 5 ] ()))
          ()
      in
      (correct_decisions o, o.Instances.words))

let () =
  Alcotest.run "ablations & extensions"
    [
      ( "quorum ablation",
        [
          Alcotest.test_case "t+1 quorum: agreement broken" `Quick
            quorum_ablation_breaks_agreement;
          Alcotest.test_case "sound quorum resists same attack" `Quick
            sound_quorum_resists_the_same_attack;
          Alcotest.test_case "small certs rejected at sound quorum" `Quick
            ablation_attack_certificates_rejected;
        ] );
      ( "generalized resilience (§8)",
        [
          Alcotest.test_case "n=11, t=3" `Quick resilience_beyond_optimal;
          Alcotest.test_case "fallback threshold shifts" `Quick
            resilience_fallback_threshold_shifts;
        ] );
      ( "smallest system",
        [ Alcotest.test_case "n = 3, t = 1" `Quick smallest_system ] );
      ( "latency",
        [
          Alcotest.test_case "failure-free latencies" `Quick latency_failure_free;
          Alcotest.test_case "byzantine-leader ladder" `Quick
            latency_grows_with_byzantine_leaders;
          Alcotest.test_case "fallback latency sane" `Quick
            latency_reported_under_fallback;
        ] );
      ( "delivery order",
        [
          Alcotest.test_case "weak BA (phases path)" `Quick shuffle_weak_ba;
          Alcotest.test_case "weak BA (fallback path)" `Quick
            shuffle_weak_ba_fallback_path;
          Alcotest.test_case "BB" `Quick shuffle_bb;
          Alcotest.test_case "strong BA" `Quick shuffle_strong_ba;
          Alcotest.test_case "equivocating sender: agreement per order" `Quick
            shuffle_equivocating_sender_agreement;
        ] );
    ]
