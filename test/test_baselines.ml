(* Baselines: Dolev-Strong BB and the naive BB->strong-BA reduction. *)

open Mewc_sim
open Mewc_baselines
module Instances = Mewc_core.Instances

let cfg = Test_util.cfg

let ds_run ?(adversary = Adversary.const (Adversary.honest ~name:"h")) ~n input =
  Instances.run (module Instances.Dolev_strong_protocol) ~cfg:(cfg n)
    ~params:{ Instances.Dolev_strong_protocol.sender = 0; input } ~adversary ()

let naive_run ?(adversary = Adversary.const (Adversary.honest ~name:"h")) ~n input =
  Instances.run (module Instances.Naive_bb_protocol) ~cfg:(cfg n)
    ~params:{ Instances.Naive_bb_protocol.sender = 0; input } ~adversary ()

let ds_agree ~corrupted ?expect decisions =
  let got =
    Test_util.check_agreement ~pp:Dolev_strong.pp_decision
      ~equal:Dolev_strong.equal_decision ~corrupted decisions
  in
  match expect with
  | Some e ->
    if not (Dolev_strong.equal_decision got e) then Alcotest.fail "wrong decision"
  | None -> ()

let ds_correct_sender () =
  let o = ds_run ~n:9 "v" in
  ds_agree ~corrupted:[] ~expect:(Dolev_strong.Decided "v") o.Instances.decisions

let ds_crashed_sender () =
  let o =
    ds_run ~n:9 ~adversary:(Adversary.const (Adversary.crash ~victims:[ 0 ] ())) "v"
  in
  ds_agree ~corrupted:[ 0 ] ~expect:Dolev_strong.No_decision o.Instances.decisions

let ds_crashes_tolerated () =
  let o =
    ds_run ~n:9
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1; 2; 3; 4 ] ()))
      "v"
  in
  ds_agree ~corrupted:[ 1; 2; 3; 4 ] ~expect:(Dolev_strong.Decided "v")
    o.Instances.decisions

let ds_quadratic_even_failure_free () =
  (* The point of the comparison: Dolev-Strong is Θ(n²) words even with
     f = 0, adaptive BB is Θ(n). *)
  let words n = (ds_run ~n "v").Instances.words in
  let pts = List.map (fun n -> (float_of_int n, float_of_int (words n))) [ 9; 17; 33 ] in
  let fit = Mewc_prelude.Stats.loglog_fit pts in
  Alcotest.(check bool)
    (Printf.sprintf "exponent %.2f ~ 2" fit.Mewc_prelude.Stats.slope)
    true
    (fit.Mewc_prelude.Stats.slope > 1.7 && fit.Mewc_prelude.Stats.slope < 2.3)

let ds_equivocating_sender () =
  (* A sender signing two values: everyone must extract both and decide ⊥. *)
  let n = 7 in
  let c = cfg n in
  let adversary ~pki ~secrets =
    Strategies.scripted ~name:"ds-equivocator" ~victims:[ 0 ]
      ~script:(fun ~slot ~pid:_ ~inbox:_ ->
        if slot = 0 then begin
          let chain v =
            [
              Mewc_crypto.Pki.sign pki secrets.(0)
                (Mewc_crypto.Certificate.signed_message
                   ~purpose:Dolev_strong.sender_purpose ~payload:v);
            ]
          in
          List.concat_map
            (fun p ->
              if p = 0 then []
              else if p mod 2 = 0 then
                [ Process.Unicast ({ Dolev_strong.value = "a"; chain = chain "a" }, p) ]
              else [ Process.Unicast ({ Dolev_strong.value = "b"; chain = chain "b" }, p) ])
            (Mewc_prelude.Pid.all ~n)
        end
        else [])
  in
  let o =
    Instances.run (module Instances.Dolev_strong_protocol) ~cfg:c
      ~params:{ Instances.Dolev_strong_protocol.sender = 0; input = "ignored" }
      ~adversary ()
  in
  ds_agree ~corrupted:[ 0 ] ~expect:Dolev_strong.No_decision o.Instances.decisions

let naive_agree ~corrupted ?expect decisions =
  let got =
    Test_util.check_agreement ~pp:Naive_bb.pp_decision ~equal:Naive_bb.equal_decision
      ~corrupted decisions
  in
  match expect with
  | Some e ->
    if not (Naive_bb.equal_decision got e) then Alcotest.fail "wrong decision"
  | None -> ()

let naive_correct_sender () =
  let o = naive_run ~n:9 "v" in
  naive_agree ~corrupted:[] ~expect:(Naive_bb.Decided "v") o.Instances.decisions

let naive_crashed_sender () =
  let o =
    naive_run ~n:9 ~adversary:(Adversary.const (Adversary.crash ~victims:[ 0 ] ())) "v"
  in
  naive_agree ~corrupted:[ 0 ] ~expect:Naive_bb.No_decision o.Instances.decisions

let naive_crashes_tolerated () =
  let o =
    naive_run ~n:9
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 2; 3; 6 ] ()))
      "v"
  in
  naive_agree ~corrupted:[ 2; 3; 6 ] ~expect:(Naive_bb.Decided "v") o.Instances.decisions

let naive_quadratic_failure_free () =
  let words n = (naive_run ~n "v").Instances.words in
  let pts = List.map (fun n -> (float_of_int n, float_of_int (words n))) [ 9; 17; 33 ] in
  let fit = Mewc_prelude.Stats.loglog_fit pts in
  Alcotest.(check bool)
    (Printf.sprintf "exponent %.2f ~ 2" fit.Mewc_prelude.Stats.slope)
    true
    (fit.Mewc_prelude.Stats.slope > 1.6 && fit.Mewc_prelude.Stats.slope < 2.4)

let adaptive_beats_baselines_failure_free () =
  (* The headline: with f = 0, adaptive BB costs a fraction of either
     baseline once n grows. *)
  let n = 33 in
  let adaptive =
    (Instances.run (module Instances.Bb_protocol) ~cfg:(cfg n)
       ~params:(Instances.Bb_protocol.default_params (cfg n))
       ~adversary:(Adversary.const (Adversary.honest ~name:"h")) ())
      .Instances.words
  in
  let ds = (ds_run ~n "v").Instances.words in
  let naive = (naive_run ~n "v").Instances.words in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive %d < ds %d and naive %d" adaptive ds naive)
    true
    (adaptive * 2 < ds && adaptive * 2 < naive)

let () =
  Alcotest.run "baselines"
    [
      ( "dolev-strong",
        [
          Alcotest.test_case "correct sender" `Quick ds_correct_sender;
          Alcotest.test_case "crashed sender -> ⊥" `Quick ds_crashed_sender;
          Alcotest.test_case "t crashes tolerated" `Quick ds_crashes_tolerated;
          Alcotest.test_case "equivocating sender -> ⊥" `Quick ds_equivocating_sender;
          Alcotest.test_case "quadratic when failure-free" `Slow
            ds_quadratic_even_failure_free;
        ] );
      ( "naive reduction",
        [
          Alcotest.test_case "correct sender" `Quick naive_correct_sender;
          Alcotest.test_case "crashed sender -> ⊥" `Quick naive_crashed_sender;
          Alcotest.test_case "crashes tolerated" `Quick naive_crashes_tolerated;
          Alcotest.test_case "quadratic when failure-free" `Slow
            naive_quadratic_failure_free;
        ] );
      ( "comparison",
        [
          Alcotest.test_case "adaptive wins failure-free" `Slow
            adaptive_beats_baselines_failure_free;
        ] );
    ]
