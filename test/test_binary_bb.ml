(* Binary BB: the §5 reduction instantiated with Algorithm 5. *)

open Mewc_sim
open Mewc_core

let cfg = Test_util.cfg

let run ?(sender = 0) ?(adversary = Adversary.const (Adversary.honest ~name:"h"))
    ~n input =
  Instances.run (module Instances.Binary_bb_protocol) ~cfg:(cfg n)
    ~params:{ Instances.Binary_bb_protocol.sender; input } ~adversary ()

let agree ?expect (o : bool Instances.agreement_outcome) =
  let got =
    Test_util.check_agreement ~pp:Format.pp_print_bool ~equal:Bool.equal
      ~corrupted:o.corrupted o.decisions
  in
  (match expect with
  | Some e -> Alcotest.(check bool) "decision" e got
  | None -> ());
  got

let correct_sender () =
  ignore (agree ~expect:true (run ~n:9 true));
  ignore (agree ~expect:false (run ~n:9 false))

let nonzero_sender () =
  let o = run ~n:9 ~sender:4 true in
  ignore (agree ~expect:true o)

let failure_free_linear () =
  let words n = (run ~n true).Instances.words in
  let pts = List.map (fun n -> (float_of_int n, float_of_int (words n))) [ 9; 17; 33; 65 ] in
  let fit = Mewc_prelude.Stats.loglog_fit pts in
  Alcotest.(check bool)
    (Printf.sprintf "exponent %.2f ~ 1" fit.Mewc_prelude.Stats.slope)
    true
    (fit.Mewc_prelude.Stats.slope < 1.2)

let all_fast_when_clean () =
  let o = run ~n:9 true in
  Alcotest.(check int) "all decided fast" 9 o.nonsilent_phases;
  Alcotest.(check int) "no fallback" 0 o.fallback_runs

let crashed_sender_agreement () =
  (* Silent sender: everyone enters the BA with the default bit; agreement
     (and strong unanimity over the defaults) still holds. *)
  let o =
    run ~n:9 ~adversary:(Adversary.const (Adversary.crash ~victims:[ 0 ] ())) true
  in
  ignore (agree ~expect:false o)

let crashes_tolerated () =
  List.iter
    (fun victims ->
      let o =
        run ~n:9
          ~adversary:(Adversary.const (Adversary.crash ~victims ()))
          true
      in
      ignore (agree ~expect:true o))
    [ [ 3 ]; [ 1; 2 ]; [ 1; 2; 3; 4 ] ]

let validity_via_unanimity () =
  (* The §5 reduction argument: correct sender => all correct BA inputs are
     the sender's bit => strong unanimity forces it, even with crashes among
     receivers. *)
  List.iter
    (fun input ->
      let o =
        run ~n:9
          ~adversary:(Adversary.const (Adversary.crash ~victims:[ 2; 7 ] ()))
          input
      in
      ignore (agree ~expect:input o))
    [ true; false ]

let qcheck_binary_bb =
  Test_util.qcheck_case ~count:25 ~name:"binary BB agreement+validity"
    QCheck2.Gen.(
      triple bool (oneofl [ 5; 7; 9 ]) (list_size (int_range 0 4) (int_range 0 8)))
    (fun (input, n, victims) ->
      let c = cfg n in
      let victims =
        List.sort_uniq Int.compare (List.filter (fun v -> v < n) victims)
        |> List.filteri (fun i _ -> i < c.Config.t)
      in
      let o =
        run ~n ~adversary:(Adversary.const (Adversary.crash ~victims ())) input
      in
      let correct =
        Array.to_list o.Instances.decisions
        |> List.mapi (fun p d -> (p, d))
        |> List.filter (fun (p, _) -> not (List.mem p o.Instances.corrupted))
        |> List.map snd
      in
      let sender_correct = not (List.mem 0 victims) in
      List.for_all (fun d -> d <> None) correct
      && List.length (List.sort_uniq compare correct) = 1
      && ((not sender_correct) || List.for_all (fun d -> d = Some input) correct))

let () =
  Alcotest.run "binary BB (§5 reduction over Alg 5)"
    [
      ( "validity",
        [
          Alcotest.test_case "correct sender" `Quick correct_sender;
          Alcotest.test_case "non-zero sender" `Quick nonzero_sender;
          Alcotest.test_case "unanimity argument" `Quick validity_via_unanimity;
        ] );
      ( "fault tolerance",
        [
          Alcotest.test_case "crashed sender" `Quick crashed_sender_agreement;
          Alcotest.test_case "receiver crashes" `Quick crashes_tolerated;
          qcheck_binary_bb;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "all fast when clean" `Quick all_fast_when_clean;
          Alcotest.test_case "failure-free linear" `Slow failure_free_linear;
        ] );
    ]
