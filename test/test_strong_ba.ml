(* Strong BA, failure-free linear (Algorithm 5). *)

open Mewc_sim
open Mewc_core

let cfg = Test_util.cfg

let run ?(leader = 0) ?(adversary = Adversary.const (Adversary.honest ~name:"h"))
    ~n inputs =
  Instances.run (module Instances.Strong_ba_protocol) ~cfg:(cfg n)
    ~params:{ Instances.Strong_ba_protocol.leader; inputs = Array.of_list inputs }
    ~adversary ()

let agree ?expect (o : bool Instances.agreement_outcome) =
  let got =
    Test_util.check_agreement ~pp:Format.pp_print_bool ~equal:Bool.equal
      ~corrupted:o.corrupted o.decisions
  in
  (match expect with
  | Some e -> Alcotest.(check bool) "decision" e got
  | None -> ());
  got

let strong_unanimity_ff () =
  ignore (agree ~expect:true (run ~n:9 (List.init 9 (fun _ -> true))));
  ignore (agree ~expect:false (run ~n:9 (List.init 9 (fun _ -> false))))

let mixed_inputs_ff () =
  (* Binary + n = 2t+1: some value always has t+1 proposals. *)
  let o = run ~n:9 (List.init 9 (fun i -> i mod 2 = 0)) in
  ignore (agree ~expect:true o) (* 5 of 9 propose true *)

let failure_free_no_fallback () =
  (* Lemma 8. *)
  let o = run ~n:9 (List.init 9 (fun _ -> true)) in
  Alcotest.(check int) "no fallback" 0 o.fallback_runs;
  Alcotest.(check int) "all fast" 9 o.nonsilent_phases

let failure_free_linear_words () =
  (* O(n) words: the words/n ratio stays within a narrow constant band. *)
  let ratio n =
    let o = run ~n (List.init n (fun _ -> true)) in
    float_of_int o.Instances.words /. float_of_int n
  in
  let ratios = List.map ratio [ 9; 17; 33; 65 ] in
  let lo = Mewc_prelude.Stats.minimum ratios in
  let hi = Mewc_prelude.Stats.maximum ratios in
  Alcotest.(check bool)
    (Printf.sprintf "ratio band [%.1f, %.1f] narrow" lo hi)
    true
    (hi /. lo < 1.3)

let strong_unanimity_with_faults () =
  (* Any crash breaks the n-of-n decide certificate, forcing the fallback;
     strong unanimity must survive. *)
  List.iter
    (fun victims ->
      let o =
        run ~n:9
          ~adversary:(Adversary.const (Adversary.crash ~victims ()))
          (List.init 9 (fun _ -> true))
      in
      ignore (agree ~expect:true o);
      Alcotest.(check bool) "fallback ran" true (o.fallback_runs > 0))
    [ [ 8 ]; [ 0 ]; [ 1; 2 ]; [ 1; 2; 3; 4 ] ]

let leader_crash_agreement () =
  let o =
    run ~n:9
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 0 ] ()))
      (List.init 9 (fun i -> i mod 2 = 0))
  in
  ignore (agree o)

let mid_run_crash () =
  (* Crash after the propose round: the decide certificate cannot form. *)
  let o =
    run ~n:9
      ~adversary:(Adversary.const (Adversary.crash ~at:3 ~victims:[ 4 ] ()))
      (List.init 9 (fun _ -> false))
  in
  ignore (agree ~expect:false o)

let withholding_leader_reconciled () =
  (* The leader reveals the signed-by-all certificate to p3 alone: p3
     decides fast, everyone else falls back; the 2δ adoption window must
     reconcile them on the same value (Lemma 26). *)
  let n = 9 in
  let o =
    run ~n
      ~adversary:(Attacks.sba_withholding_leader ~cfg:(cfg n) ~leader:0 ~lucky:3)
      (List.init n (fun _ -> true))
  in
  ignore (agree ~expect:true o);
  Alcotest.(check bool) "one fast decider" true (o.nonsilent_phases = 1);
  Alcotest.(check bool) "others fell back" true (o.fallback_runs >= 1)

let non_unanimous_with_faults () =
  let o =
    run ~n:9
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 2; 5 ] ()))
      (List.init 9 (fun i -> i < 5))
  in
  ignore (agree o)

let qcheck_sba_agreement =
  Test_util.qcheck_case ~count:25 ~name:"strong BA agreement under random runs"
    QCheck2.Gen.(
      triple (int_range 0 10_000) (oneofl [ 5; 7; 9 ])
        (pair (list_size (int_range 0 4) (int_range 0 8)) (list_size (int_range 5 11) bool)))
    (fun (_seed, n, (victims, bits)) ->
      let c = cfg n in
      let victims =
        List.sort_uniq Int.compare (List.filter (fun v -> v < n) victims)
        |> List.filteri (fun i _ -> i < c.Config.t)
      in
      let inputs = List.init n (fun i -> List.nth_opt bits (i mod List.length bits) = Some true) in
      let o =
        run ~n ~adversary:(Adversary.const (Adversary.crash ~victims ())) inputs
      in
      let correct =
        Array.to_list o.Instances.decisions
        |> List.mapi (fun p d -> (p, d))
        |> List.filter (fun (p, _) -> not (List.mem p o.Instances.corrupted))
        |> List.map snd
      in
      let unanimous v =
        List.for_all2
          (fun inp p -> (not p) || inp = v)
          inputs
          (List.init n (fun p -> not (List.mem p victims)))
      in
      List.for_all (fun d -> d <> None) correct
      && List.length (List.sort_uniq compare correct) = 1
      && (not (unanimous true) || correct = List.map (fun _ -> Some true) correct)
      && (not (unanimous false) || correct = List.map (fun _ -> Some false) correct))

let () =
  Alcotest.run "strong BA (failure-free linear)"
    [
      ( "failure free",
        [
          Alcotest.test_case "strong unanimity" `Quick strong_unanimity_ff;
          Alcotest.test_case "mixed inputs" `Quick mixed_inputs_ff;
          Alcotest.test_case "no fallback (Lemma 8)" `Quick failure_free_no_fallback;
          Alcotest.test_case "linear words" `Slow failure_free_linear_words;
        ] );
      ( "with faults",
        [
          Alcotest.test_case "unanimity + crashes" `Quick strong_unanimity_with_faults;
          Alcotest.test_case "leader crash" `Quick leader_crash_agreement;
          Alcotest.test_case "mid-run crash" `Quick mid_run_crash;
          Alcotest.test_case "withholding leader (Lemma 26)" `Quick
            withholding_leader_reconciled;
          Alcotest.test_case "non-unanimous + crashes" `Quick non_unanimous_with_faults;
          qcheck_sba_agreement;
        ] );
    ]
