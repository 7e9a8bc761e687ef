(* A_fallback (echo phase king): agreement, termination, strong unanimity,
   resilience to crashes, equivocating kings, and skewed starts. *)

open Mewc_sim
open Mewc_core

let cfg = Test_util.cfg

let run ?(round_len = 1) ?(start_slot = fun _ -> 0)
    ?(adversary = Adversary.const (Adversary.honest ~name:"h")) ~n inputs =
  Instances.run (module Instances.Fallback_protocol) ~cfg:(cfg n)
    ~params:
      { Instances.Fallback_protocol.inputs = Array.of_list inputs; round_len; start_slot }
    ~adversary ()

let agree ?expect (o : _ Instances.agreement_outcome) =
  let got =
    Test_util.check_agreement ~pp:Test_util.pp_str ~equal:String.equal
      ~corrupted:o.corrupted o.decisions
  in
  match expect with
  | Some v -> Alcotest.(check string) "decision" v got
  | None -> ()

let unanimity_failure_free () =
  agree ~expect:"v" (run ~n:7 (List.init 7 (fun _ -> "v")))

let unanimity_under_crashes () =
  (* Kings of the first phases crash; the first correct king must still
     drive the unanimous value. *)
  let o =
    run ~n:7
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1; 2; 3 ] ()))
      (List.init 7 (fun _ -> "v"))
  in
  agree ~expect:"v" o

let divergent_agreement () =
  agree (run ~n:9 (List.init 9 (fun i -> Printf.sprintf "x%d" i)))

let divergent_with_crashes () =
  let o =
    run ~n:9
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1; 2; 3; 4 ] ()))
      (List.init 9 (fun i -> Printf.sprintf "x%d" (i mod 2)))
  in
  agree o

let majority_certified_input_wins () =
  (* t+1 processes propose "m": "m" is popular everywhere, so no other value
     can be certified, and the decision must be "m". *)
  let n = 7 in
  let inputs = List.init n (fun i -> if i < 4 then "m" else Printf.sprintf "y%d" i) in
  agree ~expect:"m" (run ~n inputs)

let adaptive_mid_run_crashes () =
  let o =
    run ~n:9
      ~adversary:(Adversary.const (Adversary.staggered_crash ~victims:[ 1; 2; 3; 4 ] ~every:4))
      (List.init 9 (fun _ -> "v"))
  in
  agree ~expect:"v" o

let equivocating_king_survived () =
  (* King of phase 1 equivocates; the echo round must prevent any
     certification in phase 1 and a later king decides. All inputs distinct
     so unjustified proposals are acceptable (worst case for the attack). *)
  let n = 7 in
  let o =
    run ~n
      ~adversary:(Attacks.epk_equivocating_king ~cfg:(cfg n) ~king:1 ~v1:"a" ~v2:"b")
      (List.init n (fun i -> Printf.sprintf "x%d" i))
  in
  let got =
    Test_util.check_agreement ~pp:Test_util.pp_str ~equal:String.equal
      ~corrupted:o.corrupted o.decisions
  in
  (* Phase 1 must not have decided either of the king's split values
     because no correct process may vote when it sees two proposals. It can
     still decide "a" or "b" later via an honest king whose input they are
     not — here inputs are x0..x6, so neither. *)
  Alcotest.(check bool) "not a Byzantine value" false (got = "a" || got = "b")

let unanimity_beats_byzantine_king () =
  (* All correct processes propose "v"; the Byzantine king pushes "w".
     Strong unanimity must hold: input certificates for "v" make "w"
     unvotable. *)
  let n = 7 in
  let o =
    run ~n
      ~adversary:(Attacks.epk_equivocating_king ~cfg:(cfg n) ~king:1 ~v1:"w" ~v2:"w")
      (List.init n (fun _ -> "v"))
  in
  agree ~expect:"v" o

let skewed_starts () =
  (* round_len = 2 tolerates a one-slot start skew (paper Lemma 18). *)
  let n = 7 in
  let o =
    run ~n ~round_len:2
      ~start_slot:(fun pid -> if pid mod 2 = 0 then 0 else 1)
      (List.init n (fun i -> Printf.sprintf "x%d" (i mod 2)))
  in
  agree o

let skewed_starts_with_crashes () =
  let n = 9 in
  let o =
    run ~n ~round_len:2
      ~start_slot:(fun pid -> pid mod 2)
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1; 2 ] ()))
      (List.init n (fun _ -> "v"))
  in
  agree ~expect:"v" o

let quiescence_after_decision () =
  (* Once everyone decides, later phases are silent: a run that decides in
     phase 1 must cost strictly less than the same run forced to phase 3 by
     crashing the first two kings, and neither grows with the number of
     remaining phases. *)
  let n = 9 in
  (* Both runs crash two processes, so the correct sets have equal size;
     only the crashed pids differ: non-kings (decision in phase 1) vs the
     first two kings (decision in phase 3). *)
  let fast =
    run ~n
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 7; 8 ] ()))
      (List.init n (fun _ -> "v"))
  in
  let slow =
    run ~n
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1; 2 ] ()))
      (List.init n (fun _ -> "v"))
  in
  Alcotest.(check bool)
    (Printf.sprintf "phase-1 run (%d) cheaper than phase-3 run (%d)" fast.words
       slow.words)
    true
    (fast.words < slow.words);
  (* And even the slow run stays far below (t+1) fully-active phases. *)
  Alcotest.(check bool)
    (Printf.sprintf "slow run %d below 4 phases worth" slow.words)
    true
    (slow.words < 4 * (3 * n * n))

let words_scale_quadratically () =
  let words_for n = (run ~n (List.init n (fun _ -> "v"))).Instances.words in
  let pts =
    List.map (fun n -> (float_of_int n, float_of_int (words_for n))) [ 9; 17; 33; 65 ]
  in
  let fit = Mewc_prelude.Stats.loglog_fit pts in
  Alcotest.(check bool)
    (Printf.sprintf "exponent %.2f in [1.6, 2.4]" fit.Mewc_prelude.Stats.slope)
    true
    (fit.Mewc_prelude.Stats.slope > 1.6 && fit.Mewc_prelude.Stats.slope < 2.4)

let lock_carryover () =
  (* The cross-phase safety mechanism in isolation: phase 1's Byzantine king
     certifies its value but shows the certificate to a single correct
     process; that process's lock must steer phase 2 (correct king) to the
     same value. *)
  let n = 7 in
  let o =
    run ~n
      ~adversary:(Attacks.epk_lock_carryover_king ~cfg:(cfg n) ~target:0)
      (List.init n (fun i -> Printf.sprintf "x%d" i))
  in
  agree ~expect:"king-value" o

let trace_shows_quiescence () =
  (* Hard quiescence check via the trace: after the slot at which the last
     correct process decided (plus one slot for the one-shot Decided
     announcements), correct processes send nothing at all. *)
  let module E = Instances.Epk_str in
  let n = 9 in
  let c = cfg n in
  let pki, secrets = Mewc_crypto.Pki.setup ~seed:5L ~n () in
  let protocol pid =
    {
      Process.init =
        E.init ~cfg:c ~pki ~secret:secrets.(pid) ~pid ~input:"v" ~start_slot:0
          ~round_len:1;
      step = (fun ~slot ~inbox st -> E.step ~slot ~inbox st);
      wake = None;
    }
  in
  let res =
    Engine.run ~cfg:c
      ~options:{ Engine.default_options with record_trace = true }
      ~words:E.words ~horizon:(E.horizon c ~round_len:1) ~protocol
      ~adversary:(Adversary.honest ~name:"h") ()
  in
  let last_decision =
    Array.to_list res.Engine.states
    |> List.filter_map E.decided_at
    |> List.fold_left max 0
  in
  let late_correct_sends =
    Trace.sends res.Engine.trace
    |> List.filter (fun s ->
           (not s.Trace.byzantine_sender)
           && s.Trace.envelope.Envelope.sent_at > last_decision + 1)
  in
  Alcotest.(check int)
    (Printf.sprintf "no correct traffic after slot %d" (last_decision + 1))
    0
    (List.length late_correct_sends);
  Alcotest.(check bool) "everyone decided" true
    (Array.for_all (fun st -> E.decision st <> None) res.Engine.states)

let qcheck_agreement_random_crashes =
  Test_util.qcheck_case ~count:40 ~name:"agreement under random inputs+crashes"
    QCheck2.Gen.(
      triple (int_range 0 1000) (oneofl [ 5; 7; 9 ]) (list_size (int_range 0 4) (int_range 0 8)))
    (fun (seed, n, victims) ->
      let c = cfg n in
      let t = c.Config.t in
      let victims =
        List.sort_uniq Int.compare (List.filter (fun v -> v < n) victims)
        |> List.filteri (fun i _ -> i < t)
      in
      let rng = Mewc_prelude.Rng.create (Int64.of_int (seed + 1)) in
      let inputs =
        List.init n (fun _ -> Printf.sprintf "v%d" (Mewc_prelude.Rng.int rng 3))
      in
      let o =
        run ~n ~adversary:(Adversary.const (Adversary.crash ~victims ())) inputs
      in
      let decided =
        Array.to_list o.Instances.decisions
        |> List.mapi (fun p d -> (p, d))
        |> List.filter (fun (p, _) -> not (List.mem p o.Instances.corrupted))
        |> List.map snd
      in
      List.for_all (fun d -> d <> None) decided
      && List.sort_uniq compare decided |> List.length = 1)

let () =
  Alcotest.run "fallback (echo phase king)"
    [
      ( "strong unanimity",
        [
          Alcotest.test_case "failure free" `Quick unanimity_failure_free;
          Alcotest.test_case "under crashes" `Quick unanimity_under_crashes;
          Alcotest.test_case "beats byzantine king" `Quick unanimity_beats_byzantine_king;
          Alcotest.test_case "majority-certified input wins" `Quick
            majority_certified_input_wins;
        ] );
      ( "agreement & termination",
        [
          Alcotest.test_case "divergent inputs" `Quick divergent_agreement;
          Alcotest.test_case "divergent + crashes" `Quick divergent_with_crashes;
          Alcotest.test_case "adaptive mid-run crashes" `Quick adaptive_mid_run_crashes;
          Alcotest.test_case "equivocating king" `Quick equivocating_king_survived;
          Alcotest.test_case "lock carry-over across phases" `Quick lock_carryover;
          qcheck_agreement_random_crashes;
        ] );
      ( "timing",
        [
          Alcotest.test_case "skewed starts (2δ rounds)" `Quick skewed_starts;
          Alcotest.test_case "skewed starts + crashes" `Quick skewed_starts_with_crashes;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "quiescence after decision" `Quick quiescence_after_decision;
          Alcotest.test_case "trace-level quiescence" `Quick trace_shows_quiescence;
          Alcotest.test_case "quadratic scaling" `Slow words_scale_quadratically;
        ] );
    ]
