(* Weak BA (Algorithms 3-4): agreement, termination, unique validity,
   adaptivity, and the help/fallback machinery under the attack zoo. *)

open Mewc_sim
open Mewc_core
module W = Instances.Weak_str

let cfg = Test_util.cfg

let run ?(validate = fun _ -> true)
    ?(adversary = Adversary.const (Adversary.honest ~name:"h")) ~n inputs =
  Instances.run (module Instances.Weak_ba_protocol) ~cfg:(cfg n)
    ~params:
      { Instances.Weak_ba_protocol.inputs = Array.of_list inputs; validate; quorum_override = None }
    ~adversary ()

let agree ?expect (o : _ Instances.agreement_outcome) =
  let got =
    Test_util.check_agreement ~pp:W.pp_outcome ~equal:W.equal_outcome
      ~corrupted:o.corrupted o.decisions
  in
  (match expect with
  | Some e ->
    if not (W.equal_outcome got e) then
      Alcotest.failf "decided %s, expected %s"
        (Format.asprintf "%a" W.pp_outcome got)
        (Format.asprintf "%a" W.pp_outcome e)
  | None -> ());
  got

let unanimous n v = List.init n (fun _ -> v)

let weak_unanimity_failure_free () =
  ignore (agree ~expect:(W.Value "v") (run ~n:9 (unanimous 9 "v")))

let divergent_failure_free () =
  (* Phase 1's correct leader drives its own input through. *)
  let o = run ~n:9 (List.init 9 (fun i -> Printf.sprintf "x%d" i)) in
  ignore (agree ~expect:(W.Value "x1") o)

let crash_below_threshold () =
  (* f < (n-t-1)/2: Lemma 6 says the fallback never runs. n=21, t=10,
     threshold = 5. *)
  let n = 21 in
  for f = 0 to 4 do
    let victims = Test_util.pids_upto f in
    let o =
      run ~n
        ~adversary:(Adversary.const (Adversary.crash ~victims ()))
        (unanimous n "v")
    in
    ignore (agree ~expect:(W.Value "v") o);
    Alcotest.(check int) (Printf.sprintf "no fallback at f=%d" f) 0 o.fallback_runs
  done

let crash_at_t_uses_fallback () =
  let n = 9 in
  let t = 4 in
  let o =
    run ~n
      ~adversary:(Adversary.const (Adversary.crash ~victims:(Test_util.pids_upto t) ()))
      (unanimous n "v")
  in
  ignore (agree ~expect:(W.Value "v") o);
  Alcotest.(check bool) "fallback ran" true (o.fallback_runs > 0);
  Alcotest.(check bool) "everyone undecided asked for help" true
    (o.help_requests > 0)

let nonsilent_phases_bounded () =
  (* §6.1: the number of non-silent phases led by correct processes is at
     most f+1 (in fact 1 when the first correct leader succeeds). *)
  let n = 21 in
  for f = 0 to 4 do
    let o =
      run ~n
        ~adversary:
          (Adversary.const (Adversary.crash ~victims:(Test_util.pids_upto f) ()))
        (unanimous n "v")
    in
    Alcotest.(check bool)
      (Printf.sprintf "f=%d: %d <= f+1" f o.nonsilent_phases)
      true
      (o.nonsilent_phases <= f + 1)
  done

let adaptive_words_bound () =
  (* O(n(f+1)) with an empirical constant, below the fallback threshold. *)
  let budget n f = 40 * n * (f + 1) in
  List.iter
    (fun n ->
      let c = cfg n in
      let threshold = (n - c.Config.t - 1) / 2 in
      List.iter
        (fun f ->
          if f < threshold then begin
            let o =
              run ~n
                ~adversary:
                  (Adversary.const (Adversary.crash ~victims:(Test_util.pids_upto f) ()))
                (unanimous n "v")
            in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d f=%d words=%d <= %d" n f o.words (budget n f))
              true
              (o.words <= budget n f)
          end)
        [ 0; 1; 2; 4; 8 ])
    [ 13; 21; 41 ]

let busy_byz_leaders () =
  (* Byzantine leaders burn phases without finalizing; correct processes
     still decide once a correct leader runs, and words stay O(n(f+1)). *)
  let n = 21 in
  let f = 4 in
  let leaders = Test_util.pids_upto f in
  let o =
    run ~n
      ~adversary:(Attacks.wba_busy_byz_leaders ~cfg:(cfg n) ~leaders)
      (unanimous n "v")
  in
  (* The Byzantine leaders' proposal may legitimately win under the
     accept-all predicate; agreement is what matters. *)
  ignore (agree o);
  Alcotest.(check int) "no fallback" 0 o.fallback_runs;
  Alcotest.(check bool)
    (Printf.sprintf "words %d within O(n(f+1)) budget" o.words)
    true
    (o.words <= 40 * n * (f + 1))

let exclusive_finalizer_rescued_by_next_leader () =
  (* Byzantine phase-1 leader finalizes only for p0; with every other leader
     correct, the very next phase rescues everyone — no help round
     needed. *)
  let n = 9 in
  let o =
    run ~n
      ~adversary:(Attacks.wba_exclusive_finalizer ~cfg:(cfg n) ~leader:1 ~lucky:0)
      (unanimous n "v")
  in
  let got = agree o in
  Alcotest.(check bool) "decided something" true
    (match got with W.Value _ -> true | W.Bot -> false);
  Alcotest.(check int) "no help needed" 0 o.help_requests;
  Alcotest.(check int) "no fallback" 0 o.fallback_runs

let lonely_decider_help_path () =
  (* The paper's §6 scenario: one correct process decides in the phases,
     every other correct process is rescued by the help round — without the
     fallback ever running (Lemma 21's first branch). *)
  let n = 9 in
  let t = 4 in
  let o =
    run ~n
      ~adversary:(Attacks.wba_lonely_decider ~cfg:(cfg n) ~lucky:(t + 1))
      (unanimous n "v")
  in
  let got = agree o in
  Alcotest.(check bool) "decided something" true
    (match got with W.Value _ -> true | W.Bot -> false);
  Alcotest.(check int) "t helpers asked" t o.help_requests;
  Alcotest.(check int) "no fallback" 0 o.fallback_runs

let help_req_spam_answered () =
  (* Byzantine spammers follow the protocol but inject help requests after
     everyone has decided: each correct decided process answers each spam
     request — O(n) words per request, nothing else changes. *)
  let n = 9 in
  let spammers = [ 5; 6; 7; 8 ] in
  let spam k =
    let o =
      run ~n
        ~adversary:
          (Attacks.wba_help_req_spammers ~cfg:(cfg n)
             ~spammers:(List.filteri (fun i _ -> i < k) spammers))
        (unanimous n "v")
    in
    ignore (agree ~expect:(W.Value "v") o);
    Alcotest.(check int) "no fallback" 0 o.fallback_runs;
    o.words
  in
  let w1 = spam 1 and w4 = spam 4 in
  (* 3 extra spammers -> exactly 3 x (n - f) answers of 3 words each, minus
     nothing else: the spam cost is linear in the number of requests. The
     runs have the same correct set (f = 4 in both? no - f = k), so compare
     against analytic bounds instead: each spammer costs (n - k) answers. *)
  Alcotest.(check bool)
    (Printf.sprintf "more spam, more answers (%d < %d)" w1 w4)
    true (w1 < w4)

let late_fallback_cert_window () =
  (* The adversary delivers a privately-assembled fallback certificate to
     one process at the very edge of the acceptance window. Everyone has
     already decided by then (via the help round); agreement must survive
     the lone fallback run. *)
  let n = 9 in
  let o =
    run ~n
      ~adversary:(Attacks.wba_late_fallback_cert ~cfg:(cfg n) ~victim:0)
      (unanimous n "v")
  in
  ignore (agree o);
  Alcotest.(check int) "exactly one lone fallback run" 1 o.fallback_runs;
  Alcotest.(check bool) "help round was used" true (o.help_requests > 0)

let unique_validity_bot () =
  (* The ⊥ case of unique validity: divergent (but valid) correct inputs,
     silent Byzantine processes forcing the fallback, and a Byzantine
     fallback king driving an invalid value through — the weak BA must
     output ⊥, which is legal exactly because >1 valid value exists. *)
  let n = 9 in
  let byz = [ 1; 6; 7; 8 ] in
  let validate v = String.length v = 2 && v.[0] = 'x' in
  let inputs = List.init n (fun i -> Printf.sprintf "x%d" (i mod 4)) in
  let o =
    run ~n ~validate
      ~adversary:(Attacks.wba_invalid_fallback_king ~cfg:(cfg n) ~byz ~evil:"EVIL")
      inputs
  in
  let got = agree o in
  Alcotest.(check bool) "decided ⊥" true (W.equal_outcome got W.Bot)


(* [decided_str] builds the bytes [Format.asprintf "%a" W.pp_outcome]
   renders, without a formatter: values with quotes, backslashes, control
   and non-ASCII bytes, and the ⊥ outcome of unique validity. *)
let decision_strings_match_format () =
  let check label (o : _ Instances.agreement_outcome) =
    Array.iteri
      (fun p d ->
        Alcotest.(check (option string))
          (Printf.sprintf "%s: p%d" label p)
          (Option.map (Format.asprintf "%a" W.pp_outcome) d)
          o.Instances.decided_strs.(p))
      o.Instances.decisions
  in
  List.iter
    (fun v -> check (String.escaped v) (run ~n:5 (unanimous 5 v)))
    [
      "plain"; "a\"quote\""; "back\\slash"; "caf\xc3\xa9 \u{22a5}";
      "tab\tnl\n\001"; "";
    ];
  let n = 9 in
  let o =
    run ~n
      ~validate:(fun v -> String.length v = 2 && v.[0] = 'x')
      ~adversary:
        (Attacks.wba_invalid_fallback_king ~cfg:(cfg n) ~byz:[ 1; 6; 7; 8 ]
           ~evil:"EVIL")
      (List.init n (fun i -> Printf.sprintf "x%d" (i mod 4)))
  in
  Alcotest.(check bool) "the bottom run decides bottom" true
    (Array.exists (( = ) (Some W.Bot)) o.Instances.decisions);
  check "bottom" o

let unique_validity_never_invalid () =
  (* Whatever happens, a correct decision is ⊥ or validates. *)
  let n = 9 in
  let validate v = v <> "EVIL" in
  let byz = [ 1; 6; 7; 8 ] in
  let o =
    run ~n ~validate
      ~adversary:(Attacks.wba_invalid_fallback_king ~cfg:(cfg n) ~byz ~evil:"EVIL")
      (List.init n (fun i -> Printf.sprintf "x%d" i))
  in
  Array.iteri
    (fun p d ->
      if not (List.mem p o.corrupted) then
        match d with
        | Some (W.Value v) ->
          Alcotest.(check bool) (Printf.sprintf "p%d value valid" p) true (validate v)
        | Some W.Bot | None -> ())
    o.decisions

let unanimity_blocks_invalid_king () =
  (* Same attack, but correct inputs are unanimous: input certificates for
     the common value block the unjustified proposal, so the outcome is the
     common value — not ⊥. *)
  let n = 9 in
  let validate v = v <> "EVIL" in
  let byz = [ 1; 6; 7; 8 ] in
  let o =
    run ~n ~validate
      ~adversary:(Attacks.wba_invalid_fallback_king ~cfg:(cfg n) ~byz ~evil:"EVIL")
      (unanimous n "xx")
  in
  ignore (agree ~expect:(W.Value "xx") o)

let restrictive_predicate_respected () =
  (* With a predicate rejecting some inputs... all correct inputs must be
     valid (precondition), and the decision honours the predicate. *)
  let n = 9 in
  let validate v = v = "a" || v = "b" in
  let o =
    run ~n ~validate
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1; 2; 3; 4 ] ()))
      (List.init n (fun i -> if i mod 2 = 0 then "a" else "b"))
  in
  let got = agree o in
  Alcotest.(check bool) "valid or bot" true
    (match got with W.Value v -> validate v | W.Bot -> true)

let decided_in_phase_reported () =
  let n = 9 in
  let pki_probe = run ~n (unanimous n "v") in
  ignore (agree ~expect:(W.Value "v") pki_probe);
  Alcotest.(check bool) "phase 1 decision" true (pki_probe.nonsilent_phases = 1)

let commit_answer_path () =
  (* The Algorithm 4 lines 35-39 path: a busy Byzantine phase-1 leader gets
     its value committed (but never finalized); in phase 2 the correct
     processes answer the new leader with their commit certificate instead
     of voting, the leader re-broadcasts it at the recorded level, and the
     committed value is what gets finalized. *)
  let n = 9 in
  let o =
    run ~n
      ~adversary:(Attacks.wba_busy_byz_leaders ~cfg:(cfg n) ~leaders:[ 1 ])
      (unanimous n "honest-input")
  in
  let got = agree o in
  Alcotest.(check bool) "the committed (Byzantine-proposed) value wins" true
    (W.equal_outcome got (W.Value "byz"));
  Alcotest.(check int) "no fallback" 0 o.fallback_runs;
  Alcotest.(check int) "decided in 2 phases worth of slots" 10 o.latency

let commit_level_monotone () =
  (* Once committed at level l, a correct process ignores lower-level
     commit broadcasts: run two Byzantine busy leaders; the level climbs
     1 -> 2 and the final decision still follows the highest chain. *)
  let n = 9 in
  let o =
    run ~n
      ~adversary:(Attacks.wba_busy_byz_leaders ~cfg:(cfg n) ~leaders:[ 1; 2 ])
      (unanimous n "honest-input")
  in
  ignore (agree o);
  Alcotest.(check int) "three phases of latency" 15 o.latency

let qcheck_agreement_random =
  Test_util.qcheck_case ~count:25
    ~name:"weak BA agreement+termination under random crashes"
    QCheck2.Gen.(
      triple (int_range 0 10_000) (oneofl [ 5; 7; 9; 11 ])
        (list_size (int_range 0 5) (int_range 0 10)))
    (fun (seed, n, victims) ->
      let c = cfg n in
      let victims =
        List.sort_uniq Int.compare (List.filter (fun v -> v < n) victims)
        |> List.filteri (fun i _ -> i < c.Config.t)
      in
      let rng = Mewc_prelude.Rng.create (Int64.of_int (seed + 17)) in
      let inputs =
        List.init n (fun _ -> Printf.sprintf "v%d" (Mewc_prelude.Rng.int rng 3))
      in
      let o =
        run ~n ~adversary:(Adversary.const (Adversary.crash ~victims ())) inputs
      in
      let correct =
        Array.to_list o.Instances.decisions
        |> List.mapi (fun p d -> (p, d))
        |> List.filter (fun (p, _) -> not (List.mem p o.Instances.corrupted))
        |> List.map snd
      in
      List.for_all (fun d -> d <> None) correct
      && List.length (List.sort_uniq compare correct) = 1)

let () =
  Alcotest.run "weak BA"
    [
      ( "validity",
        [
          Alcotest.test_case "weak unanimity (f=0)" `Quick weak_unanimity_failure_free;
          Alcotest.test_case "divergent inputs" `Quick divergent_failure_free;
          Alcotest.test_case "unique validity: ⊥ case" `Quick unique_validity_bot;
          Alcotest.test_case "decision strings match Format" `Quick
            decision_strings_match_format;
          Alcotest.test_case "never decides invalid" `Quick unique_validity_never_invalid;
          Alcotest.test_case "unanimity blocks invalid king" `Quick
            unanimity_blocks_invalid_king;
          Alcotest.test_case "restrictive predicate" `Quick restrictive_predicate_respected;
        ] );
      ( "fault tolerance",
        [
          Alcotest.test_case "f below threshold: no fallback" `Quick crash_below_threshold;
          Alcotest.test_case "f = t: fallback path" `Quick crash_at_t_uses_fallback;
          Alcotest.test_case "exclusive finalizer: next leader rescues" `Quick
            exclusive_finalizer_rescued_by_next_leader;
          Alcotest.test_case "lonely decider: help path" `Quick
            lonely_decider_help_path;
          Alcotest.test_case "help-req spam answered" `Quick help_req_spam_answered;
          Alcotest.test_case "late fallback cert window" `Quick late_fallback_cert_window;
          qcheck_agreement_random;
        ] );
      ( "adaptivity",
        [
          Alcotest.test_case "non-silent phases <= f+1" `Quick nonsilent_phases_bounded;
          Alcotest.test_case "words O(n(f+1))" `Slow adaptive_words_bound;
          Alcotest.test_case "busy byzantine leaders" `Quick busy_byz_leaders;
          Alcotest.test_case "commit-answer path (Alg 4 l.35-39)" `Quick
            commit_answer_path;
          Alcotest.test_case "commit level monotone" `Quick commit_level_monotone;
          Alcotest.test_case "decided in phase 1 when clean" `Quick
            decided_in_phase_reported;
        ] );
    ]
