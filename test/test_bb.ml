(* Adaptive Byzantine Broadcast (Algorithms 1-2). *)

open Mewc_sim
open Mewc_core

let cfg = Test_util.cfg

let run ?(sender = 0) ?(adversary = Adversary.const (Adversary.honest ~name:"h"))
    ~n input =
  Instances.run (module Instances.Bb_protocol) ~cfg:(cfg n)
    ~params:{ Instances.Bb_protocol.sender; input } ~adversary ()

let agree ?expect (o : _ Instances.agreement_outcome) =
  let got =
    Test_util.check_agreement ~pp:Adaptive_bb.pp_decision
      ~equal:Adaptive_bb.equal_decision ~corrupted:o.corrupted o.decisions
  in
  (match expect with
  | Some e ->
    if not (Adaptive_bb.equal_decision got e) then
      Alcotest.failf "decided %s, expected %s"
        (Format.asprintf "%a" Adaptive_bb.pp_decision got)
        (Format.asprintf "%a" Adaptive_bb.pp_decision e)
  | None -> ());
  got

let correct_sender_validity () =
  (* BB validity: a correct sender's value is the only possible decision. *)
  ignore (agree ~expect:(Adaptive_bb.Decided "hello") (run ~n:9 "hello"))

let correct_sender_with_crashes () =
  List.iter
    (fun victims ->
      let o =
        run ~n:9
          ~adversary:(Adversary.const (Adversary.crash ~victims ()))
          "payload"
      in
      ignore (agree ~expect:(Adaptive_bb.Decided "payload") o))
    [ [ 1 ]; [ 1; 2 ]; [ 1; 2; 3 ]; [ 1; 2; 3; 4 ]; [ 8 ]; [ 2; 5 ] ]

let correct_sender_nonzero () =
  let o = run ~n:9 ~sender:3 "from-p3" in
  ignore (agree ~expect:(Adaptive_bb.Decided "from-p3") o)

let silent_sender_decides_bot () =
  (* A crashed sender never signs anything: the only valid values are idk
     certificates, so everyone decides ⊥ — in agreement. *)
  let o =
    run ~n:9 ~adversary:(Adversary.const (Adversary.crash ~victims:[ 0 ] ())) "x"
  in
  ignore (agree ~expect:Adaptive_bb.No_decision o)

(* [decided_str] builds the bytes [Format.asprintf "%a"
   Adaptive_bb.pp_decision] renders, without a formatter: values with
   quotes, backslashes, control and non-ASCII bytes, and decide(⊥). *)
let decision_strings_match_format () =
  let check label (o : _ Instances.agreement_outcome) =
    Array.iteri
      (fun p d ->
        Alcotest.(check (option string))
          (Printf.sprintf "%s: p%d" label p)
          (Option.map (Format.asprintf "%a" Adaptive_bb.pp_decision) d)
          o.Instances.decided_strs.(p))
      o.Instances.decisions
  in
  List.iter
    (fun v -> check (String.escaped v) (run ~n:5 v))
    [
      "plain"; "a\"quote\""; "back\\slash"; "caf\xc3\xa9 \u{22a5}";
      "tab\tnl\n\001"; "";
    ];
  let o =
    run ~n:5 ~adversary:(Adversary.const (Adversary.crash ~victims:[ 0 ] ())) "x"
  in
  Alcotest.(check bool) "the silent-sender run decides bottom" true
    (Array.exists (( = ) (Some Adaptive_bb.No_decision)) o.Instances.decisions);
  check "bottom" o

let equivocating_sender_agreement () =
  (* Sender signs two values; agreement must hold regardless of which (or ⊥)
     gets decided. *)
  let n = 9 in
  let o =
    run ~n
      ~adversary:(Attacks.bb_equivocating_sender ~cfg:(cfg n) ~sender:0 ~v1:"a" ~v2:"b")
      "ignored"
  in
  let got = agree o in
  Alcotest.(check bool) "one of a/b/⊥" true
    (match got with
    | Adaptive_bb.Decided v -> v = "a" || v = "b"
    | Adaptive_bb.No_decision -> true)

let selective_sender_vetting_spreads () =
  (* The sender hands its signed value to a single process; the vetting
     phases must spread a valid input to everyone (Lemma 11) and agreement
     must hold. *)
  let n = 9 in
  let o =
    run ~n
      ~adversary:
        (Attacks.bb_selective_sender ~cfg:(cfg n) ~sender:0 ~value:"rare"
           ~recipients:[ 3 ])
      "ignored"
  in
  let got = agree o in
  Alcotest.(check bool) "rare or ⊥" true
    (match got with
    | Adaptive_bb.Decided v -> v = "rare"
    | Adaptive_bb.No_decision -> true)

let vetting_silent_when_sender_correct () =
  (* With a correct sender every process adopts in round 1, so all vetting
     phases are silent. *)
  let o = run ~n:9 "v" in
  Alcotest.(check int) "no vetting phases" 0 o.nonsilent_phases

let vetting_one_phase_when_sender_silent () =
  (* With a silent sender, the first vetting phase produces an idk
     certificate that everybody adopts; later correct leaders are silent. *)
  let o =
    run ~n:9 ~adversary:(Adversary.const (Adversary.crash ~victims:[ 0 ] ())) "x"
  in
  Alcotest.(check int) "exactly one vetting phase" 1 o.nonsilent_phases

let adaptive_words_bound () =
  let budget n f = 45 * n * (f + 1) in
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
                "v"
            in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d f=%d words=%d <= %d" n f o.words (budget n f))
              true
              (o.words <= budget n f)
          end)
        [ 0; 1; 3; 6 ])
    [ 13; 21; 41 ]

let bb_valid_predicate () =
  let n = 9 in
  let c = cfg n in
  let pki, secrets = Mewc_crypto.Pki.setup ~seed:3L ~n () in
  let sg =
    Mewc_crypto.Certificate.share pki secrets.(0)
      ~purpose:Adaptive_bb.sender_purpose ~payload:"v"
  in
  let good = Adaptive_bb.Sender_signed { value = "v"; sg } in
  Alcotest.(check bool) "sender-signed valid" true
    (Adaptive_bb.bb_valid ~pki ~cfg:c ~sender:0 good);
  Alcotest.(check bool) "wrong sender invalid" false
    (Adaptive_bb.bb_valid ~pki ~cfg:c ~sender:1 good);
  let wrong_value = Adaptive_bb.Sender_signed { value = "w"; sg } in
  Alcotest.(check bool) "tampered value invalid" false
    (Adaptive_bb.bb_valid ~pki ~cfg:c ~sender:0 wrong_value);
  let idk_shares =
    List.map
      (fun i ->
        Mewc_crypto.Certificate.share pki secrets.(i)
          ~purpose:Adaptive_bb.idk_purpose ~payload:"3")
      [ 0; 1; 2; 3; 4 ]
  in
  match
    Mewc_crypto.Certificate.make pki ~k:(Config.small_quorum c)
      ~purpose:Adaptive_bb.idk_purpose ~payload:"3" idk_shares
  with
  | Some qc ->
    Alcotest.(check bool) "idk cert valid" true
      (Adaptive_bb.bb_valid ~pki ~cfg:c ~sender:0 (Adaptive_bb.Idk_cert qc))
  | None -> Alcotest.fail "could not build idk certificate"

let bb_value_equality () =
  let pki, secrets = Mewc_crypto.Pki.setup ~seed:3L ~n:9 () in
  let sg v = Mewc_crypto.Certificate.share pki secrets.(0) ~purpose:Adaptive_bb.sender_purpose ~payload:v in
  let a = Adaptive_bb.Sender_signed { value = "v"; sg = sg "v" } in
  let b = Adaptive_bb.Sender_signed { value = "v"; sg = sg "v" } in
  Alcotest.(check bool) "same value same identity" true (Adaptive_bb.Bb_value.equal a b);
  let c = Adaptive_bb.Sender_signed { value = "w"; sg = sg "w" } in
  Alcotest.(check bool) "different values differ" false (Adaptive_bb.Bb_value.equal a c)

let fake_idk_certificate_rejected () =
  (* Lemma 10 under attack: the sender is correct, so no t+1 idk quorum can
     exist; a Byzantine vetting leader pushing an under-sized idk
     certificate must be ignored and the sender's value decided. *)
  let n = 9 in
  let byz = [ 1; 2; 3; 4 ] in
  let o =
    run ~n ~adversary:(Attacks.bb_fake_idk_leader ~cfg:(cfg n) ~byz) "genuine"
  in
  ignore (agree ~expect:(Adaptive_bb.Decided "genuine") o)

let qcheck_bb_agreement =
  Test_util.qcheck_case ~count:25 ~name:"BB agreement under random crashes"
    QCheck2.Gen.(
      triple (int_range 0 10_000) (oneofl [ 5; 7; 9 ])
        (list_size (int_range 0 4) (int_range 0 8)))
    (fun (seed, n, victims) ->
      let c = cfg n in
      let victims =
        List.sort_uniq Int.compare (List.filter (fun v -> v < n) victims)
        |> List.filteri (fun i _ -> i < c.Config.t)
      in
      ignore seed;
      let o =
        run ~n ~adversary:(Adversary.const (Adversary.crash ~victims ())) "payload"
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
      && (not sender_correct
         || List.for_all (fun d -> d = Some (Adaptive_bb.Decided "payload")) correct))

let () =
  Alcotest.run "adaptive BB"
    [
      ( "validity",
        [
          Alcotest.test_case "correct sender" `Quick correct_sender_validity;
          Alcotest.test_case "correct sender + crashes" `Quick correct_sender_with_crashes;
          Alcotest.test_case "non-zero sender" `Quick correct_sender_nonzero;
          Alcotest.test_case "BB_valid predicate" `Quick bb_valid_predicate;
          Alcotest.test_case "value identity" `Quick bb_value_equality;
        ] );
      ( "byzantine sender",
        [
          Alcotest.test_case "silent sender -> ⊥" `Quick silent_sender_decides_bot;
          Alcotest.test_case "decision strings match Format" `Quick
            decision_strings_match_format;
          Alcotest.test_case "equivocating sender" `Quick equivocating_sender_agreement;
          Alcotest.test_case "selective sender" `Quick selective_sender_vetting_spreads;
          Alcotest.test_case "fake idk certificate rejected (Lemma 10)" `Quick
            fake_idk_certificate_rejected;
          qcheck_bb_agreement;
        ] );
      ( "adaptivity",
        [
          Alcotest.test_case "vetting silent (correct sender)" `Quick
            vetting_silent_when_sender_correct;
          Alcotest.test_case "one vetting phase (silent sender)" `Quick
            vetting_one_phase_when_sender_silent;
          Alcotest.test_case "words O(n(f+1))" `Slow adaptive_words_bound;
        ] );
    ]
