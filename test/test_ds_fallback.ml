(* The A_fallback black box, instantiated differently: weak BA over the
   Dolev-Strong-based strong BA instead of the echo phase king. The paper's
   construction must not care which fallback it runs on — only the contract
   (agreement, termination, strong unanimity) matters. *)

open Mewc_crypto
open Mewc_sim
open Mewc_core

module Ds_fallback = struct
  include Mewc_baselines.Ds_strong_ba.Make (Value.Str)

  type value = string

  let pp_msg = pp_msg
end

module W = Weak_ba.Make (Value.Str) (Ds_fallback)

let cfg = Test_util.cfg

let run ~n ~victims inputs =
  let c = cfg n in
  let pki, secrets = Pki.setup ~seed:11L ~n () in
  let protocol pid =
    {
      Process.init =
        W.init ~cfg:c ~pki ~secret:secrets.(pid) ~pid ~input:(List.nth inputs pid)
          ~validate:(fun _ -> true) ~start_slot:0 ();
      step = (fun ~slot ~inbox st -> W.step ~slot ~inbox st);
      wake = None;
    }
  in
  let res =
    Engine.run ~cfg:c ~words:W.words ~horizon:(W.horizon c) ~protocol
      ~adversary:(Adversary.crash ~victims ()) ()
  in
  ( Array.map W.decision res.Engine.states,
    res.Engine.corrupted,
    Meter.correct_words res.Engine.meter,
    Array.to_list res.Engine.states
    |> List.filteri (fun p _ -> not (List.mem p res.Engine.corrupted))
    |> List.filter W.fallback_entered |> List.length )

let agree ?expect ~corrupted decisions =
  let got =
    Test_util.check_agreement ~pp:W.pp_outcome ~equal:W.equal_outcome ~corrupted
      decisions
  in
  match expect with
  | Some e ->
    if not (W.equal_outcome got e) then
      Alcotest.failf "decided %s" (Format.asprintf "%a" W.pp_outcome got)
  | None -> ()

let fast_path_unchanged () =
  (* With f = 0 the fallback implementation is irrelevant: same decision and
     same adaptive cost class as with the echo phase king. *)
  let n = 9 in
  let decisions, corrupted, words, fallbacks =
    run ~n ~victims:[] (List.init n (fun _ -> "v"))
  in
  agree ~expect:(W.Value "v") ~corrupted decisions;
  Alcotest.(check int) "no fallback" 0 fallbacks;
  Alcotest.(check bool) (Printf.sprintf "adaptive cost (%d)" words) true (words < 200)

let fallback_path_works () =
  (* f = t forces the fallback: the Dolev-Strong-based black box must carry
     the run to the same unanimous decision. *)
  let n = 9 in
  let decisions, corrupted, _, fallbacks =
    run ~n ~victims:[ 1; 2; 3; 4 ] (List.init n (fun _ -> "v"))
  in
  agree ~expect:(W.Value "v") ~corrupted decisions;
  Alcotest.(check bool) "fallback ran" true (fallbacks > 0)

let fallback_divergent_inputs () =
  let n = 9 in
  let decisions, corrupted, _, _ =
    run ~n ~victims:[ 1; 2; 3; 4 ]
      (List.init n (fun i -> Printf.sprintf "x%d" (i mod 2)))
  in
  agree ~corrupted decisions

let costlier_than_epk () =
  (* The point of the comparison: signature chains make this black box an
     order of magnitude more expensive than the echo phase king. *)
  let n = 9 in
  let _, _, ds_words, _ = run ~n ~victims:[ 1; 2; 3; 4 ] (List.init n (fun _ -> "v")) in
  let epk =
    Instances.run (module Instances.Weak_ba_protocol) ~cfg:(cfg n)
      ~params:(Instances.Weak_ba_protocol.default_params (cfg n))
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1; 2; 3; 4 ] ()))
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "DS fallback %d > EPK fallback %d" ds_words epk.Instances.words)
    true
    (ds_words > epk.Instances.words)

let standalone_unanimity () =
  (* The DS-based BA standalone, including under skewed starts. *)
  let module D = Mewc_baselines.Ds_strong_ba.Make (Value.Str) in
  let n = 7 in
  let c = cfg n in
  let pki, secrets = Pki.setup ~seed:3L ~n () in
  let protocol pid =
    {
      Process.init =
        D.init ~cfg:c ~pki ~secret:secrets.(pid) ~pid ~input:"u"
          ~start_slot:(pid mod 2) ~round_len:2;
      step = (fun ~slot ~inbox st -> D.step ~slot ~inbox st);
      wake = None;
    }
  in
  let res =
    Engine.run ~cfg:c ~words:D.words ~horizon:(D.horizon c ~round_len:2 + 1)
      ~protocol
      ~adversary:(Adversary.crash ~victims:[ 2 ] ()) ()
  in
  Array.iteri
    (fun p st ->
      if not (List.mem p res.Engine.corrupted) then
        match D.decision st with
        | Some v -> Alcotest.(check string) (Printf.sprintf "p%d" p) "u" v
        | None -> Alcotest.failf "p%d undecided" p)
    res.Engine.states

let () =
  Alcotest.run "DS-based A_fallback (black-box swap)"
    [
      ( "weak BA over Dolev-Strong BA",
        [
          Alcotest.test_case "fast path unchanged" `Quick fast_path_unchanged;
          Alcotest.test_case "fallback path works" `Quick fallback_path_works;
          Alcotest.test_case "divergent inputs" `Quick fallback_divergent_inputs;
          Alcotest.test_case "costlier than echo phase king" `Quick costlier_than_epk;
        ] );
      ( "standalone",
        [ Alcotest.test_case "unanimity, skewed starts" `Quick standalone_unanimity ] );
    ]
