(* The unique-validity predicate framework (paper §3, Definition 3). *)

open Mewc_crypto
open Mewc_core

let setup () = Pki.setup ~seed:21L ~n:9 ()

let always_and_combinators () =
  let odd = Validity.make ~name:"odd" (fun v -> v mod 2 = 1) in
  let small = Validity.make ~name:"small" (fun v -> v < 10) in
  Alcotest.(check bool) "always" true (Validity.validate (Validity.always "any") 42);
  let both = Validity.both odd small in
  Alcotest.(check bool) "both yes" true (Validity.validate both 3);
  Alcotest.(check bool) "both no (even)" false (Validity.validate both 4);
  Alcotest.(check bool) "both no (big)" false (Validity.validate both 11);
  let either = Validity.either odd small in
  Alcotest.(check bool) "either yes (odd big)" true (Validity.validate either 11);
  Alcotest.(check bool) "either yes (even small)" true (Validity.validate either 4);
  Alcotest.(check bool) "either no" false (Validity.validate either 12)

let signed_by_predicate () =
  (* The paper's "a value signed by the sender" example. *)
  let pki, secrets = setup () in
  let encode v = v in
  let p = Validity.signed_by pki ~purpose:"val" ~signer:3 ~encode in
  let sg v = Certificate.share pki secrets.(3) ~purpose:"val" ~payload:v in
  Alcotest.(check bool) "genuine" true (Validity.validate p ("x", sg "x"));
  Alcotest.(check bool) "tampered value" false (Validity.validate p ("y", sg "x"));
  let other = Certificate.share pki secrets.(4) ~purpose:"val" ~payload:"x" in
  Alcotest.(check bool) "wrong signer" false (Validity.validate p ("x", other))

let backed_by_quorum_predicate () =
  (* The paper's §1 example: "a value is valid if it has at least t+1 unique
     signatures, assuring that some correct process knows this value". *)
  let pki, secrets = setup () in
  let encode v = v in
  let k = 5 (* t+1 for n=9 *) in
  let p = Validity.backed_by_quorum pki ~purpose:"init" ~k ~encode in
  let shares v idxs =
    List.map (fun i -> Certificate.share pki secrets.(i) ~purpose:"init" ~payload:v) idxs
  in
  (match Certificate.make pki ~k ~purpose:"init" ~payload:"v" (shares "v" [ 0; 1; 2; 3; 4 ]) with
  | Some qc ->
    Alcotest.(check bool) "quorum-backed" true (Validity.validate p ("v", qc));
    Alcotest.(check bool) "cert for other value" false (Validity.validate p ("w", qc))
  | None -> Alcotest.fail "could not form certificate");
  (* A 4-share certificate (below t+1) must not validate. *)
  match Certificate.make pki ~k:4 ~purpose:"init" ~payload:"v" (shares "v" [ 0; 1; 2; 3 ]) with
  | Some small ->
    Alcotest.(check bool) "sub-quorum rejected" false (Validity.validate p ("v", small))
  | None -> Alcotest.fail "could not form small certificate"

let weak_ba_with_quorum_predicate () =
  (* End-to-end: run weak BA whose predicate is "one of the two whitelisted
     commands" and check the decision honours it under crashes. *)
  let cfg = Mewc_sim.Config.optimal ~n:9 in
  let whitelist = Validity.make ~name:"whitelist" (fun v -> v = "commit" || v = "abort") in
  let o =
    Instances.run (module Instances.Weak_ba_protocol) ~cfg
      ~params:
        {
          Instances.Weak_ba_protocol.inputs =
            Array.init 9 (fun i -> if i mod 2 = 0 then "commit" else "abort");
          validate = Validity.validate whitelist;
          quorum_override = None;
        }
      ~adversary:
        (Mewc_sim.Adversary.const (Mewc_sim.Adversary.crash ~victims:[ 2; 3 ] ()))
      ()
  in
  Array.iteri
    (fun p d ->
      if not (List.mem p o.Instances.corrupted) then
        match d with
        | Some (Instances.Weak_str.Value v) ->
          Alcotest.(check bool) (Printf.sprintf "p%d whitelisted" p) true
            (Validity.validate whitelist v)
        | Some Instances.Weak_str.Bot -> ()
        | None -> Alcotest.failf "p%d undecided" p)
    o.Instances.decisions

let names_describe () =
  let a = Validity.make ~name:"a" (fun _ -> true) in
  let b = Validity.make ~name:"b" (fun _ -> true) in
  Alcotest.(check string) "both" "(a && b)" (Validity.both a b).Validity.name;
  Alcotest.(check string) "either" "(a || b)" (Validity.either a b).Validity.name

let () =
  Alcotest.run "validity"
    [
      ( "predicates",
        [
          Alcotest.test_case "always & combinators" `Quick always_and_combinators;
          Alcotest.test_case "signed-by (paper §3)" `Quick signed_by_predicate;
          Alcotest.test_case "t+1-quorum-backed (paper §1)" `Quick
            backed_by_quorum_predicate;
          Alcotest.test_case "weak BA end-to-end" `Quick weak_ba_with_quorum_predicate;
          Alcotest.test_case "combinator names" `Quick names_describe;
        ] );
    ]
