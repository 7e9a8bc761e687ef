(* Quickstart: broadcast one value with the paper's adaptive Byzantine
   Broadcast and look at what it cost.

     dune exec examples/quickstart.exe

   A system of n = 9 processes tolerates t = 4 Byzantine ones. Process 0
   broadcasts "attack-at-dawn"; we run once failure-free and once with two
   crashed processes, and print decisions and the word complexity — the
   measure this paper is about. *)

open Mewc_sim
open Mewc_core

let describe name (o : _ Instances.agreement_outcome) =
  Printf.printf "%s\n" name;
  Printf.printf "  f = %d (corrupted: %s)\n" o.f
    (if o.corrupted = [] then "none"
     else String.concat ", " (List.map (Printf.sprintf "p%d") o.corrupted));
  Array.iteri
    (fun p d ->
      if not (List.mem p o.corrupted) then
        Printf.printf "  p%d decided %s\n" p
          (match d with
          | Some (Adaptive_bb.Decided v) -> Printf.sprintf "%S" v
          | Some Adaptive_bb.No_decision -> "⊥"
          | None -> "nothing (bug!)"))
    o.decisions;
  Printf.printf "  cost: %d words in %d messages (%d signatures created)\n\n"
    o.words o.messages o.signatures

let () =
  let cfg = Config.optimal ~n:9 in
  Printf.printf "Adaptive Byzantine Broadcast, n = %d, t = %d\n\n" cfg.Config.n
    cfg.Config.t;

  (* Failure-free: one round of sender dissemination, silent vetting, and a
     single weak-BA phase — O(n) words. *)
  let honest = Adversary.const (Adversary.honest ~name:"honest") in
  let bb input = { Instances.Bb_protocol.sender = 0; input } in
  describe "run 1: failure-free"
    (Instances.run (module Instances.Bb_protocol) ~cfg
       ~params:(bb "attack-at-dawn") ~adversary:honest ());

  (* Two crashes: still O(n) — the word count barely moves. That is the
     paper's point: pay for actual failures, not for the worst case. *)
  let crash2 = Adversary.const (Adversary.crash ~victims:[ 3; 7 ] ()) in
  describe "run 2: two crashed processes"
    (Instances.run (module Instances.Bb_protocol) ~cfg
       ~params:(bb "attack-at-dawn") ~adversary:crash2 ());

  (* A Byzantine sender that signs two different values: agreement still
     holds (everyone decides the same thing — possibly ⊥). *)
  let equivocator =
    Attacks.bb_equivocating_sender ~cfg ~sender:0 ~v1:"attack" ~v2:"retreat"
  in
  describe "run 3: equivocating Byzantine sender"
    (Instances.run (module Instances.Bb_protocol) ~cfg ~params:(bb "ignored")
       ~adversary:equivocator ())
