(* The headline experiment, interactively: how the word complexity of the
   three protocols responds to the number of actual failures f.

     dune exec examples/adaptive_sweep.exe

   "Make every word count": the adaptive protocols pay O(n(f+1)) — watch the
   cost stay flat while f is small and jump only when f crosses the fallback
   threshold (n-t-1)/2, where the paper's Lemma 6 stops protecting us and
   the quadratic fallback is (affordably) engaged. *)

open Mewc_prelude
open Mewc_sim
open Mewc_core

let crash_first f ~pki ~secrets =
  Adversary.const
    (Adversary.crash ~victims:(List.init f (fun i -> i + 1)) ())
    ~pki ~secrets

let () =
  let n = 21 in
  let cfg = Config.optimal ~n in
  let t = cfg.Config.t in
  let threshold = (n - t - 1) / 2 in
  Printf.printf
    "words vs f at n = %d (t = %d); fallback threshold at f >= %d\n\n" n t
    threshold;
  let table =
    Ascii_table.create ~title:""
      ~headers:[ "f"; "BB words"; "weak BA words"; "strong BA words"; "fallback?" ]
  in
  for f = 0 to t do
    let run (type p s m d) ((module P) : (p, s, m, d) Protocol.t) =
      Instances.run (module P) ~cfg ~params:(P.default_params cfg)
        ~adversary:(crash_first f) ()
    in
    let bb = run (module Instances.Bb_protocol) in
    let weak = run (module Instances.Weak_ba_protocol) in
    let strong = run (module Instances.Strong_ba_protocol) in
    Ascii_table.add_row table
      [
        string_of_int f;
        string_of_int bb.Instances.words;
        string_of_int weak.Instances.words;
        string_of_int strong.Instances.words;
        (if weak.Instances.fallback_runs > 0 then "weak BA fell back"
         else if f > 0 then "strong BA fell back"
         else "no");
      ]
  done;
  Ascii_table.print table;
  Printf.printf
    "\nReading guide: BB and weak BA words stay ~flat until f >= %d; strong\n\
     BA (Algorithm 5) is linear only at f = 0 — any failure breaks its\n\
     n-of-n certificate and costs the quadratic fallback, which is exactly\n\
     the open question the paper closes with \"adaptive strong BA?\".\n"
    threshold
