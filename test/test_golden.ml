(* Byte-identity gates for code shared by every protocol.

   The golden digests pin the mewc-trace/4 JSON and the meter snapshot of
   each of the five protocols at n = 33, f = t, under the crash-first
   adversary, on two inputs: in-order reliable delivery ("crash") and
   shuffled inboxes under a fault plan ("faults"). Each digest must hold
   under both schedulers at one and two shards. The engine differentials
   compare two schedulers against each other, so a change to code both
   schedulers share (meter, certificates, payload strings, message
   printers, the delivery pools) moves both sides at once and slips
   through; it cannot slip past these digests. A deliberate format change
   re-records them and says so.

   The concurrency case runs traced instances from four domains at once and
   byte-compares every trace with a sequential run: nothing module-level
   (formatters, buffers, memo tables) may be shared between domains. *)

open Mewc_prelude
open Mewc_crypto
open Mewc_sim
open Mewc_core

(* The shuffled, faulty input: permuted inboxes plus a plan that delays,
   duplicates, mutes one sender's links to every third process and takes
   another process down for slots [3, 9). It drives the delivery pools,
   the delayed buckets and the down-process paths that the crash input
   leaves untouched. *)
let fault_plan =
  {
    Faults.none with
    seed = 11L;
    delay = 2;
    delay_prob = 0.05;
    dup = 0.05;
    processes =
      [
        (20, Faults.Send_omission { from_ = 2; drop_mod = 3; drop_rem = 0 });
        (25, Faults.Crash_recovery { down_at = 3; up_at = 9 });
      ];
  }

(* (input name, shuffle seed, fault plan). Every input runs under the
   crash-first adversary with f = t. *)
let inputs = [ ("crash", (None, Faults.none)); ("faults", (Some 5L, fault_plan)) ]

(* One traced run: the trace JSON and the meter snapshot JSON, as strings. *)
let traced (type p s m d) ((module P) : (p, s, m, d) Protocol.t) ~scheduler
    ~shards ~input cfg =
  let shuffle_seed, faults = List.assoc input inputs in
  let victims = List.init cfg.Config.t (fun i -> i + 1) in
  let o =
    Instances.run
      (module P)
      ~cfg
      ~options:
        {
          Instances.default_options with
          Instances.record_trace = true;
          shuffle_seed;
          faults;
          scheduler;
          shards;
        }
      ~params:(P.default_params cfg)
      ~adversary:(Adversary.const (Adversary.crash ~victims ()))
      ()
  in
  ( Jsonx.to_string (Option.get o.Instances.trace_json),
    Jsonx.to_string (Meter.snapshot_to_json o.Instances.meter) )

let protocols =
  [
    ("fallback", traced (module Instances.Fallback_protocol));
    ("weak-ba", traced (module Instances.Weak_ba_protocol));
    ("bb", traced (module Instances.Bb_protocol));
    ("binary-bb", traced (module Instances.Binary_bb_protocol));
    ("strong-ba", traced (module Instances.Strong_ba_protocol));
  ]

let hex s = Sha256.to_hex (Sha256.digest s)

(* (protocol, input, SHA-256 of the trace JSON, SHA-256 of the meter JSON). *)
let golden =
  [
    ( "fallback",
      "crash",
      "a114b460f7b8949bec72694105bfee2b06cbbd0e5806ca4908d5fe2f4fff8c04",
      "9e5398da72eb5c0fc2e78a4bb88d8130ce24fbd58cc362d7e2d2d90f0f5c3614" );
    ( "weak-ba",
      "crash",
      "587e41790b2674aa0c53422bb22b4c665d413e96da68e126092ee95c8dd50e26",
      "c726acb59fb4b6f0f1b2840b4a0815d9749c4fbb4b90bba64bac3d606b5764b7" );
    ( "bb",
      "crash",
      "1be444c2f1ed9f5b1f5bde2fb8f5c9ce75ac79cde010e7c618d20ec183ba2204",
      "09b67f0512ebdc20ca7c72a43e16e6765f0b1c54ec89575aee6322e4335aaac4" );
    ( "binary-bb",
      "crash",
      "8a72b17bc1e6b62510d29b05711350d61c2d511dc6ddefeda20a6837f81e0cef",
      "a079e3fe4229bb476dc3d34ad9a746672356f1995fda890c54a8add80b8faba9" );
    ( "strong-ba",
      "crash",
      "1f7192a76e1ce7a78cd66f671360a13640ea24f743204a969cc1f3e7169fe6a5",
      "55158c04b8b710193c336fae265e2a3a850436cb2b6c7de5ebc1993fbb9e229c" );
    ( "fallback",
      "faults",
      "99b7288f7fb84de19058e29bbfef2564ac6d23b8d20c6efe77791a0b40ef4de3",
      "d0d1641a5a7ad0cbc843796902ef2df09d0f7c3084abf5a7ceda69c2f56469f6" );
    ( "weak-ba",
      "faults",
      "1eb1368285f6246909c5a4631ba58b6778c5b61eb1afc64123fdeb7002fd8712",
      "97fd17dfe93b22c20a03aa3fcd161830055feb4ccfbc0420065dd4c9553074b5" );
    ( "bb",
      "faults",
      "8f0b6bb77b6dbff1a53555948f559e2518b6e6aa2e8d51826d3d4f7657727bae",
      "130cb455387d55c90d5736acb23d403d2306ff99ca555cfcfac8dce9a474144a" );
    ( "binary-bb",
      "faults",
      "29e78bc76fdcdf18e6eee2fd2f376783f1f53c3a30fb45b60011c6ccd04b3fb4",
      "dfbf7952997ea9b786562804c02169a620520fc34d9f6f61a0b0015034911027" );
    ( "strong-ba",
      "faults",
      "1dbea3c8a53141dd3868e1e600a235e76f2576476e38f154f698d2bd82b09be1",
      "e0d15fae0bb896f60ccacc832465732ee4478ea20c078cf55ef68039ffdbc4f8" );
  ]

(* (test-name suffix, scheduler, shards): every run must hit the same
   digests. *)
let engines =
  [
    ("", `Legacy, 1);
    (" x2", `Legacy, 2);
    (" event", `Event_driven, 1);
    (" event x2", `Event_driven, 2);
  ]

let test_golden (name, input, trace_hex, meter_hex) ~scheduler ~shards () =
  let trace, meter =
    (List.assoc name protocols) ~scheduler ~shards ~input (Config.optimal ~n:33)
  in
  Alcotest.(check string) "trace digest" trace_hex (hex trace);
  Alcotest.(check string) "meter digest" meter_hex (hex meter)

let test_domains_share_nothing () =
  let cfg = Config.optimal ~n:9 in
  let all () =
    List.map
      (fun (name, run) ->
        (name, run ~scheduler:`Legacy ~shards:1 ~input:"crash" cfg))
      protocols
  in
  let expected = all () in
  let domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> List.init 3 (fun _ -> all ())))
  in
  List.iter
    (fun d ->
      List.iter
        (fun rounds ->
          List.iter2
            (fun (name, (trace, meter)) (_, (trace', meter')) ->
              Alcotest.(check string) (name ^ " trace") trace trace';
              Alcotest.(check string) (name ^ " meter") meter meter')
            expected rounds)
        (Domain.join d))
    domains

let () =
  Alcotest.run "golden"
    [
      ( "golden traces",
        List.concat_map
          (fun (suffix, scheduler, shards) ->
            List.map
              (fun ((name, input, _, _) as entry) ->
                Alcotest.test_case
                  (Printf.sprintf "%s n=33 f=t %s%s" name input suffix)
                  `Quick
                  (test_golden entry ~scheduler ~shards))
              golden)
          engines );
      ( "domain safety",
        [
          Alcotest.test_case "4 domains == sequential" `Quick
            test_domains_share_nothing;
        ] );
    ]
