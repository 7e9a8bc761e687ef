(* Byte-identity gates for code shared by every protocol.

   The golden digests pin the mewc-trace/4 JSON and the meter snapshot of
   each of the five protocols at n = 33, f = t, under the crash-first
   adversary, on the legacy loop and on the event-driven scheduler at one
   and two shards (the configuration the benchmark runs). The engine
   differentials compare two schedulers against each other, so a change to
   code both schedulers share (meter, certificates, payload strings,
   message printers) moves both sides at once and slips through; it cannot
   slip past these digests. A deliberate format change re-records them and
   says so.

   The concurrency case runs traced instances from four domains at once and
   byte-compares every trace with a sequential run: nothing module-level
   (formatters, buffers, memo tables) may be shared between domains. *)

open Mewc_prelude
open Mewc_crypto
open Mewc_sim
open Mewc_core

(* One traced run: the trace JSON and the meter snapshot JSON, as strings. *)
let traced (type p s m d) ((module P) : (p, s, m, d) Protocol.t) ~scheduler
    ~shards cfg =
  let victims = List.init cfg.Config.t (fun i -> i + 1) in
  let o =
    Instances.run
      (module P)
      ~cfg
      ~options:
        {
          Instances.default_options with
          Instances.record_trace = true;
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

(* (protocol, SHA-256 of the trace JSON, SHA-256 of the meter JSON). *)
let golden =
  [
    ( "fallback",
      "a114b460f7b8949bec72694105bfee2b06cbbd0e5806ca4908d5fe2f4fff8c04",
      "9e5398da72eb5c0fc2e78a4bb88d8130ce24fbd58cc362d7e2d2d90f0f5c3614" );
    ( "weak-ba",
      "587e41790b2674aa0c53422bb22b4c665d413e96da68e126092ee95c8dd50e26",
      "c726acb59fb4b6f0f1b2840b4a0815d9749c4fbb4b90bba64bac3d606b5764b7" );
    ( "bb",
      "1be444c2f1ed9f5b1f5bde2fb8f5c9ce75ac79cde010e7c618d20ec183ba2204",
      "09b67f0512ebdc20ca7c72a43e16e6765f0b1c54ec89575aee6322e4335aaac4" );
    ( "binary-bb",
      "8a72b17bc1e6b62510d29b05711350d61c2d511dc6ddefeda20a6837f81e0cef",
      "a079e3fe4229bb476dc3d34ad9a746672356f1995fda890c54a8add80b8faba9" );
    ( "strong-ba",
      "1f7192a76e1ce7a78cd66f671360a13640ea24f743204a969cc1f3e7169fe6a5",
      "55158c04b8b710193c336fae265e2a3a850436cb2b6c7de5ebc1993fbb9e229c" );
  ]

(* (test-name suffix, scheduler, shards): every run must hit the same
   digests. *)
let engines =
  [
    ("", `Legacy, 1);
    (" event", `Event_driven, 1);
    (" event x2", `Event_driven, 2);
  ]

let test_golden name ~scheduler ~shards () =
  let trace_hex, meter_hex =
    match List.find_opt (fun (p, _, _) -> String.equal p name) golden with
    | Some (_, t, m) -> (t, m)
    | None -> Alcotest.failf "no golden digest for %s" name
  in
  let trace, meter =
    (List.assoc name protocols) ~scheduler ~shards (Config.optimal ~n:33)
  in
  Alcotest.(check string) "trace digest" trace_hex (hex trace);
  Alcotest.(check string) "meter digest" meter_hex (hex meter)

let test_domains_share_nothing () =
  let cfg = Config.optimal ~n:9 in
  let all () =
    List.map
      (fun (name, run) -> (name, run ~scheduler:`Legacy ~shards:1 cfg))
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
              (fun (name, _) ->
                Alcotest.test_case
                  (name ^ " n=33 f=t crash" ^ suffix)
                  `Quick
                  (test_golden name ~scheduler ~shards))
              protocols)
          engines );
      ( "domain safety",
        [
          Alcotest.test_case "4 domains == sequential" `Quick
            test_domains_share_nothing;
        ] );
    ]
