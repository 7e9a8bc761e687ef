(* The wire layer in isolation: the codec's typed-error totality and
   canonicity laws (unit cases, the zoo fuzz battery, and QCheck round-trip
   / adversarial-bytes / mutation properties), the encoded-size-vs-meter
   reconciliation, the pipe transport's framing and resync, and the stall
   watchdog on a fake clock. The cross-runtime differential gate lives in
   test_wire_diff. *)

open Mewc_prelude
open Mewc_core
module Codec = Mewc_wire.Codec
module Clock = Mewc_wire.Clock
module Transport = Mewc_wire.Transport
module Runtime = Mewc_wire.Runtime
module Zoo = Mewc_wire.Zoo

let pp_res ppf = function
  | Ok _ -> Format.pp_print_string ppf "Ok _"
  | Error e -> Codec.pp_error ppf e

let check_err what expected got =
  match got with
  | Error e when e = expected -> ()
  | r -> Alcotest.failf "%s: expected %s, got %a" what (Codec.error_to_string expected) pp_res r

(* ---- typed decode errors ------------------------------------------------ *)

let typed_errors () =
  check_err "empty vint" Codec.Truncated (Codec.decode Codec.vint_c "");
  check_err "cut vint" Codec.Truncated (Codec.decode Codec.vint_c "\x80");
  check_err "non-minimal vint" Codec.Overlong (Codec.decode Codec.vint_c "\x80\x00");
  check_err "bool tag 2"
    (Codec.Bad_tag { what = "bool"; tag = 2 })
    (Codec.decode Codec.bool_c "\x02");
  check_err "trailing byte"
    (Codec.Trailing { left = 1 })
    (Codec.decode Codec.vint_c "\x05\x00");
  (match Codec.decode (Codec.str_c ~max:4) "\x05hello" with
  | Error (Codec.Bad_length _) -> ()
  | r -> Alcotest.failf "oversized string: got %a" pp_res r);
  (* canonical values survive *)
  (match Codec.decode Codec.vint_c (Codec.encode Codec.vint_c 300) with
  | Ok 300 -> ()
  | r -> Alcotest.failf "vint round-trip: got %a" pp_res r)

let frame_errors () =
  let f =
    { Codec.kind = Codec.Msg; src = 1; dst = 2; slot = 7; seq = 3; payload = "hello" }
  in
  let e = Codec.encode_frame f in
  (match Codec.decode_frame e with
  | Ok f' when f' = f -> ()
  | r -> Alcotest.failf "frame round-trip: got %a" pp_res r);
  (* corrupting the digest is detected *)
  let corrupt = Bytes.of_string e in
  let last = Bytes.length corrupt - 1 in
  Bytes.set corrupt last (Char.chr (Char.code (Bytes.get corrupt last) lxor 1));
  check_err "bad digest" Codec.Bad_digest (Codec.decode_frame (Bytes.to_string corrupt));
  (* corrupting the payload is detected *)
  let corrupt = Bytes.of_string e in
  Bytes.set corrupt 8 (Char.chr (Char.code (Bytes.get corrupt 8) lxor 0x40));
  (match Codec.decode_frame (Bytes.to_string corrupt) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "payload corruption went undetected");
  (* every proper prefix is Truncated, never a raise *)
  for k = 0 to String.length e - 1 do
    match Codec.decode_frame (String.sub e 0 k) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "prefix of length %d decoded" k
  done

let scan_resync () =
  let frame i payload =
    { Codec.kind = Codec.Msg; src = i; dst = 0; slot = i; seq = i; payload }
  in
  let f1 = frame 1 "aaa" and f2 = frame 2 "bbb" and f3 = frame 3 "ccc" in
  let e2 = Bytes.of_string (Codec.encode_frame f2) in
  (* corrupt f2's digest: parse fails at its magic, scan must skip past it
     and still deliver f3 *)
  let last = Bytes.length e2 - 1 in
  Bytes.set e2 last (Char.chr (Char.code (Bytes.get e2 last) lxor 1));
  let stream =
    Codec.encode_frame f1 ^ Bytes.to_string e2 ^ Codec.encode_frame f3
  in
  let rec drive start frames rejects =
    match Codec.scan stream ~start with
    | `Frame (f, next) -> drive next (f :: frames) rejects
    | `Skip (next, _) -> drive next frames (rejects + 1)
    | `Need_more _ -> (List.rev frames, rejects)
  in
  let frames, rejects = drive 0 [] 0 in
  Alcotest.(check int) "one rejection" 1 rejects;
  match frames with
  | [ a; b ] when a = f1 && b = f3 -> ()
  | fs -> Alcotest.failf "recovered %d frames, wanted f1 and f3" (List.length fs)

let fuzz_battery () =
  match Zoo.fuzz_codec ~count:150 ~seed:20260807L with
  | Ok cases -> if cases < 1000 then Alcotest.failf "suspiciously few cases: %d" cases
  | Error e -> Alcotest.fail e

(* ---- QCheck properties -------------------------------------------------- *)

type rt = Rt : string * 'a Codec.t * (Rng.t -> 'a) -> rt

let round_trips =
  [
    Rt ("sig", Codec.sig_c, Zoo.Gen.sig_);
    Rt ("tsig", Codec.tsig_c, Zoo.Gen.tsig);
    Rt ("cert", Codec.cert_c, Zoo.Gen.cert);
    Rt ("epk-str", Zoo.epk_str_msg, Zoo.Gen.epk_str);
    Rt ("epk-bool", Zoo.epk_bool_msg, Zoo.Gen.epk_bool);
    Rt ("weak-ba", Zoo.weak_str_msg, Zoo.Gen.weak_str);
    Rt ("adaptive-bb", Zoo.adaptive_bb_msg, Zoo.Gen.adaptive);
    Rt ("binary-bb", Zoo.binary_bb_msg, Zoo.Gen.binary);
    Rt ("strong-ba", Zoo.strong_bool_msg, Zoo.Gen.strong);
  ]

let prop_round_trip =
  Test_util.qcheck_case ~count:300
    ~name:"codec: decode ∘ encode = id, re-encoding byte-identical"
    QCheck2.Gen.int
    (fun s ->
      let g = Rng.create (Int64.of_int s) in
      List.for_all
        (fun (Rt (name, c, gen)) ->
          let m = gen g in
          let e = Codec.encode c m in
          match Codec.decode c e with
          | Error err ->
            QCheck2.Test.fail_reportf "%s rejects its own encoding: %s" name
              (Codec.error_to_string err)
          | Ok m' ->
            String.equal (Codec.encode c m') e
            || QCheck2.Test.fail_reportf "%s re-encodes differently" name)
        round_trips)

let prop_adversarial_bytes =
  Test_util.qcheck_case ~count:300
    ~name:"codec: random bytes never raise; any decode is canonical"
    QCheck2.Gen.(pair int (int_bound 4096))
    (fun (s, len) ->
      let g = Rng.create (Int64.of_int s) in
      let input = String.init len (fun _ -> Char.chr (Rng.int g 256)) in
      List.for_all
        (fun (Rt (name, c, _)) ->
          match Codec.decode c input with
          | exception e ->
            QCheck2.Test.fail_reportf "%s raised %s" name (Printexc.to_string e)
          | Error _ -> true
          | Ok v ->
            String.equal (Codec.encode c v) input
            || QCheck2.Test.fail_reportf "%s accepted a non-canonical spelling"
                 name)
        round_trips
      &&
      match Codec.decode_frame input with
      | exception e ->
        QCheck2.Test.fail_reportf "frame raised %s" (Printexc.to_string e)
      | Ok _ | Error _ -> true)

let prop_mutations =
  Test_util.qcheck_case ~count:300
    ~name:"codec: single-byte mutations of valid encodings stay total"
    QCheck2.Gen.int
    (fun s ->
      let g = Rng.create (Int64.of_int s) in
      List.for_all
        (fun (Rt (name, c, gen)) ->
          let e = Bytes.of_string (Codec.encode c (gen g)) in
          if Bytes.length e = 0 then true
          else begin
            let i = Rng.int g (Bytes.length e) in
            Bytes.set e i
              (Char.chr (Char.code (Bytes.get e i) lxor (1 lsl Rng.int g 8)));
            let mutated = Bytes.to_string e in
            match Codec.decode c mutated with
            | exception ex ->
              QCheck2.Test.fail_reportf "%s raised on mutation: %s" name
                (Printexc.to_string ex)
            | Error _ -> true
            | Ok v ->
              (* a mutation may land on another valid message, but then the
                 mutated bytes are its one canonical spelling *)
              String.equal (Codec.encode c v) mutated
              || QCheck2.Test.fail_reportf
                   "%s decoded a mutation non-canonically" name
          end)
        round_trips)

type sized = Sized : string * 'a Codec.t * (Rng.t -> 'a) * ('a -> int) -> sized

let sized_msgs =
  [
    Sized ("epk-str", Zoo.epk_str_msg, Zoo.Gen.epk_str, Instances.Epk_str.words);
    Sized
      ("epk-bool", Zoo.epk_bool_msg, Zoo.Gen.epk_bool, Instances.Epk_bool.words);
    Sized
      ("weak-ba", Zoo.weak_str_msg, Zoo.Gen.weak_str, Instances.Weak_str.words);
    Sized ("adaptive-bb", Zoo.adaptive_bb_msg, Zoo.Gen.adaptive, Adaptive_bb.words);
    Sized
      ( "binary-bb",
        Zoo.binary_bb_msg,
        Zoo.Gen.binary,
        Instances.Binary_bb_bool.words );
    Sized
      ("strong-ba", Zoo.strong_bool_msg, Zoo.Gen.strong, Instances.Strong_bool.words)
  ]

let prop_size_vs_words =
  Test_util.qcheck_case ~count:300
    ~name:"codec: encoded size reconciles with the meter's word charge"
    QCheck2.Gen.int
    (fun s ->
      let g = Rng.create (Int64.of_int s) in
      List.for_all
        (fun (Sized (name, c, gen, words)) ->
          let m = gen g in
          let w = words m in
          let enc = Codec.words_of_bytes (Codec.encoded_size c m) in
          (* the wire spends real bytes on what the model idealizes away
             (explicit signer sets, tags, lengths): a constant factor plus
             framing slack, never more *)
          (enc >= 1 && enc <= (3 * w) + 2)
          || QCheck2.Test.fail_reportf "%s: %d metered words, %d encoded words"
               name w enc)
        sized_msgs)

(* ---- transport ---------------------------------------------------------- *)

let transport_basic () =
  let hub = Transport.create ~n:2 in
  let ep0 = Transport.endpoint hub ~pid:0 in
  let ep1 = Transport.endpoint hub ~pid:1 in
  let clock = Clock.real in
  let deadline () = clock.Clock.now () +. 2.0 in
  let f = { Codec.kind = Codec.Msg; src = 0; dst = 1; slot = 0; seq = 0; payload = "hi" } in
  (match Transport.send ep0 ~clock ~deadline:(deadline ()) ~dst:1 (Codec.encode_frame f) with
  | `Sent _ -> ()
  | `Timeout -> Alcotest.fail "send timed out on an empty pipe");
  (match Transport.recv ep1 ~clock ~deadline:(deadline ()) with
  | `Frame f' when f' = f -> ()
  | `Frame _ -> Alcotest.fail "frame mangled in transit"
  | `Rejected e -> Alcotest.failf "rejected: %s" (Codec.error_to_string e)
  | `Timeout -> Alcotest.fail "recv timed out");
  (* an empty inbox times out rather than blocking forever *)
  (match Transport.recv ep1 ~clock ~deadline:(clock.Clock.now () +. 0.05) with
  | `Timeout -> ()
  | _ -> Alcotest.fail "expected a timeout on an empty inbox");
  Transport.close hub

let transport_resync () =
  let hub = Transport.create ~n:2 in
  let ep0 = Transport.endpoint hub ~pid:0 in
  let ep1 = Transport.endpoint hub ~pid:1 in
  let clock = Clock.real in
  let deadline () = clock.Clock.now () +. 2.0 in
  let f = { Codec.kind = Codec.Msg; src = 0; dst = 1; slot = 1; seq = 0; payload = "ok" } in
  let good = Codec.encode_frame f in
  let corrupt = Bytes.of_string good in
  Bytes.set corrupt (Bytes.length corrupt - 1)
    (Char.chr (Char.code (Bytes.get corrupt (Bytes.length corrupt - 1)) lxor 1));
  ignore (Transport.send ep0 ~clock ~deadline:(deadline ()) ~dst:1 (Bytes.to_string corrupt));
  ignore (Transport.send ep0 ~clock ~deadline:(deadline ()) ~dst:1 good);
  (match Transport.recv ep1 ~clock ~deadline:(deadline ()) with
  | `Rejected _ -> ()
  | _ -> Alcotest.fail "corrupted frame was not rejected");
  (match Transport.recv ep1 ~clock ~deadline:(deadline ()) with
  | `Frame f' when f' = f -> ()
  | _ -> Alcotest.fail "failed to resync onto the valid frame");
  Transport.close hub

(* ---- the stall watchdog on a fake clock --------------------------------- *)

let stall_fake_clock () =
  let clock, advance = Clock.fake () in
  let s = Runtime.Stall.create ~clock ~budget:1.0 in
  Alcotest.(check bool) "fresh" false (Runtime.Stall.expired s);
  advance 0.6;
  Alcotest.(check bool) "within budget" false (Runtime.Stall.expired s);
  Runtime.Stall.beat s;
  advance 0.9;
  Alcotest.(check bool) "re-armed" false (Runtime.Stall.expired s);
  advance 0.2;
  Alcotest.(check bool) "expired" true (Runtime.Stall.expired s);
  Alcotest.(check (float 0.0001)) "since beat" 1.1 (Runtime.Stall.since_beat s);
  Runtime.Stall.beat s;
  Alcotest.(check bool) "beat re-arms" false (Runtime.Stall.expired s)

let fake_clock_sleep_advances () =
  let clock, _ = Clock.fake ~start:10.0 () in
  Alcotest.(check (float 0.0001)) "start" 10.0 (clock.Clock.now ());
  clock.Clock.sleep 2.5;
  Alcotest.(check (float 0.0001)) "slept" 12.5 (clock.Clock.now ())

(* The wire zoo is the codec-bearing subset of the registry, in registry
   order: the five paper protocols, not the two baselines. *)
let zoo_is_registry_subset () =
  let zoo = List.map Mewc_wire.Zoo.entry_name Mewc_wire.Zoo.entries in
  Alcotest.(check (list string))
    "registry order" zoo
    (List.filter (fun n -> List.mem n zoo) Registry.names);
  Alcotest.(check (list string))
    "codec-bearing entries"
    [ "fallback"; "weak-ba"; "bb"; "binary-bb"; "strong-ba" ]
    zoo;
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " found") true (Mewc_wire.Zoo.find n <> None))
    zoo

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        [
          Alcotest.test_case "typed errors" `Quick typed_errors;
          Alcotest.test_case "frame digest and prefixes" `Quick frame_errors;
          Alcotest.test_case "scan resync" `Quick scan_resync;
          Alcotest.test_case "fuzz battery" `Quick fuzz_battery;
          Alcotest.test_case "zoo is the codec-bearing registry" `Quick
            zoo_is_registry_subset;
        ] );
      ( "laws",
        [
          prop_round_trip;
          prop_adversarial_bytes;
          prop_mutations;
          prop_size_vs_words;
        ] );
      ( "transport",
        [
          Alcotest.test_case "send/recv round-trip" `Quick transport_basic;
          Alcotest.test_case "reject and resync" `Quick transport_resync;
        ] );
      ( "clock",
        [
          Alcotest.test_case "stall watchdog (fake timer)" `Quick stall_fake_clock;
          Alcotest.test_case "fake clock sleep" `Quick fake_clock_sleep_advances;
        ] );
    ]
