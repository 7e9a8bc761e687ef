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

(* Writers refuse what their readers would reject: an oversized string is a
   sender-side bug, never bytes on the wire. *)
let writer_bounds () =
  let c = Codec.str_c ~max:4 in
  Alcotest.(check string) "at the bound" "\x04abcd" (Codec.encode c "abcd");
  (match Codec.encode c "hello" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "str_c ~max:4 wrote a 5-byte string");
  let str = Mewc_sim.Value.Str.codec and v = String.make 1024 'x' in
  (match Codec.decode str (Codec.encode str v) with
  | Ok v' -> Alcotest.(check bool) "1024-byte value round-trips" true (v = v')
  | r -> Alcotest.failf "1024-byte value: got %a" pp_res r);
  match Codec.encode str (v ^ "x") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Value.Str.codec wrote a 1025-byte value"

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

(* A [Done] marker names its sender's next-needed slot; one whose payload
   is missing, malformed or names a slot not past its own asks for the
   next slot, the fallback that can never skip a slot someone needs. *)
let marker_hints () =
  let marker payload =
    { Codec.kind = Codec.Done; src = 1; dst = 2; slot = 7; seq = 0; payload }
  in
  let good = marker (Codec.marker_payload ~next:12) in
  (match Codec.decode_frame (Codec.encode_frame good) with
  | Ok f -> Alcotest.(check int) "hint survives the wire" 12 (Codec.marker_next f)
  | r -> Alcotest.failf "marker round-trip: got %a" pp_res r);
  List.iter
    (fun (what, payload) ->
      Alcotest.(check int) what 8 (Codec.marker_next (marker payload)))
    [
      ("missing", "");
      ("truncated varint", "\x80");
      ("overlong varint", "\x8c\x00");
      ("trailing bytes", Codec.marker_payload ~next:12 ^ "x");
      ("names its own slot", Codec.marker_payload ~next:7);
      ("names an earlier slot", Codec.marker_payload ~next:3);
    ]

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

let holds = function Ok () -> true | Error e -> QCheck2.Test.fail_report e

let prop_round_trip =
  Test_util.qcheck_case ~count:300
    ~name:"codec: decode ∘ encode = id, re-encoding byte-identical"
    QCheck2.Gen.int
    (fun s ->
      let g = Rng.create (Int64.of_int s) in
      List.for_all (fun law -> holds (Zoo.round_trip law g)) Zoo.laws)

let prop_adversarial_bytes =
  Test_util.qcheck_case ~count:300
    ~name:"codec: random bytes never raise; any decode is canonical"
    QCheck2.Gen.(pair int (int_bound 4096))
    (fun (s, len) ->
      let input = Codec.gen_bytes (Rng.create (Int64.of_int s)) len in
      List.for_all (fun law -> holds (Zoo.total law input)) Zoo.laws
      &&
      match Codec.decode_frame input with
      | exception e ->
        QCheck2.Test.fail_reportf "frame raised %s" (Printexc.to_string e)
      | Ok _ | Error _ -> true)

(* A mutation may land on another valid message, but then the mutated bytes
   are its one canonical spelling. *)
let prop_mutations =
  Test_util.qcheck_case ~count:300
    ~name:"codec: single-byte mutations of valid encodings stay total"
    QCheck2.Gen.int
    (fun s ->
      let g = Rng.create (Int64.of_int s) in
      List.for_all
        (fun (Zoo.Law { codec; gen; _ } as law) ->
          let e = Codec.encode codec (gen g) in
          e = "" || holds (Zoo.total law (Zoo.flip_bit g e)))
        Zoo.laws)

let prop_size_vs_words =
  Test_util.qcheck_case ~count:300
    ~name:"codec: encoded size reconciles with the meter's word charge"
    QCheck2.Gen.int
    (fun s ->
      let g = Rng.create (Int64.of_int s) in
      List.for_all
        (fun (Zoo.Law { name; codec = c; gen; words }) ->
          let m = gen g in
          let w = words m in
          let enc = Codec.words_of_bytes (Codec.encoded_size c m) in
          (* the wire spends real bytes on what the model idealizes away
             (explicit signer sets, tags, lengths): a constant factor plus
             framing slack, never more *)
          (enc >= 1 && enc <= (3 * w) + 2)
          || QCheck2.Test.fail_reportf "%s: %d metered words, %d encoded words"
               name w enc)
        Zoo.laws)

(* ---- generator coverage ------------------------------------------------- *)

(* The constructor path of a rendered message: the printer's text up to its
   first parenthesis with round numbers dropped ("wba:fb:r3:status(j=2, …)"
   is "wba:fb:r:status"), tagged with the bb_value arm it prints and, for a
   phase-king status, whether it carries a lock. *)
let shape s =
  let path =
    String.sub s 0 (Option.value (String.index_opt s '(') ~default:(String.length s))
    |> String.split_on_char ':'
    |> List.map (fun seg ->
           if String.length seg > 1 && seg.[0] = 'r'
              && String.for_all (fun c -> c >= '0' && c <= '9')
                   (String.sub seg 1 (String.length seg - 1))
           then "r"
           else seg)
    |> String.concat ":"
  in
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let tags =
    (if has ">sender" then [ "sender" ] else if has "QCidk" then [ "idk" ] else [])
    @ if has "lock=-" then [ "unlocked" ] else if has "lock=" then [ "locked" ] else []
  in
  String.concat "/" (path :: tags)

(* Every shape a generator must reach, at every nesting level. [arms]
   expands a value-printing constructor into one shape per bb_value arm. *)
let expected_shapes name =
  let under prefix = List.map (fun s -> prefix ^ s) in
  let epk arms =
    List.concat_map arms
      [ "r:input"; "r:propose"; "r:echo"; "r:vote"; "r:commit"; "r:ack"; "r:decided" ]
    @ [ "r:status/locked"; "r:status/unlocked" ]
  in
  let weak arms =
    List.concat_map arms
      [ "propose"; "vote"; "commit-answer"; "commit"; "decide"; "finalized"; "help" ]
    @ [ "help_req"; "fallback-cert" ]
  in
  let strong = [ "input"; "propose"; "decide-share"; "decide"; "fallback" ] in
  let plain s = [ s ] and bbv s = [ s ^ "/sender"; s ^ "/idk" ] in
  match name with
  | "fallback" -> epk plain
  | "weak-ba" -> weak plain @ under "fb:" (epk plain)
  | "bb" ->
    [ "send"; "vet-help-req"; "vet-idk" ] @ bbv "vet-value" @ bbv "vet-bcast"
    @ under "wba:" (weak bbv) @ under "wba:fb:" (epk bbv)
  | "binary-bb" -> [ "send" ] @ under "ba:" strong @ under "ba:fb:" (epk plain)
  | "strong-ba" -> strong @ under "fb:" (epk plain)
  | other -> Alcotest.failf "no expected shapes for %s" other

let generators_reach_every_constructor () =
  List.iter
    (fun (Zoo.E e as entry) ->
      let name = Zoo.entry_name entry in
      let module P = (val e.reg.Registry.protocol) in
      let g = Rng.create 20261017L in
      let seen =
        List.init 2000 (fun _ -> shape (P.encode_msg (e.gen g)))
        |> List.sort_uniq String.compare
      in
      Alcotest.(check (list string))
        (name ^ ": generated shapes")
        (List.sort_uniq String.compare (expected_shapes name))
        seen)
    Zoo.entries

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

(* ---- the runtime -------------------------------------------------------- *)

(* A value over the string codec's bound kills the domain that sends it;
   its peers must stop at their next barrier rather than wait out one δ per
   remaining slot (weak BA at n = 5 runs for dozens of slots). *)
let dead_domain_ends_run () =
  let cfg = Mewc_sim.Config.optimal ~n:5 in
  let params = Registry.weak_ba.Registry.params cfg ~input:(String.make 1100 'x') in
  let t0 = Unix.gettimeofday () in
  let o =
    Runtime.run Registry.weak_ba.Registry.protocol ~codec:Zoo.weak_str_msg ~cfg
      ~delta:1.0 ~params ()
  in
  Alcotest.(check bool) "a domain died" true (o.Runtime.failures <> []);
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 10.0 then Alcotest.failf "the run took %.1f s after a domain died" elapsed

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
          Alcotest.test_case "writers refuse oversized strings" `Quick writer_bounds;
          Alcotest.test_case "frame digest and prefixes" `Quick frame_errors;
          Alcotest.test_case "marker hints" `Quick marker_hints;
          Alcotest.test_case "scan resync" `Quick scan_resync;
          Alcotest.test_case "fuzz battery" `Quick fuzz_battery;
          Alcotest.test_case "zoo is the codec-bearing registry" `Quick
            zoo_is_registry_subset;
          Alcotest.test_case "generators reach every constructor" `Quick
            generators_reach_every_constructor;
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
      ( "runtime",
        [ Alcotest.test_case "a dead domain ends the run" `Quick dead_domain_ends_run ] );
      ( "clock",
        [
          Alcotest.test_case "stall watchdog (fake timer)" `Quick stall_fake_clock;
          Alcotest.test_case "fake clock sleep" `Quick fake_clock_sleep_advances;
        ] );
    ]
