(* The observability layer: hand-built violating traces that each standard
   monitor must reject, zoo executions every monitor must accept (online and
   replayed offline from the serialized trace), and trace round-trips. *)

open Mewc_sim
open Mewc_core
module Jsonx = Mewc_prelude.Jsonx

let cfg = Test_util.cfg

(* ---- building blocks ---------------------------------------------------- *)

let trace_of events =
  let tr = Trace.create ~enabled:true in
  List.iter (Trace.record tr) events;
  tr

let send ?(id = 0) ?(parents = []) ?(byz = false) ?(words = 1) ?charged ~slot
    ~src ~dst msg =
  let charged = match charged with Some c -> c | None -> src <> dst in
  Trace.Send
    {
      id;
      envelope = { Envelope.src; dst; sent_at = slot; msg };
      byzantine_sender = byz;
      words;
      charged;
      parents;
    }

let violation_of monitor ~slots events =
  match Monitor.replay [ monitor ] ~slots (trace_of events) with
  | () -> None
  | exception Monitor.Violation v -> Some v

let check_rejects name monitor ~slots events =
  match violation_of monitor ~slots events with
  | Some _ -> ()
  | None -> Alcotest.failf "%s: violating trace was accepted" name

let check_accepts name monitor ~slots events =
  match violation_of monitor ~slots events with
  | None -> ()
  | Some v ->
    Alcotest.failf "%s: spuriously rejected: %s" name
      (Format.asprintf "%a" Monitor.pp_violation v)

(* ---- corruption budget -------------------------------------------------- *)

let budget_rejections () =
  let c = cfg 5 in
  (* t = 2 *)
  let corrupt ~slot ~pid ~f = Trace.Corruption { slot; pid; f } in
  check_accepts "budget: t corruptions fine"
    (Monitor.corruption_budget ~cfg:c)
    ~slots:2
    [
      Trace.Slot_start 0;
      corrupt ~slot:0 ~pid:1 ~f:1;
      Trace.Slot_start 1;
      corrupt ~slot:1 ~pid:2 ~f:2;
    ];
  check_rejects "budget: t+1 corruptions"
    (Monitor.corruption_budget ~cfg:c)
    ~slots:1
    [
      Trace.Slot_start 0;
      corrupt ~slot:0 ~pid:1 ~f:1;
      corrupt ~slot:0 ~pid:2 ~f:2;
      corrupt ~slot:0 ~pid:3 ~f:3;
    ];
  check_rejects "budget: double corruption"
    (Monitor.corruption_budget ~cfg:c)
    ~slots:1
    [ Trace.Slot_start 0; corrupt ~slot:0 ~pid:1 ~f:1; corrupt ~slot:0 ~pid:1 ~f:2 ];
  check_rejects "budget: stale slot stamp"
    (Monitor.corruption_budget ~cfg:c)
    ~slots:2
    [ Trace.Slot_start 0; Trace.Slot_start 1; corrupt ~slot:0 ~pid:1 ~f:1 ];
  check_rejects "budget: wrong f stamp"
    (Monitor.corruption_budget ~cfg:c)
    ~slots:1
    [ Trace.Slot_start 0; corrupt ~slot:0 ~pid:1 ~f:2 ];
  check_rejects "budget: unknown pid"
    (Monitor.corruption_budget ~cfg:c)
    ~slots:1
    [ Trace.Slot_start 0; corrupt ~slot:0 ~pid:77 ~f:1 ]

(* ---- agreement ----------------------------------------------------------- *)

let agreement_rejections () =
  let c = cfg 3 in
  let decide ~slot ~pid value = Trace.Decision { slot; pid; value; parents = [] } in
  let everyone v = List.map (fun pid -> decide ~slot:1 ~pid v) [ 0; 1; 2 ] in
  check_accepts "agreement: unanimous"
    (Monitor.agreement ())
    ~slots:2
    (Trace.Slot_start 0 :: everyone "v");
  check_rejects "agreement: split decision"
    (Monitor.agreement ())
    ~slots:2
    [ Trace.Slot_start 0; decide ~slot:0 ~pid:0 "a"; decide ~slot:1 ~pid:1 "b" ];
  check_rejects "agreement: re-decision flips"
    (Monitor.agreement ())
    ~slots:2
    [ Trace.Slot_start 0; decide ~slot:0 ~pid:0 "a"; decide ~slot:1 ~pid:0 "b" ];
  (* Agreement is pure safety: a partial decision set is fine by itself
     (who must decide is {!Monitor.termination}'s business). *)
  check_accepts "agreement: partial decisions are not its concern"
    (Monitor.agreement ())
    ~slots:2
    [ Trace.Slot_start 0; decide ~slot:0 ~pid:0 "a" ];
  check_rejects "termination: correct process never decides"
    (Monitor.termination ~cfg:c)
    ~slots:2
    [ Trace.Slot_start 0; decide ~slot:0 ~pid:0 "a"; decide ~slot:0 ~pid:1 "a" ];
  (* ... unless it was corrupted ... *)
  check_accepts "termination: corrupted processes need not decide"
    (Monitor.termination ~cfg:c)
    ~slots:2
    [
      Trace.Slot_start 0;
      Trace.Corruption { slot = 0; pid = 2; f = 1 };
      decide ~slot:0 ~pid:0 "a";
      decide ~slot:0 ~pid:1 "a";
    ];
  (* ... or hit by an injected process fault. *)
  check_accepts "termination: process-faulted pids are exempt"
    (Monitor.termination ~cfg:c)
    ~slots:2
    [
      Trace.Slot_start 0;
      Trace.Process_fault { slot = 0; pid = 2; event = Faults.Crashed };
      decide ~slot:0 ~pid:0 "a";
      decide ~slot:0 ~pid:1 "a";
    ]

(* ---- word bound ---------------------------------------------------------- *)

let word_bound_rejections () =
  let bound ~f = 10 * (f + 1) in
  let m () = Monitor.word_bound ~name:"test-words" ~bound in
  check_accepts "words: under the bound" (m ()) ~slots:1
    [ Trace.Slot_start 0; send ~slot:0 ~src:0 ~dst:1 ~words:10 "m" ];
  check_rejects "words: over the bound at f=0" (m ()) ~slots:1
    [
      Trace.Slot_start 0;
      send ~slot:0 ~src:0 ~dst:1 ~words:6 "m";
      send ~slot:0 ~src:1 ~dst:2 ~words:6 "m";
    ];
  (* The same spending is inside the bound once a corruption raised f. *)
  check_accepts "words: f=1 raises the bound" (m ()) ~slots:1
    [
      Trace.Slot_start 0;
      Trace.Corruption { slot = 0; pid = 2; f = 1 };
      send ~slot:0 ~src:0 ~dst:1 ~words:6 "m";
      send ~slot:0 ~src:1 ~dst:2 ~words:6 "m";
    ];
  (* Byzantine and uncharged (self-addressed) words don't count: the paper
     measures words sent by correct processes. *)
  check_accepts "words: byzantine sends free" (m ()) ~slots:1
    [ Trace.Slot_start 0; send ~byz:true ~slot:0 ~src:0 ~dst:1 ~words:999 "m" ];
  check_accepts "words: self-sends free" (m ()) ~slots:1
    [ Trace.Slot_start 0; send ~slot:0 ~src:1 ~dst:1 ~words:999 "m" ]

(* ---- early termination --------------------------------------------------- *)

let early_termination_rejections () =
  let bound ~f = 5 * (f + 1) in
  let m () = Monitor.early_termination ~name:"test-latency" ~bound in
  let decide ~slot ~pid = Trace.Decision { slot; pid; value = "v"; parents = [] } in
  check_accepts "latency: in time" (m ()) ~slots:20
    [ Trace.Slot_start 0; decide ~slot:5 ~pid:0 ];
  check_rejects "latency: too late at f=0" (m ()) ~slots:20
    [ Trace.Slot_start 0; decide ~slot:6 ~pid:0 ];
  check_accepts "latency: f=1 extends the deadline" (m ()) ~slots:20
    [
      Trace.Slot_start 0;
      Trace.Corruption { slot = 0; pid = 1; f = 1 };
      decide ~slot:6 ~pid:0;
    ];
  check_accepts "latency: no decisions, nothing to check" (m ()) ~slots:20
    [ Trace.Slot_start 0 ]

(* ---- metering ------------------------------------------------------------ *)

let metering_rejections () =
  let m () = Monitor.metering () in
  check_accepts "metering: consistent" (m ()) ~slots:1
    [
      Trace.Slot_start 0;
      send ~slot:0 ~src:0 ~dst:1 "m";
      send ~slot:0 ~src:1 ~dst:1 "m";
    ];
  check_rejects "metering: zero-word message" (m ()) ~slots:1
    [ Trace.Slot_start 0; send ~slot:0 ~src:0 ~dst:1 ~words:0 "m" ];
  check_rejects "metering: charged self-send" (m ()) ~slots:1
    [ Trace.Slot_start 0; send ~slot:0 ~src:1 ~dst:1 ~charged:true "m" ];
  check_rejects "metering: uncharged cross-send" (m ()) ~slots:1
    [ Trace.Slot_start 0; send ~slot:0 ~src:0 ~dst:1 ~charged:false "m" ];
  check_rejects "metering: byzantine flag out of sync" (m ()) ~slots:1
    [
      Trace.Slot_start 0;
      Trace.Corruption { slot = 0; pid = 0; f = 1 };
      send ~slot:0 ~src:0 ~dst:1 ~byz:false "m";
    ]

(* ---- acceptance over real executions ------------------------------------ *)

(* Every run_* already enforces the standard suite online; rerunning the zoo
   here asserts acceptance explicitly and then replays the monitors offline
   over the serialized trace — a violation found only in one of the two
   modes would expose an online/offline divergence. *)
let qcheck_zoo_accepted =
  Test_util.qcheck_case ~count:40
    ~name:"standard monitors accept the adversary zoo, online and replayed"
    QCheck2.Gen.(
      oneofl [ 5; 7; 9 ] >>= fun n ->
      let t = (n - 1) / 2 in
      triple (return n) (Test_util.gen_pick n t) (int_range 0 500))
    (fun (n, pick, seed) ->
      let c = cfg n in
      let o =
        try
          Instances.run (module Instances.Weak_ba_protocol) ~cfg:c
            ~options:
              {
                Instances.default_options with
                Instances.seed = Int64.of_int seed;
                record_trace = true;
              }
            ~params:
              {
                (Instances.Weak_ba_protocol.default_params c) with
                inputs = Array.init n (fun i -> Printf.sprintf "v%d" (i mod 2));
              }
            ~adversary:(Test_util.to_weak_adversary c pick) ()
        with Monitor.Violation v ->
          QCheck2.Test.fail_reportf "online rejection: adversary=%s: %s"
            (Test_util.pp_pick pick)
            (Format.asprintf "%a" Monitor.pp_violation v)
      in
      let trace =
        match o.Instances.trace_json with
        | None -> QCheck2.Test.fail_report "no trace recorded"
        | Some j -> (
          match Trace.of_json ~decode:Fun.id j with
          | Ok tr -> tr
          | Error e -> QCheck2.Test.fail_reportf "trace does not parse: %s" e)
      in
      let monitors =
        [
          Monitor.corruption_budget ~cfg:c;
          Monitor.agreement ();
          Monitor.metering ();
        ]
      in
      match Monitor.replay monitors ~slots:o.Instances.slots trace with
      | () -> true
      | exception Monitor.Violation v ->
        QCheck2.Test.fail_reportf "offline rejection: adversary=%s: %s"
          (Test_util.pp_pick pick)
          (Format.asprintf "%a" Monitor.pp_violation v))

(* ---- serialization ------------------------------------------------------- *)

let sample_events =
  [
    Trace.Slot_start 0;
    Trace.Corruption { slot = 0; pid = 2; f = 1 };
    send ~slot:0 ~src:0 ~dst:1 ~words:3 "hello, \"quoted\" msg";
    send ~byz:true ~slot:0 ~src:2 ~dst:0 "payload\nwith newline";
    send ~slot:0 ~src:1 ~dst:1 "self";
    Trace.Slot_start 1;
    Trace.Decision { slot = 1; pid = 0; value = "v,comma"; parents = [ 2 ] };
  ]

let json_round_trip () =
  let tr = trace_of sample_events in
  let json = Trace.to_json ~encode:Fun.id tr in
  (* Through the printer and parser, not just the constructors. *)
  let reparsed =
    match Jsonx.parse (Jsonx.to_string json) with
    | Ok j -> j
    | Error e -> Alcotest.failf "serialized trace does not reparse: %s" e
  in
  Alcotest.(check bool) "json equal after print+parse" true
    (Jsonx.equal json reparsed);
  match Trace.of_json ~decode:Fun.id reparsed with
  | Error e -> Alcotest.failf "of_json failed: %s" e
  | Ok tr' ->
    Alcotest.(check bool) "trace equal after round-trip" true
      (Trace.equal String.equal tr tr');
    Alcotest.(check int) "length preserved" (Trace.length tr) (Trace.length tr')

let json_rejects_garbage () =
  let check name s =
    match Jsonx.parse s with
    | Error _ -> ()
    | Ok j -> (
      match Trace.of_json ~decode:Fun.id j with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: accepted" name)
  in
  check "not json" "{nope";
  check "wrong schema" {|{"schema":"mewc-trace/99","events":[]}|};
  check "missing events" {|{"schema":"mewc-trace/3"}|};
  check "bad event tag" {|{"schema":"mewc-trace/3","events":[{"type":"warp"}]}|}

let csv_export () =
  (* Newline-free payloads so lines can be counted by splitting; payloads
     with embedded newlines stay legal CSV (quoted) but are covered by the
     JSON round-trip instead. *)
  let tr =
    trace_of
      [
        Trace.Slot_start 0;
        Trace.Corruption { slot = 0; pid = 2; f = 1 };
        send ~slot:0 ~src:0 ~dst:1 ~words:3 "plain";
        Trace.Decision { slot = 0; pid = 0; value = "v,comma"; parents = [] };
      ]
  in
  let csv = Trace.to_csv ~encode:Fun.id tr in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (* Header plus one line per event. *)
  Alcotest.(check int) "line count" (1 + Trace.length tr) (List.length lines);
  Alcotest.(check string) "header"
    "type,slot,src,dst,pid,id,words,byzantine,charged,parents,detail"
    (List.hd lines);
  (* The comma inside the decision value must be quoted, not splitting. *)
  let last = List.nth lines (List.length lines - 1) in
  Alcotest.(check bool) "decision row" true
    (String.length last >= 7 && String.sub last 0 7 = "decide,");
  Alcotest.(check bool) "decision value quoted" true
    (let quoted = "\"v,comma\"" in
     let ql = String.length quoted and ll = String.length last in
     ll >= ql && String.sub last (ll - ql) ql = quoted)

let length_o1_and_memo () =
  let tr = Trace.create ~enabled:true in
  for i = 0 to 9_999 do
    Trace.record tr (Trace.Slot_start i)
  done;
  Alcotest.(check int) "length" 10_000 (Trace.length tr);
  (* Memoized: the second call must not re-reverse (same physical list). *)
  Alcotest.(check bool) "events memoized" true
    (Trace.events tr == Trace.events tr);
  Trace.record tr (Trace.Slot_start 10_000);
  Alcotest.(check int) "memo invalidated on record" 10_001
    (List.length (Trace.events tr));
  let disabled = Trace.create ~enabled:false in
  Trace.record disabled (Trace.Slot_start 0);
  Alcotest.(check int) "disabled records nothing" 0 (Trace.length disabled)

(* ---- a broadcast record ≡ its n copies ---------------------------------

   The engine hands a monitor one [Trace.broadcast] where the trace holds
   its n [Send] events. Each standard monitor, and their composition, must
   end in the same violation — or in none — whichever way the broadcast
   arrives: after a random prefix of slots, corruptions, unicasts and
   decisions, the broadcast, then a decision and [on_finish]. *)

type op =
  | Tick
  | Corrupt of int
  | Unicast of { src : int; dst : int; words : int; flip : bool }
  | Decide of int * string

type bcast_case = {
  n : int;
  ops : op list;
  src : int;
  words : int;
  byz : bool;  (** the sender is corrupted before the broadcast *)
  flip : bool;  (** the broadcast's Byzantine flag disagrees with that *)
  base : int;  (** the word bounds are [base + 3 f] *)
  decider : int;
}

let pp_case c =
  Printf.sprintf "n=%d ops=%d src=%d words=%d byz=%b flip=%b base=%d decider=%d" c.n
    (List.length c.ops) c.src c.words c.byz c.flip c.base c.decider

(* The case as (prefix, broadcast, suffix, slots). *)
let materialize c =
  let slot = ref 0 and id = ref 0 and f = ref 0 in
  let corrupted = Array.make c.n false in
  let corrupt p =
    if not corrupted.(p) then begin
      corrupted.(p) <- true;
      incr f
    end;
    Trace.Corruption { slot = !slot; pid = p; f = !f }
  in
  let parents () = if !id = 0 then [] else [ !id - 1 ] in
  let of_op = function
    | Tick ->
      incr slot;
      Trace.Slot_start !slot
    | Corrupt p -> corrupt p
    | Unicast { src; dst; words; flip } ->
      let ev =
        send ~id:!id ~parents:(parents ()) ~words
          ~byz:(corrupted.(src) <> flip)
          ~slot:!slot ~src ~dst "u"
      in
      incr id;
      ev
    | Decide (pid, value) ->
      Trace.Decision { slot = !slot; pid; value; parents = parents () }
  in
  let prefix = Trace.Slot_start 0 :: List.map of_op c.ops in
  let prefix =
    if c.byz && not corrupted.(c.src) then prefix @ [ corrupt c.src ] else prefix
  in
  let b =
    {
      Trace.first_id = !id;
      src = c.src;
      n = c.n;
      sent_at = !slot;
      msg = "b";
      byzantine_sender = corrupted.(c.src) <> c.flip;
      words = c.words;
      parents = parents ();
    }
  in
  let suffix =
    [
      Trace.Slot_start (!slot + 1);
      Trace.Decision
        {
          slot = !slot + 1;
          pid = c.decider;
          value = "a";
          parents = [ b.Trace.first_id + c.decider ];
        };
    ]
  in
  (prefix, b, suffix, !slot + 2)

let standard_monitors c =
  let cfg = Config.optimal ~n:c.n in
  let bound ~f = c.base + (3 * f) in
  [
    ("corruption-budget", fun () -> Monitor.corruption_budget ~cfg);
    ("agreement", fun () -> Monitor.agreement ());
    ("termination", fun () -> Monitor.termination ~cfg);
    ("word-bound", fun () -> Monitor.word_bound ~name:"words" ~bound);
    ("early-termination", fun () -> Monitor.early_termination ~name:"early" ~bound);
    ("metering", fun () -> Monitor.metering ());
    ( "cone",
      fun () -> Monitor.cone_words_bound ~cfg ~name:"cone" ~check_every:1 ~bound () );
  ]

(* Every standard monitor, then all of them composed. *)
let monitors_of c =
  let ms = standard_monitors c in
  ms @ [ ("all", fun () -> Monitor.all (List.map (fun (_, mk) -> mk ()) ms)) ]

let verdict (m : string Monitor.t) (prefix, b, suffix, slots) ~bulk =
  match
    List.iter m.Monitor.on_event prefix;
    if bulk then Monitor.broadcast [ m ] b
    else Trace.iter_broadcast (fun s -> m.Monitor.on_event (Trace.Send s)) b;
    List.iter m.Monitor.on_event suffix;
    m.Monitor.on_finish ~slots
  with
  | () -> None
  | exception Monitor.Violation v -> Some v

let pp_verdict = function
  | None -> "none"
  | Some v -> Format.asprintf "%a" Monitor.pp_violation v

(* The monitors whose verdicts differ between the two deliveries. *)
let broadcast_mismatches c =
  let run = materialize c in
  List.filter_map
    (fun (name, mk) ->
      let bulk = verdict (mk ()) run ~bulk:true
      and copies = verdict (mk ()) run ~bulk:false in
      if bulk = copies then None
      else
        Some
          (Printf.sprintf "%s: on_broadcast %s, copies %s" name (pp_verdict bulk)
             (pp_verdict copies)))
    (monitors_of c)

let gen_bcast_case =
  QCheck2.Gen.(
    oneofl [ 3; 5; 7 ] >>= fun n ->
    let pid = int_bound (n - 1) in
    let rare = frequency [ (9, return false); (1, return true) ] in
    let op =
      frequency
        [
          (2, return Tick);
          (1, map (fun p -> Corrupt p) pid);
          ( 5,
            map4
              (fun src dst words flip -> Unicast { src; dst; words; flip })
              pid pid (int_range 1 3) rare );
          (2, map2 (fun p v -> Decide (p, v)) pid (oneofl [ "a"; "b" ]));
        ]
    in
    let* ops = list_size (int_range 0 25) op in
    let* src = oneof [ return 0; return (n - 1); pid ] in
    let* words = int_range 1 4 in
    let* byz = rare in
    let* flip = rare in
    let* base = int_range 0 40 in
    let* decider = pid in
    return { n; ops; src; words; byz; flip; base; decider })

let qcheck_broadcast_equals_copies =
  Test_util.qcheck_case ~count:500
    ~name:"one broadcast record = its n sends, for every monitor"
    gen_bcast_case (fun c ->
      match broadcast_mismatches c with
      | [] -> true
      | ms ->
        QCheck2.Test.fail_reportf "%s:\n%s" (pp_case c) (String.concat "\n" ms))

let broadcast_cases () =
  let check name c ~expect =
    (match broadcast_mismatches c with
    | [] -> ()
    | ms -> Alcotest.failf "%s: %s" name (String.concat "; " ms));
    (* The pinned cases must reach the path they are about. *)
    List.iter
      (fun (monitor, reason) ->
        let mk = List.assoc monitor (monitors_of c) in
        match verdict (mk ()) (materialize c) ~bulk:true with
        | Some v when v.Monitor.reason = reason -> ()
        | v -> Alcotest.failf "%s: %s gave %s" name monitor (pp_verdict v))
      expect
  in
  let unicast src dst words = Unicast { src; dst; words; flip = false } in
  let base =
    { n = 5; ops = []; src = 0; words = 2; byz = false; flip = false; base = 40;
      decider = 1 }
  in
  (* 3 words spent, then 2-word copies against a bound of 6: the second
     charged copy crosses it, at 7 words. *)
  check "word bound crossed mid-broadcast"
    { base with ops = [ unicast 1 2 3 ]; base = 6 }
    ~expect:[ ("word-bound", "correct senders spent 7 words > bound 6 at f=0") ];
  check "byzantine sender" { base with byz = true; base = 4 } ~expect:[];
  check "byzantine flag out of sync" { base with flip = true }
    ~expect:
      [ ("metering", "p0 is not corrupted but its send is flagged byzantine") ];
  (* The word bound crosses at copy 1, the flag check fails at copy 0: the
     composition raises the latter, as the copies would have. *)
  check "two monitors in one broadcast"
    { base with byz = true; flip = true; base = 0; words = 4 }
    ~expect:[ ("all", "p0 is corrupted but its send is flagged not byzantine") ];
  check "src = n - 1" { base with src = 4; base = 3 }
    ~expect:[ ("word-bound", "correct senders spent 4 words > bound 3 at f=0") ];
  (* Cone passes over a broadcast row. p0's broadcast reaches the decider
     p2 and pulls in p3 -> p0 and, through it, p1 -> p3: 2 + 1 + 2 words. *)
  check "cone over a broadcast row, src = 0"
    { base with ops = [ unicast 1 3 2; Tick; unicast 3 0 1; Tick ]; base = 2;
      decider = 2 }
    ~expect:
      [ ("cone", "p2's decision has a causal cone of 5 words > bound 2 at f=0") ];
  check "cone over a broadcast row, src = n - 1"
    { base with ops = [ unicast 2 4 3; Tick; Decide (0, "a"); Tick ]; src = 4;
      base = 4; decider = 0 }
    ~expect:
      [ ("cone", "p0's decision has a causal cone of 5 words > bound 4 at f=0") ];
  (* The decider's own copy is in its cone but costs nothing: 2 words, not 4. *)
  check "cone holding the self copy"
    { base with ops = [ unicast 1 0 2; Tick ]; base = 1; decider = 0 }
    ~expect:
      [ ("cone", "p0's decision has a causal cone of 2 words > bound 1 at f=0") ]

let () =
  Alcotest.run "monitor"
    [
      ( "rejections",
        [
          Alcotest.test_case "corruption budget" `Quick budget_rejections;
          Alcotest.test_case "agreement" `Quick agreement_rejections;
          Alcotest.test_case "word bound" `Quick word_bound_rejections;
          Alcotest.test_case "early termination" `Quick early_termination_rejections;
          Alcotest.test_case "metering" `Quick metering_rejections;
        ] );
      ("acceptance", [ qcheck_zoo_accepted ]);
      ( "broadcast records",
        [
          Alcotest.test_case "pinned cases" `Quick broadcast_cases;
          qcheck_broadcast_equals_copies;
        ] );
      ( "trace serialization",
        [
          Alcotest.test_case "json round-trip" `Quick json_round_trip;
          Alcotest.test_case "json rejects garbage" `Quick json_rejects_garbage;
          Alcotest.test_case "csv export" `Quick csv_export;
          Alcotest.test_case "O(1) length, memoized events" `Quick length_o1_and_memo;
        ] );
    ]
