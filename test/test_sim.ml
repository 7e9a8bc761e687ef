open Mewc_sim

let config_validation () =
  Alcotest.check_raises "even n"
    (Invalid_argument "Config.optimal: need odd n >= 3") (fun () ->
      ignore (Config.optimal ~n:4));
  Alcotest.check_raises "resilience"
    (Invalid_argument "Config.create: need n >= 2t + 1") (fun () ->
      ignore (Config.create ~n:4 ~t:2));
  let cfg = Config.create ~n:7 ~t:2 in
  Alcotest.(check int) "n" 7 cfg.Config.n;
  Alcotest.(check int) "t" 2 cfg.Config.t

let big_quorum_formula () =
  (* ceil((n+t+1)/2), cross-checked against float arithmetic. *)
  List.iter
    (fun n ->
      let cfg = Config.optimal ~n in
      let expected =
        int_of_float (ceil (float_of_int (n + cfg.Config.t + 1) /. 2.))
      in
      Alcotest.(check int) (Printf.sprintf "n=%d" n) expected (Config.big_quorum cfg))
    [ 3; 5; 7; 9; 11; 21; 33; 65 ]

let quorum_intersection () =
  (* The paper's §6 key fact: two big quorums intersect in >= t+1 processes,
     hence in a correct one, for every n = 2t+1. *)
  List.iter
    (fun n ->
      let cfg = Config.optimal ~n in
      let q = Config.big_quorum cfg in
      let min_intersection = (2 * q) - n in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d" n)
        true
        (min_intersection >= cfg.Config.t + 1))
    [ 3; 5; 7; 9; 11; 21; 33; 65; 129 ]

(* A ping protocol: process 0 sends one message to 1 at slot 0; 1 replies. *)
type ping_state = { got : int list }

let ping_protocol pid =
  {
    Process.init = { got = [] };
    wake = None;
    step =
      (fun ~slot ~inbox st ->
        let st =
          { got = st.got @ List.map (fun e -> e.Envelope.sent_at) (Mail.to_list inbox) }
        in
        if slot = 0 && pid = 0 then (st, [ Process.Unicast ("ping", 1) ])
        else if pid = 1 && Mail.length inbox > 0 then (st, [ Process.Unicast ("pong", 0) ])
        else (st, []));
  }

let delivery_next_slot () =
  let cfg = Config.create ~n:3 ~t:1 in
  let res =
    Engine.run ~cfg ~words:(fun _ -> 1) ~horizon:4 ~protocol:ping_protocol
      ~adversary:(Adversary.honest ~name:"h") ()
  in
  (* p1 received the slot-0 ping (delivered at slot 1), p0 the slot-1 pong. *)
  Alcotest.(check (list int)) "p1 got ping sent at 0" [ 0 ] res.Engine.states.(1).got;
  Alcotest.(check (list int)) "p0 got pong sent at 1" [ 1 ] res.Engine.states.(0).got;
  Alcotest.(check int) "words" 2 (Meter.correct_words res.Engine.meter)

let self_sends_free () =
  let cfg = Config.create ~n:3 ~t:1 in
  let protocol pid =
    {
      Process.init = 0;
      wake = None;
      step =
        (fun ~slot ~inbox st ->
          let st = st + Mail.length inbox in
          if slot = 0 then (st, [ Process.Unicast ("self", pid) ]) else (st, []));
    }
  in
  let res =
    Engine.run ~cfg ~words:(fun _ -> 1) ~horizon:3 ~protocol
      ~adversary:(Adversary.honest ~name:"h") ()
  in
  Alcotest.(check int) "no words charged" 0 (Meter.correct_words res.Engine.meter);
  Alcotest.(check int) "but delivered" 1 res.Engine.states.(0)

let corruption_budget_enforced () =
  let cfg = Config.create ~n:3 ~t:1 in
  let adversary =
    {
      Adversary.name = "greedy";
      corrupt = (fun view -> if view.Adversary.slot = 0 then [ 0; 1 ] else []);
      byz_step = (fun ~pid:_ _ -> []);
    }
  in
  let run () =
    ignore
      (Engine.run ~cfg ~words:(fun _ -> 1) ~horizon:2
         ~protocol:(fun _ -> Process.silent ()) ~adversary ())
  in
  Alcotest.check_raises "budget"
    (Invalid_argument "Engine.run: adversary greedy exceeded the corruption budget t=1")
    run

let rushing_adversary_sees_current_slot () =
  (* The Byzantine step must observe messages correct processes send in the
     same slot. *)
  let cfg = Config.create ~n:3 ~t:1 in
  let saw = ref false in
  let protocol pid =
    {
      Process.init = ();
      wake = None;
      step =
        (fun ~slot ~inbox:_ st ->
          if slot = 1 && pid = 0 then (st, [ Process.Unicast ("secret", 2) ]) else (st, []));
    }
  in
  let adversary =
    {
      Adversary.name = "rusher";
      corrupt = (fun view -> if view.Adversary.slot = 0 then [ 1 ] else []);
      byz_step =
        (fun ~pid:_ view ->
          if
            List.exists
              (fun e -> e.Envelope.msg = "secret")
              (Adversary.correct_outgoing view)
          then saw := true;
          []);
    }
  in
  ignore
    (Engine.run ~cfg ~words:(fun _ -> 1) ~horizon:3 ~protocol ~adversary ());
  Alcotest.(check bool) "saw in-flight message" true !saw

(* The engine keeps one adversary view per run and re-arms a lazy copy
   only after it was forced. Whichever slots an adversary forces in, each
   callback must see what a fresh view would show: states before the
   correct step at corruption time and after it at the Byzantine step,
   the corruption flags of the moment, and this slot's correct sends only
   in the Byzantine step. Every process counts its steps and broadcasts
   the count; p0 is corrupted at slot 2 and its state freezes. *)
let adversary_view_rearmed () =
  let n = 3 and horizon = 8 in
  let cfg = Config.create ~n ~t:1 in
  let protocol _ =
    {
      Process.init = 0;
      wake = None;
      step = (fun ~slot:_ ~inbox:_ k -> (k + 1, Process.broadcast (k + 1)));
    }
  in
  let line slot phase states corrupted outgoing =
    let ints f a = String.concat ";" (Array.to_list (Array.map f a)) in
    Printf.sprintf "%d %s [%s] [%s] [%s]" slot phase (ints string_of_int states)
      (ints string_of_bool corrupted)
      (String.concat ";"
         (List.map
            (fun e ->
              Printf.sprintf "%d>%d@%d:%d" e.Envelope.src e.Envelope.dst
                e.Envelope.sent_at e.Envelope.msg)
            outgoing))
  in
  (* Forces on a schedule, so some thunks stay unforced for several slots. *)
  let forces slot phase = (slot + phase) mod 3 <> 1 in
  let seen = ref [] in
  let watch phase view =
    let slot = view.Adversary.slot in
    if forces slot phase then
      seen :=
        line slot
          (if phase = 0 then "corrupt" else "byz")
          (Adversary.states view) (Adversary.corrupted view)
          (Adversary.correct_outgoing view)
        :: !seen
  in
  let adversary =
    {
      Adversary.name = "watcher";
      corrupt =
        (fun view ->
          watch 0 view;
          if view.Adversary.slot = 2 then [ 0 ] else []);
      byz_step =
        (fun ~pid:_ view ->
          watch 1 view;
          []);
    }
  in
  ignore (Engine.run ~cfg ~words:(fun _ -> 1) ~horizon ~protocol ~adversary ());
  (* The same lines from the run's definition: a correct process has
     stepped [s] times before slot [s]'s step; p0, corrupted at slot 2,
     stepped twice. *)
  let expected =
    List.concat_map
      (fun slot ->
        let states steps =
          Array.init n (fun p -> if p = 0 then min 2 steps else steps)
        in
        (* The corruption query of slot 2 runs before p0 is corrupted. *)
        let corrupted after = Array.init n (fun p -> p = 0 && slot >= after) in
        let outgoing =
          List.concat_map
            (fun src ->
              List.init n (fun dst ->
                  { Envelope.src; dst; sent_at = slot; msg = slot + 1 }))
            [ 1; 2 ]
        in
        (if forces slot 0 then
           [ line slot "corrupt" (states slot) (corrupted 3) [] ]
         else [])
        @
        if slot >= 2 && forces slot 1 then
          [ line slot "byz" (states (slot + 1)) (corrupted 2) outgoing ]
        else [])
      (List.init horizon Fun.id)
  in
  Alcotest.(check (list string)) "every callback's view" expected (List.rev !seen)

let corrupted_stop_stepping () =
  let cfg = Config.create ~n:3 ~t:1 in
  let steps = Array.make 3 0 in
  let protocol pid =
    {
      Process.init = ();
      wake = None;
      step =
        (fun ~slot:_ ~inbox:_ st ->
          steps.(pid) <- steps.(pid) + 1;
          (st, []));
    }
  in
  let res =
    Engine.run ~cfg ~words:(fun _ -> 1) ~horizon:5 ~protocol
      ~adversary:(Adversary.crash ~at:2 ~victims:[ 1 ] ()) ()
  in
  Alcotest.(check int) "p0 stepped every slot" 5 steps.(0);
  Alcotest.(check int) "p1 stopped at corruption" 2 steps.(1);
  Alcotest.(check (list int)) "corrupted" [ 1 ] res.Engine.corrupted;
  Alcotest.(check int) "f" 1 res.Engine.f

let byzantine_words_separate () =
  let cfg = Config.create ~n:3 ~t:1 in
  let protocol _ =
    {
      Process.init = ();
      step = (fun ~slot ~inbox:_ st -> if slot = 0 then (st, [ Process.Unicast ("m", 1) ]) else (st, []));
      wake = None;
    }
  in
  let adversary =
    {
      Adversary.name = "chatter";
      corrupt = (fun view -> if view.Adversary.slot = 0 then [ 2 ] else []);
      byz_step =
        (fun ~pid:_ view ->
          if view.Adversary.slot = 0 then [ Process.Unicast ("byz", 0); Process.Unicast ("byz", 1) ] else []);
    }
  in
  let res = Engine.run ~cfg ~words:(fun _ -> 1) ~horizon:2 ~protocol ~adversary () in
  (* Correct senders: p0 -> p1 charged; p1 -> p1 self free. *)
  Alcotest.(check int) "correct words" 1 (Meter.correct_words res.Engine.meter);
  Alcotest.(check int) "byz words" 2 (Meter.byzantine_words res.Engine.meter)

let trace_records () =
  let cfg = Config.create ~n:3 ~t:1 in
  let protocol _ =
    {
      Process.init = ();
      step = (fun ~slot ~inbox:_ st -> if slot = 0 then (st, [ Process.Unicast ("m", 1) ]) else (st, []));
      wake = None;
    }
  in
  let res =
    Engine.run ~cfg
      ~options:{ Engine.default_options with record_trace = true }
      ~words:(fun _ -> 1) ~horizon:2 ~protocol
      ~adversary:(Adversary.honest ~name:"h") ()
  in
  (* 2 slot boundaries + 3 sends (one per process, all addressed to p1). *)
  Alcotest.(check int) "events" 5 (Trace.length res.Engine.trace);
  let sends = Trace.sends res.Engine.trace in
  Alcotest.(check int) "sends" 3 (List.length sends);
  Alcotest.(check int) "exactly p1's self-send uncharged" 1
    (List.length (List.filter (fun s -> not s.Trace.charged) sends));
  let disabled =
    Engine.run ~cfg ~words:(fun _ -> 1) ~horizon:2 ~protocol
      ~adversary:(Adversary.honest ~name:"h") ()
  in
  Alcotest.(check int) "disabled" 0 (Trace.length disabled.Engine.trace)

let invalid_destination () =
  let cfg = Config.create ~n:3 ~t:1 in
  let protocol _ =
    {
      Process.init = ();
      step = (fun ~slot ~inbox:_ st -> if slot = 0 then (st, [ Process.Unicast ("m", 99) ]) else (st, []));
      wake = None;
    }
  in
  Alcotest.check_raises "invalid dst"
    (Invalid_argument "Engine.run: p0 sent a message to unknown process 99")
    (fun () ->
      ignore
        (Engine.run ~cfg ~words:(fun _ -> 1) ~horizon:1 ~protocol
           ~adversary:(Adversary.honest ~name:"h") ()))

let staggered_crash_schedule () =
  let cfg = Config.create ~n:7 ~t:3 in
  let res =
    Engine.run ~cfg ~words:(fun _ -> 1) ~horizon:10
      ~protocol:(fun _ -> Process.silent ())
      ~adversary:(Adversary.staggered_crash ~victims:[ 1; 2; 3 ] ~every:3) ()
  in
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] res.Engine.corrupted

let meter_validation () =
  let m = Meter.create () in
  Alcotest.check_raises "zero words"
    (Invalid_argument "Meter.charge: each message is at least 1 word") (fun () ->
      ignore (Meter.charge m ~byzantine:false ~src:0 ~dst:1 ~words:0));
  Alcotest.check_raises "zero-word self-send still a wire-format bug"
    (Invalid_argument "Meter.charge: each message is at least 1 word") (fun () ->
      ignore (Meter.charge m ~byzantine:false ~src:2 ~dst:2 ~words:0));
  Alcotest.(check bool) "self-send free" false
    (Meter.charge m ~byzantine:false ~src:2 ~dst:2 ~words:5);
  Alcotest.(check int) "self-send accounted nothing" 0 (Meter.correct_words m);
  Alcotest.(check bool) "cross-send charged" true
    (Meter.charge m ~byzantine:false ~src:0 ~dst:1 ~words:3);
  Alcotest.(check int) "words" 3 (Meter.correct_words m);
  Alcotest.(check int) "messages" 1 (Meter.correct_messages m)

let meter_snapshot_isolation () =
  let m = Meter.create () in
  Meter.begin_slot m ~slot:0;
  ignore (Meter.charge m ~byzantine:false ~src:0 ~dst:1 ~words:2);
  Meter.begin_slot m ~slot:1;
  (* slot 1 stays silent, but must still appear as a zero row *)
  Meter.begin_slot m ~slot:2;
  ignore (Meter.charge m ~byzantine:true ~src:4 ~dst:1 ~words:7);
  let s = Meter.snapshot m in
  Alcotest.(check (list int)) "dense per-slot words" [ 2; 0; 0 ]
    (List.map (fun (r : Meter.row) -> r.Meter.words) s.Meter.per_slot);
  Alcotest.(check (list int)) "dense per-slot byz words" [ 0; 0; 7 ]
    (List.map (fun (r : Meter.row) -> r.Meter.byz_words) s.Meter.per_slot);
  Alcotest.(check (list int)) "senders" [ 0; 4 ]
    (List.map (fun (r : Meter.row) -> r.Meter.ix) s.Meter.per_process);
  (* Snapshot isolation: later charges never leak into an older snapshot. *)
  ignore (Meter.charge m ~byzantine:false ~src:0 ~dst:2 ~words:100);
  Alcotest.(check int) "snapshot frozen" 2 s.Meter.correct_words;
  Alcotest.(check int) "meter moved on" 102 (Meter.correct_words m);
  Meter.reset m;
  Alcotest.(check int) "reset zeroes totals" 0 (Meter.correct_words m);
  Alcotest.(check int) "reset zeroes series" 0
    (List.length (Meter.snapshot m).Meter.per_slot);
  Alcotest.(check int) "old snapshot survives reset" 2 s.Meter.correct_words

let zero_horizon () =
  let cfg = Config.create ~n:3 ~t:1 in
  let res =
    Engine.run ~cfg
      ~options:{ Engine.default_options with record_trace = true }
      ~words:(fun _ -> 1) ~horizon:0 ~protocol:ping_protocol
      ~adversary:(Adversary.honest ~name:"h") ()
  in
  Alcotest.(check int) "no slots" 0 res.Engine.slots;
  Alcotest.(check int) "no events" 0 (Trace.length res.Engine.trace);
  Alcotest.(check int) "no words" 0 (Meter.correct_words res.Engine.meter);
  Alcotest.(check int) "no per-slot rows" 0
    (List.length (Meter.snapshot res.Engine.meter).Meter.per_slot);
  Alcotest.(check int) "f" 0 res.Engine.f

let double_corruption_single_charge () =
  (* Naming an already-corrupted victim again must not consume budget (here
     t = 1, so a double charge would raise) nor emit a second event. *)
  let cfg = Config.create ~n:3 ~t:1 in
  let adversary =
    {
      Adversary.name = "stutter";
      corrupt =
        (fun view ->
          match view.Adversary.slot with 0 -> [ 1; 1 ] | 1 -> [ 1 ] | _ -> []);
      byz_step = (fun ~pid:_ _ -> []);
    }
  in
  let res =
    Engine.run ~cfg
      ~options:{ Engine.default_options with record_trace = true }
      ~words:(fun _ -> 1) ~horizon:3
      ~protocol:(fun _ -> Process.silent ()) ~adversary ()
  in
  Alcotest.(check int) "f" 1 res.Engine.f;
  Alcotest.(check (list int)) "corrupted once" [ 1 ] res.Engine.corrupted;
  let corruptions =
    Trace.events res.Engine.trace
    |> List.filter (function Trace.Corruption _ -> true | _ -> false)
  in
  Alcotest.(check int) "one corruption event" 1 (List.length corruptions)

let per_slot_series () =
  let cfg = Config.create ~n:3 ~t:1 in
  let res =
    Engine.run ~cfg ~words:(fun _ -> 1) ~horizon:4 ~protocol:ping_protocol
      ~adversary:(Adversary.honest ~name:"h") ()
  in
  let s = Meter.snapshot res.Engine.meter in
  (* ping in slot 0, pong in slot 1, then silence — but all 4 slots show. *)
  Alcotest.(check (list int)) "per-slot words" [ 1; 1; 0; 0 ]
    (List.map (fun (r : Meter.row) -> r.Meter.words) s.Meter.per_slot);
  Alcotest.(check (list int)) "per-process senders" [ 0; 1 ]
    (List.map (fun (r : Meter.row) -> r.Meter.ix) s.Meter.per_process)

let shuffle_deterministic () =
  let cfg = Config.create ~n:5 ~t:2 in
  let protocol pid =
    {
      Process.init = [];
      wake = None;
      step =
        (fun ~slot ~inbox st ->
          let st = st @ Mail.fold (fun acc src _ -> acc @ [ src ]) [] inbox in
          if slot = 0 then
            (st, List.map (fun p -> Process.Unicast (pid, p)) (Mewc_prelude.Pid.all ~n:5))
          else (st, []));
    }
  in
  let run seed =
    let res =
      Engine.run ~cfg
        ~options:{ Engine.default_options with shuffle_seed = seed }
        ~words:(fun _ -> 1) ~horizon:3 ~protocol
        ~adversary:(Adversary.honest ~name:"h") ()
    in
    Array.to_list res.Engine.states
  in
  Alcotest.(check bool) "same seed, same order" true
    (run (Some 5L) = run (Some 5L));
  Alcotest.(check bool) "different seeds differ somewhere" true
    (run (Some 1L) <> run (Some 2L) || run (Some 1L) <> run (Some 3L));
  (* Shuffling permutes but never loses or duplicates messages. *)
  List.iter
    (fun inbox ->
      Alcotest.(check (list int)) "same multiset" [ 0; 1; 2; 3; 4 ]
        (List.sort Int.compare inbox))
    (run (Some 9L))

(* ---- the wake calendar ------------------------------------------------- *)

(* A synthetic timer machine. Its state is the ascending list of slots at
   which it wants to step; a delivered message [k] adds a timer at [k].
   Every step records its slot in [log.(pid)] (a side channel the wake
   contract does not see) and sends what [sends ~pid ~slot] says. *)
let timer_machine ~log ~timers ?(sends = fun ~pid:_ ~slot:_ -> []) pid =
  let first_at_or_after ~after st =
    match List.find_opt (fun s -> s >= after) st with
    | Some s -> s
    | None -> Process.never
  in
  {
    Process.init = timers pid;
    step =
      (fun ~slot ~inbox st ->
        log.(pid) <- slot :: log.(pid);
        let st = List.filter (fun s -> s > slot) st in
        let st =
          List.sort_uniq Int.compare (Mail.fold (fun acc _ k -> k :: acc) st inbox)
        in
        (st, sends ~pid ~slot));
    wake = Some first_at_or_after;
  }

let run_timers ?(scheduler = `Event_driven) ?(shards = 1) ?(faults = Faults.none)
    ?(adversary = Adversary.honest ~name:"h") ?(n = 3) ~horizon protocol =
  let cfg = Config.create ~n ~t:((n - 1) / 2) in
  Engine.run ~cfg
    ~options:{ Engine.default_options with scheduler; shards; faults }
    ~words:(fun _ -> 1) ~horizon ~protocol ~adversary ()

let steps_of log pid = List.rev log.(pid)

let calendar_fires_at_filed_slots () =
  let log = Array.make 3 [] in
  let timers = function 0 -> [ 2; 5; 9 ] | 1 -> [] | _ -> [ 0 ] in
  ignore (run_timers ~horizon:12 (timer_machine ~log ~timers));
  Alcotest.(check (list int)) "p0" [ 2; 5; 9 ] (steps_of log 0);
  Alcotest.(check (list int)) "p1 never" [] (steps_of log 1);
  Alcotest.(check (list int)) "p2" [ 0 ] (steps_of log 2)

let calendar_delivery_moves_timer_earlier () =
  (* p0's only timer is at 10; p1's slot-0 step asks it for slot 4. The
     delivery at slot 1 steps p0, whose re-filing moves it to 4. *)
  let log = Array.make 3 [] in
  let timers = function 0 -> [ 10 ] | 1 -> [ 0 ] | _ -> [] in
  let sends ~pid ~slot = if pid = 1 && slot = 0 then [ Process.Unicast (4, 0) ] else [] in
  ignore (run_timers ~horizon:12 (timer_machine ~log ~timers ~sends));
  Alcotest.(check (list int)) "p0" [ 1; 4; 10 ] (steps_of log 0)

let calendar_filed_twice_steps_once () =
  (* p0 is filed at 5, moved to 3 by a delivery at slot 1, then filed back
     at 5; at slot 3 it is also delivered to while due. Each of those slots
     must step it exactly once, whatever the shard count. *)
  List.iter
    (fun shards ->
      let n = 9 in
      let log = Array.make n [] in
      let timers = function 0 -> [ 5 ] | 1 -> [ 0; 2 ] | p -> [ p; p + 3 ] in
      let sends ~pid ~slot =
        match (pid, slot) with
        | 1, 0 -> [ Process.Unicast (3, 0) ]
        | 1, 2 -> [ Process.Unicast (5, 0) ]
        | _ -> []
      in
      let res = run_timers ~n ~shards ~horizon:8 (timer_machine ~log ~timers ~sends) in
      let label what = Printf.sprintf "shards=%d %s" shards what in
      Alcotest.(check (list int)) (label "p0") [ 1; 3; 5 ] (steps_of log 0);
      Alcotest.(check (list int)) (label "p4") [ 4; 7 ] (steps_of log 4);
      Alcotest.(check (list int)) (label "p0 timers left") [] res.Engine.states.(0))
    [ 1; 2; 4 ]

let calendar_refiles_while_down () =
  (* p0 is down for slots [2, 5): its filings at 3 and 4 fall in the down
     phase and move on slot by slot; it fires at 6, once it is back up. *)
  let log = Array.make 3 [] in
  let timers = function 0 -> [ 1; 3; 4; 6 ] | _ -> [] in
  let faults =
    {
      Faults.none with
      Faults.processes = [ (0, Faults.Crash_recovery { down_at = 2; up_at = 5 }) ];
    }
  in
  let res = run_timers ~faults ~horizon:8 (timer_machine ~log ~timers) in
  Alcotest.(check (list int)) "p0" [ 1; 6 ] (steps_of log 0);
  Alcotest.(check (list int)) "faulty" [ 0 ] res.Engine.faulty

let calendar_drops_corrupted_and_late () =
  (* p1 is corrupted at slot 2, before its timer at 4; p0's timers at the
     horizon and past it are never filed; p2 never wakes at all. *)
  let log = Array.make 3 [] in
  let horizon = 10 in
  let timers = function
    | 0 -> [ 3; horizon; horizon + 5 ]
    | 1 -> [ 1; 4 ]
    | _ -> [ Process.never ]
  in
  let res =
    run_timers ~horizon
      ~adversary:(Adversary.crash ~at:2 ~victims:[ 1 ] ())
      (timer_machine ~log ~timers)
  in
  Alcotest.(check (list int)) "p0 stops at the horizon" [ 3 ] (steps_of log 0);
  Alcotest.(check (list int)) "p1 stops at corruption" [ 1 ] (steps_of log 1);
  Alcotest.(check (list int)) "p2 never" [] (steps_of log 2);
  Alcotest.(check (list int)) "corrupted" [ 1 ] res.Engine.corrupted

let calendar_none_steps_every_slot () =
  let log = Array.make 3 [] in
  let protocol pid = { (timer_machine ~log ~timers:(fun _ -> []) pid) with wake = None } in
  ignore (run_timers ~horizon:6 protocol);
  List.iter
    (fun p ->
      Alcotest.(check (list int)) (Printf.sprintf "p%d" p) [ 0; 1; 2; 3; 4; 5 ]
        (steps_of log p))
    [ 0; 1; 2 ]

let calendar_dense_oracle_ignores_wake () =
  (* p0's and p2's queries answer [never]; p1 is a plain timer machine
     that fires at slot 0 and sends p0 one message. Event-driven, p0 then
     steps only on that delivery (slot 1) and p2 never steps. The dense
     oracle must ignore every query and step every live correct process
     every slot — p1 until its corruption at slot 3, p2 around its down
     window [2, 5). If it ever honoured [wake], the engine differentials
     would compare the event-driven loop with itself. *)
  let faults =
    {
      Faults.none with
      Faults.processes = [ (2, Faults.Crash_recovery { down_at = 2; up_at = 5 }) ];
    }
  in
  let sends ~pid ~slot = if pid = 1 && slot = 0 then [ Process.Unicast (99, 0) ] else [] in
  let run scheduler shards =
    let log = Array.make 3 [] in
    let timers = function 1 -> [ 0 ] | _ -> [] in
    let protocol pid =
      let m = timer_machine ~log ~timers ~sends pid in
      if pid = 1 then m else { m with wake = Some (fun ~after:_ _ -> Process.never) }
    in
    ignore
      (run_timers ~scheduler ~shards ~faults
         ~adversary:(Adversary.crash ~at:3 ~victims:[ 1 ] ())
         ~horizon:8 protocol);
    List.map (steps_of log) [ 0; 1; 2 ]
  in
  List.iter
    (fun shards ->
      let label what = Printf.sprintf "shards=%d %s" shards what in
      Alcotest.(check (list (list int)))
        (label "dense")
        [ [ 0; 1; 2; 3; 4; 5; 6; 7 ]; [ 0; 1; 2 ]; [ 0; 1; 5; 6; 7 ] ]
        (run `Legacy shards);
      Alcotest.(check (list (list int)))
        (label "event-driven") [ [ 1 ]; [ 0 ]; [] ] (run `Event_driven shards))
    [ 1; 2 ]

let calendar_rejects_past_answers () =
  let protocol _ =
    {
      Process.init = ();
      step = (fun ~slot:_ ~inbox:_ st -> (st, []));
      wake = Some (fun ~after:_ _ -> 0);
    }
  in
  Alcotest.check_raises "answer before after"
    (Invalid_argument "Engine.run: p0's wake query answered slot 0, before slot 1")
    (fun () -> ignore (run_timers ~horizon:3 protocol))

let composition_registry () =
  Composition.reset ();
  Composition.note ~user:"a" ~uses:"b";
  Composition.note ~user:"a" ~uses:"b";
  Composition.note ~user:"b" ~uses:"c";
  Alcotest.(check (list (triple string string int)))
    "edges"
    [ ("a", "b", 2); ("b", "c", 1) ]
    (Composition.edges ());
  Composition.reset ();
  Alcotest.(check int) "reset" 0 (List.length (Composition.edges ()))

(* ---- mail views ---------------------------------------------------------- *)

(* The list delivery the engine used before it read pools in place, rebuilt
   from a recorded trace: a destination's slot-[s] inbox is what was posted
   to it in slot [s - 1], in post order with a duplicated copy twice in
   place, then the delayed messages due at [s] in send order. Shuffled,
   each nonempty pool, in ascending destination order, is listed
   newest-first as (id, envelope) pairs and permuted by one
   [Rng.shuffle]. Returns the (ids, envelopes) inbox of every (slot, pid). *)
let list_delivery ~n ~horizon ~shuffle_seed events =
  let faults = Hashtbl.create 16 in
  List.iter
    (function
      | Trace.Link_fault { id; fault; _ } -> Hashtbl.replace faults id fault
      | _ -> ())
    events;
  let punctual = Array.make_matrix (horizon + 16) n [] in
  let delayed = Array.make_matrix (horizon + 16) n [] in
  let add bucket slot (id, env) =
    if slot < Array.length bucket then
      let dst = env.Envelope.dst in
      bucket.(slot).(dst) <- (id, env) :: bucket.(slot).(dst)
  in
  List.iter
    (function
      | Trace.Send { id; envelope = env; _ } -> (
        let next = env.Envelope.sent_at + 1 in
        match Hashtbl.find_opt faults id with
        | None -> add punctual next (id, env)
        | Some Faults.Duplicated ->
          add punctual next (id, env);
          add punctual next (id, env)
        | Some (Faults.Delayed k) -> add delayed (next + k) (id, env)
        | Some _ -> ())
      | _ -> ())
    events;
  let rng = Option.map Mewc_prelude.Rng.create shuffle_seed in
  Array.init horizon (fun slot ->
      Array.init n (fun dst ->
          let pool = List.rev punctual.(slot).(dst) @ List.rev delayed.(slot).(dst) in
          let pairs =
            match rng with
            | Some rng when pool <> [] -> Mewc_prelude.Rng.shuffle rng (List.rev pool)
            | _ -> pool
          in
          (List.map fst pairs, List.map snd pairs)))

(* Random posts under a delaying and duplicating plan, reliable or
   shuffled: every step's view, listed, must be the inbox the list delivery
   built, and the parents of every send the ids of that inbox. Each step
   sends at least one message, so every inbox shows up as parents. *)
let mail_view_is_list_delivery () =
  let n = 5 and horizon = 9 in
  let cfg = Config.create ~n ~t:2 in
  List.iter
    (fun (seed, shuffle_seed) ->
      let seen = Array.make_matrix horizon n [] in
      let protocol pid =
        {
          Process.init = ();
          wake = None;
          step =
            (fun ~slot ~inbox () ->
              seen.(slot).(pid) <- Mail.to_list inbox;
              let g =
                Mewc_prelude.Rng.create
                  (Int64.of_int ((seed * 7919) + (slot * 31) + pid))
              in
              let unicasts =
                List.init (1 + Mewc_prelude.Rng.int g 3) (fun k ->
                    Process.Unicast ((pid * 100) + k, Mewc_prelude.Rng.int g n))
              in
              ( (),
                if Mewc_prelude.Rng.int g 2 = 0 then
                  Process.broadcast (-pid) @ unicasts
                else unicasts ));
        }
      in
      let faults =
        {
          Faults.none with
          seed = Int64.of_int seed;
          delay = 2;
          delay_prob = 0.2;
          dup = 0.2;
        }
      in
      let res =
        Engine.run ~cfg
          ~options:
            { Engine.default_options with record_trace = true; shuffle_seed; faults }
          ~words:(fun _ -> 1) ~horizon ~protocol
          ~adversary:(Adversary.honest ~name:"h") ()
      in
      let events = Trace.events res.Engine.trace in
      let expected = list_delivery ~n ~horizon ~shuffle_seed events in
      let label =
        Printf.sprintf "seed %d%s" seed
          (if shuffle_seed = None then "" else " shuffled")
      in
      for slot = 0 to horizon - 1 do
        for pid = 0 to n - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "%s: slot %d p%d inbox" label slot pid)
            true
            (snd expected.(slot).(pid) = seen.(slot).(pid))
        done
      done;
      List.iter
        (function
          | Trace.Send { envelope = { Envelope.src; sent_at; _ }; parents; _ } ->
            Alcotest.(check (list int))
              (Printf.sprintf "%s: slot %d p%d parents" label sent_at src)
              (fst expected.(sent_at).(src))
              parents
          | _ -> ())
        events)
    (List.concat_map
       (fun seed -> [ (seed, None); (seed, Some (Int64.of_int (seed + 40))) ])
       (List.init 10 Fun.id))

(* The engine's pools read a shared broadcast log in place. Against pools
   that hold every copy (ids [first_id + d], self copies included), random
   rounds of unicasts and broadcasts from several senders must read the
   same through every accessor, in post order and after shuffling both
   sides with one seed; both shuffles must leave their RNG in the same
   state. Rounds are cleared and the storage reused, as the engine does
   slot after slot. *)
let mail_log_matches_copies =
  let op = QCheck2.Gen.(triple bool (int_bound 16) (int_bound 16)) in
  let round = QCheck2.Gen.(list_size (int_range 0 40) op) in
  Test_util.qcheck_case ~count:300
    ~name:"log-backed view reads as every copy pushed"
    QCheck2.Gen.(
      triple (oneofl [ 1; 2; 5; 17 ]) (list_size (int_range 1 3) round) int)
    (fun (n, rounds, seed) ->
      let log = Mail.Log.create () in
      let shared = Array.init n (fun dst -> Mail.Pool.create ~dst ~log) in
      let copies =
        Array.init n (fun dst -> Mail.Pool.create ~dst ~log:(Mail.Log.create ()))
      in
      let read pool =
        let mail = Mail.Pool.view pool in
        let iterated = ref [] in
        Mail.iter (fun src m -> iterated := (src, m) :: !iterated) mail;
        ( List.rev !iterated,
          List.rev (Mail.fold (fun acc src m -> (src, m) :: acc) [] mail),
          (Mail.length mail, Mail.Pool.length pool),
          Mail.to_list mail,
          Mail.Pool.ids pool )
      in
      let agree () =
        List.for_all (fun d -> read shared.(d) = read copies.(d)) (List.init n Fun.id)
      in
      let next_id = ref 0 in
      List.for_all
        (fun ops ->
          List.iteri
            (fun k (broadcast, src, dst) ->
              let src = src mod n and dst = dst mod n and sent_at = k / 4 in
              let id = !next_id in
              if broadcast then begin
                Mail.Log.push log ~src ~sent_at ~first_id:id k;
                for d = 0 to n - 1 do
                  Mail.Pool.push copies.(d) ~src ~sent_at ~id:(id + d) k
                done;
                next_id := id + n
              end
              else begin
                Mail.Pool.push shared.(dst) ~src ~sent_at ~id k;
                Mail.Pool.push copies.(dst) ~src ~sent_at ~id k;
                next_id := id + 1
              end)
            ops;
          let in_order = agree () in
          let shuffle pools =
            let rng = Mewc_prelude.Rng.create (Int64.of_int seed) in
            Array.iter (fun pool -> Mail.Pool.shuffle pool rng) pools;
            Mewc_prelude.Rng.int64 rng
          in
          let same_draws = Int64.equal (shuffle shared) (shuffle copies) in
          let shuffled = agree () in
          Array.iter Mail.Pool.clear shared;
          Array.iter Mail.Pool.clear copies;
          Mail.Log.clear log;
          in_order && same_draws && shuffled)
        rounds)

(* [parents] are built only when something reads them. A monitor that
   does not declare [provenance] sees every [Send] and [Decision] with
   [parents = []]; one that does, or any monitor beside a recording trace,
   sees the recorded trace's parents, reliable and shuffled. *)
let provenance_only_when_read () =
  let n = 5 and horizon = 8 in
  let cfg = Config.create ~n ~t:2 in
  let protocol pid =
    {
      Process.init = -1;
      wake = None;
      step =
        (fun ~slot ~inbox:_ _ ->
          let g = Mewc_prelude.Rng.create (Int64.of_int ((slot * 31) + pid)) in
          ( slot,
            if Mewc_prelude.Rng.int g 2 = 0 then Process.broadcast pid
            else [ Process.Unicast (pid, Mewc_prelude.Rng.int g n) ] ));
    }
  in
  let parents_of = function
    | Trace.Send { id; parents; _ } -> Some (Printf.sprintf "send %d" id, parents)
    | Trace.Decision { slot; pid; parents; _ } ->
      Some (Printf.sprintf "decide %d p%d" slot pid, parents)
    | _ -> None
  in
  let run ~record_trace ~provenance shuffle_seed =
    let seen = ref [] in
    let monitor =
      Monitor.make ~name:"parents" ~provenance
        ~on_event:(fun ~violate:_ ev ->
          Option.iter (fun x -> seen := x :: !seen) (parents_of ev))
        ()
    in
    let res =
      Engine.run ~cfg
        ~options:
          {
            Engine.default_options with
            record_trace;
            shuffle_seed;
            monitors = [ monitor ];
            decided = Some (fun slot -> if slot >= 4 then Some "v" else None);
          }
        ~words:(fun _ -> 1) ~horizon ~protocol
        ~adversary:(Adversary.honest ~name:"h") ()
    in
    (List.rev !seen, res.Engine.trace)
  in
  let key = Alcotest.(list (pair string (list int))) in
  List.iter
    (fun shuffle_seed ->
      let label = if shuffle_seed = None then "reliable" else "shuffled" in
      let traced, trace = run ~record_trace:true ~provenance:false shuffle_seed in
      let recorded = List.filter_map parents_of (Trace.events trace) in
      Alcotest.(check bool) (label ^ ": some parents") true
        (List.exists (fun (_, ps) -> ps <> []) recorded);
      Alcotest.(check bool) (label ^ ": decisions seen") true
        (List.exists (fun (k, _) -> String.sub k 0 6 = "decide") recorded);
      Alcotest.check key (label ^ ": beside a trace") recorded traced;
      Alcotest.check key (label ^ ": declared")
        recorded
        (fst (run ~record_trace:false ~provenance:true shuffle_seed));
      Alcotest.check key (label ^ ": undeclared")
        (List.map (fun (k, _) -> (k, [])) recorded)
        (fst (run ~record_trace:false ~provenance:false shuffle_seed)))
    [ None; Some 11L ];
  let silent = Monitor.make ~name:"silent" () in
  let reader = Monitor.make ~name:"reader" ~provenance:true () in
  Alcotest.(check bool) "all ors provenance" true
    (Monitor.all [ silent; reader ]).Monitor.provenance;
  Alcotest.(check bool) "all of none" false
    (Monitor.all [ silent ]).Monitor.provenance

let () =
  Alcotest.run "sim"
    [
      ( "config",
        [
          Alcotest.test_case "validation" `Quick config_validation;
          Alcotest.test_case "big quorum formula" `Quick big_quorum_formula;
          Alcotest.test_case "quorum intersection" `Quick quorum_intersection;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delivery next slot" `Quick delivery_next_slot;
          Alcotest.test_case "self sends free" `Quick self_sends_free;
          Alcotest.test_case "corruption budget" `Quick corruption_budget_enforced;
          Alcotest.test_case "rushing adversary" `Quick rushing_adversary_sees_current_slot;
          Alcotest.test_case "one adversary view, re-armed" `Quick adversary_view_rearmed;
          Alcotest.test_case "corrupted stop stepping" `Quick corrupted_stop_stepping;
          Alcotest.test_case "byzantine words separate" `Quick byzantine_words_separate;
          Alcotest.test_case "trace recording" `Quick trace_records;
          Alcotest.test_case "invalid destination" `Quick invalid_destination;
          Alcotest.test_case "staggered crash" `Quick staggered_crash_schedule;
          Alcotest.test_case "meter validation" `Quick meter_validation;
          Alcotest.test_case "meter snapshot isolation" `Quick meter_snapshot_isolation;
          Alcotest.test_case "zero horizon" `Quick zero_horizon;
          Alcotest.test_case "double corruption" `Quick double_corruption_single_charge;
          Alcotest.test_case "per-slot series" `Quick per_slot_series;
        ] );
      ( "calendar",
        [
          Alcotest.test_case "fires at filed slots" `Quick calendar_fires_at_filed_slots;
          Alcotest.test_case "delivery moves timer earlier" `Quick
            calendar_delivery_moves_timer_earlier;
          Alcotest.test_case "filed twice steps once" `Quick calendar_filed_twice_steps_once;
          Alcotest.test_case "re-files while down" `Quick calendar_refiles_while_down;
          Alcotest.test_case "drops corrupted and late" `Quick
            calendar_drops_corrupted_and_late;
          Alcotest.test_case "None steps every slot" `Quick calendar_none_steps_every_slot;
          Alcotest.test_case "dense oracle ignores wake" `Quick
            calendar_dense_oracle_ignores_wake;
          Alcotest.test_case "rejects past answers" `Quick calendar_rejects_past_answers;
        ] );
      ( "composition",
        [ Alcotest.test_case "registry" `Quick composition_registry ] );
      ( "shuffling",
        [ Alcotest.test_case "deterministic permutation" `Quick shuffle_deterministic ] );
      ( "mail",
        [
          Alcotest.test_case "view is the list delivery" `Quick
            mail_view_is_list_delivery;
          Alcotest.test_case "parents only when read" `Quick
            provenance_only_when_read;
          mail_log_matches_copies;
        ] );
    ]
