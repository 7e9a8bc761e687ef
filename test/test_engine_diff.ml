(* The differential gate behind the event-driven and sharded engines: for
   the same seed, options and fault plan, every (scheduler, shards) pair
   must be observationally equivalent to the `Legacy sequential loop —
   byte-identical mewc-trace/3 traces, identical decisions, word/message
   counts and monitor verdicts. Four batteries: the protocol zoo over a
   sweep-style grid, the standalone fallback under start skew, the fuzzer's
   adversary scenarios, and the chaos fault-plan profiles; each case runs
   under both schedulers at shards in {1, 2, 4}. A last group bounds the
   event-driven engine's wake queries at n = 1001. *)

open Mewc_prelude
open Mewc_sim
open Mewc_core
open Mewc_fuzz

let cfg9 = Config.optimal ~n:9
let cfg13 = Config.optimal ~n:13
let cfg41 = Config.optimal ~n:41

(* One run, reduced to a byte string. The trace carries every send/delivery/
   decision (payloads rendered), so byte equality of fingerprints is the
   paper-trail version of observational equivalence. *)
let outcome_fingerprint (o : _ Instances.agreement_outcome) =
  let b = Buffer.create 4096 in
  let ids ps = String.concat "," (List.map string_of_int ps) in
  Printf.ksprintf (Buffer.add_string b)
    "f=%d words=%d messages=%d byz_words=%d signatures=%d slots=%d latency=%d \
     fallback_runs=%d nonsilent=%d help=%d\n"
    o.Instances.f o.Instances.words o.Instances.messages o.Instances.byz_words
    o.Instances.signatures o.Instances.slots o.Instances.latency
    o.Instances.fallback_runs o.Instances.nonsilent_phases
    o.Instances.help_requests;
  Printf.ksprintf (Buffer.add_string b) "corrupted=%s faulty=%s status=%s\n"
    (ids o.Instances.corrupted) (ids o.Instances.faulty)
    (match o.Instances.status with
    | Instances.Decided -> "decided"
    | Instances.Undecided ps -> "undecided:" ^ ids ps);
  Array.iter
    (fun d -> Buffer.add_char b (match d with Some _ -> '1' | None -> '0'))
    o.Instances.decisions;
  Buffer.add_char b '\n';
  (match o.Instances.trace_json with
  | Some j -> Buffer.add_string b (Jsonx.to_string j)
  | None -> Buffer.add_string b "<no trace>");
  Buffer.contents b

(* A run either completes or a monitor fires; both outcomes must agree
   across schedulers. *)
let observe f =
  match f () with
  | o -> outcome_fingerprint o
  | exception Monitor.Violation { monitor; slot; reason } ->
    Printf.sprintf "violation monitor=%s slot=%d reason=%s" monitor slot reason

(* The fingerprint deliberately excludes [crypto] (cache hit/miss splits):
   per-domain memo tables legitimately move hits between domains as the
   shard count changes. Everything else — signature *counts* included —
   must be invariant. *)
let check_equiv name run =
  let base = observe (fun () -> run `Legacy 1) in
  List.iter
    (fun (scheduler, shards) ->
      let label =
        Printf.sprintf "%s [%s shards=%d]" name
          (Engine.scheduler_to_string scheduler)
          shards
      in
      Alcotest.(check string) label base (observe (fun () -> run scheduler shards)))
    [
      (`Event_driven, 1);
      (`Legacy, 2);
      (`Event_driven, 2);
      (`Legacy, 4);
      (`Event_driven, 4);
    ]

(* ---- battery 1: the protocol zoo over a sweep-style grid --------------- *)

let diff_grid_target (Campaign.Target { name; protocol; params; ablated = _ }) =
  List.iter
    (fun cfg ->
      List.iter
        (fun f ->
          List.iter
            (fun shuffle_seed ->
              let adversary =
                Adversary.const
                  (Adversary.crash ~victims:(List.init f (fun i -> i + 1)) ())
              in
              let label =
                Printf.sprintf "%s n=%d f=%d shuffle=%s" name cfg.Config.n f
                  (match shuffle_seed with
                  | Some s -> Int64.to_string s
                  | None -> "-")
              in
              check_equiv label (fun scheduler shards ->
                  Instances.run protocol ~cfg
                    ~options:
                      {
                        Instances.default_options with
                        Instances.seed = 1L;
                        shuffle_seed;
                        record_trace = true;
                        scheduler;
                        shards;
                      }
                    ~params:(params cfg) ~adversary ()))
            [ None; Some 42L ])
        [ 0; 1; cfg.Config.t ])
    [ cfg9; cfg13; cfg41 ]

let grid_cases () =
  List.iter
    (fun target ->
      if not (Campaign.target_ablated target) then diff_grid_target target)
    Campaign.zoo

(* The standalone fallback as weak BA embeds it: round_len = 2 and per-pid
   start skew in {0, 1}, so half the processes file their round boundaries
   one slot after the other half. *)
let skew_cases () =
  List.iter
    (fun cfg ->
      let n = cfg.Config.n in
      List.iter
        (fun f ->
          List.iter
            (fun shuffle_seed ->
              let label =
                Printf.sprintf "fallback skew n=%d f=%d shuffle=%s" n f
                  (match shuffle_seed with
                  | Some s -> Int64.to_string s
                  | None -> "-")
              in
              check_equiv label (fun scheduler shards ->
                  Instances.run
                    (module Instances.Fallback_protocol)
                    ~cfg
                    ~options:
                      {
                        Instances.default_options with
                        Instances.seed = 1L;
                        shuffle_seed;
                        record_trace = true;
                        scheduler;
                        shards;
                      }
                    ~params:
                      {
                        Instances.Fallback_protocol.inputs =
                          Array.init n (fun p -> if p mod 3 = 0 then "a" else "b");
                        round_len = 2;
                        start_slot = (fun p -> p mod 2);
                      }
                    ~adversary:
                      (Adversary.const
                         (Adversary.crash ~victims:(List.init f (fun i -> i + 1)) ()))
                    ()))
            [ None; Some 42L ])
        [ 0; 1; cfg.Config.t ])
    [ cfg9; cfg13 ]

(* ---- battery 2: the fuzzer's adversary zoo ----------------------------- *)

let diff_scenarios (Campaign.Target { name; protocol; params; ablated }) =
  let cfg = cfg9 in
  let rng = Rng.create 0xD1FFL in
  for i = 0 to 5 do
    let scenario = Scenario.generate ~cfg ~rng in
    let label = Format.asprintf "%s scenario %d (%a)" name i Scenario.pp scenario in
    check_equiv label (fun scheduler shards ->
        let params = params cfg in
        Instances.run protocol ~cfg
          ~options:
            {
              Instances.default_options with
              Instances.seed = scenario.Scenario.seed;
              shuffle_seed = scenario.Scenario.shuffle;
              record_trace = true;
              scheduler;
              shards;
              monitors = Some (Campaign.safety_monitors ~cfg ~ablated);
              faults = Compile.plan_of_scenario scenario;
            }
          ~params
          ~adversary:(Compile.adversary protocol ~cfg ~params scenario)
          ())
  done

let fuzz_cases () = List.iter diff_scenarios Campaign.zoo

(* ---- battery 3: chaos-profile fault plans ------------------------------ *)

let chaos_cases () =
  List.iter
    (fun target ->
      if not (Campaign.target_ablated target) then begin
        let (Campaign.Target { name; protocol; params; ablated = _ }) = target in
        List.iter
          (fun profile ->
            List.iter
              (fun level ->
                let cfg = Degrade.cfg in
                let plan = Degrade.plan_of ~profile ~level in
                let label = Printf.sprintf "%s chaos %s@%d" name profile level in
                check_equiv label (fun scheduler shards ->
                    Instances.run protocol ~cfg
                      ~options:
                        {
                          Instances.default_options with
                          Instances.seed =
                            Degrade.seed_of ~protocol:name ~profile ~level;
                          record_trace = true;
                          scheduler;
                          shards;
                          faults = plan;
                        }
                      ~params:(params cfg)
                      ~adversary:
                        (Adversary.const (Adversary.crash ~victims:[] ()))
                      ()))
              [ 1; Degrade.levels - 1 ])
          Degrade.profiles
      end)
    Campaign.zoo

(* ---- destination filters ----------------------------------------------

   Adversaries that run the honest machine for a corrupted process and keep
   or drop its sends by destination: the named attacks and the fuzzer's
   per-destination behaviours. Each cell digests every slot, send and
   decision, plus each process's decision slot, and must match its pin
   under both schedulers at shards 1 and 2. The pins were recorded while
   every machine still listed a broadcast as its n (message, destination)
   pairs, so a filter that sees a broadcast as one send moves them. *)

let filter_digest (type p s m d) ((module P) : (p, s, m, d) Protocol.t) ~cfg
    ~params ?shuffle_seed
    ?(monitors = fun () -> P.monitors ~cfg ~params) ~adversary ()
    ~scheduler ~shards =
  let monitor, events =
    Test_util.event_digest ~pp_msg:(fun fmt m ->
        Format.pp_print_string fmt (P.encode_msg m))
  in
  match
    Instances.run
      (module P)
      ~cfg
      ~options:
        {
          Instances.default_options with
          Instances.seed = 5L;
          shuffle_seed;
          monitors = Some (monitor :: monitors ());
          scheduler;
          shards;
        }
      ~params ~adversary ()
  with
  | exception Monitor.Violation v ->
    Format.asprintf "%a" Monitor.pp_violation v
  | o ->
    let slots =
      Array.to_list o.Instances.decided_slots
      |> List.map (function Some s -> string_of_int s | None -> "-")
      |> String.concat ","
    in
    Mewc_crypto.Sha256.(to_hex (digest (events () ^ "|" ^ slots)))

let filter_cells =
  let n = 9 in
  let cfg = cfg9 in
  let weak_params inputs =
    {
      (Instances.Weak_ba_protocol.default_params cfg) with
      Instances.Weak_ba_protocol.inputs;
    }
  in
  let unanimous = weak_params (Array.make n "v") in
  let compiled (type p s m d) name ((module P) : (p, s, m, d) Protocol.t)
      behavior =
    let params = P.default_params cfg in
    let scenario =
      {
        Scenario.seed = 5L;
        shuffle = Some 3L;
        corruptions =
          [
            { Scenario.at = 0; pid = 1; behavior };
            { Scenario.at = 3; pid = 2; behavior };
          ];
        faults = [];
      }
    in
    ( Format.asprintf "%s %a" name Scenario.pp_behavior behavior,
      filter_digest
        (module P)
        ~cfg ~params ~shuffle_seed:3L
        ~monitors:(fun () -> Campaign.safety_monitors ~cfg ~ablated:false)
        ~adversary:(Compile.adversary (module P) ~cfg ~params scenario)
        () )
  in
  [
    ( "weak-ba lonely-decider",
      filter_digest
        (module Instances.Weak_ba_protocol)
        ~cfg ~params:unanimous
        ~adversary:(Attacks.wba_lonely_decider ~cfg ~lucky:(cfg.Config.t + 1))
        () );
    ( "weak-ba late-fallback-cert",
      filter_digest
        (module Instances.Weak_ba_protocol)
        ~cfg ~params:unanimous
        ~adversary:(Attacks.wba_late_fallback_cert ~cfg ~victim:0)
        () );
    ( "strong-ba withholding-leader",
      filter_digest
        (module Instances.Strong_ba_protocol)
        ~cfg
        ~params:{ Instances.Strong_ba_protocol.leader = 0; inputs = Array.make n true }
        ~adversary:(Attacks.sba_withholding_leader ~cfg ~leader:0 ~lucky:3)
        () );
    ( "bb equivocating-sender",
      filter_digest
        (module Instances.Bb_protocol)
        ~cfg
        ~params:{ Instances.Bb_protocol.sender = 0; input = "ignored" }
        ~adversary:
          (Attacks.bb_equivocating_sender ~cfg ~sender:0 ~v1:"a" ~v2:"b")
        () );
    (let cfg = Config.optimal ~n:7 in
     ( "fallback lock-carryover-king",
       filter_digest
         (module Instances.Fallback_protocol)
         ~cfg
         ~params:
           {
             Instances.Fallback_protocol.inputs =
               Array.init 7 (fun i -> Printf.sprintf "x%d" i);
             round_len = 1;
             start_slot = (fun _ -> 0);
           }
         ~adversary:(Attacks.epk_lock_carryover_king ~cfg ~target:0)
         () ));
  ]
  @ List.concat_map
      (fun behavior ->
        [
          compiled "weak-ba" (module Instances.Weak_ba_protocol) behavior;
          compiled "bb" (module Instances.Bb_protocol) behavior;
        ])
      [
        Scenario.Selective_silence { drop_mod = 3; drop_rem = 1 };
        Scenario.Withhold_quorum { keep = 4 };
        Scenario.Equivocate { salt = 7 };
        Scenario.Rushing_echo { shift = 2 };
      ]

let pinned_filter_digests =
  [
    ( "weak-ba lonely-decider",
      "93bfabece433839a0394350b530368c5a8c762f785341c625c3546a8227d003a" );
    ( "weak-ba late-fallback-cert",
      "b988aaff2b96cf9c3717b34b53479e9c0f2fb66f10b4d5eac00b2ee4716a7cc9" );
    ( "strong-ba withholding-leader",
      "70c5f2b0b249fe6bc9789f6a87245bbc4197feeccfa37d61afcb136ddfe010ff" );
    ( "bb equivocating-sender",
      "4b033d82dd5831c6aae0d4c5cf14fcdf99658d113440e04b397613e74f799e5b" );
    ( "fallback lock-carryover-king",
      "cb818de5327e143a3479ca3eaf455babb84634ec08d5b0b6450e8889dcfa05f2" );
    ( "weak-ba selective-silence(dst mod 3 = 1)",
      "4754f88f71848f717821e465e97d43255b201480063f50a966ecfc4e17d63f53" );
    ( "bb selective-silence(dst mod 3 = 1)",
      "d19977f1a1dce31edd122a8f38443f239b3bc998c718ac679a4bd6b514b3c3b3" );
    ( "weak-ba withhold-quorum(keep=4)",
      "52433bb4f7be71fe726115be03437201d6d2c9c733c151dbcec7a30d8366484b" );
    ( "bb withhold-quorum(keep=4)",
      "c24143f35903710ea872bac1c790e2c8459de3445c300de8b0f04ab4dd8ece64" );
    ( "weak-ba equivocate(salt=7)",
      "e6b538ae16ac42cf491d33f1228f105234c5ef5f0a3e10832b6db11146039534" );
    ( "bb equivocate(salt=7)",
      "17a3bf94d57e0bdd15f8498ec69e4261ad362897f2b19decddf6a278a072397d" );
    ( "weak-ba rushing-echo(shift=2)",
      "e1fe98a9eb72129f053dd756fe629bfa48853002a643757d39434b80a697f9e3" );
    ( "bb rushing-echo(shift=2)",
      "efc0d2f6148bee37de04835671d234a95978310ed9608ef70dcb827cf077bdd6" );
  ]

let filter_digests_pinned () =
  let misses =
    List.concat_map
      (fun (name, run) ->
        List.filter_map
          (fun (scheduler, shards) ->
            let got = run ~scheduler ~shards in
            match List.assoc_opt name pinned_filter_digests with
            | Some want when String.equal want got -> None
            | _ ->
              Some
                (Printf.sprintf "(%S, %S) (* %s shards=%d *)" name got
                   (Engine.scheduler_to_string scheduler)
                   shards))
          [ (`Legacy, 1); (`Event_driven, 1); (`Legacy, 2); (`Event_driven, 2) ])
      filter_cells
  in
  if misses <> [] then
    Alcotest.failf "digests off their pins:\n%s" (String.concat "\n" misses)

(* ---- the wake calendar's work bound ------------------------------------ *)

(* A run with every machine wrapped to count its steps and wake queries:
   failure-free at n = 1001 by default. The calendar queries each process
   once at start and once after each of its steps, so queries <= steps + n;
   the dense poll it replaced made one query per process per slot. With
   [pinned], the counts must also equal the given (steps, queries). *)
let work_count (type p s m d) ?(n = 1001) ?(f = 0) ?pinned
    ((module P) : (p, s, m, d) Protocol.t) () =
  let cfg = Config.optimal ~n in
  let params = P.default_params cfg in
  let pki, secrets = Mewc_crypto.Pki.setup ~seed:1L ~n () in
  let steps = ref 0 and queries = ref 0 in
  let protocol pid =
    let m = P.machine ~cfg ~pki ~secret:secrets.(pid) ~params ~pid in
    {
      m with
      Process.step =
        (fun ~slot ~inbox st ->
          incr steps;
          m.Process.step ~slot ~inbox st);
      wake =
        Option.map
          (fun wake ~after st ->
            incr queries;
            wake ~after st)
          m.Process.wake;
    }
  in
  let horizon = P.horizon ~cfg ~params in
  let res =
    Engine.run ~cfg
      ~options:{ Engine.default_options with scheduler = `Event_driven }
      ~words:P.words ~horizon ~protocol
      ~adversary:(Adversary.crash ~victims:(List.init f (fun i -> i + 1)) ())
      ()
  in
  Alcotest.(check bool)
    "every correct process decided" true
    (Array.for_all
       (fun p -> (p >= 1 && p <= f) || Option.is_some (P.decision res.Engine.states.(p)))
       (Array.init n Fun.id));
  if !queries > !steps + n then
    Alcotest.failf "%s: %d wake queries for %d steps at n=%d (horizon %d)" P.name
      !queries !steps n horizon;
  match pinned with
  | Some pin ->
    Alcotest.(check (pair int int)) "(steps, wake queries)" pin (!steps, !queries)
  | None -> ()

(* Weak BA at f = t, n = 21, under a monitor that implements both hooks: it
   counts the broadcasts the engine hands it in bulk and the sends it sees
   one by one. On the reliable path each broadcast reaches a monitor once,
   so a change that quietly posts the copies of a broadcast one by one
   moves the first count, while [engine.messages] must count every copy
   (it read 1,592 here while every broadcast was posted as its copies). *)
let broadcast_work () =
  let n = 21 in
  let cfg = Config.optimal ~n in
  let module P = Instances.Weak_ba_protocol in
  let params = P.default_params cfg in
  let pki, secrets = Mewc_crypto.Pki.setup ~seed:1L ~n () in
  let broadcasts = ref 0 and sends = ref 0 in
  let counter =
    Monitor.make ~name:"work"
      ~on_event:(fun ~violate:_ -> function Trace.Send _ -> incr sends | _ -> ())
      ~on_broadcast:(fun ~violate:_ _ -> incr broadcasts)
      ()
  in
  let metrics = Mewc_obs.Metrics.create () in
  ignore
    (Engine.run ~cfg
       ~options:
         { Engine.default_options with monitors = [ counter ]; metrics = Some metrics }
       ~words:P.words ~horizon:(P.horizon ~cfg ~params)
       ~protocol:(fun pid -> P.machine ~cfg ~pki ~secret:secrets.(pid) ~params ~pid)
       ~adversary:
         (Adversary.crash ~victims:(List.init cfg.Config.t (fun i -> i + 1)) ())
       ());
  let messages =
    List.assoc "engine.messages"
      (Mewc_obs.Metrics.snapshot metrics).Mewc_obs.Metrics.counter_values
  in
  Alcotest.(check (pair int int)) "(broadcasts, sends)" (69, 143) (!broadcasts, !sends);
  Alcotest.(check int) "engine.messages" ((!broadcasts * n) + !sends) messages;
  Alcotest.(check int) "engine.messages pinned" 1592 messages

let () =
  Alcotest.run "engine-diff"
    [
      ( "scheduler equivalence",
        [
          Alcotest.test_case "protocol zoo x sweep grid" `Quick grid_cases;
          Alcotest.test_case "fallback start skew" `Quick skew_cases;
          Alcotest.test_case "fuzzer adversary scenarios" `Quick fuzz_cases;
          Alcotest.test_case "chaos fault plans" `Quick chaos_cases;
        ] );
      ( "destination filters",
        [ Alcotest.test_case "pinned digests" `Quick filter_digests_pinned ] );
      ( "calendar",
        [
          Alcotest.test_case "work count weak-ba n=1001" `Quick
            (work_count (module Instances.Weak_ba_protocol));
          Alcotest.test_case "work count bb n=1001" `Quick
            (work_count (module Instances.Bb_protocol));
          (* Every correct process runs the fallback. Its quiet round
             boundaries are not stepped: stepping every boundary took
             (16273, 16374) here. *)
          Alcotest.test_case "work count weak-ba f=t n=101" `Quick
            (work_count ~n:101 ~f:50 ~pinned:(3423, 3524)
               (module Instances.Weak_ba_protocol));
          Alcotest.test_case "broadcasts posted once weak-ba f=t n=21" `Quick
            broadcast_work;
        ] );
    ]
