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
        ] );
    ]
