(* Causal provenance, end to end: the engine's envelope ids and parents
   survive JSON, validate into a happens-before DAG (dense ids, topological
   parents, delivery coherence), cones never outspend the global word
   count, the online cone monitor agrees exactly with the offline
   reconstruction, and a planted over-talkative machine trips the cone
   bound that its honest twin passes. *)

open Mewc_prelude
open Mewc_sim
open Mewc_core
module Fuzz = Mewc_fuzz

let cfg = Config.create ~n:9 ~t:4

let scenarios k =
  let rng = Rng.create 7L in
  List.init k (fun _ -> Fuzz.Scenario.generate ~cfg ~rng)

let sound_targets =
  List.filter
    (fun t -> not (Fuzz.Campaign.target_ablated t))
    Fuzz.Campaign.zoo

(* Run one scenario under the fuzzer's safety monitors with the trace on;
   return the reparsed trace (so the mewc-trace/3 parse side is exercised
   on every run) and the run's global correct-word count. *)
let traced_run (Fuzz.Campaign.Target { protocol; params; ablated; _ })
    (sc : Fuzz.Scenario.t) =
  let params = params cfg in
  let o =
    Instances.run protocol ~cfg
      ~options:
        {
          Instances.default_options with
          Instances.seed = sc.Fuzz.Scenario.seed;
          shuffle_seed = sc.Fuzz.Scenario.shuffle;
          record_trace = true;
          monitors = Some (Fuzz.Campaign.safety_monitors ~cfg ~ablated);
        }
      ~params
      ~adversary:(Fuzz.Compile.adversary protocol ~cfg ~params sc)
      ()
  in
  let json = Option.get o.Instances.trace_json in
  match Trace.of_json ~decode:Fun.id json with
  | Error e -> Alcotest.failf "trace does not reparse: %s" e
  | Ok tr -> (tr, o.Instances.words)

let causal tr =
  match Causality.of_trace tr with
  | Ok c -> c
  | Error e -> Alcotest.failf "of_trace rejected an engine trace: %s" e

let for_all_runs k f =
  List.iter
    (fun target ->
      List.iteri
        (fun i sc ->
          let label =
            Printf.sprintf "%s #%d" (Fuzz.Campaign.target_name target) i
          in
          let tr, words = traced_run target sc in
          f ~label (causal tr) ~words)
        (scenarios k))
    sound_targets

(* Ids are dense and assigned in send order, and every edge points strictly
   backwards — together: the recorded relation is a DAG and trace order is
   a topological order of it. *)
let test_dag_topological () =
  for_all_runs 5 (fun ~label c ~words:_ ->
      let sends = Causality.sends c in
      Array.iteri
        (fun i (s : _ Trace.send) ->
          if s.Trace.id <> i then
            Alcotest.failf "%s: send %d has id %d" label i s.Trace.id;
          List.iter
            (fun p ->
              if p < 0 || p >= i then
                Alcotest.failf "%s: send #%d has non-topological parent %d"
                  label i p)
            s.Trace.parents)
        sends;
      List.iter
        (fun (d : _ Causality.decision) ->
          List.iter
            (fun p ->
              if p < 0 || p >= Array.length sends then
                Alcotest.failf "%s: decision parent %d out of range" label p)
            d.Causality.parents)
        (Causality.decisions c))

(* A decision's cone can spend at most what all correct processes spent. *)
let test_cone_within_global () =
  for_all_runs 5 (fun ~label c ~words ->
      List.iter
        (fun (s : Causality.summary) ->
          if s.Causality.cone_words > words then
            Alcotest.failf "%s: p%d cone %d words > global %d" label
              s.Causality.pid s.Causality.cone_words words;
          if s.Causality.cone_messages > Array.length (Causality.sends c) then
            Alcotest.failf "%s: cone larger than the trace" label;
          if s.Causality.critical_path_length > s.Causality.cone_messages then
            Alcotest.failf "%s: critical path longer than the cone" label)
        (Causality.summaries c))

(* The critical path is a real read chain: consecutive hops are parent
   links, delivery-coherent hop by hop. *)
let test_critical_path_is_chain () =
  for_all_runs 3 (fun ~label c ~words:_ ->
      List.iter
        (fun (s : Causality.summary) ->
          let path = Causality.critical_path c s.Causality.pid in
          let rec check = function
            | (a : _ Trace.send) :: (b : _ Trace.send) :: rest ->
              if not (List.mem a.Trace.id b.Trace.parents) then
                Alcotest.failf "%s: #%d -> #%d is not a recorded read" label
                  a.Trace.id b.Trace.id;
              if a.Trace.envelope.Envelope.dst <> b.Trace.envelope.Envelope.src
              then Alcotest.failf "%s: critical path breaks at #%d" label b.Trace.id;
              check (b :: rest)
            | _ -> ()
          in
          check path)
        (Causality.summaries c))

(* The DOT export is at least structurally sound for every cone. *)
let test_dot_well_formed () =
  let target = List.hd sound_targets in
  let sc = List.hd (scenarios 1) in
  let tr, _ = traced_run target sc in
  let c = causal tr in
  List.iter
    (fun (s : Causality.summary) ->
      let dot = Causality.to_dot ~cone_of:s.Causality.pid c in
      Alcotest.(check bool) "digraph" true
        (String.starts_with ~prefix:"digraph causality {" dot);
      Alcotest.(check bool) "closed" true
        (String.length dot > 2 && String.sub dot (String.length dot - 2) 2 = "}\n"))
    (Causality.summaries c)

(* ---- online monitor vs offline reconstruction --------------------------- *)

(* Re-run a scenario with a single cone monitor at the given bound,
   discarding the outcome (its decision type is existential in the
   target). *)
let run_with_cone_bound (Fuzz.Campaign.Target { protocol; params; _ })
    (sc : Fuzz.Scenario.t) ~bound =
  let params = params cfg in
  ignore
    (Instances.run protocol ~cfg
       ~options:
         {
           Instances.default_options with
           Instances.seed = sc.Fuzz.Scenario.seed;
           shuffle_seed = sc.Fuzz.Scenario.shuffle;
           monitors =
             Some
               [
                 Monitor.cone_words_bound ~cfg ~name:"cone-exact"
                   ~bound:(fun ~f:_ -> bound)
                   ();
               ];
         }
       ~params
       ~adversary:(Fuzz.Compile.adversary protocol ~cfg ~params sc)
       ())

(* The online monitor must accept the offline maximum cone exactly and
   reject one word less — the two implementations agree to the word. One
   word less trips at the first decision (in trace order) whose offline
   cone is the maximum, with that decision's pid, cone, bound and f. *)
let test_monitor_matches_offline () =
  let target =
    List.find
      (fun t -> String.equal (Fuzz.Campaign.target_name t) "weak-ba")
      sound_targets
  in
  List.iteri
    (fun i sc ->
      let tr, _ = traced_run target sc in
      let c = causal tr in
      let max_cone =
        List.fold_left
          (fun acc (s : Causality.summary) -> max acc s.Causality.cone_words)
          0 (Causality.summaries c)
      in
      if Causality.summaries c <> [] then begin
        (match run_with_cone_bound target sc ~bound:max_cone with
        | _ -> ()
        | exception Monitor.Violation v ->
          Alcotest.failf "#%d: exact bound violated: %s" i v.Monitor.reason);
        if max_cone > 0 then begin
          let first =
            List.find
              (fun (s : Causality.summary) -> s.Causality.cone_words = max_cone)
              (Causality.summaries c)
          in
          let f_at_first =
            let f = ref 0 in
            let rec go = function
              | [] -> Alcotest.fail "decision missing from the trace"
              | Trace.Corruption { f = f'; _ } :: rest ->
                f := f';
                go rest
              | Trace.Decision { pid; slot; _ } :: _
                when pid = first.Causality.pid && slot = first.Causality.slot ->
                !f
              | _ :: rest -> go rest
            in
            go (Trace.events tr)
          in
          let expected =
            Printf.sprintf
              "p%d's decision has a causal cone of %d words > bound %d at f=%d"
              first.Causality.pid max_cone (max_cone - 1) f_at_first
          in
          match run_with_cone_bound target sc ~bound:(max_cone - 1) with
          | _ -> Alcotest.failf "#%d: bound %d should have tripped" i (max_cone - 1)
          | exception Monitor.Violation v ->
            Alcotest.(check string) "monitor name" "cone-exact" v.Monitor.monitor;
            Alcotest.(check int) "slot" first.Causality.slot v.Monitor.slot;
            Alcotest.(check bool)
              (Printf.sprintf "reason %S starts with %S" v.Monitor.reason expected)
              true
              (String.starts_with ~prefix:(expected ^ " [replay:") v.Monitor.reason)
        end
      end)
    (scenarios 5)

(* ---- the planted over-talkative ablation -------------------------------- *)

(* A flood machine: broadcast one word at slot 0 ([dup] copies per
   destination), decide at slot 2. Honestly every decision's cone is
   exactly n - 1 charged words (the decider's self-send is free); the
   dup = 2 ablation doubles that without changing decisions — exactly the
   per-decision blow-up the cone monitor exists to catch. *)
type flood = { heard : int; done_ : bool }

let flood_protocol ~dup pid =
  ignore pid;
  {
    Process.init = { heard = 0; done_ = false };
    wake = None;
    step =
      (fun ~slot ~inbox st ->
        let st =
          { heard = st.heard + Mail.length inbox; done_ = st.done_ || slot >= 2 }
        in
        if slot = 0 then
          (st, List.concat (List.init dup (fun _ -> Process.broadcast "x")))
        else (st, []));
  }

let run_flood ~dup ~bound =
  Engine.run ~cfg
    ~options:
      {
        Engine.default_options with
        Engine.monitors =
          [
            Monitor.cone_words_bound ~cfg ~name:"flood-cone"
              ~bound:(fun ~f:_ -> bound)
              ();
          ];
        decided = Some (fun st -> if st.done_ then Some (string_of_int st.heard) else None);
      }
    ~words:(fun _ -> 1)
    ~horizon:3
    ~protocol:(flood_protocol ~dup)
    ~adversary:(Adversary.honest ~name:"honest")
    ()

let test_overtalkative_trips_cone_bound () =
  let bound = cfg.Config.n - 1 in
  (* honest: every cone is exactly the n - 1 charged slot-0 words addressed
     to the decider, so the bound is tight and passes. The run's total is
     n(n - 1), past the bound, so the monitor cannot skip its frontier pass
     here: one word less must report the exact cone. *)
  (match run_flood ~dup:1 ~bound with
  | o ->
    Alcotest.(check bool) "global total exceeds the bound" true
      (Meter.correct_words o.Engine.meter > bound)
  | exception Monitor.Violation v ->
    Alcotest.failf "honest flood violated: %s" v.Monitor.reason);
  (match run_flood ~dup:1 ~bound:(bound - 1) with
  | _ -> Alcotest.fail "a cone of n - 1 words passed bound n - 2"
  | exception Monitor.Violation v ->
    Alcotest.(check string) "reason"
      (Printf.sprintf "p0's decision has a causal cone of %d words > bound %d at f=0"
         bound (bound - 1))
      v.Monitor.reason);
  (* duplicated sends: same decisions, double the causal spend *)
  match run_flood ~dup:2 ~bound with
  | _ -> Alcotest.fail "over-talkative flood passed the cone bound"
  | exception Monitor.Violation v ->
    Alcotest.(check string) "monitor" "flood-cone" v.Monitor.monitor;
    Alcotest.(check int) "caught at decision time" 2 v.Monitor.slot

let () =
  Alcotest.run "causality"
    [
      ( "dag",
        [
          Alcotest.test_case "ids dense, parents topological" `Quick
            test_dag_topological;
          Alcotest.test_case "cone within global words" `Quick
            test_cone_within_global;
          Alcotest.test_case "critical path is a read chain" `Quick
            test_critical_path_is_chain;
          Alcotest.test_case "dot export well-formed" `Quick test_dot_well_formed;
        ] );
      ( "online monitor",
        [
          Alcotest.test_case "agrees with offline to the word" `Quick
            test_monitor_matches_offline;
          Alcotest.test_case "over-talkative ablation caught" `Quick
            test_overtalkative_trips_cone_bound;
        ] );
    ]
