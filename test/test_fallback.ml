(* A_fallback (echo phase king): agreement, termination, strong unanimity,
   resilience to crashes, equivocating kings, and skewed starts. *)

open Mewc_sim
open Mewc_core

let cfg = Test_util.cfg

let run ?(round_len = 1) ?(start_slot = fun _ -> 0)
    ?(adversary = Adversary.const (Adversary.honest ~name:"h")) ~n inputs =
  Instances.run (module Instances.Fallback_protocol) ~cfg:(cfg n)
    ~params:
      { Instances.Fallback_protocol.inputs = Array.of_list inputs; round_len; start_slot }
    ~adversary ()

let agree ?expect (o : _ Instances.agreement_outcome) =
  let got =
    Test_util.check_agreement ~pp:Test_util.pp_str ~equal:String.equal
      ~corrupted:o.corrupted o.decisions
  in
  match expect with
  | Some v -> Alcotest.(check string) "decision" v got
  | None -> ()

let unanimity_failure_free () =
  agree ~expect:"v" (run ~n:7 (List.init 7 (fun _ -> "v")))

let unanimity_under_crashes () =
  (* Kings of the first phases crash; the first correct king must still
     drive the unanimous value. *)
  let o =
    run ~n:7
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1; 2; 3 ] ()))
      (List.init 7 (fun _ -> "v"))
  in
  agree ~expect:"v" o

let divergent_agreement () =
  agree (run ~n:9 (List.init 9 (fun i -> Printf.sprintf "x%d" i)))

let divergent_with_crashes () =
  let o =
    run ~n:9
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1; 2; 3; 4 ] ()))
      (List.init 9 (fun i -> Printf.sprintf "x%d" (i mod 2)))
  in
  agree o

let majority_certified_input_wins () =
  (* t+1 processes propose "m": "m" is popular everywhere, so no other value
     can be certified, and the decision must be "m". *)
  let n = 7 in
  let inputs = List.init n (fun i -> if i < 4 then "m" else Printf.sprintf "y%d" i) in
  agree ~expect:"m" (run ~n inputs)

let adaptive_mid_run_crashes () =
  let o =
    run ~n:9
      ~adversary:(Adversary.const (Adversary.staggered_crash ~victims:[ 1; 2; 3; 4 ] ~every:4))
      (List.init 9 (fun _ -> "v"))
  in
  agree ~expect:"v" o

let equivocating_king_survived () =
  (* King of phase 1 equivocates; the echo round must prevent any
     certification in phase 1 and a later king decides. All inputs distinct
     so unjustified proposals are acceptable (worst case for the attack). *)
  let n = 7 in
  let o =
    run ~n
      ~adversary:(Attacks.epk_equivocating_king ~cfg:(cfg n) ~king:1 ~v1:"a" ~v2:"b")
      (List.init n (fun i -> Printf.sprintf "x%d" i))
  in
  let got =
    Test_util.check_agreement ~pp:Test_util.pp_str ~equal:String.equal
      ~corrupted:o.corrupted o.decisions
  in
  (* Phase 1 must not have decided either of the king's split values
     because no correct process may vote when it sees two proposals. It can
     still decide "a" or "b" later via an honest king whose input they are
     not — here inputs are x0..x6, so neither. *)
  Alcotest.(check bool) "not a Byzantine value" false (got = "a" || got = "b")

let unanimity_beats_byzantine_king () =
  (* All correct processes propose "v"; the Byzantine king pushes "w".
     Strong unanimity must hold: input certificates for "v" make "w"
     unvotable. *)
  let n = 7 in
  let o =
    run ~n
      ~adversary:(Attacks.epk_equivocating_king ~cfg:(cfg n) ~king:1 ~v1:"w" ~v2:"w")
      (List.init n (fun _ -> "v"))
  in
  agree ~expect:"v" o

let skewed_starts () =
  (* round_len = 2 tolerates a one-slot start skew (paper Lemma 18). *)
  let n = 7 in
  let o =
    run ~n ~round_len:2
      ~start_slot:(fun pid -> if pid mod 2 = 0 then 0 else 1)
      (List.init n (fun i -> Printf.sprintf "x%d" (i mod 2)))
  in
  agree o

let skewed_starts_with_crashes () =
  let n = 9 in
  let o =
    run ~n ~round_len:2
      ~start_slot:(fun pid -> pid mod 2)
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1; 2 ] ()))
      (List.init n (fun _ -> "v"))
  in
  agree ~expect:"v" o

let quiescence_after_decision () =
  (* Once everyone decides, later phases are silent: a run that decides in
     phase 1 must cost strictly less than the same run forced to phase 3 by
     crashing the first two kings, and neither grows with the number of
     remaining phases. *)
  let n = 9 in
  (* Both runs crash two processes, so the correct sets have equal size;
     only the crashed pids differ: non-kings (decision in phase 1) vs the
     first two kings (decision in phase 3). *)
  let fast =
    run ~n
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 7; 8 ] ()))
      (List.init n (fun _ -> "v"))
  in
  let slow =
    run ~n
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 1; 2 ] ()))
      (List.init n (fun _ -> "v"))
  in
  Alcotest.(check bool)
    (Printf.sprintf "phase-1 run (%d) cheaper than phase-3 run (%d)" fast.words
       slow.words)
    true
    (fast.words < slow.words);
  (* And even the slow run stays far below (t+1) fully-active phases. *)
  Alcotest.(check bool)
    (Printf.sprintf "slow run %d below 4 phases worth" slow.words)
    true
    (slow.words < 4 * (3 * n * n))

let words_scale_quadratically () =
  let words_for n = (run ~n (List.init n (fun _ -> "v"))).Instances.words in
  let pts =
    List.map (fun n -> (float_of_int n, float_of_int (words_for n))) [ 9; 17; 33; 65 ]
  in
  let fit = Mewc_prelude.Stats.loglog_fit pts in
  Alcotest.(check bool)
    (Printf.sprintf "exponent %.2f in [1.6, 2.4]" fit.Mewc_prelude.Stats.slope)
    true
    (fit.Mewc_prelude.Stats.slope > 1.6 && fit.Mewc_prelude.Stats.slope < 2.4)

let lock_carryover () =
  (* The cross-phase safety mechanism in isolation: phase 1's Byzantine king
     certifies its value but shows the certificate to a single correct
     process; that process's lock must steer phase 2 (correct king) to the
     same value. *)
  let n = 7 in
  let o =
    run ~n
      ~adversary:(Attacks.epk_lock_carryover_king ~cfg:(cfg n) ~target:0)
      (List.init n (fun i -> Printf.sprintf "x%d" i))
  in
  agree ~expect:"king-value" o

let trace_shows_quiescence () =
  (* Hard quiescence check via the trace: after the slot at which the last
     correct process decided (plus one slot for the one-shot Decided
     announcements), correct processes send nothing at all. *)
  let module E = Instances.Epk_str in
  let n = 9 in
  let c = cfg n in
  let pki, secrets = Mewc_crypto.Pki.setup ~seed:5L ~n () in
  let protocol pid =
    {
      Process.init =
        E.init ~cfg:c ~pki ~secret:secrets.(pid) ~pid ~input:"v" ~start_slot:0
          ~round_len:1;
      step = (fun ~slot ~inbox st -> E.step ~slot ~inbox st);
      wake = None;
    }
  in
  let res =
    Engine.run ~cfg:c
      ~options:{ Engine.default_options with record_trace = true }
      ~words:E.words ~horizon:(E.horizon c ~round_len:1) ~protocol
      ~adversary:(Adversary.honest ~name:"h") ()
  in
  let last_decision =
    Array.to_list res.Engine.states
    |> List.filter_map E.decided_at
    |> List.fold_left max 0
  in
  let late_correct_sends =
    Trace.sends res.Engine.trace
    |> List.filter (fun s ->
           (not s.Trace.byzantine_sender)
           && s.Trace.envelope.Envelope.sent_at > last_decision + 1)
  in
  Alcotest.(check int)
    (Printf.sprintf "no correct traffic after slot %d" (last_decision + 1))
    0
    (List.length late_correct_sends);
  Alcotest.(check bool) "everyone decided" true
    (Array.for_all (fun st -> E.decision st <> None) res.Engine.states)

let qcheck_agreement_random_crashes =
  Test_util.qcheck_case ~count:40 ~name:"agreement under random inputs+crashes"
    QCheck2.Gen.(
      triple (int_range 0 1000) (oneofl [ 5; 7; 9 ]) (list_size (int_range 0 4) (int_range 0 8)))
    (fun (seed, n, victims) ->
      let c = cfg n in
      let t = c.Config.t in
      let victims =
        List.sort_uniq Int.compare (List.filter (fun v -> v < n) victims)
        |> List.filteri (fun i _ -> i < t)
      in
      let rng = Mewc_prelude.Rng.create (Int64.of_int (seed + 1)) in
      let inputs =
        List.init n (fun _ -> Printf.sprintf "v%d" (Mewc_prelude.Rng.int rng 3))
      in
      let o =
        run ~n ~adversary:(Adversary.const (Adversary.crash ~victims ())) inputs
      in
      let decided =
        Array.to_list o.Instances.decisions
        |> List.mapi (fun p d -> (p, d))
        |> List.filter (fun (p, _) -> not (List.mem p o.Instances.corrupted))
        |> List.map snd
      in
      List.for_all (fun d -> d <> None) decided
      && List.sort_uniq compare decided |> List.length = 1)

(* ---- round buffer -------------------------------------------------------

   The ring against a reference model with one list per round
   [0 .. last]. Ops are relative to [consumed] or to [last], so the draws
   reach tags below [consumed], near it, far ahead of it (which grows the
   ring, up to [last + 1] slots), at [last] and past it, and drains run
   past [last] too. *)

module Round_buffer = Mewc_fallback.Round_buffer

type rb_op = Add of int | Drain of int | Add_at of int | Add_last of int

let rb_gen =
  QCheck2.Gen.(
    pair (oneof [ int_range 0 9; int_range 10 300 ])
      (list_size (int_range 0 120)
         (frequency
            [
              (6, map (fun d -> Add d) (int_range (-3) 3));
              (2, map (fun d -> Add d) (int_range 4 400));
              (1, map (fun r -> Add_at r) (int_range (-2) 310));
              (1, map (fun d -> Add_last d) (int_range (-2) 3));
              (3, map (fun d -> Drain d) (int_range (-2) 4));
              (1, map (fun d -> Drain d) (int_range 5 400));
            ])))

let ring_matches_array_model =
  Test_util.qcheck_case ~count:500 ~name:"ring ≡ per-round array model" rb_gen
    (fun (last, ops) ->
      let b = Round_buffer.create ~last in
      let model = Array.make (last + 1) [] (* newest first *)
      and consumed = ref 0 and next = ref 0 in
      let model_first () =
        let r = ref !consumed in
        while !r <= last && model.(!r) = [] do
          incr r
        done;
        if !r <= last then !r else max_int
      in
      let add round =
        let x = !next in
        incr next;
        Round_buffer.add b ~round x;
        if round >= !consumed && round <= last then model.(round) <- x :: model.(round)
      in
      let drain upto =
        let got = ref [] in
        Round_buffer.drain b ~upto (fun r iter ->
            let once = ref [] in
            iter (fun x -> once := x :: !once);
            let again = ref [] in
            iter (fun x -> again := x :: !again);
            if !once <> !again then QCheck2.Test.fail_reportf "round %d: iter differs" r;
            got := (r, List.rev !once) :: !got);
        let want = ref [] in
        for r = !consumed to Int.min (upto - 1) last do
          if model.(r) <> [] then want := (r, List.rev model.(r)) :: !want;
          model.(r) <- []
        done;
        consumed := Int.max !consumed upto;
        if !got <> !want then QCheck2.Test.fail_reportf "drain ~upto:%d differs" upto
      in
      List.iter
        (fun op ->
          (match op with
          | Add d -> add (!consumed + d)
          | Add_at r -> add r
          | Add_last d -> add (last + d)
          | Drain d -> drain (!consumed + d));
          if Round_buffer.consumed b <> !consumed then
            QCheck2.Test.fail_reportf "consumed %d, model %d" (Round_buffer.consumed b)
              !consumed;
          if Round_buffer.first_pending b <> model_first () then
            QCheck2.Test.fail_reportf "first_pending %d, model %d"
              (Round_buffer.first_pending b) (model_first ()))
        ops;
      drain (last + 2);
      Round_buffer.first_pending b = max_int)

(* ---- event digests -------------------------------------------------------

   The fallback's wake query lets the event-driven engine skip its quiet
   round boundaries, and its receive path drops late mail by the round the
   skipped boundaries would have consumed. These cells digest every slot,
   send and decision, plus each process's decision slot, under shuffled
   delivery and fault plans that delay and duplicate links: a late message
   that one mode buffers and the other drops moves the digest. Cells cover
   the standalone fallback under start skew and weak BA at f = t, at
   n = 9 and n = 21, each run by both schedulers at shards 1 and 2. In half
   of them p1, the first fallback king, is not crashed but a laggard: it
   runs the honest machine and sends everything two slots (one fallback
   round) late, so its proposal reaches processes that had nothing to
   ingest at the echo boundary and skipped it. *)

(* Corrupts [victim]; it runs the honest machine and holds each slot's
   sends back [lag] slots. *)
let laggard (type p s m d) ((module P) : (p, s, m, d) Protocol.t) ~cfg ~params
    ~victim ~lag : (s, m) Adversary.factory =
 fun ~pki ~secrets ->
  let held = Queue.create () in
  Strategies.deviant ~name:"laggard" ~victims:[ victim ]
    ~machine:(fun pid -> P.machine ~cfg ~pki ~secret:secrets.(pid) ~params ~pid)
    ~mangle:(fun ~slot ~pid:_ ~inbox:_ sends ->
      Queue.push (slot + lag, sends) held;
      let out = ref [] in
      while (not (Queue.is_empty held)) && fst (Queue.peek held) <= slot do
        out := !out @ snd (Queue.pop held)
      done;
      !out)

let digest_cells =
  let plans =
    [
      ("delay@4", Degrade.plan_of ~profile:"delay" ~level:4);
      ("dup@2", Degrade.plan_of ~profile:"dup" ~level:2);
    ]
  in
  let crash c ~from =
    Adversary.const
      (Adversary.crash
         ~victims:(List.init (c.Config.t - from + 1) (fun i -> i + from))
         ())
  in
  let run (type p s m d) ((module P) : (p, s, m, d) Protocol.t) ~cfg ~params
      ~laggard:lag ~faults ~scheduler ~shards =
    let monitor, events =
      Test_util.event_digest ~pp_msg:(fun fmt m ->
          Format.pp_print_string fmt (P.encode_msg m))
    in
    let adversary =
      match lag with
      | None -> crash cfg ~from:1
      | Some lag ->
        fun ~pki ~secrets ->
          Strategies.compose
            (laggard (module P) ~cfg ~params ~victim:1 ~lag ~pki ~secrets)
            (crash cfg ~from:2 ~pki ~secrets)
    in
    let o =
      Instances.run
        (module P)
        ~cfg
        ~options:
          {
            Instances.default_options with
            Instances.seed = 5L;
            shuffle_seed = Some 9L;
            monitors = Some [ monitor ];
            faults;
            scheduler;
            shards;
          }
        ~params ~adversary ()
    in
    let slots =
      Array.to_list o.Instances.decided_slots
      |> List.map (function Some s -> string_of_int s | None -> "-")
      |> String.concat ","
    in
    Mewc_crypto.Sha256.(to_hex (digest (events () ^ "|" ^ slots)))
  in
  List.concat_map
    (fun n ->
      let c = cfg n in
      let fallback =
        {
          Instances.Fallback_protocol.inputs =
            Array.init n (fun p -> if p mod 3 = 0 then "a" else "b");
          round_len = 2;
          start_slot = (fun p -> p mod 2);
        }
      in
      let weak =
        {
          (Instances.Weak_ba_protocol.default_params c) with
          Instances.Weak_ba_protocol.inputs =
            Array.init n (fun p -> if p mod 2 = 0 then "a" else "b");
        }
      in
      List.concat_map
        (fun (plan, faults) ->
          List.concat_map
            (fun (who, lag) ->
              [
                ( Printf.sprintf "fallback n=%d %s %s" n who plan,
                  run
                    (module Instances.Fallback_protocol)
                    ~cfg:c ~params:fallback ~laggard:lag ~faults );
                ( Printf.sprintf "weak-ba f=t n=%d %s %s" n who plan,
                  run
                    (module Instances.Weak_ba_protocol)
                    ~cfg:c ~params:weak ~laggard:lag ~faults );
              ])
            [ ("crash", None); ("laggard", Some 2) ])
        plans)
    [ 9; 21 ]

(* Recorded before the fallback answered a precise wake query and took its
   mail through [receive]; a change to how the fallback steps must leave
   them alone. *)
let pinned_digests =
  [
    ( "fallback n=9 crash delay@4",
      "2757e4d34331c4cd4e68fed9a3ed13585a5c3a35638019bb10a3ce27e6a8c161" );
    ( "weak-ba f=t n=9 crash delay@4",
      "f01b19d8b44f658b81b956901caf828633c78c53d2594ac79f01141637cee921" );
    ( "fallback n=9 laggard delay@4",
      "a654de92c11158290f41f54a78c4394365bb4d95cc27d0bb5e71f5d2ee57e05c" );
    ( "weak-ba f=t n=9 laggard delay@4",
      "6444e8b9f88bc6c6bc54cb61a3852611c43099c6389c1ba7dc1a1f96b9195bc5" );
    ( "fallback n=9 crash dup@2",
      "af0d2e406636dac23634650f099d41e067274bf42444969689167fc084bd2e4b" );
    ( "weak-ba f=t n=9 crash dup@2",
      "0eddaab4b98aa2c438d2787cf93c6dd51f0d5ae137594a6c5b137b13f6d16e63" );
    ( "fallback n=9 laggard dup@2",
      "583b34ce1bcce229c6d801cc0c6b9bbc7848c6edf245f318c304c9676b18720d" );
    ( "weak-ba f=t n=9 laggard dup@2",
      "ab4c752ac3e34dd5b15b5c84a3e27699530aa93e105c387473a3850664f80ad9" );
    ( "fallback n=21 crash delay@4",
      "c5a43aae3419127744f378d69bc9f64d7be28f000bbee893e5a1130390d2ceea" );
    ( "weak-ba f=t n=21 crash delay@4",
      "9ab16941b3f408e187ff41586b725373f88570daaeecaf2d29e7dadfb01dcb02" );
    ( "fallback n=21 laggard delay@4",
      "d9c7025d8b8349bfa171574be8c8ae0167ddfd14572ed0bf6be882ef038738ca" );
    ( "weak-ba f=t n=21 laggard delay@4",
      "0e7a06dc73539618db3af8a05cf3fc0742f838f06e56dab36e60a111593ef5ac" );
    ( "fallback n=21 crash dup@2",
      "d4694bec046db5ec8bf79d636777e24c6455aa28aaef8f4e804fce74e013c841" );
    ( "weak-ba f=t n=21 crash dup@2",
      "17468a8f72f3b798d09cb15579a5a7c938f343f095b05450d7f91e56f16ea2fe" );
    ( "fallback n=21 laggard dup@2",
      "9fdb359cd18f6d13a36127f7baefcdca74cf1d259ce294792ba4f5ea0862d47c" );
    ( "weak-ba f=t n=21 laggard dup@2",
      "1932bce5ea77c21f048fc216da1a9d01c6a1e9a45516b53f12e7bae775071002" );
  ]

let digests_pinned () =
  let misses =
    List.concat_map
      (fun (name, run) ->
        List.filter_map
          (fun (scheduler, shards) ->
            let got = run ~scheduler ~shards in
            match List.assoc_opt name pinned_digests with
            | Some want when String.equal want got -> None
            | _ ->
              Some
                (Printf.sprintf "(%S, %S) (* %s shards=%d *)" name got
                   (Engine.scheduler_to_string scheduler)
                   shards))
          [ (`Legacy, 1); (`Event_driven, 1); (`Legacy, 2); (`Event_driven, 2) ])
      digest_cells
  in
  if misses <> [] then
    Alcotest.failf "digests off their pins:\n%s" (String.concat "\n" misses)

(* ---- several input quorums ----------------------------------------------

   With n > 2t + 1, two or three input values can each reach the t + 1
   input quorum. Every process certifies the one of the lowest signer,
   whatever order its mail arrives in, so the first king proposes it with
   its input certificate and all decide it, reliable and shuffled. *)
let tie_cells =
  [
    ("n=11 t=3 a6 b5", 11, 3, (fun p -> if p < 6 then "a" else "b"), "a");
    ("n=11 t=3 b5 a6", 11, 3, (fun p -> if p < 5 then "b" else "a"), "b");
    ("n=15 t=4 a5 b5 c5", 15, 4, (fun p -> [| "a"; "b"; "c" |].(p mod 3)), "a");
    ( "n=13 t=3 z4 y4 x5",
      13,
      3,
      (fun p -> if p < 4 then "z" else if p < 8 then "y" else "x"),
      "z" );
  ]

let lowest_signer_certified () =
  List.iter
    (fun (name, n, t, input, expect) ->
      List.iter
        (fun shuffle_seed ->
          let module P = Instances.Fallback_protocol in
          let o =
            Instances.run
              (module P)
              ~cfg:(Config.create ~n ~t)
              ~options:
                {
                  Instances.default_options with
                  Instances.seed = 3L;
                  shuffle_seed;
                }
              ~params:
                {
                  P.inputs = Array.init n input;
                  round_len = 1;
                  start_slot = (fun _ -> 0);
                }
              ~adversary:(Adversary.const (Adversary.honest ~name:"honest"))
              ()
          in
          let got =
            Test_util.check_agreement ~pp:Test_util.pp_str ~equal:String.equal
              ~corrupted:o.corrupted o.decisions
          in
          let order =
            match shuffle_seed with
            | None -> "reliable"
            | Some s -> Printf.sprintf "shuffle %Ld" s
          in
          Alcotest.(check string) (Printf.sprintf "%s, %s" name order) expect got)
        [ None; Some 4L; Some 9L ])
    tie_cells

(* ---- round-0 tally cost ------------------------------------------------

   All-distinct inputs: no value reaches the quorum. Ingesting them costs
   O(n²/(t+1)) value comparisons, here a few per input, not an O(n) count
   per signer. *)
module Counted = struct
  include Value.Str

  let comparisons = ref 0

  let equal a b =
    incr comparisons;
    String.equal a b
end

let distinct_inputs_tally_cost () =
  let module E = Mewc_fallback.Echo_phase_king.Make (Counted) in
  let n = 101 in
  let pki, secrets = Mewc_crypto.Pki.setup ~seed:5L ~n () in
  let st =
    E.init ~cfg:(Config.create ~n ~t:50) ~pki ~secret:secrets.(0) ~pid:0
      ~input:"x0" ~start_slot:0 ~round_len:1
  in
  let st, _ = E.step ~slot:0 ~inbox:Mail.empty st in
  let input p =
    let value = Printf.sprintf "x%d" p in
    let share =
      Mewc_crypto.Certificate.share pki secrets.(p) ~purpose:E.input_purpose
        ~payload:(Counted.encode value)
    in
    {
      Envelope.src = p;
      dst = 0;
      sent_at = 0;
      msg = { E.round = 0; body = E.Input { value; share } };
    }
  in
  let inbox = Mail.of_list (List.init n input) in
  Counted.comparisons := 0;
  let st, _ = E.step ~slot:1 ~inbox st in
  Alcotest.(check bool) "no popular value" true (E.decision st = None);
  if !Counted.comparisons > 5 * n then
    Alcotest.failf "%d value comparisons to ingest %d distinct inputs"
      !Counted.comparisons n

let () =
  Alcotest.run "fallback (echo phase king)"
    [
      ( "strong unanimity",
        [
          Alcotest.test_case "failure free" `Quick unanimity_failure_free;
          Alcotest.test_case "under crashes" `Quick unanimity_under_crashes;
          Alcotest.test_case "beats byzantine king" `Quick unanimity_beats_byzantine_king;
          Alcotest.test_case "majority-certified input wins" `Quick
            majority_certified_input_wins;
        ] );
      ( "agreement & termination",
        [
          Alcotest.test_case "divergent inputs" `Quick divergent_agreement;
          Alcotest.test_case "divergent + crashes" `Quick divergent_with_crashes;
          Alcotest.test_case "adaptive mid-run crashes" `Quick adaptive_mid_run_crashes;
          Alcotest.test_case "equivocating king" `Quick equivocating_king_survived;
          Alcotest.test_case "lock carry-over across phases" `Quick lock_carryover;
          qcheck_agreement_random_crashes;
          Alcotest.test_case "several input quorums" `Quick lowest_signer_certified;
        ] );
      ( "timing",
        [
          Alcotest.test_case "skewed starts (2δ rounds)" `Quick skewed_starts;
          Alcotest.test_case "skewed starts + crashes" `Quick skewed_starts_with_crashes;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "quiescence after decision" `Quick quiescence_after_decision;
          Alcotest.test_case "trace-level quiescence" `Quick trace_shows_quiescence;
          Alcotest.test_case "quadratic scaling" `Slow words_scale_quadratically;
          Alcotest.test_case "distinct inputs tally cost" `Quick
            distinct_inputs_tally_cost;
        ] );
      ("event digests", [ Alcotest.test_case "pinned" `Quick digests_pinned ]);
      ("round buffer", [ ring_matches_array_model ]);
    ]
