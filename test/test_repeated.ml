(* Multi-shot BB: the replicated log. *)

open Mewc_sim
open Mewc_core

let cfg = Test_util.cfg

let propose pid i = Printf.sprintf "cmd-%d-by-p%d" i pid

let correct_logs (o : Repeated_bb.outcome) =
  Array.to_list o.logs
  |> List.mapi (fun p l -> (p, l))
  |> List.filter (fun (p, _) -> not (List.mem p o.corrupted))

let check_logs_agree o =
  match correct_logs o with
  | [] -> Alcotest.fail "no correct replicas"
  | (_, reference) :: rest ->
    List.iter
      (fun (p, l) ->
        if l <> reference then Alcotest.failf "replica p%d's log diverges" p)
      rest;
    reference

let honest_log () =
  let n = 9 in
  let o =
    Repeated_bb.run ~cfg:(cfg n) ~length:5 ~propose
      ~adversary:(Adversary.const (Adversary.honest ~name:"h"))
      ()
  in
  let log = check_logs_agree o in
  Array.iteri
    (fun i entry ->
      let expected = Repeated_bb.Committed (propose (i mod n) i) in
      match entry with
      | Some e when Repeated_bb.equal_entry e expected -> ()
      | Some e ->
        Alcotest.failf "slot %d: got %s" i (Format.asprintf "%a" Repeated_bb.pp_entry e)
      | None -> Alcotest.failf "slot %d undecided" i)
    log

let byzantine_proposer_skipped () =
  (* The proposer of slot 2 crashes just before its slot: that slot commits
     ⊥ (skipped); all other slots commit their proposers' commands. *)
  let n = 9 in
  let stride = Repeated_bb.stride (cfg n) in
  let o =
    Repeated_bb.run ~cfg:(cfg n) ~length:5 ~propose
      ~adversary:
        (Adversary.const (Adversary.crash ~at:(2 * stride) ~victims:[ 2 ] ()))
      ()
  in
  let log = check_logs_agree o in
  (match log.(2) with
  | Some Repeated_bb.Skipped -> ()
  | Some e ->
    Alcotest.failf "slot 2: expected skip, got %s"
      (Format.asprintf "%a" Repeated_bb.pp_entry e)
  | None -> Alcotest.fail "slot 2 undecided");
  List.iter
    (fun i ->
      match log.(i) with
      | Some (Repeated_bb.Committed v) ->
        Alcotest.(check string) (Printf.sprintf "slot %d" i) (propose (i mod n) i) v
      | _ -> Alcotest.failf "slot %d not committed" i)
    [ 0; 1; 3; 4 ]

let early_crash_tolerated () =
  let n = 9 in
  let o =
    Repeated_bb.run ~cfg:(cfg n) ~length:4 ~propose
      ~adversary:(Adversary.const (Adversary.crash ~victims:[ 5; 6 ] ()))
      ()
  in
  let log = check_logs_agree o in
  Array.iteri
    (fun i e ->
      if e = None then Alcotest.failf "slot %d undecided" i)
    log

let words_amortize_linearly () =
  (* The per-slot cost must not grow with the log length: each BB instance
     is independent and adaptive. *)
  let n = 9 in
  let per_slot length =
    let o =
      Repeated_bb.run ~cfg:(cfg n) ~length ~propose
        ~adversary:(Adversary.const (Adversary.honest ~name:"h"))
        ()
    in
    o.Repeated_bb.words_per_slot
  in
  let a = per_slot 2 and b = per_slot 8 in
  Alcotest.(check bool)
    (Printf.sprintf "per-slot cost flat (%.1f vs %.1f)" a b)
    true
    (abs_float (a -. b) /. a < 0.05)

(* ---- pipelining is a scheduling policy, not a protocol change ---------- *)

(* The oracle equality: on the same seed, every pipeline offset must
   produce the same final logs as the sequential schedule, and every
   instance must decide at the same point of its own [stride]-window —
   only the wall-slot placement of the windows moves. *)
let pipelined_logs_match_oracle () =
  let n = 9 in
  let c = cfg n in
  let stride = Repeated_bb.stride c in
  let length = 6 in
  let run ?offset adversary =
    Repeated_bb.run ~cfg:c ~seed:5L ?offset ~length ~propose ~adversary ()
  in
  List.iter
    (fun (name, adversary) ->
      let oracle = run adversary in
      List.iter
        (fun offset ->
          let o = run ~offset adversary in
          if o.Repeated_bb.logs <> oracle.Repeated_bb.logs then
            Alcotest.failf "%s offset=%d: logs diverge from the oracle" name
              offset;
          (* decision slots, re-based to each instance's start, must match
             the oracle's re-based decision slots exactly. *)
          let rebase off (per_proc : int option array array) =
            Array.map
              (Array.mapi (fun i d -> Option.map (fun s -> s - (i * off)) d))
              per_proc
          in
          if
            rebase offset o.Repeated_bb.decided_slots
            <> rebase stride oracle.Repeated_bb.decided_slots
          then
            Alcotest.failf "%s offset=%d: relative decision slots diverge" name
              offset;
          Alcotest.(check int)
            (Printf.sprintf "%s offset=%d horizon" name offset)
            (((length - 1) * offset) + stride)
            o.Repeated_bb.slots)
        [ 1; 2; stride / 2; stride ])
    [
      ("honest", Adversary.const (Adversary.honest ~name:"h"));
      ("crash", Adversary.const (Adversary.crash ~victims:[ 5; 6 ] ()));
    ]

let byzantine_proposer_skipped_at_its_slots_pipelined () =
  (* Round-robin: a proposer crashed from slot 0 skips exactly the log
     slots it owns (i mod n), at any pipeline depth. *)
  let n = 5 in
  let c = cfg n in
  let length = 12 in
  let victim = 2 in
  List.iter
    (fun offset ->
      let o =
        Repeated_bb.run ~cfg:c ~seed:3L ~offset ~length ~propose
          ~adversary:(Adversary.const (Adversary.crash ~victims:[ victim ] ()))
          ()
      in
      let log = check_logs_agree o in
      Array.iteri
        (fun i entry ->
          match (entry, i mod n = victim) with
          | Some Repeated_bb.Skipped, true -> ()
          | Some (Repeated_bb.Committed v), false ->
            Alcotest.(check string)
              (Printf.sprintf "offset=%d slot %d" offset i)
              (propose (i mod n) i) v
          | Some e, _ ->
            Alcotest.failf "offset=%d slot %d: unexpected %s" offset i
              (Format.asprintf "%a" Repeated_bb.pp_entry e)
          | None, _ -> Alcotest.failf "offset=%d slot %d undecided" offset i)
        log)
    [ 1; Repeated_bb.stride c ]

(* ---- the event digest --------------------------------------------------- *)

(* The printed log, the decision projection the digest runs install: the
   engine emits a [Decision] event each time a replica's log grows. *)
let render_log st =
  let log = Repeated_bb.log st in
  if Array.for_all Option.is_none log then None
  else
    Some
      (Array.to_list log
      |> List.map (function
           | None -> "."
           | Some e -> Format.asprintf "%a" Repeated_bb.pp_entry e)
      |> String.concat ",")

(* A run under the event-digest monitor: the outcome and the digest of
   every slot, send and log decision. *)
let digest_run ~cfg ~seed ~offset ~length ?(options = Engine.default_options)
    adversary =
  let monitor, digest = Test_util.event_digest ~pp_msg:Repeated_bb.pp_msg in
  let o =
    Repeated_bb.run ~cfg ~seed ~offset ~length ~propose
      ~options:
        { options with Engine.monitors = [ monitor ]; decided = Some render_log }
      ~adversary ()
  in
  (o, digest ())

(* A Byzantine proposer: p2 runs the honest replica privately, but sends
   only to even pids, so the slots it proposes are half-disseminated.
   From slot 2 * stride on it also rebroadcasts its first message every
   fifth slot. At the offsets whose horizon reaches that far, that is an
   instance-0 message and instance 0's window has closed: mail addressed
   below the window. *)
let byzantine_proposer ~cfg ~offset ~length :
    (Repeated_bb.state, Repeated_bb.msg) Adversary.factory =
 fun ~pki ~secrets ->
  let stride = Repeated_bb.stride cfg in
  let stale = ref None in
  Strategies.deviant ~name:"byz-proposer" ~victims:[ 2 ]
    ~machine:(fun pid ->
      {
        Process.init =
          Repeated_bb.init ~cfg ~pki ~secret:secrets.(pid) ~pid ~length ~offset
            ~propose:(propose pid) ();
        step = Repeated_bb.step;
        wake = None;
      })
    ~mangle:(fun ~slot ~pid:_ ~inbox:_ sends ->
      (match (!stale, Process.expand ~n:cfg.Config.n sends) with
      | None, (m, _) :: _ -> stale := Some m
      | _ -> ());
      let half = Process.filter ~n:cfg.Config.n (fun _ dst -> dst mod 2 = 0) sends in
      match !stale with
      | Some m when slot >= 2 * stride && slot mod 5 = 0 ->
        half @ Process.broadcast m
      | _ -> half)

(* The digest grid: n = 9, every offset in {1, 2, stride/4, stride} under
   three adversaries, plus one shuffled cell whose fault plan delays,
   duplicates and takes p4 down across several instance starts. *)
let digest_cells =
  let c = cfg 9 in
  let stride = Repeated_bb.stride c in
  let length = 6 in
  let adversaries offset =
    [
      ("honest", Adversary.const (Adversary.honest ~name:"h"));
      ("crash", Adversary.const (Adversary.crash ~victims:[ 1 ] ()));
      ("byz", byzantine_proposer ~cfg:c ~offset ~length);
    ]
  in
  let plain =
    List.concat_map
      (fun offset ->
        List.map
          (fun (name, adversary) ->
            ( Printf.sprintf "%s offset=%d" name offset,
              (offset, Engine.default_options, adversary) ))
          (adversaries offset))
      [ 1; 2; stride / 4; stride ]
  in
  let faults =
    {
      Faults.none with
      seed = 11L;
      delay = 2;
      delay_prob = 0.05;
      dup = 0.05;
      processes = [ (4, Faults.Crash_recovery { down_at = 3; up_at = 40 }) ];
    }
  in
  plain
  @ [
      ( "shuffled faults offset=2",
        ( 2,
          { Engine.default_options with shuffle_seed = Some 5L; faults },
          Adversary.const (Adversary.crash ~victims:[ 1 ] ()) ) );
    ]
  |> List.map (fun (name, (offset, options, adversary)) ->
         (name, fun ~scheduler ->
             snd
               (digest_run ~cfg:c ~seed:7L ~offset ~length
                  ~options:{ options with Engine.scheduler } adversary)))

(* Recorded before the replicas skipped idle instances and answered a
   wake query; a change to how the log steps must leave them alone. *)
let pinned_digests =
  [
    ( "honest offset=1",
      "a9db4e07780f1b685c3d00a2fc83ca64f832ae06af57fd596b286d159589dacf" );
    ( "crash offset=1",
      "19f611e767c6632ce944c0b483f2905411d108e31fdf5b1f25786154089c528f" );
    ( "byz offset=1",
      "24c85ecb6ab948cfba1f2afbfd8fcaf449e341925371e69c62285c8f0750f4eb" );
    ( "honest offset=2",
      "7b861f9f742c0c5ad3ec669b4381bbcbea803678bab6716e98c89909cef0a655" );
    ( "crash offset=2",
      "35ef85e4f668dd0f607fc60fe7f12acf56ce4227109f4983e69575b5ed03e018" );
    ( "byz offset=2",
      "20a245f26b09aeaffff27dbffb6b16da9a3e5ee36ed6e8a1b99d09afc6b07a18" );
    ( "honest offset=32",
      "a4a19dcba11b5da038e21ee2c7f7ff83711f548b5af40901531a3e82cbc49d44" );
    ( "crash offset=32",
      "5331e9537a584c0cdfde46b314100d86d7ce1984f336bf61f2a268ffe9efbe0f" );
    ( "byz offset=32",
      "817451c3cb74dd3b67d2f4fa057e15566bb60085c7014833910b3c2345cf749f" );
    ( "honest offset=128",
      "a1a6a0ceb5660fd6c64c8841feb255528c39c539533f916879f039291b1f8998" );
    ( "crash offset=128",
      "fcaf15daeb6fc848130e25d0d6a151a8557eaf5e57c19ad17ec79ac378e67ff3" );
    ( "byz offset=128",
      "c5c3e3ab14cda945ab7752e9ba6cd6900855f477d2fd2be4ab3a01455570206b" );
    ( "shuffled faults offset=2",
      "6c1f58e1f0c9124376328bf54daf0a51afa4a1b71bb267cf518977994a93d4d2" );
  ]

let digests_pinned () =
  let misses =
    List.concat_map
      (fun (name, run) ->
        List.filter_map
          (fun scheduler ->
            let got = run ~scheduler in
            match List.assoc_opt name pinned_digests with
            | Some want when String.equal want got -> None
            | _ ->
              Some
                (Printf.sprintf "(%S, %S) (* %s *)" name got
                   (Engine.scheduler_to_string scheduler)))
          [ `Legacy; `Event_driven ])
      digest_cells
  in
  if misses <> [] then
    Alcotest.failf "digests off their pins:\n%s" (String.concat "\n" misses)

let logs_invariant_under_engine_knobs () =
  (* scheduler × shards must be observationally invisible to the log and
     to every event of the run, pipelined or not, with or without a
     crash plan that keeps two replicas down for the whole run. Same
     invariant the engine-diff suite proves for the one-shot protocols.
     The plan's crashed replicas are re-filed through the wake query every
     slot, which the dense oracle never asks. *)
  let n = 9 in
  let c = cfg n in
  let crash_plan = Degrade.plan_of ~profile:"crash" ~level:2 in
  let run ~offset ~faults ~victims ~scheduler ~shards =
    let o, digest =
      digest_run ~cfg:c ~seed:11L ~offset ~length:4
        ~options:{ Engine.default_options with Engine.scheduler; shards; faults }
        (Adversary.const (Adversary.crash ~victims ()))
    in
    (o.Repeated_bb.logs, o.Repeated_bb.decided_slots, o.Repeated_bb.words, digest)
  in
  List.iter
    (fun (offset, faults, victims) ->
      let base = run ~offset ~faults ~victims ~scheduler:`Legacy ~shards:1 in
      List.iter
        (fun (scheduler, shards) ->
          if run ~offset ~faults ~victims ~scheduler ~shards <> base then
            Alcotest.failf "offset=%d faults=%b %s shards=%d diverges" offset
              (not (Faults.is_none faults))
              (Engine.scheduler_to_string scheduler)
              shards)
        [ (`Legacy, 2); (`Event_driven, 1); (`Event_driven, 2) ])
    [
      (2, Faults.none, [ 1 ]);
      (Repeated_bb.stride c, Faults.none, [ 1 ]);
      (2, crash_plan, [ 4 ]);
    ]

let () =
  Alcotest.run "repeated BB (replicated log)"
    [
      ( "log",
        [
          Alcotest.test_case "honest log" `Quick honest_log;
          Alcotest.test_case "byzantine proposer skipped" `Quick
            byzantine_proposer_skipped;
          Alcotest.test_case "crashes tolerated" `Quick early_crash_tolerated;
          Alcotest.test_case "per-slot cost flat" `Slow words_amortize_linearly;
        ] );
      ( "pipelining",
        [
          Alcotest.test_case "pipelined logs == oracle" `Quick
            pipelined_logs_match_oracle;
          Alcotest.test_case "byzantine proposer skipped at its slots" `Quick
            byzantine_proposer_skipped_at_its_slots_pipelined;
          Alcotest.test_case "invariant under scheduler x shards" `Quick
            logs_invariant_under_engine_knobs;
          Alcotest.test_case "event digests pinned" `Quick digests_pinned;
        ] );
    ]
