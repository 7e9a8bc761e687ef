(* Cross-cutting randomized properties: agreement/termination/validity over
   randomly drawn adversaries, plus whole-run determinism. *)

open Mewc_sim
open Mewc_core
module W = Instances.Weak_str
module Wp = Instances.Weak_ba_protocol

let cfg = Test_util.cfg
let pp_pick = Test_util.pp_pick
let clamp_victims = Test_util.clamp_victims
let gen_pick = Test_util.gen_pick
let to_weak_adversary = Test_util.to_weak_adversary

let weak ?(validate = fun _ -> true) inputs =
  { Wp.inputs; validate; quorum_override = None }

let correct_decisions (o : _ Instances.agreement_outcome) =
  Array.to_list o.decisions
  |> List.mapi (fun p d -> (p, d))
  |> List.filter (fun (p, _) -> not (List.mem p o.corrupted))
  |> List.map snd

let weak_ba_safety =
  Test_util.qcheck_case ~count:60
    ~name:"weak BA: agreement+termination under the adversary zoo"
    QCheck2.Gen.(
      oneofl [ 5; 7; 9 ] >>= fun n ->
      let t = (n - 1) / 2 in
      pair (return n) (pair (gen_pick n t) (int_range 0 2)))
    (fun (n, (pick, palette)) ->
      let c = cfg n in
      let inputs =
        Array.init n (fun i -> Printf.sprintf "v%d" (i mod (palette + 1)))
      in
      let o =
        Instances.run (module Wp) ~cfg:c ~params:(weak inputs)
          ~adversary:(to_weak_adversary c pick) ()
      in
      let ds = correct_decisions o in
      let ok =
        List.for_all (fun d -> d <> None) ds
        && List.length (List.sort_uniq compare ds) = 1
      in
      if not ok then
        QCheck2.Test.fail_reportf "adversary=%s decisions=%s" (pp_pick pick)
          (String.concat ";"
             (List.map
                (function
                  | Some o -> Format.asprintf "%a" W.pp_outcome o
                  | None -> "?")
                ds))
      else true)

let weak_ba_unanimity =
  Test_util.qcheck_case ~count:40
    ~name:"weak BA: unanimous valid input is decided (crash adversaries)"
    QCheck2.Gen.(
      oneofl [ 5; 7; 9; 11 ] >>= fun n ->
      let t = (n - 1) / 2 in
      pair (return n) (list_size (int_range 0 t) (int_range 1 (n - 1))))
    (fun (n, victims) ->
      let c = cfg n in
      let victims = clamp_victims ~n ~t:c.Config.t victims in
      let o =
        Instances.run (module Wp) ~cfg:c
          ~params:(weak (Array.make n "u"))
          ~adversary:(Adversary.const (Adversary.crash ~victims ()))
          ()
      in
      List.for_all (fun d -> d = Some (W.Value "u")) (correct_decisions o))

let bb_validity_random =
  Test_util.qcheck_case ~count:40
    ~name:"BB: correct sender's value decided under crash+staggered"
    QCheck2.Gen.(
      oneofl [ 5; 7; 9 ] >>= fun n ->
      let t = (n - 1) / 2 in
      triple (return n)
        (list_size (int_range 0 t) (int_range 1 (n - 1)))
        (int_range 1 8))
    (fun (n, victims, every) ->
      let c = cfg n in
      let victims = clamp_victims ~n ~t:c.Config.t victims in
      let o =
        Instances.run (module Instances.Bb_protocol) ~cfg:c
          ~params:{ Instances.Bb_protocol.sender = 0; input = "msg" }
          ~adversary:
            (Adversary.const (Adversary.staggered_crash ~victims ~every))
          ()
      in
      List.for_all
        (fun d -> d = Some (Adaptive_bb.Decided "msg"))
        (correct_decisions o))

let epk_unanimity_random_kings =
  Test_util.qcheck_case ~count:40
    ~name:"A_fallback: unanimity survives a random equivocating king"
    QCheck2.Gen.(
      oneofl [ 5; 7; 9 ] >>= fun n ->
      let t = (n - 1) / 2 in
      pair (return n) (int_range 1 t))
    (fun (n, king) ->
      let c = cfg n in
      let o =
        Instances.run (module Instances.Fallback_protocol) ~cfg:c
          ~params:
            {
              (Instances.Fallback_protocol.default_params c) with
              inputs = Array.make n "good";
            }
          ~adversary:(Attacks.epk_equivocating_king ~cfg:c ~king ~v1:"e1" ~v2:"e2")
          ()
      in
      List.for_all (fun d -> d = Some "good") (correct_decisions o))

let determinism =
  Test_util.qcheck_case ~count:20 ~name:"whole runs are deterministic"
    QCheck2.Gen.(pair (oneofl [ 5; 7 ]) (int_range 0 1000))
    (fun (n, seed) ->
      let c = cfg n in
      let go () =
        let o =
          Instances.run (module Wp) ~cfg:c
            ~options:
              {
                Instances.default_options with
                Instances.seed = Int64.of_int seed;
              }
            ~params:(weak (Array.init n (fun i -> Printf.sprintf "v%d" (i mod 2))))
            ~adversary:
              (Adversary.const (Adversary.crash ~victims:[ 1 ] ()))
            ()
        in
        (o.Instances.words, o.Instances.messages, correct_decisions o)
      in
      go () = go ())

let trace_replay_byte_identical =
  Test_util.qcheck_case ~count:25
    ~name:"same seed+shuffle_seed reproduce byte-identical traces"
    QCheck2.Gen.(
      oneofl [ 5; 7 ] >>= fun n ->
      let t = (n - 1) / 2 in
      triple (return n) (gen_pick n t)
        (pair (int_range 0 1000) (int_range 0 1000)))
    (fun (n, pick, (seed, shuffle)) ->
      let c = cfg n in
      let go () =
        let o =
          Instances.run (module Wp) ~cfg:c
            ~options:
              {
                Instances.default_options with
                Instances.seed = Int64.of_int seed;
                shuffle_seed = Some (Int64.of_int shuffle);
                record_trace = true;
              }
            ~params:(weak (Array.init n (fun i -> Printf.sprintf "v%d" (i mod 2))))
            ~adversary:(to_weak_adversary c pick) ()
        in
        match o.Instances.trace_json with
        | Some j -> Mewc_prelude.Jsonx.to_string j
        | None -> QCheck2.Test.fail_report "record_trace produced no trace"
      in
      let a = go () and b = go () in
      if not (String.equal a b) then
        QCheck2.Test.fail_reportf "adversary=%s traces diverge" (pp_pick pick)
      else true)

let signature_complexity_tracks_words =
  Test_util.qcheck_case ~count:10
    ~name:"failure-free weak BA: O(n) signatures too"
    QCheck2.Gen.(oneofl [ 9; 13; 17; 21 ])
    (fun n ->
      let c = cfg n in
      let o =
        Instances.run (module Wp) ~cfg:c ~params:(Wp.default_params c)
          ~adversary:(Adversary.const (Adversary.honest ~name:"h"))
          ()
      in
      (* Every process signs O(1) times in a failure-free run. *)
      o.Instances.signatures <= 6 * n)

let fuzzer_safety =
  Test_util.qcheck_case ~count:50
    ~name:"weak BA: safety survives the Byzantine message fuzzer"
    QCheck2.Gen.(
      oneofl [ 5; 7; 9 ] >>= fun n ->
      let t = (n - 1) / 2 in
      triple (return n)
        (pair (int_range 1 t) (int_range 0 100_000))
        (int_range 0 2))
    (fun (n, (nb_victims, seed), palette) ->
      let c = cfg n in
      let victims = List.init nb_victims (fun i -> i + 1) in
      let validate v = v <> "fuzz" && v <> "" in
      let inputs =
        Array.init n (fun i -> Printf.sprintf "x%d" (i mod (palette + 1)))
      in
      let o =
        Instances.run (module Wp) ~cfg:c ~params:(weak ~validate inputs)
          ~adversary:
            (Attacks.wba_fuzzer ~cfg:c ~victims ~seed:(Int64.of_int seed))
          ()
      in
      let ds = correct_decisions o in
      let ok =
        List.for_all (fun d -> d <> None) ds
        && List.length (List.sort_uniq compare ds) = 1
        && List.for_all
             (function
               | Some (W.Value v) -> validate v
               | Some W.Bot | None -> true)
             ds
      in
      if not ok then
        QCheck2.Test.fail_reportf "seed=%d victims=%d decisions=%s" seed
          nb_victims
          (String.concat ";"
             (List.map
                (function
                  | Some o -> Format.asprintf "%a" W.pp_outcome o
                  | None -> "?")
                ds))
      else true)

let () =
  Alcotest.run "properties"
    [
      ( "randomized",
        [
          weak_ba_safety;
          weak_ba_unanimity;
          bb_validity_random;
          epk_unanimity_random_kings;
          determinism;
          trace_replay_byte_identical;
          signature_complexity_tracks_words;
          fuzzer_safety;
        ] );
    ]
