(* Shared assertions for the protocol test suites. *)


let cfg n = Mewc_sim.Config.optimal ~n

(* All correct processes decided, and on the same value. *)
let check_agreement ~pp ~equal ~corrupted (decisions : 'o option array) =
  let correct =
    Array.to_list decisions
    |> List.mapi (fun p d -> (p, d))
    |> List.filter (fun (p, _) -> not (List.mem p corrupted))
  in
  let decided =
    List.map
      (fun (p, d) ->
        match d with
        | Some v -> (p, v)
        | None ->
          Alcotest.failf "termination violated: correct p%d did not decide" p)
      correct
  in
  match decided with
  | [] -> Alcotest.fail "no correct processes in the run"
  | (_, first) :: rest ->
    List.iter
      (fun (p, v) ->
        if not (equal v first) then
          Alcotest.failf "agreement violated: p%d decided %s, expected %s" p
            (Format.asprintf "%a" pp v)
            (Format.asprintf "%a" pp first))
      rest;
    first

let check_all_decide ~pp ~equal ~expected ~corrupted decisions =
  let got = check_agreement ~pp ~equal ~corrupted decisions in
  if not (equal got expected) then
    Alcotest.failf "decided %s, expected %s"
      (Format.asprintf "%a" pp got)
      (Format.asprintf "%a" pp expected)

let pp_str fmt s = Format.fprintf fmt "%S" s

let first_k_excluding ~excluding k =
  (* The k smallest pids not in [excluding] and not 0. *)
  let rec go acc p =
    if List.length acc = k then List.rev acc
    else if p = 0 || List.mem p excluding then go acc (p + 1)
    else go (p :: acc) (p + 1)
  in
  go [] 1

let qcheck_case ?(count = 50) ~name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let pids_upto k = List.init k (fun i -> i + 1)

(* ---- the adversary zoo --------------------------------------------------

   A generator of adversaries for the weak-BA runner, shared by the
   randomized property suite and the monitor suite: honest runs, (staggered)
   crashes, and the §6 attack library. *)

type adversary_pick =
  | Honest
  | Crash of int list
  | Staggered of int list * int
  | Busy_leaders of int list
  | Exclusive_finalizer of int * int
  | Help_spam of int list

let pp_pick = function
  | Honest -> "honest"
  | Crash vs -> Printf.sprintf "crash[%s]" (String.concat "," (List.map string_of_int vs))
  | Staggered (vs, e) ->
    Printf.sprintf "staggered[%s]/%d" (String.concat "," (List.map string_of_int vs)) e
  | Busy_leaders vs ->
    Printf.sprintf "busy[%s]" (String.concat "," (List.map string_of_int vs))
  | Exclusive_finalizer (l, x) -> Printf.sprintf "finalizer(%d->%d)" l x
  | Help_spam vs ->
    Printf.sprintf "spam[%s]" (String.concat "," (List.map string_of_int vs))

let clamp_victims ~n ~t victims =
  List.sort_uniq Int.compare (List.filter (fun v -> v >= 1 && v < n) victims)
  |> List.filteri (fun i _ -> i < t)

let gen_pick n t =
  QCheck2.Gen.(
    let victims = list_size (int_range 0 t) (int_range 1 (n - 1)) in
    oneof
      [
        return Honest;
        map (fun vs -> Crash (clamp_victims ~n ~t vs)) victims;
        map2
          (fun vs e -> Staggered (clamp_victims ~n ~t vs, 1 + e))
          victims (int_range 0 6);
        map (fun vs -> Busy_leaders (clamp_victims ~n ~t vs)) victims;
        map2
          (fun l x -> Exclusive_finalizer (1 + (l mod t), x mod n))
          (int_range 0 100) (int_range 0 100);
        map (fun vs -> Help_spam (clamp_victims ~n ~t vs)) victims;
      ])

let to_weak_adversary c =
  let open Mewc_sim in
  let open Mewc_core in
  function
  | Honest -> Adversary.const (Adversary.honest ~name:"h")
  | Crash vs -> Adversary.const (Adversary.crash ~victims:vs ())
  | Staggered (vs, e) -> Adversary.const (Adversary.staggered_crash ~victims:vs ~every:e)
  | Busy_leaders vs -> Attacks.wba_busy_byz_leaders ~cfg:c ~leaders:vs
  | Exclusive_finalizer (l, x) ->
    if l = x then Adversary.const (Adversary.crash ~victims:[ l ] ())
    else Attacks.wba_exclusive_finalizer ~cfg:c ~leader:l ~lucky:x
  | Help_spam vs -> Attacks.wba_help_req_spammers ~cfg:c ~spammers:vs

(* ---- the event digest ---------------------------------------------------

   A test-local monitor that folds every [Slot_start], [Send] and
   [Decision] event of a run, in order, into one SHA-256 digest: send id,
   endpoints, send slot, words, charging, Byzantine flag, causal parents
   and the printed message. Two runs with equal digests emitted the same
   event stream. It declares [provenance], so the engine builds the
   [parents] it digests. Install the monitor, run, then force the digest. *)
let event_digest ~pp_msg =
  let open Mewc_sim in
  let buf = Buffer.create 65536 in
  let ids l = String.concat "," (List.map string_of_int l) in
  let on_event ~violate:_ = function
    | Trace.Slot_start s -> Printf.bprintf buf "slot %d\n" s
    | Trace.Send { id; envelope = e; byzantine_sender; words; charged; parents } ->
      Printf.bprintf buf "send %d %d>%d @%d w=%d c=%b b=%b [%s] %s\n" id
        e.Envelope.src e.Envelope.dst e.Envelope.sent_at words charged
        byzantine_sender (ids parents)
        (Format.asprintf "%a" pp_msg e.Envelope.msg)
    | Trace.Decision { slot; pid; value; parents } ->
      Printf.bprintf buf "decide %d p%d [%s] %s\n" slot pid (ids parents) value
    | _ -> ()
  in
  ( Monitor.make ~name:"event-digest" ~provenance:true ~on_event (),
    fun () -> Mewc_crypto.Sha256.(to_hex (digest (Buffer.contents buf))) )
