open Mewc_prelude
open Mewc_sim
open Mewc_core

let rec take k = function
  | [] -> []
  | x :: tl -> if k <= 0 then [] else x :: take (k - 1) tl

(* Scenario process faults ride the engine's injection layer — one
   mechanism shared with the degradation harness, not a parallel
   adversary-side emulation. The plan draws no coins (crash/omission are
   deterministic), so the seed is only a label. *)
let plan_of_scenario (sc : Scenario.t) =
  if sc.Scenario.faults = [] then Faults.none
  else
    {
      Faults.none with
      Faults.seed = sc.Scenario.seed;
      processes =
        List.map
          (fun (fl : Scenario.fault) ->
            ( fl.Scenario.victim,
              match fl.Scenario.kind with
              | Scenario.Crash_fault -> Faults.Crash { at = fl.Scenario.fault_at }
              | Scenario.Omission_fault { drop_mod; drop_rem } ->
                Faults.Send_omission
                  { from_ = fl.Scenario.fault_at; drop_mod; drop_rem } ))
          sc.Scenario.faults;
    }

let adversary (type p s m d) ((module P) : (p, s, m, d) Protocol.t) ~cfg
    ~(params : p) (sc : Scenario.t) : (s, m) Adversary.factory =
 fun ~pki ~secrets ->
  let n = cfg.Config.n in
  (* Echo/replay behaviors are capped so a fuzzed adversary cannot blow up
     run time quadratically; the cap is generous against n=9 campaigns. *)
  let cap = 4 * n in
  let by_pid = Hashtbl.create 8 in
  List.iter
    (fun c -> Hashtbl.replace by_pid c.Scenario.pid c)
    sc.Scenario.corruptions;
  (* The coalition's keys as of [slot]: only processes already corrupted may
     contribute signatures (adaptive corruption hands over the key, nothing
     retroactive). *)
  let active slot =
    List.filter_map
      (fun c ->
        if c.Scenario.at <= slot then
          Some (c.Scenario.pid, secrets.(c.Scenario.pid))
        else None)
      sc.Scenario.corruptions
  in
  (* Honest-machine copies ("ghosts") for the deviant behaviors, seeded from
     the state frozen at corruption time, so a process corrupted mid-run
     continues from where the correct execution left it. A ghost is not a
     correct process — its own earlier sends were mangled, so the protocol's
     correctness lemmas (and hence its internal invariants) need not hold
     for it. If stepping one raises, the ghost goes permanently silent:
     doing nothing is always within the Byzantine behavior space. *)
  let step_ghost (r, m) ~pid view =
    match !r with
    | None -> []
    | Some st -> (
      match
        m.Process.step ~slot:view.Adversary.slot
          ~inbox:(Adversary.inboxes view).(pid)
          st
      with
      | st', sends ->
        r := Some st';
        sends
      | exception _ ->
        r := None;
        [])
  in
  let machines : (Pid.t, s option ref * (s, m) Process.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let honest_sends ~pid view =
    let ghost =
      match Hashtbl.find_opt machines pid with
      | Some g -> g
      | None ->
        let m = P.machine ~cfg ~pki ~secret:secrets.(pid) ~params ~pid in
        let g = (ref (Some (Adversary.states view).(pid)), m) in
        Hashtbl.add machines pid g;
        g
    in
    step_ghost ghost ~pid view
  in
  (* Second machines over mutated params, for equivocation. *)
  let alt_machines : (Pid.t, s option ref * (s, m) Process.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let alt_sends ~pid ~salt view =
    let ghost =
      match Hashtbl.find_opt alt_machines pid with
      | Some g -> g
      | None ->
        let m =
          P.machine ~cfg ~pki ~secret:secrets.(pid)
            ~params:(P.mutate_params params ~salt) ~pid
        in
        let g = (ref (Some m.Process.init), m) in
        Hashtbl.add alt_machines pid g;
        g
    in
    step_ghost ghost ~pid view
  in
  let buffers : (Pid.t, (int * m Envelope.t list) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let forger =
    lazy
      (Option.map
         (fun mk ->
           mk ~cfg ~params ~pki
             ~rng:(Rng.create (Int64.logxor sc.Scenario.seed 0x5EED5EEDL)))
         P.spray)
  in
  let echo ~shift view =
    take cap
      (List.map
         (fun e -> Process.Unicast (e.Envelope.msg, (e.Envelope.dst + shift) mod n))
         (Adversary.correct_outgoing view))
  in
  let byz_step ~pid view =
    match Hashtbl.find_opt by_pid pid with
    | None -> []
    | Some c -> (
      match c.Scenario.behavior with
      | Scenario.Silent -> []
      | Scenario.Selective_silence { drop_mod; drop_rem } ->
        Process.filter ~n
          (fun _ dst -> dst mod drop_mod <> drop_rem)
          (honest_sends ~pid view)
      | Scenario.Withhold_quorum { keep } ->
        Process.filter ~n
          (fun _ dst -> dst < keep || Pid.equal dst pid)
          (honest_sends ~pid view)
      | Scenario.Equivocate { salt } ->
        let h = honest_sends ~pid view in
        let a = alt_sends ~pid ~salt view in
        Process.filter ~n (fun _ dst -> dst mod 2 = 0) h
        @ Process.filter ~n (fun _ dst -> dst mod 2 = 1) a
      | Scenario.Rushing_echo { shift } -> echo ~shift view
      | Scenario.Replay_stale { delay } ->
        let buf =
          match Hashtbl.find_opt buffers pid with
          | Some b -> b
          | None ->
            let b = ref [] in
            Hashtbl.add buffers pid b;
            b
        in
        let slot = view.Adversary.slot in
        buf := (slot, Mail.to_list (Adversary.inboxes view).(pid)) :: take 8 !buf;
        (match List.assoc_opt (slot - delay) !buf with
        | Some envs ->
          take cap
            (List.map
               (fun e -> Process.Unicast (e.Envelope.msg, e.Envelope.src))
               envs)
        | None -> [])
      | Scenario.Spray { intensity } ->
        let base =
          match Lazy.force forger with
          | Some f ->
            f ~pid ~slot:view.Adversary.slot
              ~inbox:(Adversary.inboxes view).(pid)
              ~active:(active view.Adversary.slot)
          | None -> echo ~shift:1 view
        in
        if intensity >= 3 then base @ echo ~shift:1 view else base)
  in
  {
    Adversary.name = Printf.sprintf "fuzz(%Ld)" sc.Scenario.seed;
    corrupt =
      (fun view ->
        List.filter_map
          (fun c ->
            if c.Scenario.at = view.Adversary.slot then Some c.Scenario.pid
            else None)
          sc.Scenario.corruptions);
    byz_step;
  }
