open Mewc_prelude
open Mewc_crypto
open Mewc_sim

module Epk_str = Mewc_fallback.Echo_phase_king.Make (Value.Str)

module Fallback_str = struct
  include Epk_str

  type value = string
end

module Weak_str = Weak_ba.Make (Value.Str) (Fallback_str)

type status = Decided | Undecided of Pid.t list

let pp_status fmt = function
  | Decided -> Format.fprintf fmt "decided"
  | Undecided ps ->
    Format.fprintf fmt "undecided{%s}"
      (String.concat "," (List.map string_of_int ps))

type 'o agreement_outcome = {
  decisions : 'o option array;
  decided_slots : int option array;
  decided_strs : string option array;
  corrupted : Mewc_prelude.Pid.t list;
  f : int;
  faulty : Mewc_prelude.Pid.t list;
  status : status;
  words : int;
  messages : int;
  byz_words : int;
  signatures : int;
  slots : int;
  fallback_runs : int;
  nonsilent_phases : int;
  help_requests : int;
  latency : int;
  meter : Meter.snapshot;
  crypto : Mewc_crypto.Pki.cache_stats;
  trace_json : Mewc_prelude.Jsonx.t option;
}

(* Latest decision slot among the processes not [exempt] (the correct
   non-faulted ones); -1 if one never decided. Injected process faults void
   a pid's latency obligation the same way corruption does. *)
let latency_of ~exempt ~decided_at states =
  let acc = ref 0 in
  Array.iteri
    (fun p st ->
      if not exempt.(p) then
        match (!acc, decided_at st) with
        | -1, _ | _, None -> acc := -1
        | a, Some s -> acc := max a s)
    states;
  !acc

(* [mask ~n ps].(p) is whether [p] is in [ps]. *)
let mask ~n ps =
  let a = Array.make n false in
  List.iter (fun p -> a.(p) <- true) ps;
  a

(* A monitor violation escaping a runner gains the run's seeds, so it is a
   replayable counterexample and not just a bare assertion failure. *)
let replayable ~seed ~shuffle_seed run =
  try run ()
  with Monitor.Violation v ->
    let shuffle =
      match shuffle_seed with
      | None -> "none"
      | Some s -> Int64.to_string s
    in
    raise
      (Monitor.Violation
         {
           v with
           Monitor.reason =
             Printf.sprintf "%s [replay: seed=%Ld shuffle_seed=%s]"
               v.Monitor.reason seed shuffle;
         })

(* Below this many corruptions the adaptive protocols stay on their
   O(n(f+1)) path; at or above it the fallback (and its O(n^2) class) is
   reachable (Lemma 6). *)
let fallback_threshold cfg = (cfg.Config.n - cfg.Config.t - 1) / 2

(* Empirical word/latency envelopes, calibrated against the simulator over
   n in 5..33 and the whole adversary zoo, with ~2x headroom. They are
   deliberately in the paper's complexity *class* — 32·n(f+1) is still
   O(n(f+1)) — so a regression that breaks the class trips the monitor while
   constant-factor noise does not. *)
let weak_word_bound cfg ~f =
  let n = cfg.Config.n in
  if f < fallback_threshold cfg then 32 * n * (f + 1) else 8 * n * n * (f + 1)

let std_monitors ~cfg ~word_name ~word_bound ~early_name ~early_bound =
  [
    Monitor.corruption_budget ~cfg;
    Monitor.agreement ();
    Monitor.termination ~cfg;
    Monitor.word_bound ~name:word_name ~bound:word_bound;
    (* The causal cone of a decision spends at most what all correct
       processes spent, so the global envelope is a sound per-decision
       bound. Sampling thins the O(sends) frontier passes at sweep sizes;
       every decision is still checked at test sizes (n ≤ 64). *)
    Monitor.cone_words_bound ~cfg
      ~name:(word_name ^ "-cone")
      ~check_every:(1 + (cfg.Config.n / 64))
      ~bound:word_bound ();
    Monitor.early_termination ~name:early_name ~bound:early_bound;
    Monitor.metering ();
  ]

module Epk_bool = Mewc_fallback.Echo_phase_king.Make (Value.Bool)

module Fallback_bool = struct
  include Epk_bool

  type value = bool
end

module Strong_bool = Ff_strong_ba.Make (Fallback_bool)
module Binary_bb_bool = Binary_bb.Make (Fallback_bool)

(* ---- the paper's five Protocol.S instances ------------------------------ *)

(* Every [encode_msg] takes its message explicitly: a point-free
   [Format.asprintf "%a" pp] builds one buffer and formatter when the module
   loads, and every domain running a traced instance would then write into
   that same formatter. *)

module Fallback_protocol = struct
  type value = string

  type params = {
    inputs : string array;
    round_len : int;
    start_slot : Pid.t -> int;
  }

  type state = Epk_str.state
  type msg = Epk_str.msg
  type decision = string

  let name = "fallback"
  let words = Epk_str.words
  let encode_msg m = Format.asprintf "%a" Epk_str.pp_msg m

  let default_params cfg =
    {
      inputs = Array.make cfg.Config.n "v";
      round_len = 1;
      start_slot = (fun _ -> 0);
    }

  let mutate_params p ~salt =
    { p with inputs = Array.map (fun v -> Printf.sprintf "%s~%d" v salt) p.inputs }

  let validate_params ~cfg ~params =
    if Array.length params.inputs <> cfg.Config.n then
      invalid_arg "fallback: need one input per process"

  let horizon ~cfg ~params = Epk_str.horizon cfg ~round_len:params.round_len

  let machine ~cfg ~pki ~secret ~params ~pid =
    {
      Process.init =
        Epk_str.init ~cfg ~pki ~secret ~pid ~input:params.inputs.(pid)
          ~start_slot:(params.start_slot pid) ~round_len:params.round_len;
      step = (fun ~slot ~inbox st -> Epk_str.step ~slot ~inbox st);
      wake = Some Epk_str.wake;
    }

  let decision = Epk_str.decision
  let decided_str = Epk_str.decision
  let decided_at = Epk_str.decided_at

  let monitors ~cfg ~params =
    let n = cfg.Config.n in
    let horizon = horizon ~cfg ~params in
    std_monitors ~cfg ~word_name:"epk-words"
      ~word_bound:(fun ~f -> 16 * n * n * (f + 1))
      ~early_name:"epk-latency"
      ~early_bound:(fun ~f ->
        min horizon ((params.round_len * (10 + (7 * f))) + params.round_len))

  let counters _ =
    { Protocol.fallback_runs = 0; nonsilent_phases = 0; help_requests = 0 }

  let spray = None
end

module Weak_ba_protocol = struct
  type value = string

  type params = {
    inputs : string array;
    validate : string -> bool;
    quorum_override : int option;
  }

  type state = Weak_str.state
  type msg = Weak_str.msg
  type decision = Weak_str.outcome

  let name = "weak-ba"
  let words = Weak_str.words
  let encode_msg m = Format.asprintf "%a" Weak_str.pp_msg m

  let default_params cfg =
    {
      inputs = Array.make cfg.Config.n "v";
      validate = (fun _ -> true);
      quorum_override = None;
    }

  let mutate_params p ~salt =
    { p with inputs = Array.map (fun v -> Printf.sprintf "%s~%d" v salt) p.inputs }

  let validate_params ~cfg ~params =
    if Array.length params.inputs <> cfg.Config.n then
      invalid_arg "weak-ba: need one input per process"

  let horizon ~cfg ~params:_ = Weak_str.horizon cfg

  let machine ~cfg ~pki ~secret ~params ~pid =
    {
      Process.init =
        Weak_str.init ?quorum_override:params.quorum_override ~cfg ~pki ~secret
          ~pid ~input:params.inputs.(pid) ~validate:params.validate
          ~start_slot:0 ();
      step = (fun ~slot ~inbox st -> Weak_str.step ~slot ~inbox st);
      wake = Some Weak_str.wake;
    }

  let decision = Weak_str.decision

  (* The bytes of [Format.asprintf "%a" Weak_str.pp_outcome], built
     without a formatter: the engine asks on every step of a decided
     process. [%S] is the escaped string in double quotes. *)
  let decided_str st =
    match Weak_str.decision st with
    | None -> None
    | Some (Weak_str.Value v) -> Some ("\"" ^ String.escaped v ^ "\"")
    | Some Weak_str.Bot -> Some "⊥"

  let decided_at = Weak_str.decided_at

  let monitors ~cfg ~params =
    match params.quorum_override with
    | Some _ ->
      (* The ablation knob breaks quorum intersection by design; agreement,
         termination and word bounds are exactly what it sacrifices. *)
      [ Monitor.corruption_budget ~cfg; Monitor.metering () ]
    | None ->
      let horizon = Weak_str.horizon cfg in
      std_monitors ~cfg ~word_name:"weak-ba-words"
        ~word_bound:(weak_word_bound cfg)
        ~early_name:"weak-ba-latency"
        ~early_bound:(fun ~f ->
          if f < fallback_threshold cfg then (6 * (f + 1)) + 10 else horizon)

  let counters correct_states =
    let count f = List.length (List.filter f correct_states) in
    {
      Protocol.fallback_runs = count Weak_str.fallback_entered;
      nonsilent_phases = count Weak_str.initiated_phase;
      help_requests = count Weak_str.sent_help_request;
    }

  (* The share-spray forger. It is protocol-shaped on purpose: it harvests
     every commit/finalize share correct processes route through corrupted
     leaders, equivocates proposals in the phases its pids lead (value A to
     even destinations, value B to odd ones), and completes each side's
     commit and finalize certificates by topping the harvested shares up
     with shares of already-corrupted processes — exactly what the model
     permits and nothing more. Against the sound quorum the two sides can
     never both reach the threshold (intersection, Lemma 15); against the
     [quorum_override] ablation they can, which is how the fuzzer rediscovers
     the planted agreement violation. *)
  let spray =
    Some
      (fun ~cfg ~params ~pki ~rng:_ ->
        let n = cfg.Config.n in
        let quorum =
          match params.quorum_override with
          | Some q -> q
          | None -> Config.big_quorum cfg
        in
        let bank = Forge.create pki in
        let observe = Forge.observe bank in
        let certify ~purpose ~payload ~active =
          Forge.certify bank ~k:quorum ~purpose ~payload ~secrets:active
        in
        let evens = List.filter (fun d -> d mod 2 = 0) (List.init n Fun.id) in
        let odds = List.filter (fun d -> d mod 2 = 1) (List.init n Fun.id) in
        let sides = [ ("fz0", evens); ("fz1", odds) ] in
        fun ~pid ~slot ~inbox ~active ->
          Mail.iter
            (fun _src msg ->
              match msg with
              | Weak_str.Vote { phase; value; share } ->
                observe ~purpose:Weak_str.commit_purpose
                  ~payload:(Weak_str.phased_payload phase value)
                  share
              | Weak_str.Decide_share { phase; value; share } ->
                observe ~purpose:Weak_str.finalize_purpose
                  ~payload:(Weak_str.phased_payload phase value)
                  share
              | Weak_str.Help_req { sg } ->
                observe ~purpose:Weak_str.helpreq_purpose ~payload:"" sg
              | _ -> ())
            inbox;
          let mine =
            List.filter
              (fun j -> Pid.equal (Pid.rotating_leader ~n ~phase:j) pid)
              (List.init (cfg.Config.t + 1) (fun i -> i + 1))
          in
          List.concat_map
            (fun j ->
              let b = Weak_str.base j in
              if slot = b then
                match List.assoc_opt pid active with
                | None -> []
                | Some secret ->
                  List.concat_map
                    (fun (v, side) ->
                      let sg =
                        Certificate.share pki secret
                          ~purpose:Weak_str.propose_purpose
                          ~payload:(Weak_str.phased_payload j v)
                      in
                      List.map
                        (fun d ->
                          Process.Unicast
                            (Weak_str.Propose { phase = j; value = v; sg }, d))
                        side)
                    sides
              else if slot = b + 2 then
                List.concat_map
                  (fun (v, side) ->
                    match
                      certify ~purpose:Weak_str.commit_purpose
                        ~payload:(Weak_str.phased_payload j v) ~active
                    with
                    | Some qc ->
                      List.map
                        (fun d ->
                          Process.Unicast
                            ( Weak_str.Commit_bcast
                                { phase = j; value = v; level = j; qc },
                              d ))
                        side
                    | None -> [])
                  sides
              else if slot = b + 4 then
                List.concat_map
                  (fun (v, side) ->
                    match
                      certify ~purpose:Weak_str.finalize_purpose
                        ~payload:(Weak_str.phased_payload j v) ~active
                    with
                    | Some qc ->
                      List.map
                        (fun d ->
                          Process.Unicast
                            (Weak_str.Finalized { phase = j; value = v; qc }, d))
                        side
                    | None -> [])
                  sides
              else [])
            mine)
end

module Bb_protocol = struct
  type value = string

  type params = { sender : Pid.t; input : string }
  type state = Adaptive_bb.state
  type msg = Adaptive_bb.msg
  type decision = Adaptive_bb.decision

  let name = "bb"
  let words = Adaptive_bb.words
  let encode_msg m = Format.asprintf "%a" Adaptive_bb.pp_msg m
  let default_params _cfg = { sender = 0; input = "v" }

  let mutate_params p ~salt =
    { p with input = Printf.sprintf "%s~%d" p.input salt }

  let validate_params ~cfg:_ ~params:_ = ()
  let horizon ~cfg ~params:_ = Adaptive_bb.horizon cfg

  let machine ~cfg ~pki ~secret ~params ~pid =
    {
      Process.init =
        Adaptive_bb.init ~cfg ~pki ~secret ~pid ~sender:params.sender
          ~input:(if pid = params.sender then Some params.input else None)
          ~start_slot:0;
      step = (fun ~slot ~inbox st -> Adaptive_bb.step ~slot ~inbox st);
      wake = Some Adaptive_bb.wake;
    }

  let decision = Adaptive_bb.decision

  (* The bytes of [Format.asprintf "%a" Adaptive_bb.pp_decision], built
     without a formatter, as for weak BA. *)
  let decided_str st =
    match Adaptive_bb.decision st with
    | None -> None
    | Some (Adaptive_bb.Decided v) -> Some ("decide(" ^ v ^ ")")
    | Some Adaptive_bb.No_decision -> Some "decide(⊥)"

  let decided_at = Adaptive_bb.decided_at

  let monitors ~cfg ~params =
    let n = cfg.Config.n in
    let horizon = horizon ~cfg ~params in
    std_monitors ~cfg ~word_name:"bb-words" ~word_bound:(weak_word_bound cfg)
      ~early_name:"bb-latency"
      ~early_bound:(fun ~f ->
        if f < fallback_threshold cfg then (3 * n) + (6 * (f + 2)) + 12
        else horizon)

  let counters correct_states =
    let count f = List.length (List.filter f correct_states) in
    {
      Protocol.fallback_runs = count Adaptive_bb.fallback_entered;
      nonsilent_phases = count Adaptive_bb.vetting_phase_initiated;
      help_requests = 0;
    }

  let spray = None
end

module Binary_bb_protocol = struct
  type value = bool

  type params = { sender : Pid.t; input : bool }
  type state = Binary_bb_bool.state
  type msg = Binary_bb_bool.msg
  type decision = bool

  let name = "binary-bb"
  let words = Binary_bb_bool.words
  let encode_msg m = Format.asprintf "%a" Binary_bb_bool.pp_msg m
  let default_params _cfg = { sender = 0; input = true }
  let mutate_params p ~salt = { p with input = salt mod 2 = 0 }
  let validate_params ~cfg:_ ~params:_ = ()
  let horizon ~cfg ~params:_ = Binary_bb_bool.horizon cfg

  let machine ~cfg ~pki ~secret ~params ~pid =
    {
      Process.init =
        Binary_bb_bool.init ~cfg ~pki ~secret ~pid ~sender:params.sender
          ~input:(if pid = params.sender then Some params.input else None)
          ~start_slot:0;
      step = (fun ~slot ~inbox st -> Binary_bb_bool.step ~slot ~inbox st);
      wake = Some Binary_bb_bool.wake;
    }

  let decision = Binary_bb_bool.decision

  let decided_str st =
    Option.map string_of_bool (Binary_bb_bool.decision st)

  let decided_at = Binary_bb_bool.decided_at

  let monitors ~cfg ~params =
    let n = cfg.Config.n in
    let horizon = horizon ~cfg ~params in
    std_monitors ~cfg ~word_name:"binary-bb-words"
      ~word_bound:(fun ~f -> if f = 0 then 16 * n else 16 * n * n * (f + 1))
      ~early_name:"binary-bb-latency"
      ~early_bound:(fun ~f -> if f = 0 then 8 else horizon)

  let counters correct_states =
    let count f = List.length (List.filter f correct_states) in
    {
      Protocol.fallback_runs =
        List.length correct_states - count Binary_bb_bool.decided_fast;
      nonsilent_phases = count Binary_bb_bool.decided_fast;
      help_requests = 0;
    }

  let spray = None
end

module Strong_ba_protocol = struct
  type value = bool

  type params = { leader : Pid.t; inputs : bool array }
  type state = Strong_bool.state
  type msg = Strong_bool.msg
  type decision = bool

  let name = "strong-ba"
  let words = Strong_bool.words
  let encode_msg m = Format.asprintf "%a" Strong_bool.pp_msg m
  let default_params cfg = { leader = 0; inputs = Array.make cfg.Config.n true }

  let mutate_params p ~salt =
    { p with inputs = Array.map (fun b -> if salt mod 2 = 0 then not b else b) p.inputs }

  let validate_params ~cfg ~params =
    if Array.length params.inputs <> cfg.Config.n then
      invalid_arg "strong-ba: need one input per process"

  let horizon ~cfg ~params:_ = Strong_bool.horizon cfg

  let machine ~cfg ~pki ~secret ~params ~pid =
    {
      Process.init =
        Strong_bool.init ~cfg ~pki ~secret ~pid ~leader:params.leader
          ~input:params.inputs.(pid) ~start_slot:0;
      step = (fun ~slot ~inbox st -> Strong_bool.step ~slot ~inbox st);
      wake = Some Strong_bool.wake;
    }

  let decision = Strong_bool.decision
  let decided_str st = Option.map string_of_bool (Strong_bool.decision st)
  let decided_at = Strong_bool.decided_at

  let monitors ~cfg ~params =
    let n = cfg.Config.n in
    let horizon = horizon ~cfg ~params in
    std_monitors ~cfg ~word_name:"strong-ba-words"
      ~word_bound:(fun ~f -> if f = 0 then 16 * n else 16 * n * n * (f + 1))
      ~early_name:"strong-ba-latency"
      ~early_bound:(fun ~f -> if f = 0 then 6 else horizon)

  let counters correct_states =
    let count f = List.length (List.filter f correct_states) in
    {
      Protocol.fallback_runs = count Strong_bool.fallback_entered;
      nonsilent_phases = count Strong_bool.decided_fast;
      help_requests = 0;
    }

  let spray = None
end

(* ---- the Table-1 baselines --------------------------------------------- *)

(* Dolev-Strong and the naive BB-to-strong-BA reduction: every process
   steps every slot ([wake = None]). No adaptive word or latency bound
   applies, so their suite is the safety core plus termination. *)
module Baseline (B : Mewc_baselines.Baseline.S) =
struct
  type value = string
  type params = { sender : Pid.t; input : string }
  type state = B.state
  type msg = B.msg
  type decision = B.decision

  let name = B.name
  let words = B.words
  let encode_msg m = Format.asprintf "%a" B.pp_msg m
  let default_params _cfg = { sender = 0; input = "v" }

  let mutate_params p ~salt =
    { p with input = Printf.sprintf "%s~%d" p.input salt }

  let validate_params ~cfg:_ ~params:_ = ()
  let horizon ~cfg ~params:_ = B.horizon cfg

  let machine ~cfg ~pki ~secret ~params ~pid =
    {
      Process.init =
        B.init ~cfg ~pki ~secret ~pid ~sender:params.sender
          ~input:(if pid = params.sender then Some params.input else None)
          ~start_slot:0;
      step = (fun ~slot ~inbox st -> B.step ~slot ~inbox st);
      wake = None;
    }

  let decision = B.decision

  let decided_str st =
    Option.map (Format.asprintf "%a" B.pp_decision) (B.decision st)

  let decided_at = B.decided_at

  let monitors ~cfg ~params:_ =
    [
      Monitor.corruption_budget ~cfg;
      Monitor.agreement ();
      Monitor.termination ~cfg;
      Monitor.metering ();
    ]

  let counters _ =
    { Protocol.fallback_runs = 0; nonsilent_phases = 0; help_requests = 0 }

  let spray = None
end

module Dolev_strong_protocol = Baseline (Mewc_baselines.Dolev_strong)
module Naive_bb_protocol = Baseline (Mewc_baselines.Naive_bb)

(* ---- run options ------------------------------------------------------- *)

type 'm options = {
  seed : int64;
  shuffle_seed : int64 option;
  record_trace : bool;
  monitors : 'm Monitor.t list option;
  profile : Profile.t option;
  faults : Faults.plan;
  scheduler : Engine.scheduler;
  shards : int;
  metrics : Mewc_obs.Metrics.t option;
}

let default_options =
  {
    seed = 1L;
    shuffle_seed = None;
    record_trace = false;
    monitors = None;
    profile = None;
    faults = Faults.none;
    scheduler = `Event_driven;
    shards = 1;
    metrics = None;
  }

(* Spelled out field by field (not [{ o with monitors = None }]) so the
   result gets a fresh message-type parameter: ['m] only occurs in
   [monitors], which is the field being forgotten. *)
let retarget o =
  {
    seed = o.seed;
    shuffle_seed = o.shuffle_seed;
    record_trace = o.record_trace;
    monitors = None;
    profile = o.profile;
    faults = o.faults;
    scheduler = o.scheduler;
    shards = o.shards;
    metrics = o.metrics;
  }

(* ---- the trusted setup ------------------------------------------------- *)

(* A sign costs less than a span, so a profiled run times each sign with
   the profile's clock and charges [crypto.sign] in bulk when [body]
   returns or raises; the other crypto paths run on cache misses only and
   keep a span each. *)
let with_pki ~seed ~n ?profile ?metrics body =
  let crypto p name f = Profile.span p ~category:Profile.Crypto name f in
  let setup () = Pki.setup ~seed ~n () in
  let pki, secrets =
    match profile with None -> setup () | Some p -> crypto p "pki.setup" setup
  in
  Pki.set_metrics pki metrics;
  match profile with
  | None -> body pki secrets
  | Some p ->
    let signs = Profile.bulk p ~category:Profile.Crypto "crypto.sign" in
    let time name f =
      if String.equal name "crypto.sign" then begin
        let since = Profile.elapsed p in
        let v = f () in
        Profile.bulk_add signs ~since;
        v
      end
      else crypto p name f
    in
    Pki.set_timer pki (Some { Pki.time });
    Fun.protect ~finally:(fun () -> Profile.bulk_flush signs) (fun () ->
        body pki secrets)

(* ---- the generic runner ------------------------------------------------ *)

let run (type p s m d) ((module P) : (p, s, m, d) Protocol.t) ~cfg
    ?(options = default_options) ~params ~adversary () =
  let {
    seed;
    shuffle_seed;
    record_trace;
    monitors;
    profile;
    faults;
    scheduler;
    shards;
    metrics;
  } =
    options
  in
  P.validate_params ~cfg ~params;
  let n = cfg.Config.n in
  with_pki ~seed ~n ?profile ?metrics @@ fun pki secrets ->
  let protocol pid = P.machine ~cfg ~pki ~secret:secrets.(pid) ~params ~pid in
  let adversary = adversary ~pki ~secrets in
  let horizon = P.horizon ~cfg ~params in
  let monitors =
    match monitors with
    | Some ms -> ms
    | None ->
      if Faults.is_none faults then P.monitors ~cfg ~params
      else
        (* Under injected faults only the model-independent safety core is
           promised: liveness envelopes (termination, latency) are read off
           [status] instead, and the word/cone bounds — Safety-severity, but
           calibrated against the realized f on a reliable network — would
           trip spuriously when loss legitimately changes spending at f=0. *)
        [ Monitor.corruption_budget ~cfg; Monitor.agreement (); Monitor.metering () ]
  in
  let res =
    replayable ~seed ~shuffle_seed (fun () ->
        Engine.run ~cfg
          ~options:
            {
              Engine.record_trace;
              shuffle_seed;
              monitors;
              decided = Some P.decided_str;
              profile;
              faults;
              scheduler;
              shards;
              metrics;
            }
          ~words:P.words ~horizon ~protocol ~adversary ())
  in
  let corrupted = mask ~n res.Engine.corrupted in
  let exempt = mask ~n res.Engine.faulty in
  Array.iteri (fun p c -> if c then exempt.(p) <- true) corrupted;
  let correct_states =
    Array.to_list res.Engine.states |> List.filteri (fun p _ -> not corrupted.(p))
  in
  let undecided =
    Pid.all ~n
    |> List.filter (fun p ->
           (not exempt.(p)) && Option.is_none (P.decision res.Engine.states.(p)))
  in
  let { Protocol.fallback_runs; nonsilent_phases; help_requests } =
    P.counters correct_states
  in
  let crypto = Pki.cache_stats pki in
  Pki.release pki;
  {
    decisions = Array.map P.decision res.Engine.states;
    decided_slots = Array.map P.decided_at res.Engine.states;
    decided_strs = Array.map P.decided_str res.Engine.states;
    corrupted = res.Engine.corrupted;
    f = res.Engine.f;
    faulty = res.Engine.faulty;
    status = (if undecided = [] then Decided else Undecided undecided);
    words = Meter.correct_words res.Engine.meter;
    messages = Meter.correct_messages res.Engine.meter;
    byz_words = Meter.byzantine_words res.Engine.meter;
    signatures = Pki.signatures_created pki;
    slots = res.Engine.slots;
    fallback_runs;
    nonsilent_phases;
    help_requests;
    latency = latency_of ~exempt ~decided_at:P.decided_at res.Engine.states;
    meter = Meter.snapshot res.Engine.meter;
    crypto;
    trace_json =
      (if record_trace then
         let encode () = Trace.to_json ~encode:P.encode_msg res.Engine.trace in
         Some
           (match profile with
           | None -> encode ()
           | Some p ->
             Profile.span p ~category:Profile.Serialize "trace.to_json" encode)
       else None);
  }
