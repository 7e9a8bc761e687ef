(* The four workloads. Each reaches the program only through its public
   entry points ([Instances.run], [Service]/[Workload], [Runtime.run]) and
   hands it nothing but inputs generated from the workload seed. *)

open Mewc_sim
open Mewc_core
module Metrics = Mewc_obs.Metrics
module Pki = Mewc_crypto.Pki
module Codec = Mewc_wire.Codec
module Clock = Mewc_wire.Clock
module Runtime = Mewc_wire.Runtime
module Zoo = Mewc_wire.Zoo

(* What one operation contributes once its output has been checked. *)
type verdict = {
  decisions : int;
  requests : int;  (** committed client requests *)
  words : int;  (** words sent by correct senders *)
  ok : bool;
}

(* The traced run's sinks, filled only through hooks the program already
   exposes: [Profile] spans and [Metrics] through the run options, PKI cache
   counters from the outcome, [Runtime.stats], and the [Codec.t] and
   [Clock.t] the caller hands to [Runtime.run]. The codec and clock run on
   every runtime domain, hence the atomics. *)
type tracer = {
  profile : Profile.t;
  metrics : Metrics.t;
  mutable verify_hits : int;
  mutable verify_misses : int;
  mutable agg_hits : int;
  mutable agg_misses : int;
  encode_ns : int Atomic.t;
  encodes : int Atomic.t;
  decode_ns : int Atomic.t;
  decodes : int Atomic.t;
  sleep_ns : int Atomic.t;
  mutable frames : int;
  mutable bytes : int;
  mutable retries : int;
  mutable send_timeouts : int;
  mutable deadline_expiries : int;
  mutable late_frames : int;
  mutable decode_rejects : int;
  mutable domain_s : float;  (** Σ domains × [Runtime.run] wall *)
  mutable generate_s : float;
  mutable generated : int;  (** traffic streams generated *)
  mutable submit_s : float;
  mutable finalize_s : float;
  mutable batch_fill : float list;
  mutable per_1k_slots : float list;
  mutable latencies : int list;
}

let tracer () =
  {
    profile = Profile.create ~clock:Probe.now ();
    metrics = Metrics.create ();
    verify_hits = 0;
    verify_misses = 0;
    agg_hits = 0;
    agg_misses = 0;
    encode_ns = Atomic.make 0;
    encodes = Atomic.make 0;
    decode_ns = Atomic.make 0;
    decodes = Atomic.make 0;
    sleep_ns = Atomic.make 0;
    frames = 0;
    bytes = 0;
    retries = 0;
    send_timeouts = 0;
    deadline_expiries = 0;
    late_frames = 0;
    decode_rejects = 0;
    domain_s = 0.0;
    generate_s = 0.0;
    generated = 0;
    submit_s = 0.0;
    finalize_s = 0.0;
    batch_fill = [];
    per_1k_slots = [];
    latencies = [];
  }

type t = {
  name : string;
  cycle : int;  (** operations per round-robin cycle; runs stop on a boundary *)
  setup : tracer option -> unit;  (** input generation *)
  reference : unit -> unit;  (** reference results for the check; untimed *)
  prepare : tracer option -> int -> unit -> unit -> verdict;
      (** [prepare tr i] readies operation [i]; applying the result runs it
          (the timed window) and returns its output check *)
}

(* The one place run options are built. The scheduler is pinned rather than
   defaulted: the default is still the legacy loop, slated for deletion. *)
let scheduler : Engine.scheduler = `Event_driven

let sim_options tr seed =
  {
    Instances.default_options with
    seed;
    scheduler;
    profile = Option.map (fun tr -> tr.profile) tr;
    metrics = Option.map (fun tr -> tr.metrics) tr;
  }

let engine_options tr =
  {
    Engine.default_options with
    scheduler;
    profile = Option.map (fun tr -> tr.profile) tr;
    metrics = Option.map (fun tr -> tr.metrics) tr;
  }

let honest ~pki ~secrets = Adversary.const (Adversary.honest ~name:"honest") ~pki ~secrets

(* Passes when the run decided and every never-corrupted process printed the
   same decision; a monitor violation has already raised. *)
let agreed (o : _ Instances.agreement_outcome) =
  o.status = Instances.Decided
  &&
  match
    Array.to_list o.decided_strs
    |> List.filteri (fun p _ -> not (List.mem p o.corrupted))
  with
  | Some d :: rest -> List.for_all (( = ) (Some d)) rest
  | _ -> false

(* One agreement instance: one decision, one committed client value. *)
let sim_op (type p s m d) (proto : (p, s, m, d) Protocol.t) ~cfg ~(params : p)
    ~adversary tr seed () =
  let o = Instances.run proto ~cfg ~options:(sim_options tr seed) ~params ~adversary () in
  fun () ->
    Option.iter
      (fun tr ->
        let c = o.Instances.crypto in
        tr.verify_hits <- tr.verify_hits + c.Pki.verify_hits;
        tr.verify_misses <- tr.verify_misses + c.Pki.verify_misses;
        tr.agg_hits <- tr.agg_hits + c.Pki.agg_hits;
        tr.agg_misses <- tr.agg_misses + c.Pki.agg_misses)
      tr;
    { decisions = 1; requests = 1; words = o.Instances.words; ok = agreed o }

let no_inputs (_ : tracer option) = ()

(* The paper's worst adaptive case: f = t crashes from slot 0 push every
   correct process into the quadratic fallback. *)
let fallback_storm seed =
  let cfg = Config.optimal ~n:201 in
  let crash_first ~pki:_ ~secrets:_ =
    Adversary.crash ~victims:(List.init cfg.Config.t (fun i -> i + 1)) ()
  in
  {
    name = "fallback-storm";
    cycle = 1;
    setup = no_inputs;
    reference = ignore;
    prepare =
      (fun tr i ->
        let s = Probe.mix seed i in
        sim_op
          (module Instances.Weak_ba_protocol)
          ~cfg
          ~params:
            {
              Instances.Weak_ba_protocol.inputs = Array.make cfg.Config.n (Probe.value s);
              validate = (fun _ -> true);
              quorum_override = None;
            }
          ~adversary:crash_first tr s);
  }

(* The headline linear path: four protocols round-robin, failure-free. *)
let linear_path seed =
  let cfg = Config.optimal ~n:1001 in
  let n = cfg.Config.n in
  {
    name = "linear-path";
    cycle = 4;
    setup = no_inputs;
    reference = ignore;
    prepare =
      (fun tr i ->
        let s = Probe.mix seed i in
        let pid = Probe.below (Probe.mix s 0) n in
        match i mod 4 with
        | 0 ->
          sim_op
            (module Instances.Bb_protocol)
            ~cfg
            ~params:{ Instances.Bb_protocol.sender = pid; input = Probe.value s }
            ~adversary:honest tr s
        | 1 ->
          sim_op
            (module Instances.Weak_ba_protocol)
            ~cfg
            ~params:
              {
                Instances.Weak_ba_protocol.inputs = Array.make n (Probe.value s);
                validate = (fun _ -> true);
                quorum_override = None;
              }
            ~adversary:honest tr s
        | 2 ->
          sim_op
            (module Instances.Strong_ba_protocol)
            ~cfg
            ~params:
              {
                Instances.Strong_ba_protocol.leader = pid;
                inputs = Array.make n (Probe.bit s);
              }
            ~adversary:honest tr s
        | _ ->
          sim_op
            (module Instances.Binary_bb_protocol)
            ~cfg
            ~params:{ Instances.Binary_bb_protocol.sender = pid; input = Probe.bit s }
            ~adversary:honest tr s);
  }

(* The replicated log: open-loop traffic, batched, on a deep pipeline. *)
let smr_log seed =
  let cfg = Config.optimal ~n:31 in
  let offset = Throughput.offset_of cfg "deep" in
  (* Batches close about as fast as the pipeline starts instances, so the
     backlog stays flat; the size caps never bind at this rate. *)
  let policy = { Service.max_requests = 128; max_words = 1024; max_age = offset - 1 } in
  let profile = Option.get (Workload.find_preset "heavy-tail") in
  let streams = 16 and slots = 4096 in
  let pool = ref [||] in
  let setup tr =
    let t0 = Probe.now () in
    pool :=
      Array.init streams (fun k ->
          Workload.generate ~seed:(Probe.mix (Probe.mix seed (-1)) k) ~profile ~slots);
    Option.iter
      (fun tr ->
        tr.generate_s <- tr.generate_s +. (Probe.now () -. t0);
        tr.generated <- tr.generated + streams)
      tr
  in
  let prepare tr i =
    let t0 = Probe.now () in
    let svc = Service.create ~cfg ~policy ~offset () in
    Service.submit_workload svc !pool.(i mod streams);
    Option.iter (fun tr -> tr.submit_s <- tr.submit_s +. (Probe.now () -. t0)) tr;
    fun () ->
      let t0 = Probe.now () in
      let report =
        Service.finalize svc ~seed:(Probe.mix seed i) ~options:(engine_options tr)
          ~adversary:honest ()
      in
      Option.iter (fun tr -> tr.finalize_s <- tr.finalize_s +. (Probe.now () -. t0)) tr;
      fun () ->
        let committed =
          List.init report.Service.requests (Service.claim report)
          |> List.filter_map (function
               | Service.Committed { latency; _ } -> Some latency
               | _ -> None)
        in
        Option.iter
          (fun tr ->
            tr.batch_fill <- report.Service.batch_fill :: tr.batch_fill;
            tr.per_1k_slots <- report.Service.decisions_per_1k_slots :: tr.per_1k_slots;
            tr.latencies <- List.rev_append committed tr.latencies)
          tr;
        {
          decisions = report.Service.decided_batches;
          requests = report.Service.committed;
          words = report.Service.words;
          ok =
            report.Service.requests > 0
            && List.length committed = report.Service.requests;
        }
  in
  {
    name = "smr-log";
    cycle = 1;
    setup;
    reference = ignore;
    prepare;
  }

(* The zoo on the async wire runtime: every protocol, its own codec. The
   pairs are those of [Zoo.entries], which keeps them abstract; the codec
   has to be reachable here so the traced run can time it. *)
type entry =
  | E : {
      proto : ('p, 's, 'm, 'd) Protocol.t;
      codec : 'm Codec.t;
    }
      -> entry

let zoo_entries =
  [|
    E { proto = (module Instances.Fallback_protocol); codec = Zoo.epk_str_msg };
    E { proto = (module Instances.Weak_ba_protocol); codec = Zoo.weak_str_msg };
    E { proto = (module Instances.Bb_protocol); codec = Zoo.adaptive_bb_msg };
    E { proto = (module Instances.Binary_bb_protocol); codec = Zoo.binary_bb_msg };
    E { proto = (module Instances.Strong_ba_protocol); codec = Zoo.strong_bool_msg };
  |]

let entry_name (E e) =
  let module P = (val e.proto) in
  P.name

let add_ns cell t0 = ignore (Atomic.fetch_and_add cell (Probe.now_ns () - t0))

let timed_codec tr (c : 'm Codec.t) : 'm Codec.t =
  {
    Codec.write =
      (fun b m ->
        let t0 = Probe.now_ns () in
        c.Codec.write b m;
        add_ns tr.encode_ns t0;
        Atomic.incr tr.encodes);
    read =
      (fun r ->
        let t0 = Probe.now_ns () in
        let v = c.Codec.read r in
        add_ns tr.decode_ns t0;
        Atomic.incr tr.decodes;
        v);
  }

let monotonic_clock = { Clock.now = Probe.now; sleep = Unix.sleepf }

let timed_clock tr =
  {
    monotonic_clock with
    Clock.sleep =
      (fun d ->
        let t0 = Probe.now_ns () in
        Unix.sleepf d;
        add_ns tr.sleep_ns t0);
  }

let async_wire seed =
  let cfg = Config.optimal ~n:5 in
  let kinds = Array.length zoo_entries in
  let pool = 8 * kinds in
  (* Input j: protocol j mod 5, its own seed, and a six-digit salt so the
     encoded values have the same length whatever the seed. *)
  let input j =
    let s = Probe.mix seed j in
    (zoo_entries.(j mod kinds), s, 100_000 + Probe.below s 900_000)
  in
  let oracles = ref [||] in
  let reference () =
    oracles :=
      Array.init pool (fun j ->
          let e, seed, salt = input j in
          Zoo.oracle (Option.get (Zoo.find (entry_name e))) ~cfg ~seed ~salt)
  in
  let prepare tr i =
    let j = i mod pool in
    match input j with
    | E e, seed, salt ->
      let module P = (val e.proto) in
      let params = P.mutate_params (P.default_params cfg) ~salt in
      let codec, clock =
        match tr with
        | None -> (e.codec, monotonic_clock)
        | Some tr -> (timed_codec tr e.codec, timed_clock tr)
      in
      fun () ->
        let t0 = Probe.now () in
        let o = Runtime.run e.proto ~codec ~cfg ~seed ~clock ~params () in
        let wall = Probe.now () -. t0 in
        fun () ->
          let s = o.Runtime.stats in
          Option.iter
            (fun tr ->
              tr.domain_s <- tr.domain_s +. (float_of_int cfg.Config.n *. wall);
              tr.frames <- tr.frames + s.Runtime.frames_sent;
              tr.bytes <- tr.bytes + s.Runtime.bytes_sent;
              tr.retries <- tr.retries + s.Runtime.retries;
              tr.send_timeouts <- tr.send_timeouts + s.Runtime.send_timeouts;
              tr.deadline_expiries <- tr.deadline_expiries + s.Runtime.deadline_expiries;
              tr.late_frames <- tr.late_frames + s.Runtime.late_frames;
              tr.decode_rejects <- tr.decode_rejects + s.Runtime.decode_rejects)
            tr;
          let fingerprint =
            {
              Zoo.decided_strs = o.Runtime.decided_strs;
              decided_slots = o.Runtime.decided_slots;
              words = o.Runtime.words;
            }
          in
          {
            decisions = 1;
            requests = 1;
            words = Array.fold_left ( + ) 0 o.Runtime.words;
            ok =
              Zoo.fingerprint_diff ~oracle:!oracles.(j) ~async:fingerprint = []
              && o.Runtime.stalled = []
              && o.Runtime.failures = [];
          }
  in
  {
    name = "async-wire";
    (* Two rounds per sample: the runtime's times come in steps of the
       host's scheduling quantum, and ten operations smooth them. *)
    cycle = 2 * kinds;
    setup = no_inputs;
    reference;
    prepare;
  }

let all = [ fallback_storm; linear_path; smr_log; async_wire ]

let find name ~seed =
  List.find_map
    (fun make ->
      let w = make seed in
      if String.equal w.name name then Some w else None)
    all
