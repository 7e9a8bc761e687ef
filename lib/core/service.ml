open Mewc_prelude
open Mewc_sim

type policy = { max_requests : int; max_words : int; max_age : int }

let default_policy = { max_requests = 8; max_words = 64; max_age = 4 }

let validate_policy { max_requests; max_words; max_age } =
  if max_requests < 1 || max_words < 1 || max_age < 1 then
    invalid_arg "Service: batch caps must all be >= 1"

type t = {
  cfg : Config.t;
  policy : policy;
  offset : int;
  mutable queue : Workload.request list;  (* reversed *)
  mutable next_ticket : int;
  mutable last_arrival : int;
  mutable finalized : bool;
}

let create ~cfg ?(policy = default_policy) ?offset () =
  validate_policy policy;
  let stride = Repeated_bb.stride cfg in
  let offset =
    match offset with
    | None -> stride
    | Some o ->
      if o < 1 || o > stride then
        invalid_arg
          (Printf.sprintf "Service: offset must be in [1, %d], got %d" stride o);
      o
  in
  {
    cfg;
    policy;
    offset;
    queue = [];
    next_ticket = 0;
    last_arrival = 0;
    finalized = false;
  }

let submit t ~arrival ~size =
  if t.finalized then failwith "Service.submit: already finalized";
  if size < 1 then invalid_arg "Service.submit: size must be >= 1";
  if arrival < t.last_arrival then
    invalid_arg "Service.submit: arrivals must be non-decreasing";
  let ticket = t.next_ticket in
  t.queue <- { Workload.id = ticket; arrival; size } :: t.queue;
  t.next_ticket <- ticket + 1;
  t.last_arrival <- arrival;
  ticket

let submit_workload t reqs =
  List.iter
    (fun r -> ignore (submit t ~arrival:r.Workload.arrival ~size:r.Workload.size))
    reqs

type disposition =
  | Committed of { index : int; decided_slot : int; latency : int }
  | Skipped of { index : int }
  | Undecided of { index : int }
  | Unassigned

let pp_disposition fmt = function
  | Committed { index; decided_slot; latency } ->
    Format.fprintf fmt "committed(slot %d @ %d, lat %d)" index decided_slot
      latency
  | Skipped { index } -> Format.fprintf fmt "skipped(slot %d)" index
  | Undecided { index } -> Format.fprintf fmt "undecided(slot %d)" index
  | Unassigned -> Format.pp_print_string fmt "unassigned"

(* Greedy packing in arrival order: close the open batch when the next
   request would bust a cap. Pure in the submitted stream — the pipeline
   schedule never reaches here. *)
let pack ~(policy : policy) reqs =
  let rec go cur cur_n cur_w first acc = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | r :: rest ->
      if cur = [] then go [ r ] 1 r.Workload.size r.Workload.arrival acc rest
      else if
        cur_n >= policy.max_requests
        || cur_w + r.Workload.size > policy.max_words
        || r.Workload.arrival - first > policy.max_age
      then go [ r ] 1 r.Workload.size r.Workload.arrival (List.rev cur :: acc) rest
      else go (r :: cur) (cur_n + 1) (cur_w + r.Workload.size) first acc rest
  in
  go [] 0 0 0 [] reqs

let encode_batch index batch =
  Printf.sprintf "b%d:%s" index
    (String.concat "," (List.map (fun r -> string_of_int r.Workload.id) batch))

type report = {
  length : int;
  offset : int;
  slots : int;
  f : int;
  words : int;
  requests : int;
  committed : int;
  skipped : int;
  undecided : int;
  unassigned : int;
  decided_batches : int;
  batch_fill : float;
  words_per_decision : float;
  decisions_per_1k_slots : float;
  p50_latency : int;
  p99_latency : int;
  dispositions : disposition array;
  log : Repeated_bb.entry option array;
}

(* The repo-wide nearest-rank definition; byte-identical to the formula
   this module used to carry, so recorded BENCH_throughput numbers and the
   throughput smoke gate are unaffected by the unification. *)
let percentile = Mewc_obs.Metrics.nearest_rank

let finalize t ~seed ?max_instances ?options ~adversary () =
  if t.finalized then failwith "Service.finalize: already finalized";
  t.finalized <- true;
  let reqs = List.rev t.queue in
  let all_batches = pack ~policy:t.policy reqs in
  let proposed, overflow =
    match max_instances with
    | None -> (all_batches, [])
    | Some cap ->
      if cap < 1 then invalid_arg "Service.finalize: max_instances must be >= 1";
      let rec split i acc = function
        | rest when i = cap -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | b :: rest -> split (i + 1) (b :: acc) rest
      in
      split 0 [] all_batches
  in
  (* An empty service still runs one (empty) log slot, so the report's
     engine facts are never vacuous. *)
  let proposed = if proposed = [] then [ [] ] else proposed in
  let batches = Array.of_list proposed in
  let length = Array.length batches in
  let values = Array.mapi encode_batch batches in
  let o =
    Repeated_bb.run ~cfg:t.cfg ~seed ~offset:t.offset ?options ~length
      ~propose:(fun _pid i -> values.(i))
      ~adversary ()
  in
  let report_span assemble =
    match Option.bind options (fun o -> o.Engine.profile) with
    | None -> assemble ()
    | Some p -> Profile.span p ~category:Profile.Serialize "service.report" assemble
  in
  report_span @@ fun () ->
  let n = t.cfg.Config.n in
  (* replication counts the replicas that *can* decide: corrupted ones are
     the adversary's, fault-injected ones (e.g. an SLO sweep's crashes)
     are dead — a commit is "landed" when the last of the rest decides,
     the same "correct non-faulted" convention the degradation harness
     classifies by. *)
  let correct =
    List.filter
      (fun p ->
        (not (List.mem p o.Repeated_bb.corrupted))
        && not (List.mem p o.Repeated_bb.faulty))
      (List.init n Fun.id)
  in
  let agreed index =
    match correct with
    | [] -> None
    | p :: _ -> o.Repeated_bb.logs.(p).(index)
  in
  (* the landing slot: when the *last* correct replica decided — the point
     the commit is fully replicated. *)
  let landed index =
    List.fold_left
      (fun acc p ->
        match (acc, o.Repeated_bb.decided_slots.(p).(index)) with
        | Some a, Some b -> Some (max a b)
        | _, None | None, _ -> None)
      (match correct with [] -> None | _ -> Some 0)
      correct
  in
  let dispositions = Array.make (List.length reqs) Unassigned in
  let committed = ref 0 and skipped = ref 0 and undecided = ref 0 in
  let decided_batches = ref 0 in
  let latencies = ref [] in
  Array.iteri
    (fun index batch ->
      let dispose =
        match (agreed index, landed index) with
        | Some (Repeated_bb.Committed _), Some slot ->
          incr decided_batches;
          fun (r : Workload.request) ->
            incr committed;
            let latency = max 0 (slot - r.Workload.arrival) in
            latencies := latency :: !latencies;
            Committed { index; decided_slot = slot; latency }
        | Some Repeated_bb.Skipped, _ ->
          incr decided_batches;
          fun _ ->
            incr skipped;
            Skipped { index }
        | Some (Repeated_bb.Committed _), None | None, _ ->
          fun _ ->
            incr undecided;
            Undecided { index }
      in
      List.iter (fun r -> dispositions.(r.Workload.id) <- dispose r) batch)
    batches;
  ignore overflow (* already Unassigned by default *);
  let requests = List.length reqs in
  let unassigned = requests - !committed - !skipped - !undecided in
  let sorted_latencies =
    let a = Array.of_list !latencies in
    Array.sort compare a;
    a
  in
  let fl = float_of_int in
  let batch_fill =
    fl (Array.fold_left (fun acc b -> acc + List.length b) 0 batches)
    /. fl (length * t.policy.max_requests)
  in
  {
    length;
    offset = t.offset;
    slots = o.Repeated_bb.slots;
    f = o.Repeated_bb.f;
    words = o.Repeated_bb.words;
    requests;
    committed = !committed;
    skipped = !skipped;
    undecided = !undecided;
    unassigned;
    decided_batches = !decided_batches;
    batch_fill;
    words_per_decision =
      (if !decided_batches = 0 then 0.0
       else fl o.Repeated_bb.words /. fl !decided_batches);
    decisions_per_1k_slots =
      (if o.Repeated_bb.slots = 0 then 0.0
       else 1000.0 *. fl !decided_batches /. fl o.Repeated_bb.slots);
    p50_latency = percentile 50.0 sorted_latencies;
    p99_latency = percentile 99.0 sorted_latencies;
    dispositions;
    log = (match correct with [] -> [||] | p :: _ -> o.Repeated_bb.logs.(p));
  }
  |> fun report ->
  (* Service-level telemetry rides the same registry the engine already
     wrote into during the run; recorded after the fact, so counts are the
     report's own deterministic numbers. *)
  (match Option.bind options (fun o -> o.Engine.metrics) with
  | None -> ()
  | Some reg ->
    let open Mewc_obs.Metrics in
    add (counter reg "service.requests") report.requests;
    add (counter reg "service.committed") report.committed;
    let latency_h = histogram reg "service.latency" in
    Array.iter (observe latency_h) sorted_latencies);
  report

let claim report ticket =
  if ticket < 0 || ticket >= Array.length report.dispositions then
    invalid_arg (Printf.sprintf "Service.claim: unknown ticket %d" ticket);
  report.dispositions.(ticket)

let report_to_json r =
  Jsonx.Obj
    [
      ("length", Jsonx.Int r.length);
      ("offset", Jsonx.Int r.offset);
      ("slots", Jsonx.Int r.slots);
      ("f", Jsonx.Int r.f);
      ("words", Jsonx.Int r.words);
      ("requests", Jsonx.Int r.requests);
      ("committed", Jsonx.Int r.committed);
      ("skipped", Jsonx.Int r.skipped);
      ("undecided", Jsonx.Int r.undecided);
      ("unassigned", Jsonx.Int r.unassigned);
      ("decided_batches", Jsonx.Int r.decided_batches);
      ("batch_fill", Jsonx.Float r.batch_fill);
      ("words_per_decision", Jsonx.Float r.words_per_decision);
      ("decisions_per_1k_slots", Jsonx.Float r.decisions_per_1k_slots);
      ("p50_latency", Jsonx.Int r.p50_latency);
      ("p99_latency", Jsonx.Int r.p99_latency);
    ]
