(* Typed, schema-gated views of the five committed benchmark artifacts.
   Everything [mewc report] draws is re-parsed through here — the figures
   can only show what the artifacts actually say, and a malformed or
   wrong-schema file is a load error, never a silently empty curve. *)

open Mewc_prelude
module Sweep = Mewc_core.Sweep
module Ledger = Mewc_core.Ledger

let ( let* ) = Result.bind

let read_json path =
  if not (Sys.file_exists path) then Error (path ^ ": no such file")
  else begin
    let contents = In_channel.with_open_bin path In_channel.input_all in
    Result.map_error (fun e -> path ^ ": " ^ e) (Jsonx.parse contents)
  end

(* Field accessors over one object, all failing with the object's role in
   the message so a bad artifact names its own broken member. *)
let field ~ctx j name get =
  match Option.bind (Jsonx.member name j) get with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: bad or missing %S" ctx name)

let get_float = function
  | Jsonx.Float f -> Some f
  | Jsonx.Int i -> Some (float_of_int i)
  | _ -> None

let map_all ~ctx f = function
  | None -> Error (ctx ^ ": not an array")
  | Some items ->
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* v = f item in
        Ok (v :: acc))
      (Ok []) items
    |> Result.map List.rev

(* ---- mewc-perf/2 -------------------------------------------------------- *)

type perf = {
  cores : int;
  jobs : int;
  parallelism : string;
  sequential_wall_s : float;
  parallel_wall_s : float;
  speedup : float;
  parallel_identical : bool;
  scheduler : string;
  rows : Sweep.row list;
}

let load_perf path =
  let* j = read_json path in
  let* () =
    Result.map_error (fun e -> path ^ ": " ^ e) (Jsonx.Schema.check "mewc-perf/2" j)
  in
  let ctx = path in
  let* cores = field ~ctx j "cores" Jsonx.get_int in
  let* jobs = field ~ctx j "jobs" Jsonx.get_int in
  let* parallelism = field ~ctx j "parallelism" Jsonx.get_str in
  let* sequential_wall_s = field ~ctx j "sequential_wall_s" get_float in
  let* parallel_wall_s = field ~ctx j "parallel_wall_s" get_float in
  let* speedup = field ~ctx j "speedup" get_float in
  let* parallel_identical =
    field ~ctx j "parallel_identical_to_sequential" Jsonx.get_bool
  in
  let* scheduler = field ~ctx j "scheduler" Jsonx.get_str in
  let* rows =
    map_all ~ctx:(path ^ ": rows")
      (fun r -> Result.map_error (fun e -> path ^ ": " ^ e) (Sweep.row_of_json r))
      (Option.bind (Jsonx.member "rows" j) Jsonx.get_list)
  in
  Ok
    {
      cores;
      jobs;
      parallelism;
      sequential_wall_s;
      parallel_wall_s;
      speedup;
      parallel_identical;
      scheduler;
      rows;
    }

(* ---- mewc-ledger/1 ------------------------------------------------------ *)

(* [Ledger.load] treats a missing file as an empty ledger; a report's
   artifact set is closed, so here it is an error. *)
let load_ledger path =
  if not (Sys.file_exists path) then Error (path ^ ": no such file")
  else Ledger.load path

(* ---- mewc-throughput/1 -------------------------------------------------- *)

type thr_report = {
  slots : int;
  words : int;
  requests : int;
  committed : int;
  decided_batches : int;
  batch_fill : float;
  words_per_decision : float;
  decisions_per_1k_slots : float;
  p50_latency : int;
  p99_latency : int;
}

type thr_cell = { cell_n : int; workload : string; depth : string; report : thr_report }

type slo_point = {
  fault_profile : string;
  level : int;
  slo_decisions_per_1k : float;
  slo_committed : int;
  slo_undecided : int;
  slo_p99 : int;
  retention : float;
}

type throughput_entry = {
  thr_rev : string;
  thr_date : string;
  cells : thr_cell list;
  slo : slo_point list;
}

let thr_report_of ~ctx j =
  let* slots = field ~ctx j "slots" Jsonx.get_int in
  let* words = field ~ctx j "words" Jsonx.get_int in
  let* requests = field ~ctx j "requests" Jsonx.get_int in
  let* committed = field ~ctx j "committed" Jsonx.get_int in
  let* decided_batches = field ~ctx j "decided_batches" Jsonx.get_int in
  let* batch_fill = field ~ctx j "batch_fill" get_float in
  let* words_per_decision = field ~ctx j "words_per_decision" get_float in
  let* decisions_per_1k_slots = field ~ctx j "decisions_per_1k_slots" get_float in
  let* p50_latency = field ~ctx j "p50_latency" Jsonx.get_int in
  let* p99_latency = field ~ctx j "p99_latency" Jsonx.get_int in
  Ok
    {
      slots;
      words;
      requests;
      committed;
      decided_batches;
      batch_fill;
      words_per_decision;
      decisions_per_1k_slots;
      p50_latency;
      p99_latency;
    }

let load_throughput path =
  let* j = read_json path in
  let* () =
    Result.map_error
      (fun e -> path ^ ": " ^ e)
      (Jsonx.Schema.check "mewc-throughput/1" j)
  in
  map_all ~ctx:(path ^ ": entries")
    (fun e ->
      let ctx = path in
      let* thr_rev = field ~ctx e "rev" Jsonx.get_str in
      let* thr_date = field ~ctx e "date" Jsonx.get_str in
      let* cells =
        map_all ~ctx:(path ^ ": cells")
          (fun c ->
            let* cell_n = field ~ctx c "n" Jsonx.get_int in
            let* workload = field ~ctx c "workload" Jsonx.get_str in
            let* depth = field ~ctx c "depth" Jsonx.get_str in
            let* report =
              match Jsonx.member "report" c with
              | Some r -> thr_report_of ~ctx:(ctx ^ ": report") r
              | None -> Error (ctx ^ ": bad or missing \"report\"")
            in
            Ok { cell_n; workload; depth; report })
          (Option.bind (Jsonx.member "cells" e) Jsonx.get_list)
      in
      let* slo =
        map_all ~ctx:(path ^ ": slo")
          (fun p ->
            let* fault_profile = field ~ctx p "fault_profile" Jsonx.get_str in
            let* level = field ~ctx p "level" Jsonx.get_int in
            let* slo_decisions_per_1k =
              field ~ctx p "decisions_per_1k_slots" get_float
            in
            let* slo_committed = field ~ctx p "committed" Jsonx.get_int in
            let* slo_undecided = field ~ctx p "undecided" Jsonx.get_int in
            let* slo_p99 = field ~ctx p "p99_latency" Jsonx.get_int in
            let* retention = field ~ctx p "retention" get_float in
            Ok
              {
                fault_profile;
                level;
                slo_decisions_per_1k;
                slo_committed;
                slo_undecided;
                slo_p99;
                retention;
              })
          (Option.bind (Jsonx.member "slo" e) Jsonx.get_list)
      in
      Ok { thr_rev; thr_date; cells; slo })
    (Option.bind (Jsonx.member "entries" j) Jsonx.get_list)

(* ---- mewc-degrade/1 ----------------------------------------------------- *)

type degrade_cell = {
  dg_protocol : string;
  fault : string;
  level : int;
  verdict : string;
  dg_f : int;
  dg_faulty : int;
  dg_undecided : int;
  dg_words : int;
  dg_slots : int;
}

type degrade = {
  dg_n : int;
  dg_t : int;
  dg_protocols : string list;
  faults : string list;
  levels : int;
  dg_cells : degrade_cell list;
}

let load_degrade path =
  let* j = read_json path in
  let* () =
    Result.map_error
      (fun e -> path ^ ": " ^ e)
      (Jsonx.Schema.check "mewc-degrade/1" j)
  in
  let ctx = path in
  let* dg_n = field ~ctx j "n" Jsonx.get_int in
  let* dg_t = field ~ctx j "t" Jsonx.get_int in
  let strings name =
    map_all ~ctx:(path ^ ": " ^ name)
      (fun s ->
        match Jsonx.get_str s with
        | Some s -> Ok s
        | None -> Error (path ^ ": non-string in " ^ name))
      (Option.bind (Jsonx.member name j) Jsonx.get_list)
  in
  let* dg_protocols = strings "protocols" in
  let* faults = strings "faults" in
  let* levels = field ~ctx j "levels" Jsonx.get_int in
  let* dg_cells =
    map_all ~ctx:(path ^ ": cells")
      (fun c ->
        let* dg_protocol = field ~ctx c "protocol" Jsonx.get_str in
        let* fault = field ~ctx c "fault" Jsonx.get_str in
        let* level = field ~ctx c "level" Jsonx.get_int in
        let* verdict = field ~ctx c "verdict" Jsonx.get_str in
        let* dg_f = field ~ctx c "f" Jsonx.get_int in
        let* dg_faulty = field ~ctx c "faulty" Jsonx.get_int in
        let* dg_undecided = field ~ctx c "undecided" Jsonx.get_int in
        let* dg_words = field ~ctx c "words" Jsonx.get_int in
        let* dg_slots = field ~ctx c "slots" Jsonx.get_int in
        Ok
          {
            dg_protocol;
            fault;
            level;
            verdict;
            dg_f;
            dg_faulty;
            dg_undecided;
            dg_words;
            dg_slots;
          })
      (Option.bind (Jsonx.member "cells" j) Jsonx.get_list)
  in
  Ok { dg_n; dg_t; dg_protocols; faults; levels; dg_cells }

(* ---- mewc-observability/1 ----------------------------------------------- *)

type slot_sample = {
  slot : int;
  slot_words : int;
  slot_messages : int;
  slot_byz_words : int;
  slot_byz_messages : int;
}

type obs_run = {
  ob_protocol : string;
  ob_n : int;
  ob_t : int;
  ob_f_spec : string;
  ob_f : int;
  ob_words : int;
  ob_messages : int;
  ob_latency : int;
  ob_slots : int;
  correct_words : int;
  correct_messages : int;
  byz_words : int;
  byz_messages : int;
  per_slot : slot_sample list;
}

let load_observability path =
  let* j = read_json path in
  let* () =
    Result.map_error
      (fun e -> path ^ ": " ^ e)
      (Jsonx.Schema.check "mewc-observability/1" j)
  in
  map_all ~ctx:(path ^ ": runs")
    (fun r ->
      let ctx = path in
      let* ob_protocol = field ~ctx r "protocol" Jsonx.get_str in
      let* ob_n = field ~ctx r "n" Jsonx.get_int in
      let* ob_t = field ~ctx r "t" Jsonx.get_int in
      let* ob_f_spec = field ~ctx r "f_spec" Jsonx.get_str in
      let* ob_f = field ~ctx r "f" Jsonx.get_int in
      let* ob_words = field ~ctx r "words" Jsonx.get_int in
      let* ob_messages = field ~ctx r "messages" Jsonx.get_int in
      let* ob_latency = field ~ctx r "latency" Jsonx.get_int in
      let* ob_slots = field ~ctx r "slots" Jsonx.get_int in
      let* meter =
        match Jsonx.member "meter" r with
        | Some m -> Ok m
        | None -> Error (ctx ^ ": bad or missing \"meter\"")
      in
      let* () =
        Result.map_error
          (fun e -> path ^ ": " ^ e)
          (Jsonx.Schema.check "mewc-meter/1" meter)
      in
      let* correct_words = field ~ctx meter "correct_words" Jsonx.get_int in
      let* correct_messages = field ~ctx meter "correct_messages" Jsonx.get_int in
      let* byz_words = field ~ctx meter "byz_words" Jsonx.get_int in
      let* byz_messages = field ~ctx meter "byz_messages" Jsonx.get_int in
      let* per_slot =
        map_all ~ctx:(path ^ ": per_slot")
          (fun s ->
            let* slot = field ~ctx s "slot" Jsonx.get_int in
            let* slot_words = field ~ctx s "words" Jsonx.get_int in
            let* slot_messages = field ~ctx s "messages" Jsonx.get_int in
            let* slot_byz_words = field ~ctx s "byz_words" Jsonx.get_int in
            let* slot_byz_messages = field ~ctx s "byz_messages" Jsonx.get_int in
            Ok { slot; slot_words; slot_messages; slot_byz_words; slot_byz_messages })
          (Option.bind (Jsonx.member "per_slot" meter) Jsonx.get_list)
      in
      Ok
        {
          ob_protocol;
          ob_n;
          ob_t;
          ob_f_spec;
          ob_f;
          ob_words;
          ob_messages;
          ob_latency;
          ob_slots;
          correct_words;
          correct_messages;
          byz_words;
          byz_messages;
          per_slot;
        })
    (Option.bind (Jsonx.member "runs" j) Jsonx.get_list)

(* ---- the closed artifact set -------------------------------------------- *)

type artifacts = {
  perf : perf;
  ledger : Ledger.entry list;
  throughput : throughput_entry list;
  degrade : degrade;
  observability : obs_run list;
}

let perf_file = "BENCH_perf.json"
let ledger_file = "BENCH_ledger.json"
let throughput_file = "BENCH_throughput.json"
let degrade_file = "BENCH_degrade.json"
let observability_file = "BENCH_observability.json"

let load_all ~dir =
  let p f = Filename.concat dir f in
  let* perf = load_perf (p perf_file) in
  let* ledger = load_ledger (p ledger_file) in
  let* throughput = load_throughput (p throughput_file) in
  let* degrade = load_degrade (p degrade_file) in
  let* observability = load_observability (p observability_file) in
  Ok { perf; ledger; throughput; degrade; observability }
