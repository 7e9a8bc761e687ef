(** Typed, schema-gated loaders for the five committed benchmark artifacts.

    [mewc report] never reads in-memory structures from the code that wrote
    the artifacts: everything is re-parsed from disk through these loaders,
    so the report can only show what the files actually say, and a
    malformed, missing, or wrong-schema artifact is a load [Error] rather
    than a silently empty figure. *)

type perf = {
  cores : int;
  jobs : int;
  parallelism : string;
  sequential_wall_s : float;
  parallel_wall_s : float;
  speedup : float;
  parallel_identical : bool;
  scheduler : string;
  rows : Mewc_core.Sweep.row list;
}

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

type thr_cell = {
  cell_n : int;
  workload : string;
  depth : string;
  report : thr_report;
}

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

type degrade_cell = {
  dg_protocol : string;
  fault : string;
  level : int;
  verdict : string;  (** "safe-live" | "safe-stalled" | "unsafe" *)
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

type artifacts = {
  perf : perf;  (** [BENCH_perf.json], a [mewc-perf/2] document *)
  ledger : Mewc_core.Ledger.entry list;
      (** [BENCH_ledger.json], a [mewc-ledger/1] file; unlike
          {!Mewc_core.Ledger.load}, a missing file is an error here — the
          report's artifact set is closed *)
  throughput : throughput_entry list;
      (** [BENCH_throughput.json], a [mewc-throughput/1] file *)
  degrade : degrade;  (** [BENCH_degrade.json], a [mewc-degrade/1] matrix *)
  observability : obs_run list;
      (** [BENCH_observability.json], a [mewc-observability/1] file (each
          run's meter gated on [mewc-meter/1]) *)
}

val load_all : dir:string -> (artifacts, string) result
(** All five artifacts from [dir], failing on the first broken one. *)
