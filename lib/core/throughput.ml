open Mewc_prelude
open Mewc_sim

let ( let* ) = Result.bind

let schema = "mewc-throughput/1"

(* ---- the grid ----------------------------------------------------------- *)

let depths =
  [
    ("seq", Repeated_bb.stride);
    ("half", fun cfg -> max 1 (Repeated_bb.stride cfg / 2));
    ("deep", fun cfg -> max 1 (Repeated_bb.stride cfg / 4));
  ]

let depth_names = List.map fst depths

let offset_of cfg depth =
  match List.assoc_opt depth depths with
  | Some f -> f cfg
  | None -> invalid_arg (Printf.sprintf "Throughput: unknown depth %S" depth)

let grid =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun workload ->
          List.map (fun depth -> (n, workload, depth)) depth_names)
        Workload.preset_names)
    [ 9; 13 ]

let traffic_slots = 32

(* Depth deliberately excluded: the pipeline offset is a scheduling
   policy, so cells differing only in depth must run the exact same
   traffic and trusted setup — that is what makes the deep-vs-seq
   oracle comparison in [smoke] meaningful. *)
let seed_of ~n ~workload =
  let h = Hashtbl.hash ("throughput", n, workload) in
  Int64.logor (Int64.of_int h) (Int64.shift_left (Int64.of_int n) 32)

type cell = {
  n : int;
  workload : string;
  depth : string;
  seed : int64;
  report : Service.report;
}

let honest = Adversary.const (Adversary.honest ~name:"honest")

let run_cell ?options ~n ~workload ~depth () =
  let profile =
    match Workload.find_preset workload with
    | Some p -> p
    | None ->
      invalid_arg (Printf.sprintf "Throughput: unknown workload %S" workload)
  in
  let cfg = Config.optimal ~n in
  let offset = offset_of cfg depth in
  let seed = seed_of ~n ~workload in
  let svc = Service.create ~cfg ~offset () in
  Service.submit_workload svc
    (Workload.generate ~seed ~profile ~slots:traffic_slots);
  let report = Service.finalize svc ~seed ?options ~adversary:honest () in
  { n; workload; depth; seed; report }

let run_grid ?options ?progress cells =
  List.map
    (fun (n, workload, depth) ->
      let c = run_cell ?options ~n ~workload ~depth () in
      (match progress with None -> () | Some tick -> tick ());
      c)
    cells

(* ---- the SLO sweep ------------------------------------------------------ *)

type slo_point = {
  fault_profile : string;
  level : int;
  decisions_per_1k_slots : float;
  committed : int;
  undecided : int;
  p99_latency : int;
  retention : float;
}

let slo_grid =
  List.concat_map
    (fun profile ->
      List.init Degrade.levels (fun level -> (profile, level)))
    [ "crash"; "drop" ]

let slo_n = 9
let slo_workload = "steady"
let slo_depth = "half"

let slo_sweep ?(options = Engine.default_options) ?progress () =
  let profile = Option.get (Workload.find_preset slo_workload) in
  let cfg = Config.optimal ~n:slo_n in
  let offset = offset_of cfg slo_depth in
  let run fault_profile level =
    let seed = seed_of ~n:slo_n ~workload:(slo_workload ^ "/slo") in
    let svc = Service.create ~cfg ~offset () in
    Service.submit_workload svc
      (Workload.generate ~seed ~profile ~slots:traffic_slots);
    Service.finalize svc ~seed
      ~options:
        { options with Engine.faults = Degrade.plan_of ~profile:fault_profile ~level }
      ~adversary:honest ()
  in
  List.map
    (fun (fault_profile, level) ->
      let r = run fault_profile level in
      let base = run fault_profile 0 in
      (match progress with None -> () | Some tick -> tick ());
      let retention =
        if base.Service.decisions_per_1k_slots <= 0.0 then 1.0
        else r.Service.decisions_per_1k_slots /. base.Service.decisions_per_1k_slots
      in
      {
        fault_profile;
        level;
        decisions_per_1k_slots = r.Service.decisions_per_1k_slots;
        committed = r.Service.committed;
        undecided = r.Service.undecided;
        p99_latency = r.Service.p99_latency;
        retention;
      })
    slo_grid

(* ---- serialization and the ledger --------------------------------------- *)

let cell_to_json c =
  Jsonx.Obj
    [
      ("n", Jsonx.Int c.n);
      ("workload", Jsonx.Str c.workload);
      ("depth", Jsonx.Str c.depth);
      ("seed", Jsonx.Str (Int64.to_string c.seed));
      ("report", Service.report_to_json c.report);
    ]

let slo_point_to_json p =
  Jsonx.Obj
    [
      ("fault_profile", Jsonx.Str p.fault_profile);
      ("level", Jsonx.Int p.level);
      ("decisions_per_1k_slots", Jsonx.Float p.decisions_per_1k_slots);
      ("committed", Jsonx.Int p.committed);
      ("undecided", Jsonx.Int p.undecided);
      ("p99_latency", Jsonx.Int p.p99_latency);
      ("retention", Jsonx.Float p.retention);
    ]

type entry = {
  rev : string;
  date : string;
  cells : cell list;
  slo : slo_point list;
}

let entry_to_json e =
  Jsonx.Obj
    [
      ("rev", Jsonx.Str e.rev);
      ("date", Jsonx.Str e.date);
      ("cells", Jsonx.Arr (List.map cell_to_json e.cells));
      ("slo", Jsonx.Arr (List.map slo_point_to_json e.slo));
    ]

let to_json entries =
  Jsonx.Schema.tag schema [ ("entries", Jsonx.Arr entries) ]

let load path =
  if not (Sys.file_exists path) then Ok []
  else begin
    let contents = In_channel.with_open_bin path In_channel.input_all in
    let* j =
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" path e)
        (Jsonx.parse contents)
    in
    let* () =
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" path e)
        (Jsonx.Schema.check schema j)
    in
    match Option.bind (Jsonx.member "entries" j) Jsonx.get_list with
    | Some es -> Ok es
    | None -> Error (Printf.sprintf "%s: no entries array" path)
  end

let save path entries =
  (* write-then-rename, as the perf ledger does. *)
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (Jsonx.to_string (to_json entries));
      Out_channel.output_char oc '\n');
  Sys.rename tmp path

let append path entry =
  match load path with
  | Error e -> Error (`Malformed e)
  | Ok entries -> (
    let entries = entries @ [ entry_to_json entry ] in
    match save path entries with
    | () -> Ok (List.length entries)
    | exception Sys_error e -> Error (`Unwritable e))

let render e =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "[THROUGHPUT] grid (decisions/1k-slots, words/decision, batch fill, \
     p50/p99 latency):\n";
  Buffer.add_string b
    "  n   workload    depth  dec/1k   w/dec   fill  p50  p99\n";
  List.iter
    (fun c ->
      let r = c.report in
      Buffer.add_string b
        (Printf.sprintf "  %-3d %-11s %-5s %7.1f %7.1f  %5.2f %4d %4d\n" c.n
           c.workload c.depth r.Service.decisions_per_1k_slots
           r.Service.words_per_decision r.Service.batch_fill
           r.Service.p50_latency r.Service.p99_latency))
    e.cells;
  Buffer.add_string b "[THROUGHPUT] SLO sweep (throughput retention vs level 0):\n";
  Buffer.add_string b "  profile  level  dec/1k  retention  committed  undecided  p99\n";
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "  %-8s %5d %7.1f %10.2f %10d %10d %4d\n"
           p.fault_profile p.level p.decisions_per_1k_slots p.retention
           p.committed p.undecided p.p99_latency))
    e.slo;
  Buffer.contents b

(* ---- the smoke gate ------------------------------------------------------ *)

let smoke ?options () =
  let sub = List.filter (fun (n, _, _) -> n = 9) grid in
  let make () =
    {
      rev = "smoke";
      date = "smoke";
      cells = run_grid ?options sub;
      slo = slo_sweep ?options ();
    }
  in
  let a = make () in
  let b = make () in
  let doc e = Jsonx.to_string (to_json [ entry_to_json e ]) in
  if not (String.equal (doc a) (doc b)) then
    Error "throughput grid is not deterministic: two identical runs diverged"
  else begin
    let find workload depth =
      List.find (fun c -> String.equal c.workload workload && String.equal c.depth depth) a.cells
    in
    let oracle_violation =
      List.find_map
        (fun workload ->
          let seq = find workload "seq" in
          let deep = find workload "deep" in
          if deep.report.Service.log <> seq.report.Service.log then
            Some
              (Printf.sprintf
                 "%s: deep pipeline committed a different log than the \
                  sequential oracle"
                 workload)
          else if deep.report.Service.slots >= seq.report.Service.slots then
            Some
              (Printf.sprintf
                 "%s: deep pipeline (%d slots) not faster than sequential (%d)"
                 workload deep.report.Service.slots seq.report.Service.slots)
          else None)
        Workload.preset_names
    in
    match oracle_violation with
    | Some e -> Error e
    | None -> (
      match
        List.find_opt
          (fun p -> p.level = 0 && p.retention <> 1.0)
          a.slo
      with
      | Some p ->
        Error
          (Printf.sprintf "SLO control broken: %s level 0 retention %.3f"
             p.fault_profile p.retention)
      | None -> Ok a)
  end
