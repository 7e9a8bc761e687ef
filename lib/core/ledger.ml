open Mewc_prelude

let schema = "mewc-ledger/1"

type entry = {
  rev : string;
  date : string;
  grid : string;
  scheduler : string;
  jobs : int;
  cores : int;
  sequential_s : float;
  parallel_s : float;
  speedup : float;
  parallelism : string;
  rollup : (string * float) list;
  rows : Sweep.row list;
}

let of_report ~rev ~date ~grid ?profile (r : Sweep.report) =
  {
    rev;
    date;
    grid;
    scheduler = Mewc_sim.Engine.scheduler_to_string `Event_driven;
    jobs = r.Sweep.jobs;
    cores = r.Sweep.cores;
    sequential_s = r.Sweep.sequential_s;
    parallel_s = r.Sweep.parallel_s;
    speedup = r.Sweep.speedup;
    parallelism = r.Sweep.parallelism;
    rollup =
      (match profile with
      | None -> []
      | Some p ->
        List.map
          (fun (c, s) -> (Mewc_sim.Profile.category_name c, s))
          (Mewc_sim.Profile.rollup p));
    rows = r.Sweep.rows;
  }

let entry_to_json e =
  Jsonx.Obj
    [
      ("rev", Jsonx.Str e.rev);
      ("date", Jsonx.Str e.date);
      ("grid", Jsonx.Str e.grid);
      ("scheduler", Jsonx.Str e.scheduler);
      ("jobs", Jsonx.Int e.jobs);
      ("cores", Jsonx.Int e.cores);
      ("sequential_wall_s", Jsonx.Float e.sequential_s);
      ("parallel_wall_s", Jsonx.Float e.parallel_s);
      ("speedup", Jsonx.Float e.speedup);
      ("parallelism", Jsonx.Str e.parallelism);
      ( "rollup",
        Jsonx.Obj (List.map (fun (c, s) -> (c, Jsonx.Float s)) e.rollup) );
      ("rows", Jsonx.Arr (List.map Sweep.row_to_json e.rows));
    ]

let ( let* ) = Result.bind

let get_float = function
  | Jsonx.Float f -> Some f
  | Jsonx.Int i -> Some (float_of_int i)
  | _ -> None

let entry_of_json j =
  let field name get =
    match Option.bind (Jsonx.member name j) get with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "Ledger.entry_of_json: bad or missing %S" name)
  in
  let* rev = field "rev" Jsonx.get_str in
  let* date = field "date" Jsonx.get_str in
  let* grid = field "grid" Jsonx.get_str in
  let* jobs = field "jobs" Jsonx.get_int in
  let* cores = field "cores" Jsonx.get_int in
  let* sequential_s = field "sequential_wall_s" get_float in
  let* parallel_s = field "parallel_wall_s" get_float in
  let* speedup = field "speedup" get_float in
  (* [parallelism] is optional so pre-shard ledger files (same
     mewc-ledger/1 schema) keep parsing. Entries written while sweeps had
     shard passes also carry a [shards] array; nothing reads it, and
     {!append} keeps it on disk. *)
  let parallelism =
    Option.value
      (Option.bind (Jsonx.member "parallelism" j) Jsonx.get_str)
      ~default:"unknown"
  in
  (* Optional like the other late-era fields: pre-scheduler ledger files
     (all written by the legacy engine) keep parsing. *)
  let scheduler =
    Option.value
      (Option.bind (Jsonx.member "scheduler" j) Jsonx.get_str)
      ~default:"legacy"
  in
  let* rollup =
    match Jsonx.member "rollup" j with
    | Some (Jsonx.Obj fields) ->
      List.fold_left
        (fun acc (c, v) ->
          let* acc = acc in
          match get_float v with
          | Some s -> Ok ((c, s) :: acc)
          | None -> Error (Printf.sprintf "Ledger.entry_of_json: bad rollup %S" c))
        (Ok []) fields
      |> Result.map List.rev
    | Some _ -> Error "Ledger.entry_of_json: rollup is not an object"
    | None -> Ok []
  in
  let* rows =
    match Option.bind (Jsonx.member "rows" j) Jsonx.get_list with
    | None -> Error "Ledger.entry_of_json: bad or missing \"rows\""
    | Some rs ->
      List.fold_left
        (fun acc r ->
          let* acc = acc in
          let* row = Sweep.row_of_json r in
          Ok (row :: acc))
        (Ok []) rs
      |> Result.map List.rev
  in
  Ok
    {
      rev;
      date;
      grid;
      scheduler;
      jobs;
      cores;
      sequential_s;
      parallel_s;
      speedup;
      parallelism;
      rollup;
      rows;
    }

let document entries_json =
  Jsonx.Schema.tag schema [ ("entries", Jsonx.Arr entries_json) ]

let to_json entries = document (List.map entry_to_json entries)

(* Each entry of a ledger document, paired with the JSON it was read as. *)
let parse_entries j =
  let* () = Jsonx.Schema.check schema j in
  match Option.bind (Jsonx.member "entries" j) Jsonx.get_list with
  | None -> Error "Ledger.of_json: bad or missing \"entries\""
  | Some es ->
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* entry = entry_of_json e in
        Ok ((e, entry) :: acc))
      (Ok []) es
    |> Result.map List.rev

let of_json j = Result.map (List.map snd) (parse_entries j)

let read path =
  if not (Sys.file_exists path) then Ok []
  else begin
    let contents =
      In_channel.with_open_bin path In_channel.input_all
    in
    let in_file r = Result.map_error (fun e -> Printf.sprintf "%s: %s" path e) r in
    let* j = in_file (Jsonx.parse contents) in
    in_file (parse_entries j)
  end

let load path = Result.map (List.map snd) (read path)

let write path doc =
  (* Write-then-rename so a crash mid-write never truncates the history. *)
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (Jsonx.to_string doc);
      Out_channel.output_char oc '\n');
  Sys.rename tmp path

let save path entries = write path (to_json entries)

(* Earlier entries go back as the JSON they were read as, so members that
   today's [entry] no longer carries (an old entry's [shards] curve) are
   never erased by an append. *)
let append path entry =
  match read path with
  | Error e -> Error (`Malformed e)
  | Ok entries -> (
    let entries_json = List.map fst entries @ [ entry_to_json entry ] in
    match write path (document entries_json) with
    | () -> Ok (List.length entries_json)
    | exception Sys_error e -> Error (`Unwritable e))

(* Entry selection for the CLI: an integer index (negative counts from the
   end, Python-style) or a unique git-rev prefix. *)
let find entries selector =
  let n = List.length entries in
  match int_of_string_opt selector with
  | Some i ->
    let i = if i < 0 then n + i else i in
    if i >= 0 && i < n then Ok (List.nth entries i)
    else Error (Printf.sprintf "ledger index %s out of range (%d entries)" selector n)
  | None -> (
    let matches =
      List.filter
        (fun e -> String.starts_with ~prefix:selector e.rev)
        entries
    in
    match matches with
    | [ e ] -> Ok e
    | [] -> Error (Printf.sprintf "no ledger entry with rev prefix %S" selector)
    | _ :: _ ->
      Error
        (Printf.sprintf "rev prefix %S is ambiguous (%d matches)" selector
           (List.length matches)))

(* ---- diffing ----------------------------------------------------------- *)

type delta = {
  point : Sweep.point;
  words_a : int;
  words_b : int;
  words_ratio : float;
  signatures_a : int;
  signatures_b : int;
  regressed : bool;
}

type diff = {
  threshold : float;
  matched : delta list;
  only_a : Sweep.point list;
  only_b : Sweep.point list;
  wall_a : float;
  wall_b : float;
  wall_ratio : float;
  wall_regressed : bool;
  regressions : int;  (** word regressions + wall regression, if any *)
}

let default_threshold = 0.25

let point_equal (a : Sweep.point) (b : Sweep.point) =
  String.equal a.Sweep.protocol b.Sweep.protocol
  && a.Sweep.n = b.Sweep.n
  && String.equal a.Sweep.f_spec b.Sweep.f_spec

let ratio ~a ~b =
  if a = 0 then if b = 0 then 1.0 else infinity
  else float_of_int b /. float_of_int a

let diff ?(threshold = default_threshold) a b =
  let find_in rows p =
    List.find_opt (fun (r : Sweep.row) -> point_equal r.Sweep.point p) rows
  in
  let matched =
    List.filter_map
      (fun (ra : Sweep.row) ->
        Option.map
          (fun (rb : Sweep.row) ->
            let words_ratio = ratio ~a:ra.Sweep.words ~b:rb.Sweep.words in
            {
              point = ra.Sweep.point;
              words_a = ra.Sweep.words;
              words_b = rb.Sweep.words;
              words_ratio;
              signatures_a = ra.Sweep.signatures;
              signatures_b = rb.Sweep.signatures;
              (* Word counts are deterministic, so the threshold is not
                 noise headroom: it separates intended protocol changes
                 from the accidental blow-ups the ledger exists to catch. *)
              regressed = words_ratio > 1.0 +. threshold;
            })
          (find_in b.rows ra.Sweep.point))
      a.rows
  in
  let only side other =
    List.filter_map
      (fun (r : Sweep.row) ->
        if find_in other r.Sweep.point = None then Some r.Sweep.point else None)
      side
  in
  let wall_ratio =
    if a.sequential_s > 0.0 then b.sequential_s /. a.sequential_s else 1.0
  in
  let wall_regressed = wall_ratio > 1.0 +. threshold in
  {
    threshold;
    matched;
    only_a = only a.rows b.rows;
    only_b = only b.rows a.rows;
    wall_a = a.sequential_s;
    wall_b = b.sequential_s;
    wall_ratio;
    wall_regressed;
    regressions =
      List.length (List.filter (fun d -> d.regressed) matched)
      + (if wall_regressed then 1 else 0);
  }

let render ~label_a ~label_b d =
  let table =
    Ascii_table.create
      ~title:
        (Printf.sprintf "perf diff: %s -> %s (threshold %+.0f%%)" label_a
           label_b (100.0 *. d.threshold))
      ~headers:[ "point"; "words A"; "words B"; "ratio"; "sigs A"; "sigs B"; "verdict" ]
  in
  List.iter
    (fun dl ->
      Ascii_table.add_row table
        [
          Format.asprintf "%a" Sweep.pp_point dl.point;
          string_of_int dl.words_a;
          string_of_int dl.words_b;
          Printf.sprintf "%.3f" dl.words_ratio;
          string_of_int dl.signatures_a;
          string_of_int dl.signatures_b;
          (if dl.regressed then "REGRESSED"
           else if dl.words_b < dl.words_a then "improved"
           else if dl.words_b = dl.words_a then "="
           else "ok");
        ])
    d.matched;
  let b = Buffer.create 1024 in
  Buffer.add_string b (Ascii_table.render table);
  List.iter
    (fun p ->
      Buffer.add_string b
        (Format.asprintf "only in %s: %a\n" label_a Sweep.pp_point p))
    d.only_a;
  List.iter
    (fun p ->
      Buffer.add_string b
        (Format.asprintf "only in %s: %a\n" label_b Sweep.pp_point p))
    d.only_b;
  Buffer.add_string b
    (Printf.sprintf "sequential wall: %.3fs -> %.3fs (x%.2f%s)\n" d.wall_a
       d.wall_b d.wall_ratio
       (if d.wall_regressed then ", REGRESSED" else ""));
  Buffer.add_string b
    (if d.regressions = 0 then "no regressions\n"
     else Printf.sprintf "%d regression(s)\n" d.regressions);
  Buffer.contents b

let diff_to_json d =
  Jsonx.Obj
    [
      ("threshold", Jsonx.Float d.threshold);
      ( "matched",
        Jsonx.Arr
          (List.map
             (fun dl ->
               Jsonx.Obj
                 [
                   ("protocol", Jsonx.Str dl.point.Sweep.protocol);
                   ("n", Jsonx.Int dl.point.Sweep.n);
                   ("f_spec", Jsonx.Str dl.point.Sweep.f_spec);
                   ("words_a", Jsonx.Int dl.words_a);
                   ("words_b", Jsonx.Int dl.words_b);
                   ("words_ratio", Jsonx.Float dl.words_ratio);
                   ("regressed", Jsonx.Bool dl.regressed);
                 ])
             d.matched) );
      ("wall_ratio", Jsonx.Float d.wall_ratio);
      ("wall_regressed", Jsonx.Bool d.wall_regressed);
      ("regressions", Jsonx.Int d.regressions);
    ]
