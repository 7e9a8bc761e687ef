open Mewc_prelude
open Mewc_sim
open Mewc_core

(* ---- the zoo of fuzz targets ------------------------------------------- *)

type target =
  | Target : {
      name : string;
      protocol : ('p, 's, 'm, 'd) Protocol.t;
      params : Config.t -> 'p;
      ablated : bool;
    }
      -> target

let target_name (Target { name; _ }) = name
let target_ablated (Target { ablated; _ }) = ablated

let of_entry (Registry.E e) =
  let module P = (val e.Registry.protocol) in
  Target
    {
      name = P.name;
      protocol = e.Registry.protocol;
      params = P.default_params;
      ablated = false;
    }

(* Every registry entry at its default params, plus the planted quorum
   ablation the smoke campaign must rediscover. *)
let zoo =
  List.map of_entry Registry.entries
  @ [
      Target
        {
          name = "weak-ba-ablated";
          protocol = (module Instances.Weak_ba_protocol);
          params =
            (fun cfg ->
              {
                (Instances.Weak_ba_protocol.default_params cfg) with
                Instances.Weak_ba_protocol.quorum_override =
                  Some (Config.small_quorum cfg);
              });
          ablated = true;
        };
    ]

let find_target name =
  List.find_opt (fun t -> String.equal (target_name t) name) zoo

(* Fuzz runs install budget sanity, agreement, meter/engine consistency,
   and — except against ablated targets, whose whole point is that
   liveness/safety break — termination. The word/latency envelope monitors
   are deliberately excluded: they are calibrated against the scripted
   adversary zoo, and a random adversary tripping them would be a
   calibration artifact, not a protocol bug. *)
let safety_monitors ~cfg ~ablated =
  [ Monitor.corruption_budget ~cfg; Monitor.agreement (); Monitor.metering () ]
  @ (if ablated then [] else [ Monitor.termination ~cfg ])

let violation_of ?(options = Instances.default_options)
    (Target { protocol; params; ablated; _ }) ~cfg (sc : Scenario.t) =
  let params = params cfg in
  let adversary = Compile.adversary protocol ~cfg ~params sc in
  match
    Instances.run protocol ~cfg
      ~options:
        {
          (Instances.retarget options) with
          Instances.seed = sc.Scenario.seed;
          shuffle_seed = sc.Scenario.shuffle;
          monitors = Some (safety_monitors ~cfg ~ablated);
          faults = Compile.plan_of_scenario sc;
        }
      ~params ~adversary ()
  with
  | _ -> None
  | exception Monitor.Violation v -> Some v

(* ---- campaigns ---------------------------------------------------------- *)

type finding = {
  index : int;
  scenario : Scenario.t;
  violation : Monitor.violation;
}

let batch_size = 32

let campaign ?jobs target ~cfg ~seed ~count () =
  let rng = Rng.create seed in
  let dummy =
    { Scenario.seed = 0L; shuffle = None; corruptions = []; faults = [] }
  in
  let rec loop start =
    if start >= count then None
    else begin
      let b = min batch_size (count - start) in
      let scenarios = Array.make b dummy in
      (* filled sequentially: scenario [i] is a pure function of [seed] *)
      for i = 0 to b - 1 do
        scenarios.(i) <- Scenario.generate ~cfg ~rng
      done;
      let results = Pool.map ?jobs (violation_of target ~cfg) scenarios in
      let rec first i =
        if i >= b then None
        else
          match results.(i) with
          | Some violation ->
            Some { index = start + i; scenario = scenarios.(i); violation }
          | None -> first (i + 1)
      in
      match first 0 with Some f -> Some f | None -> loop (start + b)
    end
  in
  if count <= 0 then None else loop 0

let shrink target ~cfg sc (v : Monitor.violation) =
  let same c =
    match violation_of target ~cfg c with
    | Some v' when String.equal v'.Monitor.monitor v.Monitor.monitor -> Some v'
    | _ -> None
  in
  (* Greedy first-fit descent: every candidate is strictly smaller
     ({!Scenario.size}), so this terminates; candidate order is fixed, so
     the minimum is deterministic. *)
  let rec go sc v =
    let rec first = function
      | [] -> (sc, v)
      | c :: rest -> (
        match same c with Some v' -> go c v' | None -> first rest)
    in
    first (Scenario.candidates sc)
  in
  go sc v

(* ---- the corpus --------------------------------------------------------- *)

type entry = {
  target : string;
  n : int;
  t : int;
  scenario : Scenario.t;
  violation : Monitor.violation;
}

let schema = "mewc-fuzz/1"

let entry_to_json e =
  let open Jsonx in
  Schema.tag schema
    [
      ("target", Str e.target);
      ("n", Int e.n);
      ("t", Int e.t);
      ("scenario", Scenario.to_json e.scenario);
      ( "violation",
        Obj
          [
            ("monitor", Str e.violation.Monitor.monitor);
            ("slot", Int e.violation.Monitor.slot);
            ("reason", Str e.violation.Monitor.reason);
          ] );
    ]

let ( let* ) = Result.bind

let field name get j =
  match Option.bind (Jsonx.member name j) get with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let entry_of_json j =
  let* () = Jsonx.Schema.check schema j in
  let* target = field "target" Jsonx.get_str j in
  let* n = field "n" Jsonx.get_int j in
  let* t = field "t" Jsonx.get_int j in
  let* scenario =
    match Jsonx.member "scenario" j with
    | Some s -> Scenario.of_json s
    | None -> Error "missing scenario"
  in
  let* violation =
    match Jsonx.member "violation" j with
    | None -> Error "missing violation"
    | Some v ->
      let* monitor = field "monitor" Jsonx.get_str v in
      let* slot = field "slot" Jsonx.get_int v in
      let* reason = field "reason" Jsonx.get_str v in
      Ok { Monitor.monitor; slot; reason }
  in
  Ok { target; n; t; scenario; violation }

let save path entry =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Jsonx.to_string (entry_to_json entry));
      Out_channel.output_char oc '\n')

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> Result.bind (Jsonx.parse contents) entry_of_json
  | exception Sys_error e -> Error e

let equal_violation (a : Monitor.violation) (b : Monitor.violation) =
  String.equal a.Monitor.monitor b.Monitor.monitor
  && a.Monitor.slot = b.Monitor.slot
  && String.equal a.Monitor.reason b.Monitor.reason

let replay entry =
  match find_target entry.target with
  | None -> Error (Printf.sprintf "unknown target %S" entry.target)
  | Some target -> (
    let cfg = Config.create ~n:entry.n ~t:entry.t in
    match violation_of target ~cfg entry.scenario with
    | None -> Error "scenario no longer violates any monitor"
    | Some v ->
      if equal_violation v entry.violation then Ok v
      else
        Error
          (Format.asprintf
             "violation drifted:@ recorded %a@ reproduced %a"
             Monitor.pp_violation entry.violation Monitor.pp_violation v))

let minimize entry =
  match find_target entry.target with
  | None -> Error (Printf.sprintf "unknown target %S" entry.target)
  | Some target -> (
    let cfg = Config.create ~n:entry.n ~t:entry.t in
    match violation_of target ~cfg entry.scenario with
    | None -> Error "scenario does not violate any monitor"
    | Some v ->
      let scenario, violation = shrink target ~cfg entry.scenario v in
      Ok { entry with scenario; violation })

(* ---- the smoke campaign ------------------------------------------------- *)

let planted_target = "weak-ba-ablated"
let smoke_seed = 7L
let smoke_count = 512
let smoke_clean_seed = 11L
let smoke_clean_count = 24

let smoke ?jobs ?(log = fun _ -> ()) () =
  let cfg = Config.create ~n:9 ~t:4 in
  (* Sound targets first: the safety suite must come up empty against the
     whole behavior mix, or the fuzzer itself would be crying wolf. *)
  let dirty =
    List.filter_map
      (fun target ->
        if target_ablated target then None
        else begin
          log
            (Printf.sprintf "clean campaign: %s x%d" (target_name target)
               smoke_clean_count);
          Option.map
            (fun f -> (target_name target, f))
            (campaign ?jobs target ~cfg ~seed:smoke_clean_seed
               ~count:smoke_clean_count ())
        end)
      zoo
  in
  match dirty with
  | (name, f) :: _ ->
    Error
      (Format.asprintf "sound target %s violated by scenario #%d %a: %a" name
         f.index Scenario.pp f.scenario Monitor.pp_violation f.violation)
  | [] -> (
    match find_target planted_target with
    | None -> Error (Printf.sprintf "target %S missing" planted_target)
    | Some target -> (
      log
        (Printf.sprintf "planted campaign: %s x%d" planted_target smoke_count);
      match campaign ?jobs target ~cfg ~seed:smoke_seed ~count:smoke_count () with
      | None ->
        Error "planted quorum ablation not found — generator regression?"
      | Some f -> (
        log
          (Format.asprintf "found #%d %a" f.index Monitor.pp_violation
             f.violation);
        let sc, v = shrink target ~cfg f.scenario f.violation in
        let sc', v' = shrink target ~cfg sc v in
        if not (Scenario.equal sc sc' && equal_violation v v') then
          Error "shrinking is not a deterministic fixpoint"
        else
          let entry =
            { target = planted_target; n = 9; t = 4; scenario = sc;
              violation = v }
          in
          match replay entry with
          | Error e -> Error ("minimized entry does not replay: " ^ e)
          | Ok _ ->
            log (Format.asprintf "minimized to %a" Scenario.pp sc);
            Ok entry)))
