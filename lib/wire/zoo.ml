open Mewc_prelude
open Mewc_sim
open Mewc_core

let ( let* ) = Result.bind

(* ---- the codec-bearing registry entries -------------------------------- *)

type entry =
  | E : {
      reg : ('p, 's, 'm, 'd) Registry.t;
      codec : 'm Codec.t;
      gen : Rng.t -> 'm;
    }
      -> entry

let entries =
  List.filter_map
    (fun (Registry.E reg) ->
      Option.map (fun (codec, gen) -> E { reg; codec; gen }) reg.Registry.wire)
    Registry.entries

let entry_name (E e) = Registry.name e.reg
let find name = List.find_opt (fun e -> String.equal (entry_name e) name) entries
let codec_of (r : (_, _, 'm, _) Registry.t) : 'm Codec.t =
  fst (Option.get r.Registry.wire)

let epk_str_msg = codec_of Registry.fallback
let weak_str_msg = codec_of Registry.weak_ba
let adaptive_bb_msg = codec_of Registry.bb
let binary_bb_msg = codec_of Registry.binary_bb
let strong_bool_msg = codec_of Registry.strong_ba

(* ---- codec fuzz battery ------------------------------------------------- *)

type law =
  | Law : {
      name : string;
      codec : 'a Codec.t;
      gen : Rng.t -> 'a;
      words : 'a -> int;
    }
      -> law

let laws =
  let one _ = 1 in
  [
    Law { name = "sig"; codec = Codec.sig_c; gen = Codec.gen_sig; words = one };
    Law { name = "tsig"; codec = Codec.tsig_c; gen = Codec.gen_tsig; words = one };
    Law { name = "cert"; codec = Codec.cert_c; gen = Codec.gen_cert; words = one };
    (* the binary phase king runs only embedded, so no entry exposes it *)
    Law
      {
        name = "epk-bool";
        codec = Instances.Epk_bool.codec;
        gen = Instances.Epk_bool.gen;
        words = Instances.Epk_bool.words;
      };
  ]
  @ List.map
      (fun (E e as entry) ->
        let module P = (val e.reg.Registry.protocol) in
        Law { name = entry_name entry; codec = e.codec; gen = e.gen; words = P.words })
      entries

let round_trip (Law { name; codec; gen; _ }) g =
  let e = Codec.encode codec (gen g) in
  match Codec.decode codec e with
  | Error err ->
    Error
      (Printf.sprintf "%s rejects its own encoding (%s)" name
         (Codec.error_to_string err))
  | Ok v ->
    if String.equal (Codec.encode codec v) e then Ok ()
    else Error (name ^ " re-encodes differently")

let total (Law { name; codec; _ }) s =
  match Codec.decode codec s with
  | exception e -> Error (Printf.sprintf "%s raised %s" name (Printexc.to_string e))
  | Error _ -> Ok ()
  | Ok v ->
    if String.equal (Codec.encode codec v) s then Ok ()
    else Error (name ^ " decoded a non-canonical input")

let flip_bit g s =
  let b = Bytes.of_string s in
  let i = Rng.int g (Bytes.length b) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int g 8)));
  Bytes.to_string b

let fuzz_codec ~count ~seed =
  let g = Rng.create seed in
  let cases = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let every_law leg check =
    List.fold_left
      (fun acc law ->
        let* () = acc in
        incr cases;
        Result.map_error (( ^ ) leg) (check law))
      (Ok ()) laws
  in
  let check_adversarial () =
    let s = Codec.gen_bytes g (Rng.int g 4097) in
    let* () = every_law "adversarial: " (fun law -> total law s) in
    incr cases;
    match Codec.decode_frame s with
    | exception e -> fail "adversarial: frame raised %s" (Printexc.to_string e)
    | Ok _ | Error _ -> Ok ()
  in
  let check_mutation () =
    incr cases;
    match Codec.decode_frame (flip_bit g (Codec.encode_frame (Codec.gen_frame g))) with
    | exception ex ->
      fail "mutation: frame decoder raised %s" (Printexc.to_string ex)
    | Ok _ | Error _ -> Ok ()
  in
  let check_scan () =
    incr cases;
    (* a corrupted frame mid-stream must not derail reassembly: the scanner
       either recovers the following frame or parks on a pending prefix *)
    let f1 = Codec.gen_frame g and f2 = Codec.gen_frame g and f3 = Codec.gen_frame g in
    let stream =
      Codec.encode_frame f1 ^ flip_bit g (Codec.encode_frame f2) ^ Codec.encode_frame f3
    in
    let rec drive start acc steps =
      if steps > String.length stream + 16 then `Diverged
      else
        match Codec.scan stream ~start with
        | exception e -> `Raised (Printexc.to_string e)
        | `Frame (f, next) -> drive next (f :: acc) (steps + 1)
        | `Skip (next, _) -> drive next acc (steps + 1)
        | `Need_more _ -> `Parked (List.rev acc)
    in
    match drive 0 [] 0 with
    | `Raised e -> fail "scan: raised %s" e
    | `Diverged -> fail "scan: failed to make progress"
    | `Parked frames ->
      if List.exists (fun f -> f = f1) frames then Ok ()
      else fail "scan: lost the frame before the corruption"
  in
  let rec go i =
    if i >= count then Ok !cases
    else
      let* () = every_law "round-trip: " (fun law -> round_trip law g) in
      let* () = check_adversarial () in
      let* () = check_mutation () in
      let* () = check_scan () in
      go (i + 1)
  in
  go 0

(* ---- the differential harness ------------------------------------------ *)

type fingerprint = {
  decided_strs : string option array;
  decided_slots : int option array;
  words : int array;
}

let fingerprint_diff ~oracle ~async =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let opt = function None -> "-" | Some s -> s in
  let iopt = function None -> "-" | Some i -> string_of_int i in
  let n = Array.length oracle.decided_strs in
  if Array.length async.decided_strs <> n then
    add "process count: oracle %d, async %d" n (Array.length async.decided_strs)
  else
    for p = 0 to n - 1 do
      if oracle.decided_strs.(p) <> async.decided_strs.(p) then
        add "p%d decision: oracle %s, async %s" p
          (opt oracle.decided_strs.(p))
          (opt async.decided_strs.(p));
      if oracle.decided_slots.(p) <> async.decided_slots.(p) then
        add "p%d decided slot: oracle %s, async %s" p
          (iopt oracle.decided_slots.(p))
          (iopt async.decided_slots.(p));
      if oracle.words.(p) <> async.words.(p) then
        add "p%d words: oracle %d, async %d" p oracle.words.(p) async.words.(p)
    done;
  List.rev !out

type report = {
  fingerprint : fingerprint;
  verdict : Monitor.classification;
  stats : Runtime.stats;
  stepped : int;
  stalled : Pid.t list;
  failures : (Pid.t * string) list;
  wire_events : string Trace.event list;
}

let params_of (type p s m d) (proto : (p, s, m, d) Protocol.t) ~cfg ~salt : p =
  let module P = (val proto) in
  P.mutate_params (P.default_params cfg) ~salt

let oracle (E e) ~cfg ~seed ~salt =
  let proto = e.reg.Registry.protocol in
  let params = params_of proto ~cfg ~salt in
  let o =
    Instances.run proto ~cfg
      ~options:{ Instances.default_options with seed }
      ~params
      ~adversary:(Adversary.const (Adversary.honest ~name:"honest"))
      ()
  in
  let n = (cfg : Config.t).n in
  let words = Array.make n 0 in
  List.iter
    (fun (r : Meter.row) -> if r.ix >= 0 && r.ix < n then words.(r.ix) <- r.words)
    o.Instances.meter.Meter.per_process;
  {
    decided_strs = o.Instances.decided_strs;
    decided_slots = o.Instances.decided_slots;
    words;
  }

let classify (o : _ Runtime.outcome) : Monitor.classification =
  let n = Array.length o.Runtime.decided_strs in
  let unsafe = ref None in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match (o.Runtime.decided_strs.(i), o.Runtime.decided_strs.(j)) with
      | Some a, Some b when (not (String.equal a b)) && !unsafe = None ->
        unsafe := Some (i, a, j, b)
      | _ -> ()
    done
  done;
  match !unsafe with
  | Some (i, a, j, b) ->
    Monitor.Unsafe
      {
        monitor = "wire-agreement";
        slot = o.Runtime.slots;
        reason = Printf.sprintf "p%d decided %S, p%d decided %S" i a j b;
      }
  | None ->
    let undecided =
      Array.to_list o.Runtime.decided_strs
      |> List.mapi (fun p d -> (p, d))
      |> List.filter_map (fun (p, d) -> if d = None then Some p else None)
    in
    if undecided = [] && o.Runtime.failures = [] then Monitor.Safe_live
    else
      Monitor.Safe_stalled
        {
          monitor = "wire-termination";
          slot = o.Runtime.slots;
          reason =
            (match o.Runtime.failures with
            | (p, e) :: _ -> Printf.sprintf "p%d died: %s" p e
            | [] ->
              Printf.sprintf "undecided: %s"
                (String.concat ","
                   (List.map (fun p -> Printf.sprintf "p%d" p) undecided)));
        }

let async (E e) ~cfg ~seed ~salt ?delta ?deadman ?clock ?byte_faults () =
  let proto = e.reg.Registry.protocol in
  let params = params_of proto ~cfg ~salt in
  let o =
    Runtime.run proto ~codec:e.codec ~cfg ~seed ?delta ?deadman ?clock
      ?byte_faults ~params ()
  in
  {
    fingerprint =
      {
        decided_strs = o.Runtime.decided_strs;
        decided_slots = o.Runtime.decided_slots;
        words = o.Runtime.words;
      };
    verdict = classify o;
    stats = o.Runtime.stats;
    stepped = o.Runtime.stepped;
    stalled = o.Runtime.stalled;
    failures = o.Runtime.failures;
    wire_events = o.Runtime.wire_events;
  }

let diff e ~cfg ~seed ~salt ?delta () =
  let o = oracle e ~cfg ~seed ~salt in
  let r = async e ~cfg ~seed ~salt ?delta () in
  match fingerprint_diff ~oracle:o ~async:r.fingerprint with
  | [] -> Ok r
  | mismatches -> Error mismatches
