module Jsonx = Mewc_prelude.Jsonx
module Ascii_table = Mewc_prelude.Ascii_table

type category = Crypto | Engine | Machine | Adversary | Serialize

let categories = [ Crypto; Engine; Machine; Adversary; Serialize ]

let category_name = function
  | Crypto -> "crypto"
  | Engine -> "engine"
  | Machine -> "machine"
  | Adversary -> "adversary"
  | Serialize -> "serialize"

let category_of_name = function
  | "crypto" -> Some Crypto
  | "engine" -> Some Engine
  | "machine" -> Some Machine
  | "adversary" -> Some Adversary
  | "serialize" -> Some Serialize
  | _ -> None

type agg = {
  mutable count : int;
  mutable total_s : float;
  mutable self_s : float;
  mutable alloc_words : float;
}

type frame = {
  key : string * category;
  start : float;
  alloc0 : float;
  mutable child_s : float;
}

type t = {
  clock : unit -> float;
  created : float;
  table : (string * category, agg) Hashtbl.t;
  mutable order : (string * category) list;  (* first-seen, reversed *)
  mutable stack : frame list;
}

(* Words allocated so far, net of double counting: promoted words appear in
   both the minor and major totals. [Gc.quick_stat]'s minor count moves only
   at minor collections, which would charge a whole minor heap to whichever
   span triggers one; [Gc.minor_words] reads the live allocation pointer and
   is exact on the calling domain. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* Seconds on the monotonic clock: immune to wall-clock steps. *)
let monotonic () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create ?(clock = monotonic) () =
  {
    clock;
    created = clock ();
    table = Hashtbl.create 32;
    order = [];
    stack = [];
  }

let elapsed t = t.clock () -. t.created

let agg_of t key =
  match Hashtbl.find_opt t.table key with
  | Some a -> a
  | None ->
    let a = { count = 0; total_s = 0.0; self_s = 0.0; alloc_words = 0.0 } in
    Hashtbl.add t.table key a;
    t.order <- key :: t.order;
    a

let span t ~category name f =
  let frame =
    { key = (name, category); start = t.clock (); alloc0 = alloc_words ();
      child_s = 0.0 }
  in
  t.stack <- frame :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      let dt = t.clock () -. frame.start in
      let da = alloc_words () -. frame.alloc0 in
      (match t.stack with
      | top :: rest when top == frame -> t.stack <- rest
      | _ ->
        (* An escaped exception already unwound deeper frames; drop down to
           and including ours so accounting stays balanced. *)
        let rec pop = function
          | top :: rest -> if top == frame then rest else pop rest
          | [] -> []
        in
        t.stack <- pop t.stack);
      (match t.stack with
      | parent :: _ -> parent.child_s <- parent.child_s +. dt
      | [] -> ());
      let a = agg_of t frame.key in
      a.count <- a.count + 1;
      a.total_s <- a.total_s +. dt;
      a.self_s <- a.self_s +. (dt -. frame.child_s);
      a.alloc_words <- a.alloc_words +. da)
    f

(* A bulk row's calls and seconds wait here until {!bulk_flush}; the
   seconds sit in a float array, so the running total boxes nothing. *)
type bulk = {
  profile : t;
  bulk_key : string * category;
  mutable calls : int;
  seconds : Float.Array.t;
}

let bulk t ~category name =
  { profile = t; bulk_key = (name, category); calls = 0;
    seconds = Float.Array.make 1 0.0 }

let bulk_add b ~since =
  let t = b.profile in
  let dt = elapsed t -. since in
  if b.calls = 0 then ignore (agg_of t b.bulk_key);
  b.calls <- b.calls + 1;
  Float.Array.set b.seconds 0 (Float.Array.get b.seconds 0 +. dt);
  match t.stack with
  | parent :: _ -> parent.child_s <- parent.child_s +. dt
  | [] -> ()

let bulk_flush b =
  if b.calls > 0 then begin
    let a = agg_of b.profile b.bulk_key in
    let s = Float.Array.get b.seconds 0 in
    a.count <- a.count + b.calls;
    a.total_s <- a.total_s +. s;
    a.self_s <- a.self_s +. s;
    b.calls <- 0;
    Float.Array.set b.seconds 0 0.0
  end

type row = {
  name : string;
  category : category;
  count : int;
  total_s : float;
  self_s : float;
  alloc_words : float;
}

let rows t =
  List.rev t.order
  |> List.map (fun ((name, category) as key) ->
         let a = Hashtbl.find t.table key in
         {
           name;
           category;
           count = a.count;
           total_s = a.total_s;
           self_s = a.self_s;
           alloc_words = a.alloc_words;
         })

let rollup t =
  let sums = List.map (fun c -> (c, ref 0.0)) categories in
  List.iter
    (fun r ->
      let s = List.assoc r.category sums in
      s := !s +. r.self_s)
    (rows t);
  List.map (fun (c, s) -> (c, !s)) sums

let schema = "mewc-profile/1"

let to_json t =
  Jsonx.Schema.tag schema
    [
      ("elapsed_s", Jsonx.Float (elapsed t));
      ( "rollup",
        Jsonx.Obj
          (List.map
             (fun (c, s) -> (category_name c, Jsonx.Float s))
             (rollup t)) );
      ( "spans",
        Jsonx.Arr
          (List.map
             (fun r ->
               Jsonx.Obj
                 [
                   ("name", Jsonx.Str r.name);
                   ("category", Jsonx.Str (category_name r.category));
                   ("count", Jsonx.Int r.count);
                   ("total_s", Jsonx.Float r.total_s);
                   ("self_s", Jsonx.Float r.self_s);
                   ("alloc_words", Jsonx.Float r.alloc_words);
                 ])
             (rows t)) );
    ]

(* The flame summary: spans sorted by self time, each with a proportional
   bar — a flat flame graph, wide enough for a terminal. *)
let flame t =
  let rs = List.sort (fun a b -> compare b.self_s a.self_s) (rows t) in
  let total = List.fold_left (fun acc r -> acc +. r.self_s) 0.0 rs in
  (* Self-time spread across spans, nearest-rank over microseconds — the
     same quantile definition as everywhere else ({!Mewc_obs.Metrics}). *)
  let quantiles =
    let us = List.map (fun r -> int_of_float (r.self_s *. 1e6)) rs in
    let q p = Mewc_obs.Metrics.percentile_of_list p us in
    Printf.sprintf "span self time: p50 %dus, p90 %dus, p99 %dus" (q 50.0)
      (q 90.0) (q 99.0)
  in
  let table =
    Ascii_table.create
      ~title:
        (Printf.sprintf "profile: %.3fs elapsed, %.3fs in spans" (elapsed t)
           total)
      ~headers:[ "span"; "category"; "count"; "total s"; "self s"; "alloc Mw"; "flame" ]
  in
  List.iter
    (fun r ->
      let share = if total > 0.0 then r.self_s /. total else 0.0 in
      let bar = String.make (int_of_float (share *. 24.0)) '#' in
      Ascii_table.add_row table
        [
          r.name;
          category_name r.category;
          string_of_int r.count;
          Printf.sprintf "%.4f" r.total_s;
          Printf.sprintf "%.4f" r.self_s;
          Printf.sprintf "%.2f" (r.alloc_words /. 1e6);
          bar;
        ])
    rs;
  Ascii_table.render table ^ quantiles ^ "\n"
