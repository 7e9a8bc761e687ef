open Mewc_prelude

(* The one quantile definition in the tree: nearest-rank on an
   ascending-sorted sample array. rank(p) = ceil(p·len/100), 1-based,
   clamped — so p50 of [|1;2;3;4|] is 2 (the 2nd sample), never an
   interpolated 2.5. Throughput latencies (Service), the profiler's
   span summary and the degradation level summaries all funnel through
   here; reports and ledgers therefore never disagree on what a
   percentile means. *)
let nearest_rank p sorted =
  let len = Array.length sorted in
  if len = 0 then 0
  else begin
    let rank = int_of_float (ceil (p *. float_of_int len /. 100.0)) - 1 in
    sorted.(max 0 (min (len - 1) rank))
  end

let percentile_of_list p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  nearest_rank p a

(* ---- log2-bucket histograms --------------------------------------------

   Fixed-shape histograms so per-domain cells merge by pointwise sum:
   bucket 0 holds the value 0, bucket i >= 1 holds [2^(i-1), 2^i). The
   quantile readout is nearest-rank over the bucket counts and reports
   the bucket's lower bound — an under-approximation that is exact for
   powers of two and never off by more than 2x, which is all a live
   heartbeat needs (exact report-grade quantiles use [nearest_rank] on
   the raw samples instead). *)

let buckets = 63

let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec log2 acc v = if v = 0 then acc else log2 (acc + 1) (v lsr 1) in
    min (buckets - 1) (log2 0 v)
  end

let bucket_floor i = if i = 0 then 0 else 1 lsl (i - 1)

let histogram_quantile ~counts p =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0
  else begin
    let rank =
      max 1 (int_of_float (ceil (p *. float_of_int total /. 100.0)))
    in
    let rec scan i seen =
      if i >= buckets then bucket_floor (buckets - 1)
      else begin
        let seen = seen + counts.(i) in
        if seen >= rank then bucket_floor i else scan (i + 1) seen
      end
    in
    scan 0 0
  end

(* ---- the registry -------------------------------------------------------

   Determinism is the whole design: a metric op mutates a plain (unshared)
   per-domain cell, and a snapshot folds every cell with commutative,
   associative merges — sum for counters and histogram buckets, max for
   gauges — so neither the number of domains nor the fold order can show
   in the result. A run that performs the same operations (which the
   sharded engine does by construction) therefore snapshots byte-identically
   at every shard count and under either scheduler. *)

type cell = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  histograms : (string, int array) Hashtbl.t;
}

let new_cell () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
  }

type kind = Counter | Gauge | Histogram

type t = {
  id : int;
  mutex : Mutex.t;
  mutable cells : cell list;
  mutable names : (string * kind) list; (* registration order, reversed *)
}

let ids = Atomic.make 0

(* One DLS slot for the whole library (the Pki.Memo pattern): a per-domain
   map from registry id to that domain's private cell. Swept wholesale once
   a domain has seen many distinct registries — the registry keeps its own
   reference to every cell it ever handed out, so a sweep never loses
   counts, it only makes the next op allocate a fresh cell. *)
let domain_cells : (int, cell) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let max_live_cells = 64

let create () =
  {
    id = Atomic.fetch_and_add ids 1;
    mutex = Mutex.create ();
    cells = [];
    names = [];
  }

(* Lookups use [Hashtbl.find], so a hit allocates nothing: a counter bump
   on a hot path costs no words of its own. *)
let cell_of t =
  let per_domain = Domain.DLS.get domain_cells in
  match Hashtbl.find per_domain t.id with
  | c -> c
  | exception Not_found ->
    if Hashtbl.length per_domain >= max_live_cells then
      Hashtbl.reset per_domain;
    let c = new_cell () in
    Hashtbl.add per_domain t.id c;
    Mutex.lock t.mutex;
    t.cells <- c :: t.cells;
    Mutex.unlock t.mutex;
    c

let register t name kind =
  Mutex.lock t.mutex;
  if not (List.mem_assoc name t.names) then t.names <- (name, kind) :: t.names;
  Mutex.unlock t.mutex

type counter = { c_reg : t; c_name : string }
type gauge = { g_reg : t; g_name : string }
type histogram = { h_reg : t; h_name : string }

let counter t name =
  register t name Counter;
  { c_reg = t; c_name = name }

let gauge t name =
  register t name Gauge;
  { g_reg = t; g_name = name }

let histogram t name =
  register t name Histogram;
  { h_reg = t; h_name = name }

let slot tbl name init =
  match Hashtbl.find tbl name with
  | v -> v
  | exception Not_found ->
    let v = init () in
    Hashtbl.add tbl name v;
    v

let add c k =
  let cell = cell_of c.c_reg in
  let r = slot cell.counters c.c_name (fun () -> ref 0) in
  r := !r + k

let incr c = add c 1

(* Gauges merge by max across cells: the only gauge semantics that is
   order-free, which is what keeps snapshots deterministic under
   sharding. A high-water mark is exactly that. *)
let set_max g v =
  let cell = cell_of g.g_reg in
  let r = slot cell.gauges g.g_name (fun () -> ref 0) in
  if v > !r then r := v

let observe h v =
  let cell = cell_of h.h_reg in
  let counts =
    slot cell.histograms h.h_name (fun () -> Array.make buckets 0)
  in
  let i = bucket_of v in
  counts.(i) <- counts.(i) + 1

(* ---- snapshots ---------------------------------------------------------- *)

type snapshot = {
  counter_values : (string * int) list; (* each section sorted by name *)
  gauge_values : (string * int) list;
  histogram_values : (string * int array) list;
}

let empty_snapshot =
  { counter_values = []; gauge_values = []; histogram_values = [] }

let merge_assoc combine a b =
  let names =
    List.sort_uniq String.compare (List.map fst a @ List.map fst b)
  in
  List.map
    (fun n ->
      match (List.assoc_opt n a, List.assoc_opt n b) with
      | Some x, Some y -> (n, combine x y)
      | Some x, None | None, Some x -> (n, x)
      | None, None -> assert false)
    names

let merge a b =
  {
    counter_values = merge_assoc ( + ) a.counter_values b.counter_values;
    gauge_values = merge_assoc max a.gauge_values b.gauge_values;
    histogram_values =
      (* cells always carry [buckets]-length arrays, but merge is public
         and total: shorter arrays are padded with zeros *)
      merge_assoc
        (fun x y ->
          let len = max (Array.length x) (Array.length y) in
          Array.init len (fun i ->
              (if i < Array.length x then x.(i) else 0)
              + if i < Array.length y then y.(i) else 0))
        a.histogram_values b.histogram_values;
  }

let snapshot_of_cell c =
  let sorted tbl f =
    Hashtbl.fold (fun name v acc -> (name, f v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    counter_values = sorted c.counters ( ! );
    gauge_values = sorted c.gauges ( ! );
    histogram_values = sorted c.histograms Array.copy;
  }

let snapshot t =
  Mutex.lock t.mutex;
  let cells = t.cells in
  let names = t.names in
  Mutex.unlock t.mutex;
  let merged =
    List.fold_left
      (fun acc c -> merge acc (snapshot_of_cell c))
      empty_snapshot cells
  in
  (* Registered-but-untouched metrics appear as zeros, so a snapshot's
     shape depends on what was registered, never on which ops happened to
     run first. *)
  List.fold_left
    (fun acc (name, kind) ->
      match kind with
      | Counter when not (List.mem_assoc name acc.counter_values) ->
        {
          acc with
          counter_values =
            merge_assoc ( + ) acc.counter_values [ (name, 0) ];
        }
      | Gauge when not (List.mem_assoc name acc.gauge_values) ->
        { acc with gauge_values = merge_assoc max acc.gauge_values [ (name, 0) ] }
      | Histogram when not (List.mem_assoc name acc.histogram_values) ->
        {
          acc with
          histogram_values =
            merge_assoc
              (fun x _ -> x)
              acc.histogram_values
              [ (name, Array.make buckets 0) ];
        }
      | _ -> acc)
    merged names

let snapshot_to_json s =
  let histo (name, counts) =
    let count = Array.fold_left ( + ) 0 counts in
    let nonzero =
      Array.to_list (Array.mapi (fun i c -> (i, c)) counts)
      |> List.filter (fun (_, c) -> c > 0)
      |> List.map (fun (i, c) ->
             Jsonx.Obj
               [
                 ("bucket_floor", Jsonx.Int (bucket_floor i));
                 ("count", Jsonx.Int c);
               ])
    in
    ( name,
      Jsonx.Obj
        [
          ("count", Jsonx.Int count);
          ("p50", Jsonx.Int (histogram_quantile ~counts 50.0));
          ("p90", Jsonx.Int (histogram_quantile ~counts 90.0));
          ("p99", Jsonx.Int (histogram_quantile ~counts 99.0));
          ("buckets", Jsonx.Arr nonzero);
        ] )
  in
  Jsonx.Obj
    [
      ( "counters",
        Jsonx.Obj (List.map (fun (n, v) -> (n, Jsonx.Int v)) s.counter_values)
      );
      ( "gauges",
        Jsonx.Obj (List.map (fun (n, v) -> (n, Jsonx.Int v)) s.gauge_values) );
      ("histograms", Jsonx.Obj (List.map histo s.histogram_values));
    ]

(* A compact one-line rendering for the heartbeat: counters only, in name
   order. *)
let snapshot_to_line s =
  String.concat " "
    (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) s.counter_values)
