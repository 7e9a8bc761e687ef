(** Wall-clock and allocation profiling spans.

    A profile is a stack of nested spans over an injectable monotone clock
    (default the monotonic clock, [Monotonic_clock.now]). Each span carries
    a name and one of five fixed categories; closing a span charges its
    inclusive time to the
    parent's child-time so that {e self} time — inclusive minus children —
    partitions the run: summed over all spans it never exceeds the elapsed
    time. Allocation is measured as [Gc.quick_stat] word deltas (minor +
    major − promoted) and is inclusive of children.

    Spans are aggregated per (name, category) key, so a hot path crossed a
    million times costs two clock reads and a hashtable hit per crossing,
    not a million records. Emits ["mewc-profile/1"] JSON and an ASCII flame
    summary. Not domain-safe: profile only sequential passes. *)

type category = Crypto | Engine | Machine | Adversary | Serialize

val categories : category list
(** All five, in canonical order. *)

val category_name : category -> string
val category_of_name : string -> category option

type t

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] is injectable for tests; it must be monotone. *)

val span : t -> category:category -> string -> (unit -> 'a) -> 'a
(** [span t ~category name f] runs [f], charging its duration and
    allocations to the [(name, category)] aggregate. Exception-safe: the
    span closes (and parents stay balanced) even if [f] raises. *)

val elapsed : t -> float
(** Seconds since {!create}. *)

type bulk
(** A row charged in bulk, for a call too cheap to carry a span each time:
    the caller times each call with {!elapsed} and books it, and the row
    takes the calls and their seconds once, at {!bulk_flush}. *)

val bulk : t -> category:category -> string -> bulk
(** A bulk row for [name], not yet in {!rows}. *)

val bulk_add : bulk -> since:float -> unit
(** [bulk_add b ~since] books one call that began at [since] (a reading of
    {!elapsed}) and ends now. The first booking puts the row in {!rows},
    where the first of a leaf span per call would have put it. The call's
    time leaves the innermost open span's self time at once, as a child
    span closing there would; the call and its seconds reach the row at
    {!bulk_flush}, with no allocation recorded. The timed code must open
    no span of its own. *)

val bulk_flush : bulk -> unit
(** Adds the booked calls and seconds to the row and starts the count
    again. Call it in a finalizer, so a run that raises keeps what it
    booked. *)

type row = {
  name : string;
  category : category;
  count : int;
  total_s : float;  (** inclusive *)
  self_s : float;  (** exclusive of child spans *)
  alloc_words : float;  (** inclusive *)
}

val rows : t -> row list
(** One row per (name, category) key, in first-seen order. *)

val rollup : t -> (category * float) list
(** Self-seconds per category, all five categories in canonical order
    (zero when unused) — the shape the perf ledger stores. *)

val schema : string
(** ["mewc-profile/1"]. *)

val to_json : t -> Mewc_prelude.Jsonx.t

val flame : t -> string
(** ASCII flame summary via {!Mewc_prelude.Ascii_table}: spans sorted by
    self time with proportional [#] bars. *)
