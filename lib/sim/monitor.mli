(** Online invariant monitors over the engine's event stream.

    A monitor is a stateful observer of the same typed events a {!Trace}
    stores: the engine feeds every event to every installed monitor as it
    happens, and calls [on_finish] once the horizon is reached. A violated
    invariant raises {!Violation} immediately (fail-fast), carrying the
    monitor's name, the slot, and a human-readable reason — together with
    the run's seeds (which the caller knows) that makes every violation a
    replayable counterexample.

    Monitors derive everything they check from the event stream itself:
    the realized [f] from [Corruption] events, the paper's word measure
    from charged non-Byzantine [Send]s, decisions from [Decision] events.
    A monitor therefore works identically online (installed in
    {!Engine.run}) and offline ({!replay} over a recorded trace).

    Every monitor carries a {!severity}: [Safety] invariants must hold in
    any execution (disagreement is never excusable), while [Liveness]
    invariants (termination, latency envelopes) are only promised under
    the paper's reliable synchronous model and are expected to fail —
    gracefully — under injected faults. {!split} and {!classify} turn that
    distinction into the degradation harness's three-way verdict. *)

type violation = { monitor : string; slot : int; reason : string }

exception Violation of violation

val pp_violation : Format.formatter -> violation -> unit

type severity = Safety | Liveness

type 'm t = {
  name : string;
  severity : severity;
  on_event : 'm Trace.event -> unit;
  on_broadcast : 'm Trace.broadcast -> (int * violation) option;
      (** One broadcast posted in bulk. The contract: it has the effect of
          [on_event] over the broadcast's [n] [Send] events in pid order
          ({!Trace.iter_broadcast}). Where those raise no violation it
          returns [None], in the same state. Where they do, it returns
          [Some (copy, v)]: the index of the first copy whose [Send]
          raises, and that violation [v]; the state is then dead, as the
          run is. It returns rather than raises so that several monitors
          can be merged into the one violation per-copy delivery would have
          raised ({!broadcast}). *)
  on_finish : slots:int -> unit;
  provenance : bool;
      (** Whether the monitor reads the [parents] of [Send] and [Decision]
          events. The engine builds those id lists only for a recording
          trace or when some installed monitor sets this; otherwise every
          event it hands out carries [parents = []]. *)
}

val make :
  name:string ->
  ?severity:severity ->
  ?provenance:bool ->
  ?on_event:(violate:(slot:int -> string -> unit) -> 'm Trace.event -> unit) ->
  ?on_broadcast:
    (violate:(copy:int -> slot:int -> string -> unit) ->
    'm Trace.broadcast ->
    unit) ->
  ?on_finish:(violate:(slot:int -> string -> unit) -> slots:int -> unit) ->
  unit ->
  'm t
(** Build a custom monitor; [violate] raises {!Violation} tagged with the
    monitor's name. [severity] defaults to [Safety]; [provenance] (default
    [false]) must be set by a monitor that reads [parents]. [on_broadcast]'s
    [violate ~copy] names the copy whose [Send] would have raised. Without
    [on_broadcast], a broadcast replays its [n] [Send] events through
    [on_event], so a monitor written against sends alone stays correct. *)

val broadcast : 'm t list -> 'm Trace.broadcast -> unit
(** Feed one broadcast to each monitor. Raises the {!Violation} that
    [on_event] over its [n] [Send] events, each to every monitor in turn,
    would have raised: the earliest copy's, the first monitor's at a
    tie. *)

val split : 'm t list -> 'm t list * 'm t list
(** [(safety, liveness)] partition, order-preserving. *)

val all : 'm t list -> 'm t
(** Compose monitors into one that forwards every event to each in order;
    its [on_broadcast] answers the violation {!broadcast} would raise, and
    it reads provenance if any of them does. *)

val replay : 'm t list -> slots:int -> 'm Trace.t -> unit
(** Drive monitors from a recorded trace: every event in order, then
    [on_finish]. Raises {!Violation} exactly as an online run would. *)

(** {2 Degradation classification} *)

type classification =
  | Safe_live  (** every safety and liveness invariant held *)
  | Safe_stalled of violation
      (** safety held but a liveness invariant broke — the protocol
          degraded detectably (stalled) rather than misbehaving *)
  | Unsafe of violation
      (** a safety invariant broke — silent disagreement territory *)

val pp_classification : Format.formatter -> classification -> unit

val classify :
  run:(unit -> 'a) -> liveness:('a -> unit) -> 'a option * classification
(** [classify ~run ~liveness] executes [run] (a protocol run with the
    {e safety} monitors installed online) and then [liveness] on its
    result (the liveness monitors, typically replayed offline over the
    recorded trace). A {!Violation} from [run] is {!Unsafe} (no outcome);
    one from [liveness] is {!Safe_stalled}; otherwise {!Safe_live}. Any
    other exception propagates. *)

(** {2 The standard invariants} *)

val corruption_budget : cfg:Config.t -> 'm t
(** The adversary's corruption schedule is sane: at most [cfg.t] corruptions
    overall, [f] counts up by exactly 1 per corruption, no process is
    corrupted twice, pids are valid, and corruption stamps are within the
    current slot. Safety. *)

val agreement : unit -> 'm t
(** Agreement-once-decided: all [Decision] values across the run are equal,
    and no process ever re-decides a different value. Safety. (Termination
    is {!termination}, a separate liveness monitor.) *)

val termination : cfg:Config.t -> 'm t
(** At the end of the run every process that was neither corrupted nor
    touched by an injected {!Trace.Process_fault} has decided. Liveness. *)

val word_bound : name:string -> bound:(f:int -> int) -> 'm t
(** The paper's adaptive per-execution bounds: the cumulative word count of
    correct senders (charged, non-Byzantine sends) never exceeds
    [bound ~f] for the {e realized} number of corruptions [f] so far —
    checked after every send, and again at the end of the run against the
    final [f]. Corruption precedes the spending it induces (the adversary
    corrupts at slot start, before processes step), so the online check is
    sound for adaptive bounds of the O(n(f+1)) family. Safety (of the
    complexity claim). *)

val cone_words_bound :
  cfg:Config.t ->
  name:string ->
  ?check_every:int ->
  bound:(f:int -> int) ->
  unit ->
  'm t
(** The causal analogue of {!word_bound}: on a [Decision], reconstruct the
    decision's happens-before cone from the [Send] stream (message edges
    from the engine-assigned envelope ids plus process order) and check that
    the charged non-Byzantine words {e inside the cone} stay within
    [bound ~f] at the realized [f] — the per-decision measured counterpart
    of the paper's adaptive bounds. Each check costs O(sends + n) via a
    backward frontier pass; a broadcast posted in bulk is stored as one row,
    whose pass counts the receivers whose frontier covers its delivery
    slot. [check_every] (default 1, i.e. every decision) samples every k-th
    decision to keep large-n sweeps cheap. The pass is
    skipped while the run's total counted words are within the bound: a
    cone is a subset of the run, so the verdict is the same. Raises
    [Invalid_argument] if [check_every < 1]. *)

val early_termination : name:string -> bound:(f:int -> int) -> 'm t
(** Early termination: at the end of the run, the last [Decision] slot is at
    most [bound ~f] for the realized [f]. Protocols instantiate [bound]
    with their constant-round (small f) latency envelope. Liveness. *)

val metering : unit -> 'm t
(** Meter/engine consistency on every [Send]: word cost is at least 1,
    self-addressed sends are never charged, cross-process sends always are,
    and the [byzantine] flag matches the corruption events seen so far. *)
