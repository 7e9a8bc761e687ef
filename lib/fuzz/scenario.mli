(** Corruption-schedule/behavior scripts: what the fuzzer searches over.

    A scenario is a first-order value — seeds plus a list of
    [(slot, pid, behavior)] corruptions — so it can be generated from a seed,
    printed, serialized into a corpus, and {e shrunk} structurally. The
    QCheck-style split matters: shrinking operates on the value, not on the
    random stream that produced it, so a minimal counterexample is a legible
    script ("corrupt p1 at slot 0 and spray") rather than a magic seed.

    Behaviors are deliberately protocol-agnostic; {!Compile} interprets them
    against any {!Mewc_core.Protocol.S} instance. *)

open Mewc_prelude
open Mewc_sim

type behavior =
  | Silent  (** drop every send (crash) *)
  | Selective_silence of { drop_mod : int; drop_rem : int }
      (** run the protocol honestly but drop sends to destinations
          [dst mod drop_mod = drop_rem] — a partition-flavored deviation *)
  | Withhold_quorum of { keep : int }
      (** run honestly but deliver only to the [keep] lowest-numbered
          processes (and itself): starve everyone else of quorum shares *)
  | Equivocate of { salt : int }
      (** run two copies of the machine — the real params and
          [mutate_params ~salt] — and route the first to even destinations,
          the second to odd ones *)
  | Rushing_echo of { shift : int }
      (** re-send the current slot's observed correct sends, rotated by
          [shift] destinations — the rushing primitive *)
  | Replay_stale of { delay : int }
      (** re-send messages received [delay] slots ago back at their
          original senders *)
  | Spray of { intensity : int }
      (** the protocol's {!Mewc_core.Protocol.S.spray} forger (harvested
          shares topped up with corrupted ones, equivocating proposals);
          degrades to a rushing echo for instances without one. At
          [intensity >= 3] a rushing echo is layered on top. *)

type corruption = { at : int; pid : Pid.t; behavior : behavior }

(** Benign (non-Byzantine) process faults, compiled by {!Compile} down to
    the engine's {!Mewc_sim.Faults} layer — one injection mechanism for
    both the fuzzer and the degradation harness. *)
type fault_kind =
  | Crash_fault  (** permanent halt at [fault_at] *)
  | Omission_fault of { drop_mod : int; drop_rem : int }
      (** from [fault_at] on, sends to [dst mod drop_mod = drop_rem] are
          lost *)

type fault = { fault_at : int; victim : Pid.t; kind : fault_kind }

type t = {
  seed : int64;  (** the run's trusted-setup seed *)
  shuffle : int64 option;  (** the run's inbox-shuffle seed *)
  corruptions : corruption list;
      (** distinct pids, canonically sorted by [(at, pid)]; the generator
          emits at most [cfg.t] of them *)
  faults : fault list;
      (** injected process faults, canonically sorted by
          [(fault_at, victim)]; victims are distinct from each other and
          from corrupted pids, and |corruptions| + |faults| <= [cfg.t] —
          crash/omission behavior is a subset of Byzantine behavior, so the
          clean-campaign gate stays sound under the combined budget *)
}

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val pp_behavior : Format.formatter -> behavior -> unit

val generate : cfg:Config.t -> rng:Rng.t -> t
(** Draw a scenario: fresh run seeds, 1..[cfg.t] victims (half the time
    seeded with a phase-leader pid — the high-value target), corruption
    slots biased early, behaviors weighted toward the interesting ones.
    Half the scenarios additionally draw process faults from the remaining
    [cfg.t - |corruptions|] budget. *)

val size : t -> int
(** Strictly positive complexity measure; every {!candidates} element is
    strictly smaller, so greedy shrinking terminates. *)

val candidates : t -> t list
(** One-step shrinks, in preference order: drop a corruption or fault,
    simplify a behavior (ultimately to [Silent]) or a fault (omission to
    crash), move a corruption or fault to slot 0, drop the shuffle seed. *)

val to_json : t -> Jsonx.t
val of_json : Jsonx.t -> (t, string) result
(** The [scenario] sub-document of a [mewc-fuzz/1] corpus entry; seeds are
    carried as decimal strings (JSON ints are 63-bit here). *)
