(** Cross-artifact consistency: the invariants that make the committed
    benchmark artifacts trustworthy as a set, re-checked from the parsed
    files alone on every [mewc report --check].

    Per artifact:
    - perf — the identity bit (parallel rows byte-identical to
      sequential) is true, rows well-shaped and unique;
    - ledger — provenance present, rows well-shaped per entry, the latest
      smoke-grid entry {e replays identically} at the current build (on
      {!Mewc_core.Sweep.row_core_line}: every protocol-observable field;
      the crypto-cache split is a build artifact and excluded), and a
      [grid="ratio"] baseline exists for both schedulers;
    - throughput — stored derived metrics (decisions/1k-slots, words per
      decision) match recomputation from the raw counts, and every SLO
      fault profile retains exactly 1.0 at its level-0 control;
    - degrade — verdicts come from the known enum, levels stay on the
      grid, level-0 controls of on-grid protocols are safe-live, and the
      planted [weak-ba-ablated] cell (if present) is unsafe;
    - observability — each run's headline words/messages equal the
      meter's correct-class totals and the per-slot series sums to the
      correct + byzantine grand totals. *)

type finding = { check : string; detail : string }

val run : Loader.artifacts -> finding list
(** All violated invariants, in artifact order; [[]] means consistent.
    Runs the smoke-grid replay, so it costs a fraction of a second of
    simulation, not just parsing. *)

val render : finding list -> string
(** One ["[check] detail\n"] line per finding. *)
