(** Dolev–Strong authenticated Byzantine Broadcast (1983) — the classical
    baseline the paper's §4 positions itself against.

    Tolerates any [t < n] with [t + 1] rounds, but pays for it in words:
    messages carry {e signature chains} that grow with the round number, and
    every newly-extracted value is relayed to everybody — Θ(n²) messages of
    up-to-(t+1)-word chains even in benign runs. This is precisely the cost
    profile threshold certificates eliminate, which the baseline-comparison
    experiment (C-BASE) quantifies against {!Mewc_core.Adaptive_bb}.

    Protocol: the sender signs and broadcasts its value. A process that, in
    round [r], receives a value carrying [r] distinct valid signatures
    (the sender's first) {e extracts} it, appends its own signature and
    relays — but only for the first two distinct values (two suffice to
    prove sender equivocation). After round [t + 1]: decide the unique
    extracted value, or ⊥. *)

type msg = {
  value : string;
  chain : Mewc_crypto.Pki.Sig.t list;
      (** distinct signers, sender's signature first *)
}

include Baseline.S with type msg := msg
(** [words] is 1 + chain length: signature chains do not batch (threshold
    schemes cannot aggregate signatures over different message prefixes).
    [decided_at] is round [t + 2] after [start_slot]. *)
