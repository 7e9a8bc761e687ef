(** The "simple and efficient reduction from BB to strong BA" of paper §5,
    instantiated with a quadratic strong BA — i.e. Byzantine Broadcast
    {e without} adaptivity.

    The sender broadcasts its value; everyone then runs strong BA on what
    they received (⊥ for silence). If the sender is correct all correct
    processes enter with the same input and strong unanimity forces it.
    Cost: O(n²) words in {e every} run, including failure-free ones — the
    comparator that makes the adaptive protocol's O(n(f+1)) meaningful. *)

module Opt_value : Mewc_sim.Value.S with type t = string option

include Baseline.S
(** [decided_at] is the slot the embedded strong BA decided at. *)
