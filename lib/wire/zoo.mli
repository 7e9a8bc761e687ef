(** Wire codecs for the protocol zoo, and the differential/chaos harness
    over them.

    One hand-written codec per protocol message type, built from
    {!Codec}'s combinators. The phase-king codec is a functor over the
    value domain because the same message shape is used at three
    instantiations (strings, booleans, and the BB layer's wrapped
    [bb_value]); the weak-BA and strong-BA codecs are functors over the
    embedded fallback for the same reason. Type identities are pinned by
    applying the functors to the {e same} module paths the instances were
    built from, so each exported codec is a [Codec.t] for the instance's
    own [msg] type — no casts, no re-encoding through strings.

    The harness side pairs each codec-bearing registry entry with its codec
    as an {!entry}, runs it under both runtimes, and compares {!fingerprint}s:
    the differential gate of [test_wire_diff] and [mewc wire]. *)

open Mewc_core

(** {1 Message codecs} *)

val epk_str_msg : Instances.Epk_str.msg Codec.t
val epk_bool_msg : Instances.Epk_bool.msg Codec.t
val weak_str_msg : Instances.Weak_str.msg Codec.t
val bb_value_c : Adaptive_bb.bb_value Codec.t
val adaptive_bb_msg : Adaptive_bb.msg Codec.t
val binary_bb_msg : Instances.Binary_bb_bool.msg Codec.t
val strong_bool_msg : Instances.Strong_bool.msg Codec.t

(** {1 Generators}

    Deterministic random {e well-formed} messages (signatures and
    certificates are shape-valid but cryptographically meaningless — the
    codec neither knows nor cares), for the round-trip law in tests and
    [mewc wire --fuzz-codec]. *)

module Gen : sig
  val value_str : Mewc_prelude.Rng.t -> string
  (** ≤ 32 bytes — one metered word, like the protocols' real values. *)

  val sig_ : Mewc_prelude.Rng.t -> Mewc_crypto.Pki.Sig.t
  val tsig : Mewc_prelude.Rng.t -> Mewc_crypto.Pki.Tsig.t
  val cert : Mewc_prelude.Rng.t -> Mewc_crypto.Certificate.t
  val frame : Mewc_prelude.Rng.t -> Codec.frame
  val epk_str : Mewc_prelude.Rng.t -> Instances.Epk_str.msg
  val epk_bool : Mewc_prelude.Rng.t -> Instances.Epk_bool.msg
  val weak_str : Mewc_prelude.Rng.t -> Instances.Weak_str.msg
  val adaptive : Mewc_prelude.Rng.t -> Adaptive_bb.msg
  val binary : Mewc_prelude.Rng.t -> Instances.Binary_bb_bool.msg
  val strong : Mewc_prelude.Rng.t -> Instances.Strong_bool.msg
end

val fuzz_codec : count:int -> seed:int64 -> (int, string) result
(** The codec fuzz battery, [count] cases per leg: (a) random valid
    messages of every protocol round-trip ([decode ∘ encode] succeeds and
    re-encodes byte-identically); (b) random byte strings (≤ 4 KiB) never
    make any decoder raise, and anything that decodes re-encodes
    canonically; (c) single-byte/bit mutations of valid frames never make
    the frame decoder raise; (d) random frames round-trip through
    {!Codec.scan} mid-stream. [Ok cases] on success, [Error what] on the
    first law violation (an exception escaping a decoder included). *)

(** {1 The differential harness} *)

type fingerprint = {
  decided_strs : string option array;
  decided_slots : int option array;
  words : int array;
}
(** What both runtimes must agree on, per process: the printed decision,
    the slot it was reached, and the metered words sent. *)

val fingerprint_diff :
  oracle:fingerprint -> async:fingerprint -> string list
(** Human-readable mismatches; empty iff the gate passes. *)

type report = {
  fingerprint : fingerprint;
  verdict : Mewc_sim.Monitor.classification;
      (** [Unsafe] iff two processes decided differently — byte faults must
          never produce it; [Safe_stalled] when someone did not decide *)
  stats : Runtime.stats;
  stalled : Mewc_prelude.Pid.t list;
  failures : (Mewc_prelude.Pid.t * string) list;
  wire_events : string Mewc_sim.Trace.event list;
}

type entry =
  | E : {
      reg : ('p, 's, 'm, 'd) Registry.t;
      codec : 'm Codec.t;
    }
      -> entry
(** One {!Mewc_core.Registry} entry packaged with its codec. *)

val entries : entry list
(** Every registry entry that has a codec, in registry order: the five
    paper protocols fallback, weak-ba, bb, binary-bb, strong-ba. *)

val entry_name : entry -> string
val find : string -> entry option

val oracle :
  entry -> cfg:Mewc_sim.Config.t -> seed:int64 -> salt:int -> fingerprint
(** One honest lock-step run ([Instances.run], default options), with
    params [mutate_params (default_params cfg) ~salt]. *)

val async :
  entry ->
  cfg:Mewc_sim.Config.t ->
  seed:int64 ->
  salt:int ->
  ?delta:float ->
  ?deadman:float ->
  ?byte_faults:Mewc_sim.Faults.byte_plan ->
  unit ->
  report
(** The same run under {!Runtime.run} (same seed, same params), optionally
    through the byte-fault stage. *)

val diff :
  entry ->
  cfg:Mewc_sim.Config.t ->
  seed:int64 ->
  salt:int ->
  ?delta:float ->
  unit ->
  (report, string list) result
(** Run both fault-free and compare: [Error mismatches] is a gate failure. *)
