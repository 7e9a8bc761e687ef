(** The wire harness: the codec fuzz battery and the differential gate
    that runs each codec-bearing protocol under both runtimes.

    The codecs themselves live beside the types they encode (each
    protocol's [codec] and [gen] next to its [msg]), and the
    {!Mewc_core.Registry} entry pairs each protocol with them. This module
    only selects the entries that carry a codec, checks the codec laws over
    them, runs them under both runtimes and compares {!fingerprint}s: the
    differential gate of [test_wire_diff] and [mewc wire]. *)

open Mewc_core

(** {1 The codec-bearing entries} *)

type entry =
  | E : {
      reg : ('p, 's, 'm, 'd) Registry.t;
      codec : 'm Codec.t;
      gen : Mewc_prelude.Rng.t -> 'm;
    }
      -> entry
(** A {!Mewc_core.Registry} entry whose [wire] is [Some (codec, gen)]. *)

val entries : entry list
(** Every registry entry that has a codec, in registry order: the five
    paper protocols fallback, weak-ba, bb, binary-bb, strong-ba. *)

val entry_name : entry -> string
val find : string -> entry option

(** The message codecs of five entries, by the names benchmark clients
    use. *)

val epk_str_msg : Instances.Epk_str.msg Codec.t
val weak_str_msg : Instances.Weak_str.msg Codec.t
val adaptive_bb_msg : Adaptive_bb.msg Codec.t
val binary_bb_msg : Instances.Binary_bb_bool.msg Codec.t
val strong_bool_msg : Instances.Strong_bool.msg Codec.t

(** {1 The codec fuzz battery} *)

type law =
  | Law : {
      name : string;
      codec : 'a Codec.t;
      gen : Mewc_prelude.Rng.t -> 'a;
      words : 'a -> int;  (** the meter's word charge *)
    }
      -> law

val laws : law list
(** Every codec the laws cover: signatures, threshold signatures and
    certificates (one word each), the binary phase king (which runs only
    embedded, so no entry exposes it), then each of {!entries}. *)

val round_trip : law -> Mewc_prelude.Rng.t -> (unit, string) result
(** One generated value: [decode ∘ encode] accepts it and re-encodes it
    byte-identically. [Error what] names the codec and the failure. *)

val total : law -> string -> (unit, string) result
(** Arbitrary bytes: the decoder does not raise, and whatever decodes
    re-encodes to exactly these bytes (its one canonical spelling). *)

val flip_bit : Mewc_prelude.Rng.t -> string -> string
(** The input with one random bit flipped; it must not be empty. *)

val fuzz_codec : count:int -> seed:int64 -> (int, string) result
(** The codec fuzz battery, [count] cases per leg: (a) random valid
    values of every codec in {!laws} round-trip ([decode ∘ encode] succeeds and
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
  stepped : int;  (** {!Runtime.outcome}'s [stepped] *)
  stalled : Mewc_prelude.Pid.t list;
  failures : (Mewc_prelude.Pid.t * string) list;
  wire_events : string Mewc_sim.Trace.event list;
}

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
  ?clock:Clock.t ->
  ?byte_faults:Mewc_sim.Faults.byte_plan ->
  unit ->
  report
(** The same run under {!Runtime.run} (same seed, same params), optionally
    on an injected clock and through the byte-fault stage. *)

val diff :
  entry ->
  cfg:Mewc_sim.Config.t ->
  seed:int64 ->
  salt:int ->
  ?delta:float ->
  unit ->
  (report, string list) result
(** Run both fault-free and compare: [Error mismatches] is a gate failure. *)
