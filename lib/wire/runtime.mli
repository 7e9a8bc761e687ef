(** The [Async_domains] runtime: every process runs on a thread of its
    own, messages are serialized bytes on a real transport, and δ is a real
    monotonic-clock deadline. The threads belong to the calling domain and
    end with the run: a run spawns no domain, and leaves nothing running
    behind it.

    {b Slot protocol.} The paper's synchrony assumption — sent at τ,
    delivered by τ+1 — is realized with a barrier-plus-timer: after
    stepping slot τ a process writes its protocol frames, then a [Done τ]
    marker, to every peer. The marker carries the sender's next-needed
    slot: τ+1 if it sent anything, else its machine's wake query
    ([Process.wake ~after:(τ+1)], τ+1 without one). Once it holds a marker
    covering τ from {e all} peers — markers are monotone, [Done s] covers
    every barrier ≤ s — a process jumps to the least next-needed slot among
    its own and its peers'; a barrier that ends on δ instead steps τ+1.
    Links are FIFO, so a peer's marker certifies that all of its frames up
    to that slot are already in. A skipped slot is one in which nobody
    sends and nobody's timer fires, so by the wake contract the lock-step
    engine steps nobody there either, and a run pays one barrier per
    active slot. On a fault-free run every barrier completes and the
    delivery sets equal the lock-step oracle's {e exactly}, making the
    differential gate deterministic — the timer is pure safety net, and
    it is how the runtime degrades (to late frames, then to a stall
    verdict) instead of wedging when bytes are corrupted or a peer dies.

    {b Model.} Honest executions only ([f = 0], the chaos harness's
    setting): the rushing adaptive adversary of the lock-step engine needs
    a global simulation view that a decentralized runtime by definition
    does not have. The adversarial surface here is the {e network} — the
    byte-fault stage ({!Mewc_sim.Faults.byte_plan}) corrupts encoded
    frames below the codec, and the frame digest turns any corruption into
    a rejected frame (an omission) rather than a forgery, preserving the
    authenticated-links assumption the safety argument needs.

    Every run is seeded identically to [Instances.run]: same
    [Pki.setup ~seed], same machines, same horizon. *)

type kind = Sync_oracle | Async_domains

val kind_of_string : string -> (kind, string) result
val kind_to_string : kind -> string

(** The deadman watchdog behind the runtime's stall verdicts, with the
    clock injected so liveness classification is testable on a fake timer
    (the lock-step harness keeps its slot-counter clock). *)
module Stall : sig
  type t

  val create : clock:Clock.t -> budget:float -> t
  (** Expired once [budget] seconds pass without a {!beat}. *)

  val beat : t -> unit
  (** Progress happened; re-arm. *)

  val expired : t -> bool
  val since_beat : t -> float
end

type stats = {
  frames_sent : int;  (** protocol frames actually written (markers excluded) *)
  bytes_sent : int;  (** their encoded bytes, frame overhead included *)
  encoded_words : int;  (** Σ {!Codec.words_of_bytes} over sent payloads *)
  retries : int;  (** transient-full-link send retries that later succeeded *)
  send_timeouts : int;  (** sends abandoned at the deadline (frame lost) *)
  frame_faults : int;  (** byte-fault stage activations *)
  decode_rejects : int;  (** malformed spans dropped by receivers *)
  late_frames : int;  (** frames delivered after their model slot *)
  deadline_expiries : int;  (** slot barriers that ended on the δ timer *)
}

type 'd outcome = {
  decisions : 'd option array;
  decided_slots : int option array;  (** the protocol's own [decided_at] *)
  decided_strs : string option array;
  words : int array;
      (** per-process words charged under the meter's rule: every
          non-self-addressed send at its protocol word cost *)
  messages : int array;
  slots : int;  (** horizon executed *)
  stepped : int;
      (** the most slots any one process stepped; on a fault-free run every
          process steps the same slots, those in which the lock-step
          engine steps anyone *)
  stats : stats;
  wire_events : string Mewc_sim.Trace.event list;
      (** the run's [Frame_fault] / [Decode_reject] events, merged across
          processes and sorted by (slot, src/dst, seq) *)
  stalled : Mewc_prelude.Pid.t list;
      (** processes stopped early by the deadman watchdog *)
  failures : (Mewc_prelude.Pid.t * string) list;
      (** processes that died on an exception — always empty unless there is
          a bug; byte faults must never put anything here *)
}

val default_delta : float
(** 5 s: generous, because on fault-free runs the barrier — not the timer
    — advances slots; chaos runs pass an aggressive δ instead. *)

val run :
  ('p, 's, 'm, 'd) Mewc_core.Protocol.t ->
  codec:'m Codec.t ->
  cfg:Mewc_sim.Config.t ->
  ?seed:int64 ->
  ?delta:float ->
  ?deadman:float ->
  ?clock:Clock.t ->
  ?byte_faults:Mewc_sim.Faults.byte_plan ->
  params:'p ->
  unit ->
  'd outcome
(** Run [P] to its static horizon on the async transport. [deadman]
    defaults to [max 30 (horizon × δ × 2)] seconds of per-process
    no-progress tolerance; [clock] (default {!Clock.real}) feeds every
    deadline comparison, including the {!Stall} watchdogs. Every process's
    allocation is the calling domain's, so [Gc.quick_stat] and
    [Gc.minor_words] count all of it. Inside a {!Mewc_prelude.Pool} task
    the processes still run at once, on threads of that worker's domain.
    Raises [Invalid_argument] on invalid params or byte plan. *)
