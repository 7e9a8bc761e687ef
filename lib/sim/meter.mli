(** Communication-complexity accounting (paper §2, "Complexity").

    "The communication complexity of a protocol is the maximum number of
    words sent by all correct processes, across all runs." Accordingly the
    meter keeps words sent by correct processes separate from words sent by
    Byzantine processes; the paper's tables are about the former. Messages a
    process addresses to itself cross no link and are free — that rule lives
    here (not in the engine) so it is unit-testable in isolation.

    Each message counts at least one word (paper: "each message contains at
    least 1 word"); the per-protocol [words] function enforces that.

    Beyond the run totals, the meter keeps {e per-slot} and {e per-process}
    word/message series, so the paper's per-execution bounds (Table 1) can
    be inspected slot by slot, and exports them as immutable
    {!snapshot}s. *)

type t

val create : unit -> t

val begin_slot : t -> slot:int -> unit
(** Start attributing subsequent charges to [slot]. The engine calls this at
    every slot boundary; slots never charged still appear (as zero rows) in
    the snapshot series up to the highest slot begun. *)

val charge :
  t -> byzantine:bool -> src:Mewc_prelude.Pid.t -> dst:Mewc_prelude.Pid.t ->
  words:int -> bool
(** Account one message of the given size; returns whether it was charged.
    Self-addressed messages ([src = dst]) cross no link: they are free and
    return [false]. Raises [Invalid_argument] if [words < 1] (even for a
    self-send — a 0-word message is a wire-format bug regardless), or if a
    charged message has a negative [src] or falls in a negative slot.

    Both series are flat arrays indexed by slot and by pid, so a charge
    allocates nothing beyond the occasional doubling of a series. *)

val charge_all :
  t -> byzantine:bool -> src:Mewc_prelude.Pid.t -> n:int -> words:int -> unit
(** Account a broadcast of one [words]-word message from [src] to all [n]
    processes: exactly the [n] {!charge}s of its copies, in one update. The
    [n − 1] copies to other processes are charged; the self copy is free.
    Raises [Invalid_argument] as {!charge} does. *)

val correct_words : t -> int
val correct_messages : t -> int
val byzantine_words : t -> int
val byzantine_messages : t -> int

val reset : t -> unit
(** Zero every counter and series (the meter can be reused). *)

(** {2 Snapshots}

    A snapshot is a deep, immutable copy: mutating the meter after taking
    one never leaks into it. *)

type row = {
  ix : int;  (** slot number or pid, depending on the series *)
  words : int;  (** by correct-at-send-time senders *)
  messages : int;
  byz_words : int;
  byz_messages : int;
}

type snapshot = {
  correct_words : int;
  correct_messages : int;
  byz_words : int;
  byz_messages : int;
  per_slot : row list;  (** dense, ascending [ix] = slot, zero rows kept *)
  per_process : row list;  (** ascending [ix] = pid; only pids that sent *)
}

val snapshot : t -> snapshot

val snapshot_to_json : snapshot -> Mewc_prelude.Jsonx.t
(** Schema ["mewc-meter/1"]: totals plus both series. *)

val pp : Format.formatter -> t -> unit
