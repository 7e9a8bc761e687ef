(** The byte transport under the async runtime: one bounded, unidirectional
    inbox per process, real deadlines, and frame reassembly.

    Implementation: OS pipes. Each process owns the read end of its inbox;
    every peer holds the write end. Writes are non-blocking and at most
    {!Codec.max_frame} = [PIPE_BUF] bytes, so the kernel guarantees each
    frame lands contiguously (no interleaving across concurrent writers) —
    but the pipe is {e bounded}, so a send can transiently fail with
    [EAGAIN] when the receiver lags; {!send} retries with a backoff until
    the caller's deadline ("per-link retry-with-deadline"). Receives drain
    whatever bytes are available, then {!Codec.scan} reassembles frames
    from the stream, rejecting (never raising on) malformed spans.

    This is one of the two implementations of the conceptual transport
    interface ([send]/[recv] against a monotonic clock); the other is the
    lock-step engine itself — [Runtime.Sync_oracle] — where "send" is a
    list cons and δ is the slot counter. The differential gate in
    [test_wire_diff] holds the two against each other. *)

type hub
(** The [n] pipes of one run. Created by the coordinating thread before
    starting the processes; closed by it after joining them. *)

type endpoint
(** One process's view: its own inbox plus every peer's write end. Not
    thread-safe — exactly one thread drives each endpoint. *)

val create : n:int -> hub
val endpoint : hub -> pid:int -> endpoint

val close : hub -> unit
(** Close every fd. Call once, after all endpoint-driving threads joined. *)

val send :
  endpoint ->
  clock:Clock.t ->
  deadline:float ->
  dst:int ->
  string ->
  [ `Sent of int | `Timeout ]
(** Write one encoded frame to [dst]'s inbox. [`Sent retries] reports how
    many transient-failure retries it took; [`Timeout] means the link
    stayed full past [deadline] (the frame is not sent — an omission the
    receiver's own deadline machinery absorbs). Raises [Invalid_argument]
    on frames over {!Codec.max_frame}. *)

val recv :
  endpoint ->
  clock:Clock.t ->
  deadline:float ->
  [ `Frame of Codec.frame | `Rejected of Codec.error | `Timeout ]
(** The next event from this process's inbox: a reassembled frame, a
    rejected malformed span (the decode-reject policy — the caller stamps
    it and keeps going), or the deadline passing with no complete frame.
    Buffered bytes are served without touching the clock or the fd. *)

val pending : endpoint -> int
(** Bytes currently buffered but not yet parsed (diagnostics). *)
