(** Decimal rendering of integers for the crypto hot paths (signed-message
    strings, memo keys, phased payloads).

    [string_of_int] goes through the C format interpreter, which costs more
    than the hashing it feeds on a memo hit. *)

val of_int : int -> string
(** Byte-identical to [string_of_int]. Values in [0, 1024) — pids, phases,
    field lengths — return a shared preallocated string and allocate
    nothing. *)
