open Mewc_prelude

(* Round [r] of the window [consumed, consumed + cap) sits at ring slot
   [start + (r - consumed)], wrapped once by [cap]. *)
type 'a t = {
  last : int;
  mutable consumed : int;
  mutable start : int;  (* ring slot of round [consumed] *)
  mutable head : int array;  (* per slot: index of its round's first entry, -1 if none *)
  mutable tail : int array;  (* per slot: index of its round's last entry *)
  entries : 'a Vec.t;
  links : int Vec.t;  (* per entry: the next entry of its round, -1 ends *)
  mutable pending : int;  (* entries not drained yet *)
}

let create ~last =
  let cap = Int.min 8 (last + 1) in
  {
    last;
    consumed = 0;
    start = 0;
    head = Array.make cap (-1);
    tail = Array.make cap (-1);
    entries = Vec.create ();
    links = Vec.create ();
    pending = 0;
  }

let consumed b = b.consumed

(* The slot of round [consumed + k], for [0 <= k < cap]. *)
let slot b k =
  let s = b.start + k in
  let cap = Array.length b.head in
  if s >= cap then s - cap else s

(* Doubles the ring until it covers [consumed + k], but never past
   [last + 1] slots, and moves each live round to slot [r - consumed]. *)
let grow b k =
  let cap = ref (Array.length b.head) in
  while !cap <= k do
    cap := 2 * !cap
  done;
  let cap = Int.min !cap (b.last + 1) in
  let head = Array.make cap (-1) and tail = Array.make cap (-1) in
  for k = 0 to Array.length b.head - 1 do
    let s = slot b k in
    head.(k) <- b.head.(s);
    tail.(k) <- b.tail.(s)
  done;
  b.head <- head;
  b.tail <- tail;
  b.start <- 0

let add b ~round x =
  if round >= b.consumed && round <= b.last then begin
    let k = round - b.consumed in
    if k >= Array.length b.head then grow b k;
    let s = slot b k in
    let i = Vec.length b.entries in
    Vec.push b.entries x;
    Vec.push b.links (-1);
    if b.head.(s) < 0 then b.head.(s) <- i
    else Vec.set b.links b.tail.(s) i;
    b.tail.(s) <- i;
    b.pending <- b.pending + 1
  end

let iter_round b first f =
  let i = ref first in
  while !i >= 0 do
    f (Vec.get b.entries !i);
    i := Vec.get b.links !i
  done

(* Once nothing is pending every slot is empty, so the rest of the rounds
   below [upto] are skipped in one move. *)
let drain b ~upto ingest =
  while b.consumed < upto && b.pending > 0 do
    let r = b.consumed and s = b.start in
    let first = b.head.(s) in
    b.head.(s) <- -1;
    b.consumed <- r + 1;
    b.start <- slot b 1;
    if first >= 0 then begin
      iter_round b first (fun _ -> b.pending <- b.pending - 1);
      ingest r (iter_round b first)
    end
  done;
  if b.pending = 0 then begin
    if b.consumed < upto then begin
      b.consumed <- upto;
      b.start <- 0
    end;
    Vec.clear b.entries;
    Vec.clear b.links
  end

let first_pending b =
  if b.pending = 0 then max_int
  else begin
    let k = ref 0 in
    while b.head.(slot b !k) < 0 do
      incr k
    done;
    b.consumed + !k
  end
