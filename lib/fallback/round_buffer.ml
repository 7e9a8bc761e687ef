open Mewc_prelude

type 'a t = {
  last : int;
  mutable consumed : int;
  head : int array;  (* per round: index of its first entry, -1 if none *)
  tail : int array;  (* per round: index of its last entry *)
  entries : 'a Vec.t;
  links : int Vec.t;  (* per entry: the next entry of its round, -1 ends *)
  mutable pending : int;  (* entries not drained yet *)
}

let create ~last =
  {
    last;
    consumed = 0;
    head = Array.make (last + 1) (-1);
    tail = Array.make (last + 1) (-1);
    entries = Vec.create ();
    links = Vec.create ();
    pending = 0;
  }

let consumed b = b.consumed

let add b ~round x =
  if round >= b.consumed && round <= b.last then begin
    let i = Vec.length b.entries in
    Vec.push b.entries x;
    Vec.push b.links (-1);
    if b.head.(round) < 0 then b.head.(round) <- i
    else Vec.set b.links b.tail.(round) i;
    b.tail.(round) <- i;
    b.pending <- b.pending + 1
  end

let iter_round b first f =
  let i = ref first in
  while !i >= 0 do
    f (Vec.get b.entries !i);
    i := Vec.get b.links !i
  done

let drain b ~upto ingest =
  while b.consumed < upto do
    let r = b.consumed in
    let first = if r <= b.last then b.head.(r) else -1 in
    b.consumed <- r + 1;
    if first >= 0 then begin
      b.head.(r) <- -1;
      iter_round b first (fun _ -> b.pending <- b.pending - 1);
      ingest r (iter_round b first)
    end
  done;
  if b.pending = 0 then begin
    Vec.clear b.entries;
    Vec.clear b.links
  end

let first_pending b =
  if b.pending = 0 then max_int
  else begin
    let r = ref b.consumed in
    while !r <= b.last && b.head.(!r) < 0 do
      incr r
    done;
    if !r <= b.last then !r else max_int
  end
