open Mewc_prelude

type 'm t = Empty | Listed of 'm Envelope.t list | Pooled of 'm pool

(* Parallel vectors in post order, grown by doubling and reused after
   [clear]. In a log, [id] holds a broadcast's first id: its copy for pid
   [d] has envelope id [id + d]. *)
and 'm entries = {
  mutable src : int array;
  mutable sent_at : int array;
  mutable msg : 'm array;
  mutable id : int array;
  mutable len : int;
}

(* [own] holds the messages posted to [dst] alone; [log] is the slot's
   broadcast log, shared by every pool. [order] is the delivery
   permutation of [own] while [shuffled]; shuffling copies the log's
   entries into [own] first, so a shuffled pool no longer reads the log.
   [self] is this pool's view, built once so handing it out allocates
   nothing. *)
and 'm pool = {
  dst : Pid.t;
  own : 'm entries;
  log : 'm entries;
  mutable shuffled : bool;
  mutable order : int array;
  mutable self : 'm t;
}

let empty = Empty

let log_len p = if p.shuffled then 0 else p.log.len

let length = function
  | Empty -> 0
  | Listed l -> List.length l
  | Pooled p -> p.own.len + log_len p

(* An unshuffled view is [own] merged with the log by envelope id: ids
   grow in post order on both sides, and a broadcast's copy for [dst] has
   id [first id + dst]. Each log entry is read after the entries of [own]
   that precede it. *)
let iter f = function
  | Empty -> ()
  | Listed l -> List.iter (fun e -> f e.Envelope.src e.Envelope.msg) l
  | Pooled { own; shuffled = true; order; _ } ->
    for k = 0 to own.len - 1 do
      let i = order.(k) in
      f own.src.(i) own.msg.(i)
    done
  | Pooled { own; log; dst; _ } ->
    let i = ref 0 in
    for j = 0 to log.len - 1 do
      let id = log.id.(j) + dst in
      while !i < own.len && own.id.(!i) < id do
        f own.src.(!i) own.msg.(!i);
        incr i
      done;
      f log.src.(j) log.msg.(j)
    done;
    for i = !i to own.len - 1 do
      f own.src.(i) own.msg.(i)
    done

let fold f acc = function
  | Empty -> acc
  | Listed l -> List.fold_left (fun acc e -> f acc e.Envelope.src e.Envelope.msg) acc l
  | Pooled { own; shuffled = true; order; _ } ->
    let acc = ref acc in
    for k = 0 to own.len - 1 do
      let i = order.(k) in
      acc := f !acc own.src.(i) own.msg.(i)
    done;
    !acc
  | Pooled { own; log; dst; _ } ->
    let acc = ref acc and i = ref 0 in
    for j = 0 to log.len - 1 do
      let id = log.id.(j) + dst in
      while !i < own.len && own.id.(!i) < id do
        acc := f !acc own.src.(!i) own.msg.(!i);
        incr i
      done;
      acc := f !acc log.src.(j) log.msg.(j)
    done;
    for i = !i to own.len - 1 do
      acc := f !acc own.src.(i) own.msg.(i)
    done;
    !acc

(* [to_list] and [Pool.ids] build their list in one pass, from the last
   message to the first: [of_own p i] is the element for [own] index [i],
   [of_log p j] the one for log index [j]. Both are closed functions, so a
   call allocates only its list. *)
let build_back p ~of_own ~of_log =
  let { own; log; dst; shuffled; order; _ } = p in
  let acc = ref [] in
  if shuffled then
    for k = own.len - 1 downto 0 do
      acc := of_own p order.(k) :: !acc
    done
  else begin
    let i = ref (own.len - 1) in
    for j = log.len - 1 downto 0 do
      let id = log.id.(j) + dst in
      while !i >= 0 && own.id.(!i) > id do
        acc := of_own p !i :: !acc;
        decr i
      done;
      acc := of_log p j :: !acc
    done;
    for i = !i downto 0 do
      acc := of_own p i :: !acc
    done
  end;
  !acc

let of_list = function [] -> Empty | l -> Listed l

let envelope e dst i =
  { Envelope.src = e.src.(i); dst; sent_at = e.sent_at.(i); msg = e.msg.(i) }

let own_envelope p i = envelope p.own p.dst i
let log_envelope p j = envelope p.log p.dst j

let to_list = function
  | Empty -> []
  | Listed l -> l
  | Pooled p -> build_back p ~of_own:own_envelope ~of_log:log_envelope

let entries () = { src = [||]; sent_at = [||]; msg = [||]; id = [||]; len = 0 }

(* The largest block the minor heap takes, in words. *)
let max_young = 256

let grow a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* On OCaml 5, [Array.make] of a major-heap block with a young [fill]
   forces a minor collection; [Array.append] allocates one without. So a
   message vector past [max_young] grows by appending it to itself, and the
   new half is then overwritten with [fill]: left as it is, it would keep
   a second reference to every older message. *)
let grow_msgs a cap fill =
  if cap <= max_young then grow a cap fill
  else begin
    let have = Array.length a in
    let b = ref (if have = 0 then Array.make max_young fill else a) in
    while Array.length !b < cap do
      b := Array.append !b !b
    done;
    Array.fill !b have (Array.length !b - have) fill;
    !b
  end

(* Room for [need] entries, doubling from 8; [fill] pads a grown message
   vector. *)
let reserve e need fill =
  let have = Array.length e.msg in
  if need > have then begin
    let cap = ref (max (2 * have) 8) in
    while !cap < need do
      cap := 2 * !cap
    done;
    e.src <- grow e.src !cap 0;
    e.sent_at <- grow e.sent_at !cap 0;
    e.msg <- grow_msgs e.msg !cap fill;
    e.id <- grow e.id !cap 0
  end

let push e ~src ~sent_at ~id msg =
  let i = e.len in
  reserve e (i + 1) msg;
  e.src.(i) <- src;
  e.sent_at.(i) <- sent_at;
  e.msg.(i) <- msg;
  e.id.(i) <- id;
  e.len <- i + 1

(* The cleared slots are overwritten with the first message, so the
   vectors keep one message of their last use reachable, not their
   high-water mark of them. *)
let clear e =
  if e.len > 1 then Array.fill e.msg 1 (e.len - 1) e.msg.(0);
  e.len <- 0

module Log = struct
  type 'm t = 'm entries

  let create = entries
  let length l = l.len
  let push l ~src ~sent_at ~first_id msg = push l ~src ~sent_at ~id:first_id msg
  let clear = clear
end

module Pool = struct
  type 'm t = 'm pool

  let create ~dst ~log =
    let p =
      { dst; own = entries (); log; shuffled = false; order = [||]; self = Empty }
    in
    p.self <- Pooled p;
    p

  let length p = p.own.len + log_len p

  let push p ~src ~sent_at ~id msg = push p.own ~src ~sent_at ~id msg

  (* Copies the log's entries into [own], merged in view order. It works
     from the back, so each entry of [own] moves once, in place: the write
     position [k] never falls below the read [i], and once the log is
     placed the two meet. *)
  let absorb_log { own; log; dst; _ } =
    if log.len > 0 then begin
      let total = own.len + log.len in
      reserve own total log.msg.(0);
      let i = ref (own.len - 1) and k = ref (total - 1) in
      let put e j ~id =
        own.src.(!k) <- e.src.(j);
        own.sent_at.(!k) <- e.sent_at.(j);
        own.msg.(!k) <- e.msg.(j);
        own.id.(!k) <- id;
        decr k
      in
      for j = log.len - 1 downto 0 do
        let id = log.id.(j) + dst in
        while !i >= 0 && own.id.(!i) > id do
          put own !i ~id:own.id.(!i);
          decr i
        done;
        put log j ~id
      done;
      own.len <- total
    end

  (* [Rng.shuffle] tags each element of its list with one draw, in list
     order, and stable-sorts by tag. The list here is the view newest-first,
     so position [k] is index [len - 1 - k]; a stable sort of the positions
     by their tags gives the same permutation. *)
  let shuffle p rng =
    absorb_log p;
    let len = p.own.len in
    let tags = Array.init len (fun _ -> Rng.int64 rng) in
    let positions = Array.init len Fun.id in
    Array.stable_sort (fun a b -> Int64.compare tags.(a) tags.(b)) positions;
    if Array.length p.order < len then p.order <- Array.make (Array.length p.own.msg) 0;
    Array.iteri (fun k pos -> p.order.(k) <- len - 1 - pos) positions;
    p.shuffled <- true

  let view p = p.self

  let ids p =
    build_back p ~of_own:(fun p i -> p.own.id.(i)) ~of_log:(fun p j -> p.log.id.(j) + p.dst)

  (* A pool's traffic is uneven: a king or a leader takes about n
     messages in one slot and a few in the others. Vectors that grew past
     [max_young] are handed back rather than kept for the rest of the
     run. *)
  let clear p =
    let own = p.own in
    if Array.length own.msg > max_young then begin
      own.src <- [||];
      own.sent_at <- [||];
      own.msg <- [||];
      own.id <- [||];
      own.len <- 0
    end
    else clear own;
    if Array.length p.order > max_young then p.order <- [||];
    p.shuffled <- false
end
