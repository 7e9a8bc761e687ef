open Mewc_prelude

type 'm t = Empty | Listed of 'm Envelope.t list | Pooled of 'm pool

(* [order] is the delivery permutation while [shuffled]; otherwise the
   view reads indices [0 .. len-1]. [self] is this pool's view, built once
   so handing it out allocates nothing. *)
and 'm pool = {
  dst : Pid.t;
  mutable src : int array;
  mutable sent_at : int array;
  mutable msg : 'm array;
  mutable id : int array;
  mutable len : int;
  mutable shuffled : bool;
  mutable order : int array;
  mutable self : 'm t;
}

let empty = Empty

let length = function
  | Empty -> 0
  | Listed l -> List.length l
  | Pooled p -> p.len

let index p k = if p.shuffled then p.order.(k) else k

let iter f = function
  | Empty -> ()
  | Listed l -> List.iter (fun e -> f e.Envelope.src e.Envelope.msg) l
  | Pooled p ->
    for k = 0 to p.len - 1 do
      let i = index p k in
      f p.src.(i) p.msg.(i)
    done

let fold f acc = function
  | Empty -> acc
  | Listed l -> List.fold_left (fun acc e -> f acc e.Envelope.src e.Envelope.msg) acc l
  | Pooled p ->
    let acc = ref acc in
    for k = 0 to p.len - 1 do
      let i = index p k in
      acc := f !acc p.src.(i) p.msg.(i)
    done;
    !acc

let of_list = function [] -> Empty | l -> Listed l

let to_list = function
  | Empty -> []
  | Listed l -> l
  | Pooled p ->
    List.init p.len (fun k ->
        let i = index p k in
        { Envelope.src = p.src.(i); dst = p.dst; sent_at = p.sent_at.(i); msg = p.msg.(i) })

module Pool = struct
  type 'm t = 'm pool

  let create ~dst =
    let p =
      {
        dst;
        src = [||];
        sent_at = [||];
        msg = [||];
        id = [||];
        len = 0;
        shuffled = false;
        order = [||];
        self = Empty;
      }
    in
    p.self <- Pooled p;
    p

  let length p = p.len

  let grow a cap fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  let push p ~src ~sent_at ~id msg =
    let i = p.len in
    if i = Array.length p.msg then begin
      let cap = if i = 0 then 8 else 2 * i in
      p.src <- grow p.src cap 0;
      p.sent_at <- grow p.sent_at cap 0;
      p.msg <- grow p.msg cap msg;
      p.id <- grow p.id cap 0
    end;
    p.src.(i) <- src;
    p.sent_at.(i) <- sent_at;
    p.msg.(i) <- msg;
    p.id.(i) <- id;
    p.len <- i + 1

  (* [Rng.shuffle] tags each element of its list with one draw, in list
     order, and stable-sorts by tag. The list here is the pool newest-first,
     so position [k] is index [len - 1 - k]; a stable sort of the positions
     by their tags gives the same permutation. *)
  let shuffle p rng =
    let len = p.len in
    let tags = Array.init len (fun _ -> Rng.int64 rng) in
    let positions = Array.init len Fun.id in
    Array.stable_sort (fun a b -> Int64.compare tags.(a) tags.(b)) positions;
    if Array.length p.order < len then p.order <- Array.make (Array.length p.msg) 0;
    Array.iteri (fun k pos -> p.order.(k) <- len - 1 - pos) positions;
    p.shuffled <- true

  let view p = p.self

  let ids p = List.init p.len (fun k -> p.id.(index p k))

  (* The cleared slots are overwritten with the first message, so the
     pool keeps one message of its last delivery reachable, not its
     high-water mark of them. *)
  let clear p =
    if p.len > 1 then Array.fill p.msg 1 (p.len - 1) p.msg.(0);
    p.len <- 0;
    p.shuffled <- false
end
