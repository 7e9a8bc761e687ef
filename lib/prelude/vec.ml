type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length v = v.len

let is_empty v = v.len = 0

let push v x =
  if v.len = Array.length v.data then begin
    let cap = if v.len = 0 then 8 else 2 * v.len in
    let data = Array.make cap x in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let clear v = v.len <- 0

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get: index out of bounds";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set: index out of bounds";
  v.data.(i) <- x

let sorted_ints v =
  let a = Array.init v.len (fun i -> v.data.(i)) in
  Array.sort Int.compare a;
  a

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done
