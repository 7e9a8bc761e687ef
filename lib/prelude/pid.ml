type t = int

let equal = Int.equal
let compare = Int.compare
let pp fmt p = Format.fprintf fmt "p%d" p
let all ~n = List.init n Fun.id
let is_valid ~n p = 0 <= p && p < n
let rotating_leader ~n ~phase = phase mod n

let next_led_phase ~n p ~from =
  let r = from mod n in
  if r <= p then from + (p - r) else from + (n - r + p)

module Set = Set.Make (Int)
module Map = Map.Make (Int)
