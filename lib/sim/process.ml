type ('s, 'm) t = {
  init : 's;
  step :
    slot:int -> inbox:'m Envelope.t list -> 's -> 's * ('m * Mewc_prelude.Pid.t) list;
  wake : (after:int -> 's -> int) option;
}

let never = max_int

let next_boundary ~start ~period ~after =
  if after <= start then start
  else
    let late = (after - start) mod period in
    if late = 0 then after else after + period - late

let broadcast ~n msg = List.init n (fun p -> (msg, p))

let broadcast_others ~n ~self msg =
  List.filter_map
    (fun p -> if p = self then None else Some (msg, p))
    (Mewc_prelude.Pid.all ~n)

let silent init =
  {
    init;
    step = (fun ~slot:_ ~inbox:_ s -> (s, []));
    wake = Some (fun ~after:_ _ -> never);
  }
