type 'm send = Unicast of 'm * Mewc_prelude.Pid.t | Broadcast of 'm

type ('s, 'm) t = {
  init : 's;
  step : slot:int -> inbox:'m Mail.t -> 's -> 's * 'm send list;
  wake : (after:int -> 's -> int) option;
}

let never = max_int

let next_boundary ~start ~period ~after =
  if after <= start then start
  else
    let late = (after - start) mod period in
    if late = 0 then after else after + period - late

let broadcast msg = [ Broadcast msg ]

let broadcast_others ~n ~self msg =
  List.filter_map
    (fun p -> if p = self then None else Some (Unicast (msg, p)))
    (Mewc_prelude.Pid.all ~n)

let expand ~n sends =
  List.concat_map
    (function
      | Unicast (msg, dst) -> [ (msg, dst) ]
      | Broadcast msg -> List.init n (fun p -> (msg, p)))
    sends

let filter ~n keep sends =
  List.filter_map
    (fun (msg, dst) -> if keep msg dst then Some (Unicast (msg, dst)) else None)
    (expand ~n sends)

let map f sends =
  List.map
    (function
      | Unicast (msg, dst) -> Unicast (f msg, dst)
      | Broadcast msg -> Broadcast (f msg))
    sends

let silent init =
  {
    init;
    step = (fun ~slot:_ ~inbox:_ s -> (s, []));
    wake = Some (fun ~after:_ _ -> never);
  }
