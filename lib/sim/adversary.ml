type ('s, 'm) view = {
  mutable slot : int;
  cfg : Config.t;
  mutable states : 's array Lazy.t;
  mutable corrupted : bool array Lazy.t;
  mutable inboxes : 'm Mail.t array Lazy.t;
  mutable correct_outgoing : 'm Envelope.t list Lazy.t;
}

let states v = Lazy.force v.states
let corrupted v = Lazy.force v.corrupted
let inboxes v = Lazy.force v.inboxes
let correct_outgoing v = Lazy.force v.correct_outgoing

type ('s, 'm) t = {
  name : string;
  corrupt : ('s, 'm) view -> Mewc_prelude.Pid.t list;
  byz_step : pid:Mewc_prelude.Pid.t -> ('s, 'm) view -> 'm Process.send list;
}

type ('s, 'm) factory =
  pki:Mewc_crypto.Pki.t -> secrets:Mewc_crypto.Pki.Secret.t array -> ('s, 'm) t

let const a ~pki:_ ~secrets:_ = a

let honest ~name =
  { name; corrupt = (fun _ -> []); byz_step = (fun ~pid:_ _ -> []) }

let crash ?(at = 0) ~victims () =
  {
    name = Printf.sprintf "crash@%d(%d victims)" at (List.length victims);
    corrupt = (fun view -> if view.slot = at then victims else []);
    byz_step = (fun ~pid:_ _ -> []);
  }

let staggered_crash ~victims ~every =
  if every <= 0 then invalid_arg "Adversary.staggered_crash: every must be > 0";
  let arr = Array.of_list victims in
  {
    name = Printf.sprintf "staggered-crash(%d victims, every %d)" (Array.length arr) every;
    corrupt =
      (fun view ->
        if view.slot mod every = 0 then begin
          let idx = view.slot / every in
          if idx < Array.length arr then [ arr.(idx) ] else []
        end
        else []);
    byz_step = (fun ~pid:_ _ -> []);
  }
