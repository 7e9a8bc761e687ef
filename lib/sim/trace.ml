module Jsonx = Mewc_prelude.Jsonx

type 'm broadcast = {
  first_id : int;
  src : Mewc_prelude.Pid.t;
  n : int;
  sent_at : int;
  msg : 'm;
  byzantine_sender : bool;
  words : int;
  parents : int list;
}

type 'm send = {
  id : int;
  envelope : 'm Envelope.t;
  byzantine_sender : bool;
  words : int;
  charged : bool;
  parents : int list;
}

let broadcast_send b dst =
  {
    id = b.first_id + dst;
    envelope = { Envelope.src = b.src; dst; sent_at = b.sent_at; msg = b.msg };
    byzantine_sender = b.byzantine_sender;
    words = b.words;
    charged = dst <> b.src;
    parents = b.parents;
  }

let iter_broadcast f b =
  for dst = 0 to b.n - 1 do
    f (broadcast_send b dst)
  done

type 'm event =
  | Slot_start of int
  | Corruption of { slot : int; pid : Mewc_prelude.Pid.t; f : int }
  | Send of 'm send
  | Decision of {
      slot : int;
      pid : Mewc_prelude.Pid.t;
      value : string;
      parents : int list;
    }
  | Link_fault of {
      slot : int;
      id : int;
      src : Mewc_prelude.Pid.t;
      dst : Mewc_prelude.Pid.t;
      fault : Faults.link_fault;
    }
  | Process_fault of {
      slot : int;
      pid : Mewc_prelude.Pid.t;
      event : Faults.process_event;
    }
  | Frame_fault of {
      slot : int;
      src : Mewc_prelude.Pid.t;
      dst : Mewc_prelude.Pid.t;
      seq : int;
      fault : Faults.byte_fault;
    }
  | Decode_reject of {
      slot : int;
      dst : Mewc_prelude.Pid.t;
      reason : string;
    }

type 'm t = {
  enabled : bool;
  mutable rev_events : 'm event list;
  mutable count : int;
  mutable forward : 'm event list option;  (* memoized [events] *)
}

let create ~enabled = { enabled; rev_events = []; count = 0; forward = None }
let enabled t = t.enabled

let record t ev =
  if t.enabled then begin
    t.rev_events <- ev :: t.rev_events;
    t.count <- t.count + 1;
    t.forward <- None
  end

let record_broadcast t b =
  if t.enabled then iter_broadcast (fun s -> record t (Send s)) b

let events t =
  match t.forward with
  | Some evs -> evs
  | None ->
    let evs = List.rev t.rev_events in
    t.forward <- Some evs;
    evs

let length t = t.count

let sends t =
  List.filter_map (function Send s -> Some s | _ -> None) (events t)

let equal_event eq_msg a b =
  match (a, b) with
  | Slot_start s, Slot_start s' -> s = s'
  | Corruption a, Corruption b -> a.slot = b.slot && a.pid = b.pid && a.f = b.f
  | Send a, Send b ->
    a.id = b.id
    && a.byzantine_sender = b.byzantine_sender
    && a.words = b.words && a.charged = b.charged
    && List.equal Int.equal a.parents b.parents
    && a.envelope.Envelope.src = b.envelope.Envelope.src
    && a.envelope.Envelope.dst = b.envelope.Envelope.dst
    && a.envelope.Envelope.sent_at = b.envelope.Envelope.sent_at
    && eq_msg a.envelope.Envelope.msg b.envelope.Envelope.msg
  | Decision a, Decision b ->
    a.slot = b.slot && a.pid = b.pid && String.equal a.value b.value
    && List.equal Int.equal a.parents b.parents
  | Link_fault a, Link_fault b ->
    a.slot = b.slot && a.id = b.id && a.src = b.src && a.dst = b.dst
    && a.fault = b.fault
  | Process_fault a, Process_fault b ->
    a.slot = b.slot && a.pid = b.pid && a.event = b.event
  | Frame_fault a, Frame_fault b ->
    a.slot = b.slot && a.src = b.src && a.dst = b.dst && a.seq = b.seq
    && a.fault = b.fault
  | Decode_reject a, Decode_reject b ->
    a.slot = b.slot && a.dst = b.dst && String.equal a.reason b.reason
  | _ -> false

let equal eq_msg a b = List.equal (equal_event eq_msg) (events a) (events b)

let pp_parents fmt = function
  | [] -> ()
  | ps ->
    Format.fprintf fmt " <-{%s}"
      (String.concat "," (List.map string_of_int ps))

let pp_event pp_msg fmt = function
  | Slot_start s -> Format.fprintf fmt "-- slot %d --" s
  | Corruption { slot; pid; f } ->
    Format.fprintf fmt "[%d] corrupt p%d (f=%d)" slot pid f
  | Send { id; envelope; byzantine_sender; words; charged; parents } ->
    Format.fprintf fmt "%s#%d %a (%d word%s%s)%a"
      (if byzantine_sender then "[byz] " else "      ")
      id (Envelope.pp pp_msg) envelope words
      (if words = 1 then "" else "s")
      (if charged then "" else ", free")
      pp_parents parents
  | Decision { slot; pid; value; parents } ->
    Format.fprintf fmt "[%d] p%d decides %s%a" slot pid value pp_parents parents
  | Link_fault { slot; id; src; dst; fault } ->
    Format.fprintf fmt "[%d] fault #%d p%d->p%d %s" slot id src dst
      (Faults.link_fault_to_string fault)
  | Process_fault { slot; pid; event } ->
    Format.fprintf fmt "[%d] fault p%d %s" slot pid
      (Faults.process_event_to_string event)
  | Frame_fault { slot; src; dst; seq; fault } ->
    Format.fprintf fmt "[%d] frame-fault p%d->p%d #%d %s" slot src dst seq
      (Faults.byte_fault_to_string fault)
  | Decode_reject { slot; dst; reason } ->
    Format.fprintf fmt "[%d] p%d rejects frame: %s" slot dst reason

let pp pp_msg fmt t =
  List.iter (fun ev -> Format.fprintf fmt "%a@." (pp_event pp_msg) ev) (events t)

(* ---- serialization ----------------------------------------------------- *)

let schema = "mewc-trace/4"

let legacy_schema = "mewc-trace/3"
(* pre-wire traces: same event vocabulary minus frame-fault/decode-reject *)

let parents_to_json ps = Jsonx.Arr (List.map (fun p -> Jsonx.Int p) ps)

let event_to_json ~encode = function
  | Slot_start s -> Jsonx.Obj [ ("type", Jsonx.Str "slot"); ("slot", Jsonx.Int s) ]
  | Corruption { slot; pid; f } ->
    Jsonx.Obj
      [
        ("type", Jsonx.Str "corrupt");
        ("slot", Jsonx.Int slot);
        ("pid", Jsonx.Int pid);
        ("f", Jsonx.Int f);
      ]
  | Send
      {
        id;
        envelope = { Envelope.src; dst; sent_at; msg };
        byzantine_sender;
        words;
        charged;
        parents;
      } ->
    Jsonx.Obj
      [
        ("type", Jsonx.Str "send");
        ("id", Jsonx.Int id);
        ("slot", Jsonx.Int sent_at);
        ("src", Jsonx.Int src);
        ("dst", Jsonx.Int dst);
        ("words", Jsonx.Int words);
        ("byzantine", Jsonx.Bool byzantine_sender);
        ("charged", Jsonx.Bool charged);
        ("parents", parents_to_json parents);
        ("msg", Jsonx.Str (encode msg));
      ]
  | Decision { slot; pid; value; parents } ->
    Jsonx.Obj
      [
        ("type", Jsonx.Str "decide");
        ("slot", Jsonx.Int slot);
        ("pid", Jsonx.Int pid);
        ("parents", parents_to_json parents);
        ("value", Jsonx.Str value);
      ]
  | Link_fault { slot; id; src; dst; fault } ->
    Jsonx.Obj
      [
        ("type", Jsonx.Str "link-fault");
        ("slot", Jsonx.Int slot);
        ("id", Jsonx.Int id);
        ("src", Jsonx.Int src);
        ("dst", Jsonx.Int dst);
        ("fault", Jsonx.Str (Faults.link_fault_to_string fault));
      ]
  | Process_fault { slot; pid; event } ->
    Jsonx.Obj
      [
        ("type", Jsonx.Str "process-fault");
        ("slot", Jsonx.Int slot);
        ("pid", Jsonx.Int pid);
        ("event", Jsonx.Str (Faults.process_event_to_string event));
      ]
  | Frame_fault { slot; src; dst; seq; fault } ->
    Jsonx.Obj
      [
        ("type", Jsonx.Str "frame-fault");
        ("slot", Jsonx.Int slot);
        ("src", Jsonx.Int src);
        ("dst", Jsonx.Int dst);
        ("seq", Jsonx.Int seq);
        ("fault", Jsonx.Str (Faults.byte_fault_to_string fault));
      ]
  | Decode_reject { slot; dst; reason } ->
    Jsonx.Obj
      [
        ("type", Jsonx.Str "decode-reject");
        ("slot", Jsonx.Int slot);
        ("dst", Jsonx.Int dst);
        ("reason", Jsonx.Str reason);
      ]

let to_json ~encode t =
  Jsonx.Schema.tag schema
    [ ("events", Jsonx.Arr (List.map (event_to_json ~encode) (events t))) ]

let event_of_json ~decode j =
  let field name get =
    match Option.bind (Jsonx.member name j) get with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  let ( let* ) = Result.bind in
  let parents_field () =
    match Option.bind (Jsonx.member "parents" j) Jsonx.get_list with
    | None -> Error "missing or ill-typed field \"parents\""
    | Some items ->
      List.fold_left
        (fun acc item ->
          let* ps = acc in
          match Jsonx.get_int item with
          | Some p -> Ok (p :: ps)
          | None -> Error "non-integer parent id")
        (Ok []) items
      |> Result.map List.rev
  in
  let* kind = field "type" Jsonx.get_str in
  match kind with
  | "slot" ->
    let* s = field "slot" Jsonx.get_int in
    Ok (Slot_start s)
  | "corrupt" ->
    let* slot = field "slot" Jsonx.get_int in
    let* pid = field "pid" Jsonx.get_int in
    let* f = field "f" Jsonx.get_int in
    Ok (Corruption { slot; pid; f })
  | "send" ->
    let* id = field "id" Jsonx.get_int in
    let* sent_at = field "slot" Jsonx.get_int in
    let* src = field "src" Jsonx.get_int in
    let* dst = field "dst" Jsonx.get_int in
    let* words = field "words" Jsonx.get_int in
    let* byzantine_sender = field "byzantine" Jsonx.get_bool in
    let* charged = field "charged" Jsonx.get_bool in
    let* parents = parents_field () in
    let* msg = field "msg" Jsonx.get_str in
    Ok
      (Send
         {
           id;
           envelope = { Envelope.src; dst; sent_at; msg = decode msg };
           byzantine_sender;
           words;
           charged;
           parents;
         })
  | "decide" ->
    let* slot = field "slot" Jsonx.get_int in
    let* pid = field "pid" Jsonx.get_int in
    let* parents = parents_field () in
    let* value = field "value" Jsonx.get_str in
    Ok (Decision { slot; pid; value; parents })
  | "link-fault" ->
    let* slot = field "slot" Jsonx.get_int in
    let* id = field "id" Jsonx.get_int in
    let* src = field "src" Jsonx.get_int in
    let* dst = field "dst" Jsonx.get_int in
    let* fault_s = field "fault" Jsonx.get_str in
    let* fault = Faults.link_fault_of_string fault_s in
    Ok (Link_fault { slot; id; src; dst; fault })
  | "process-fault" ->
    let* slot = field "slot" Jsonx.get_int in
    let* pid = field "pid" Jsonx.get_int in
    let* event_s = field "event" Jsonx.get_str in
    let* event = Faults.process_event_of_string event_s in
    Ok (Process_fault { slot; pid; event })
  | "frame-fault" ->
    let* slot = field "slot" Jsonx.get_int in
    let* src = field "src" Jsonx.get_int in
    let* dst = field "dst" Jsonx.get_int in
    let* seq = field "seq" Jsonx.get_int in
    let* fault_s = field "fault" Jsonx.get_str in
    let* fault = Faults.byte_fault_of_string fault_s in
    Ok (Frame_fault { slot; src; dst; seq; fault })
  | "decode-reject" ->
    let* slot = field "slot" Jsonx.get_int in
    let* dst = field "dst" Jsonx.get_int in
    let* reason = field "reason" Jsonx.get_str in
    Ok (Decode_reject { slot; dst; reason })
  | other -> Error (Printf.sprintf "unknown event type %S" other)

let of_json ~decode j =
  let ( let* ) = Result.bind in
  let* () =
    match Jsonx.Schema.check schema j with
    | Ok () -> Ok ()
    | Error _ as e ->
      (* accept the pre-wire schema: /4 is a strict superset of /3 *)
      (match Jsonx.Schema.check legacy_schema j with Ok () -> Ok () | Error _ -> e)
  in
  let* events =
    match Option.bind (Jsonx.member "events" j) Jsonx.get_list with
    | Some evs -> Ok evs
    | None -> Error "missing events array"
  in
  let t = create ~enabled:true in
  let* () =
    List.fold_left
      (fun acc ev ->
        let* () = acc in
        let* ev = event_of_json ~decode ev in
        record t ev;
        Ok ())
      (Ok ()) events
  in
  Ok t

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let parents_to_csv ps = String.concat ";" (List.map string_of_int ps)

let to_csv ~encode t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "type,slot,src,dst,pid,id,words,byzantine,charged,parents,detail\n";
  let line kind ~slot ?src ?dst ?pid ?id ?words ?byzantine ?charged
      ?(parents = "") ?(detail = "") () =
    let opt_int = function Some i -> string_of_int i | None -> "" in
    let opt_bool = function Some b -> string_of_bool b | None -> "" in
    Buffer.add_string buf
      (String.concat ","
         [
           kind;
           string_of_int slot;
           opt_int src;
           opt_int dst;
           opt_int pid;
           opt_int id;
           opt_int words;
           opt_bool byzantine;
           opt_bool charged;
           parents;
           csv_escape detail;
         ]);
    Buffer.add_char buf '\n'
  in
  List.iter
    (function
      | Slot_start s -> line "slot" ~slot:s ()
      | Corruption { slot; pid; f } ->
        line "corrupt" ~slot ~pid ~detail:(Printf.sprintf "f=%d" f) ()
      | Send
          {
            id;
            envelope = { Envelope.src; dst; sent_at; msg };
            byzantine_sender;
            words;
            charged;
            parents;
          } ->
        line "send" ~slot:sent_at ~src ~dst ~id ~words
          ~byzantine:byzantine_sender ~charged
          ~parents:(parents_to_csv parents) ~detail:(encode msg) ()
      | Decision { slot; pid; value; parents } ->
        line "decide" ~slot ~pid ~parents:(parents_to_csv parents)
          ~detail:value ()
      | Link_fault { slot; id; src; dst; fault } ->
        line "link-fault" ~slot ~src ~dst ~id
          ~detail:(Faults.link_fault_to_string fault) ()
      | Process_fault { slot; pid; event } ->
        line "process-fault" ~slot ~pid
          ~detail:(Faults.process_event_to_string event) ()
      | Frame_fault { slot; src; dst; seq; fault } ->
        line "frame-fault" ~slot ~src ~dst ~id:seq
          ~detail:(Faults.byte_fault_to_string fault) ()
      | Decode_reject { slot; dst; reason } ->
        line "decode-reject" ~slot ~dst ~detail:reason ())
    (events t);
  Buffer.contents buf
