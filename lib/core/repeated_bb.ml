open Mewc_prelude
open Mewc_crypto
open Mewc_sim

type entry = Committed of string | Skipped

let equal_entry a b =
  match (a, b) with
  | Committed x, Committed y -> String.equal x y
  | Skipped, Skipped -> true
  | Committed _, Skipped | Skipped, Committed _ -> false

let pp_entry fmt = function
  | Committed v -> Format.fprintf fmt "commit(%s)" v
  | Skipped -> Format.pp_print_string fmt "skip"

type msg = { index : int; inner : Adaptive_bb.msg }

let words { inner; _ } = Adaptive_bb.words inner
let pp_msg fmt { index; inner } =
  Format.fprintf fmt "[slot %d] %a" index Adaptive_bb.pp_msg inner

type state = {
  cfg : Config.t;
  pki : Pki.t;
  secret : Pki.Secret.t;
  pid : Pid.t;
  length : int;
  offset : int;
  propose : int -> string;
  instances : Adaptive_bb.state option array;
  pending : Adaptive_bb.msg Envelope.t list array;  (* reversed, per index *)
  due : int array;  (* per index: the next slot its instance acts unprompted *)
  mutable swept : int;  (* [pending] is cleared below this index *)
}

let stride cfg = Adaptive_bb.horizon cfg

let check_offset cfg = function
  | None -> stride cfg
  | Some off ->
    if off < 1 || off > stride cfg then
      invalid_arg
        (Printf.sprintf "Repeated_bb: offset must be in [1, %d], got %d"
           (stride cfg) off);
    off

let horizon ?offset cfg ~length =
  let offset = check_offset cfg offset in
  ((length - 1) * offset) + stride cfg

let proposer cfg i = i mod cfg.Config.n

let init ~cfg ~pki ~secret ~pid ~length ?offset ~propose () =
  if length < 1 then invalid_arg "Repeated_bb.init: length >= 1";
  let offset = check_offset cfg offset in
  {
    cfg;
    pki;
    secret;
    pid;
    length;
    offset;
    propose;
    instances = Array.make length None;
    pending = Array.make length [];
    due = Array.init length (fun i -> i * offset);
    swept = 0;
  }

let log st =
  Array.map
    (fun inst ->
      Option.bind inst (fun i ->
          match Adaptive_bb.decision i with
          | Some (Adaptive_bb.Decided v) -> Some (Committed v)
          | Some Adaptive_bb.No_decision -> Some Skipped
          | None -> None))
    st.instances

let decided_slots st =
  Array.map (fun inst -> Option.bind inst Adaptive_bb.decided_at) st.instances

(* Instance [i] starts at [i * offset] and its inner BB is silent after
   [stride] slots, so only the window of instances whose [stride]-slot life
   (plus one stride of slack for messages in flight at the boundary) covers
   [slot] can make progress: [i * offset <= slot < i * offset + 2 * stride].
   This is the window's low end, the smallest such [i]; integer division
   truncates toward zero, so guard the negative numerator. *)
let window_lo st slot =
  let life = 2 * stride st.cfg in
  if slot < life then 0 else ((slot - life) / st.offset) + 1

let step ~slot ~inbox st =
  let lo = window_lo st slot in
  (* Nothing reads mail below the window: clear the buffers of the indices
     that left it since the last step, and drop such mail on arrival (only
     a Byzantine sender addresses it there). *)
  for i = st.swept to min lo st.length - 1 do
    st.pending.(i) <- []
  done;
  st.swept <- max st.swept lo;
  List.iter
    (fun env ->
      let { index; inner } = env.Envelope.msg in
      if index >= lo && index < st.length then
        st.pending.(index) <-
          {
            Envelope.src = env.Envelope.src;
            dst = env.Envelope.dst;
            sent_at = env.Envelope.sent_at;
            msg = inner;
          }
          :: st.pending.(index))
    (Mail.to_list inbox);
  let out = ref [] in
  (* Stepping just the window keeps a k-slot log linear in k at any
     pipeline depth, and within it only the instances with mail or a due
     slot act: {!Adaptive_bb.wake} names every slot an instance acts
     without a delivery, so stepping it at any other slot with an empty
     inbox is a no-op. *)
  for i = lo to min (st.length - 1) (slot / st.offset) do
    if st.pending.(i) <> [] || st.due.(i) <= slot then begin
      let inst =
        match st.instances.(i) with
        | Some inst -> inst
        | None ->
          let sender = proposer st.cfg i in
          Adaptive_bb.init ~cfg:st.cfg ~pki:st.pki ~secret:st.secret ~pid:st.pid
            ~sender
            ~input:(if Pid.equal st.pid sender then Some (st.propose i) else None)
            ~start_slot:(i * st.offset)
      in
      let inbox = Mail.of_list (List.rev st.pending.(i)) in
      st.pending.(i) <- [];
      let inst', sends = Adaptive_bb.step ~slot ~inbox inst in
      st.instances.(i) <- Some inst';
      st.due.(i) <- Adaptive_bb.wake ~after:(slot + 1) inst';
      out :=
        Process.map (fun m -> { index = i; inner = m }) sends @ !out
    end
  done;
  (st, !out)

(* The least due slot, clamped to [after], among the instances whose window
   still covers it. A due slot is never before its instance's start (an
   unstarted instance is due at its start), so the scan stops at the first
   start past the best answer: the next instance start at or after [after]
   bounds it. *)
let wake ~after st =
  let life = 2 * stride st.cfg in
  let best = ref Process.never in
  let i = ref (window_lo st after) in
  while !i < st.length && !i * st.offset < !best do
    let d = Int.max after st.due.(!i) in
    if d < (!i * st.offset) + life && d < !best then best := d;
    incr i
  done;
  !best

type outcome = {
  logs : entry option array array;
  decided_slots : int option array array;
  corrupted : Pid.t list;
  faulty : Pid.t list;
  f : int;
  words : int;
  slots : int;
  words_per_slot : float;
}

let run ~cfg ?(seed = 1L) ?offset ?options ~length ~propose ~adversary () =
  let n = cfg.Config.n in
  let knob f = Option.bind options f in
  Instances.with_pki ~seed ~n
    ?profile:(knob (fun o -> o.Engine.profile))
    ?metrics:(knob (fun o -> o.Engine.metrics))
  @@ fun pki secrets ->
  let protocol pid =
    {
      Process.init =
        init ~cfg ~pki ~secret:secrets.(pid) ~pid ~length ?offset
          ~propose:(propose pid) ();
      step = (fun ~slot ~inbox st -> step ~slot ~inbox st);
      wake = Some wake;
    }
  in
  let adversary = adversary ~pki ~secrets in
  let res =
    Engine.run ~cfg ?options ~words
      ~horizon:(horizon ?offset cfg ~length)
      ~protocol ~adversary ()
  in
  Pki.release pki;
  let words_total = Meter.correct_words res.Engine.meter in
  {
    logs = Array.map log res.Engine.states;
    decided_slots = Array.map decided_slots res.Engine.states;
    corrupted = res.Engine.corrupted;
    faulty = res.Engine.faulty;
    f = res.Engine.f;
    words = words_total;
    slots = res.Engine.slots;
    words_per_slot = float_of_int words_total /. float_of_int length;
  }
