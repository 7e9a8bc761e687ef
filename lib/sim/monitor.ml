type violation = { monitor : string; slot : int; reason : string }

exception Violation of violation

let pp_violation fmt { monitor; slot; reason } =
  Format.fprintf fmt "monitor %S violated at slot %d: %s" monitor slot reason

type severity = Safety | Liveness

type 'm t = {
  name : string;
  severity : severity;
  on_event : 'm Trace.event -> unit;
  on_broadcast : 'm Trace.broadcast -> (int * violation) option;
  on_finish : slots:int -> unit;
  provenance : bool;
}

exception Copy_violation of int * violation

let make ~name ?(severity = Safety) ?(provenance = false) ?on_event
    ?on_broadcast ?on_finish () =
  let violation ~slot reason = { monitor = name; slot; reason } in
  let violate ~slot reason = raise (Violation (violation ~slot reason)) in
  let on_event =
    match on_event with None -> fun _ -> () | Some f -> f ~violate
  in
  {
    name;
    severity;
    on_event;
    on_broadcast =
      (match on_broadcast with
      | Some f -> (
        let violate ~copy ~slot reason =
          raise (Copy_violation (copy, violation ~slot reason))
        in
        fun b ->
          match f ~violate b with
          | () -> None
          | exception Copy_violation (copy, v) -> Some (copy, v))
      | None -> (
        fun b ->
          let copy = ref 0 in
          match
            Trace.iter_broadcast
              (fun s ->
                on_event (Trace.Send s);
                incr copy)
              b
          with
          | () -> None
          | exception Violation v -> Some (!copy, v)));
    on_finish =
      (match on_finish with
      | None -> fun ~slots:_ -> ()
      | Some f -> f ~violate);
    provenance;
  }

(* For the monitors that read no sends. *)
let ignore_broadcast ~violate:_ (_ : _ Trace.broadcast) = ()

(* The violation the copies' [Send] events would have raised: the earliest
   copy's, and the first monitor's at a tie. *)
let earliest monitors b =
  List.fold_left
    (fun first m ->
      match (m.on_broadcast b, first) with
      | None, _ -> first
      | Some (copy, _), Some (c, _) when copy >= c -> first
      | v, _ -> v)
    None monitors

let broadcast monitors b =
  Option.iter (fun (_, v) -> raise (Violation v)) (earliest monitors b)

let split ms = List.partition (fun m -> m.severity = Safety) ms

let all monitors =
  {
    name = String.concat "+" (List.map (fun m -> m.name) monitors);
    severity =
      (if List.exists (fun m -> m.severity = Safety) monitors then Safety
       else Liveness);
    on_event = (fun ev -> List.iter (fun m -> m.on_event ev) monitors);
    on_broadcast = earliest monitors;
    on_finish = (fun ~slots -> List.iter (fun m -> m.on_finish ~slots) monitors);
    provenance = List.exists (fun m -> m.provenance) monitors;
  }

let replay monitors ~slots trace =
  let m = all monitors in
  List.iter m.on_event (Trace.events trace);
  m.on_finish ~slots

(* ---- classification ----------------------------------------------------- *)

type classification = Safe_live | Safe_stalled of violation | Unsafe of violation

let pp_classification fmt = function
  | Safe_live -> Format.fprintf fmt "safe-live"
  | Safe_stalled v -> Format.fprintf fmt "safe-stalled (%a)" pp_violation v
  | Unsafe v -> Format.fprintf fmt "UNSAFE (%a)" pp_violation v

let classify ~run ~liveness =
  match run () with
  | exception Violation v -> (None, Unsafe v)
  | x -> (
    match liveness x with
    | () -> (Some x, Safe_live)
    | exception Violation v -> (Some x, Safe_stalled v))

(* ---- the standard invariants ------------------------------------------- *)

let corruption_budget ~cfg =
  let seen = Hashtbl.create 8 in
  let count = ref 0 in
  let current_slot = ref 0 in
  make ~name:"corruption-budget" ~on_broadcast:ignore_broadcast
    ~on_event:(fun ~violate -> function
      | Trace.Slot_start s -> current_slot := s
      | Trace.Corruption { slot; pid; f } ->
        if slot <> !current_slot then
          violate ~slot
            (Printf.sprintf "corruption stamped slot %d inside slot %d" slot
               !current_slot);
        if not (Mewc_prelude.Pid.is_valid ~n:cfg.Config.n pid) then
          violate ~slot (Printf.sprintf "corrupted unknown process %d" pid);
        if Hashtbl.mem seen pid then
          violate ~slot (Printf.sprintf "p%d corrupted twice" pid);
        Hashtbl.add seen pid ();
        incr count;
        if f <> !count then
          violate ~slot
            (Printf.sprintf "corruption count stamped %d, observed %d" f !count);
        if !count > cfg.Config.t then
          violate ~slot
            (Printf.sprintf "budget exceeded: %d corruptions > t=%d" !count
               cfg.Config.t)
      | _ -> ())
    ()

let agreement () =
  let decided : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let first : (int * string) option ref = ref None in
  make ~name:"agreement" ~on_broadcast:ignore_broadcast
    ~on_event:(fun ~violate -> function
      | Trace.Decision { slot; pid; value; _ } -> (
        (match Hashtbl.find_opt decided pid with
        | Some prior when not (String.equal prior value) ->
          violate ~slot
            (Printf.sprintf "p%d re-decided %s after deciding %s" pid value prior)
        | _ -> ());
        Hashtbl.replace decided pid value;
        match !first with
        | None -> first := Some (pid, value)
        | Some (p0, v0) ->
          if not (String.equal v0 value) then
            violate ~slot
              (Printf.sprintf "p%d decided %s but p%d decided %s" pid value p0 v0))
      | _ -> ())
    ()

let termination ~cfg =
  (* Only processes the model still promises anything about must decide:
     corrupted pids are the adversary's, and any pid touched by an injected
     process fault (crash, omission, down phase) has no termination
     guarantee under the stressed model. *)
  let decided = Hashtbl.create 8 in
  let exempt = Hashtbl.create 8 in
  make ~name:"termination" ~severity:Liveness ~on_broadcast:ignore_broadcast
    ~on_event:(fun ~violate:_ -> function
      | Trace.Corruption { pid; _ } -> Hashtbl.replace exempt pid ()
      | Trace.Process_fault { pid; _ } -> Hashtbl.replace exempt pid ()
      | Trace.Decision { pid; _ } -> Hashtbl.replace decided pid ()
      | _ -> ())
    ~on_finish:(fun ~violate ~slots ->
      List.iter
        (fun p ->
          if not (Hashtbl.mem exempt p || Hashtbl.mem decided p) then
            violate ~slot:slots
              (Printf.sprintf "termination: correct p%d never decided" p))
        (Mewc_prelude.Pid.all ~n:cfg.Config.n))
    ()

let word_bound ~name ~bound =
  let f = ref 0 in
  let words = ref 0 in
  let check ~violate ~slot =
    let b = bound ~f:!f in
    if !words > b then
      violate ~slot
        (Printf.sprintf "correct senders spent %d words > bound %d at f=%d"
           !words b !f)
  in
  make ~name
    ~on_event:(fun ~violate -> function
      | Trace.Corruption { f = f'; _ } -> f := f'
      | Trace.Send { envelope; byzantine_sender; words = w; charged; _ } ->
        if charged && not byzantine_sender then begin
          words := !words + w;
          check ~violate ~slot:envelope.Envelope.sent_at
        end
      | _ -> ())
    ~on_broadcast:(fun ~violate (b : _ Trace.broadcast) ->
      if b.n > 1 && not b.byzantine_sender then begin
        (* The n − 1 charged copies at once. Past the bound, stop at the
           copy that crossed it, as the per-copy check would have. *)
        let before = !words and w = b.words in
        let bnd = bound ~f:!f in
        if before + ((b.n - 1) * w) <= bnd then words := before + ((b.n - 1) * w)
        else begin
          let k = if w <= 0 then 1 else (max 0 (bnd - before) / w) + 1 in
          words := before + (k * w);
          (* The k-th charged copy: pids below the sender, then above. *)
          let copy = if k <= b.src then k - 1 else k in
          check ~violate:(violate ~copy) ~slot:b.sent_at
        end
      end)
    ~on_finish:(fun ~violate ~slots -> check ~violate ~slot:slots)
    ()

let early_termination ~name ~bound =
  let f = ref 0 in
  let last_decision = ref None in
  make ~name ~severity:Liveness ~on_broadcast:ignore_broadcast
    ~on_event:(fun ~violate:_ -> function
      | Trace.Corruption { f = f'; _ } -> f := f'
      | Trace.Decision { slot; _ } -> (
        match !last_decision with
        | Some s when s >= slot -> ()
        | _ -> last_decision := Some slot)
      | _ -> ())
    ~on_finish:(fun ~violate ~slots:_ ->
      match !last_decision with
      | None -> ()
      | Some s ->
        let b = bound ~f:!f in
        if s > b then
          violate ~slot:s
            (Printf.sprintf "last decision at slot %d > bound %d at f=%d" s b !f))
    ()

(* Sends are packed as four ints — src, dst, sent_at, counted words — into
   fixed-size chunks, so recording one costs four stores and no allocation
   beyond a fresh chunk every [chunk_sends] sends. *)
let chunk_sends = 1024

(* The destination column of a row that stands for a whole broadcast. *)
let broadcast_row = -1

let cone_words_bound ~cfg ~name ?(check_every = 1) ~bound () =
  if check_every < 1 then invalid_arg "cone_words_bound: check_every < 1";
  let n = cfg.Config.n in
  let f = ref 0 in
  (* Full chunks newest-first, then the chunk being filled: walking [current]
     down from [fill] and then each full chunk from its end visits sends in
     descending id order — sent slots never increase along the walk, which
     is exactly what the backward frontier pass needs. *)
  let full = ref [] in
  let current = ref (Array.make (4 * chunk_sends) 0) in
  let fill = ref 0 in
  (* Counted words over the whole run so far. *)
  let total = ref 0 in
  let decisions_seen = ref 0 in
  let push ~src ~dst ~sent_at ~counted =
    if !fill = chunk_sends then begin
      full := !current :: !full;
      current := Array.make (4 * chunk_sends) 0;
      fill := 0
    end;
    let c = !current and o = 4 * !fill in
    c.(o) <- src;
    c.(o + 1) <- dst;
    c.(o + 2) <- sent_at;
    c.(o + 3) <- counted;
    incr fill
  in
  (* A [frontier] entry at least this covers a delivery at [slot]; the
     receivers of a broadcast row are every pid. *)
  let covering frontier slot =
    let k = ref 0 in
    for q = 0 to Array.length frontier - 1 do
      if frontier.(q) >= slot then incr k
    done;
    !k
  in
  make ~name
    ~on_broadcast:(fun ~violate:_ (b : _ Trace.broadcast) ->
      (* One row for the n copies: destination [broadcast_row], and the
         words of one charged copy. *)
      let counted = if b.byzantine_sender then 0 else b.words in
      total := !total + ((b.n - 1) * counted);
      push ~src:b.src ~dst:broadcast_row ~sent_at:b.sent_at ~counted)
    ~on_event:(fun ~violate -> function
      | Trace.Corruption { f = f'; _ } -> f := f'
      | Trace.Send
          {
            envelope = { Envelope.src; dst; sent_at; _ };
            byzantine_sender;
            words;
            charged;
            _;
          } ->
        (* Every message propagates causality, but only charged sends by
           correct processes count words — the paper's measure. *)
        let counted = if charged && not byzantine_sender then words else 0 in
        total := !total + counted;
        push ~src ~dst ~sent_at ~counted
      | Trace.Decision { slot; pid; _ } ->
        incr decisions_seen;
        let b =
          if (!decisions_seen - 1) mod check_every = 0 then bound ~f:!f
          else max_int
        in
        (* A cone is a subset of the run's sends, so it spends at most
           [!total]: within the bound, no cone can exceed it and the pass
           would find nothing. *)
        if !total > b then begin
          (* Frontier pass: [frontier.(q)] is the latest slot of [q]'s steps
             inside the decision's causal past. A message sent at slot [k]
             and delivered at [k + 1] is in the cone iff its receiver's
             frontier covers the delivery slot; once in, it pulls the
             sender's frontier back to [k]. One pass in descending sent-slot
             order settles every frontier: a slot-[k] send can only admit
             messages sent strictly earlier, which the walk has not reached
             yet. O(sends + n) per checked decision. *)
          let frontier = Array.make n min_int in
          frontier.(pid) <- slot;
          let cone_words = ref 0 in
          let walk c upto =
            for i = upto - 1 downto 0 do
              let o = 4 * i in
              let src = c.(o) and dst = c.(o + 1) and sent_at = c.(o + 2) in
              if dst = broadcast_row then begin
                (* The copies of a broadcast share a sent slot, so pulling
                   the sender's frontier back to it admits none of them:
                   the frontiers before the row settle all n. The self
                   copy is in the cone iff the sender's frontier covers
                   it, and it counts no words. *)
                let inside = covering frontier (sent_at + 1) in
                if inside > 0 then begin
                  let charged =
                    if frontier.(src) >= sent_at + 1 then inside - 1 else inside
                  in
                  cone_words := !cone_words + (charged * c.(o + 3));
                  if sent_at > frontier.(src) then frontier.(src) <- sent_at
                end
              end
              else if sent_at + 1 <= frontier.(dst) then begin
                cone_words := !cone_words + c.(o + 3);
                if sent_at > frontier.(src) then frontier.(src) <- sent_at
              end
            done
          in
          walk !current !fill;
          List.iter (fun c -> walk c chunk_sends) !full;
          if !cone_words > b then
            violate ~slot
              (Printf.sprintf
                 "p%d's decision has a causal cone of %d words > bound %d at \
                  f=%d"
                 pid !cone_words b !f)
        end
      | _ -> ())
    ()

let metering () =
  (* Indexed by pid, grown on demand: the monitor never learns n. *)
  let corrupted = ref [||] in
  let is_corrupted p = p >= 0 && p < Array.length !corrupted && !corrupted.(p) in
  let check_flag ~violate ~src ~sent_at byzantine_sender =
    let byz = is_corrupted src in
    if byz <> byzantine_sender then
      violate ~slot:sent_at
        (Printf.sprintf
           "p%d is %scorrupted but its send is flagged %sbyzantine" src
           (if byz then "" else "not ")
           (if byzantine_sender then "" else "not "))
  in
  make ~name:"metering"
    ~on_broadcast:(fun ~violate (b : _ Trace.broadcast) ->
      (* Every copy is charged but the self copy, by construction; the
         word and flag checks fail at the first copy if at all. *)
      if b.words < 1 then
        violate ~copy:0 ~slot:b.sent_at
          (Printf.sprintf "p%d -> p%d carries %d words (< 1)" b.src 0 b.words);
      check_flag ~violate:(violate ~copy:0) ~src:b.src ~sent_at:b.sent_at
        b.byzantine_sender)
    ~on_event:(fun ~violate -> function
      | Trace.Corruption { pid; _ } ->
        if pid >= Array.length !corrupted then begin
          let grown = Array.make (max (pid + 1) (2 * Array.length !corrupted)) false in
          Array.blit !corrupted 0 grown 0 (Array.length !corrupted);
          corrupted := grown
        end;
        !corrupted.(pid) <- true
      | Trace.Send { envelope = { Envelope.src; dst; sent_at; _ }; byzantine_sender; words; charged; _ }
        ->
        if words < 1 then
          violate ~slot:sent_at
            (Printf.sprintf "p%d -> p%d carries %d words (< 1)" src dst words);
        if src = dst && charged then
          violate ~slot:sent_at
            (Printf.sprintf "self-send of p%d was charged" src);
        if src <> dst && not charged then
          violate ~slot:sent_at
            (Printf.sprintf "p%d -> p%d crossed a link uncharged" src dst);
        check_flag ~violate ~src ~sent_at byzantine_sender
      | _ -> ())
    ()
