open Mewc_prelude
open Mewc_sim

type kind = Sync_oracle | Async_domains

let kind_of_string = function
  | "sync" | "sync-oracle" -> Ok Sync_oracle
  | "async" | "async-domains" -> Ok Async_domains
  | s -> Error (Printf.sprintf "unknown runtime %S (expected sync or async)" s)

let kind_to_string = function
  | Sync_oracle -> "sync"
  | Async_domains -> "async"

module Stall = struct
  type t = { clock : Clock.t; budget : float; mutable last : float }

  let create ~clock ~budget = { clock; budget; last = clock.Clock.now () }
  let beat s = s.last <- s.clock.Clock.now ()
  let since_beat s = s.clock.Clock.now () -. s.last
  let expired s = since_beat s > s.budget
end

type stats = {
  frames_sent : int;
  bytes_sent : int;
  encoded_words : int;
  retries : int;
  send_timeouts : int;
  frame_faults : int;
  decode_rejects : int;
  late_frames : int;
  deadline_expiries : int;
}

let zero_stats =
  {
    frames_sent = 0;
    bytes_sent = 0;
    encoded_words = 0;
    retries = 0;
    send_timeouts = 0;
    frame_faults = 0;
    decode_rejects = 0;
    late_frames = 0;
    deadline_expiries = 0;
  }

let add_stats a b =
  {
    frames_sent = a.frames_sent + b.frames_sent;
    bytes_sent = a.bytes_sent + b.bytes_sent;
    encoded_words = a.encoded_words + b.encoded_words;
    retries = a.retries + b.retries;
    send_timeouts = a.send_timeouts + b.send_timeouts;
    frame_faults = a.frame_faults + b.frame_faults;
    decode_rejects = a.decode_rejects + b.decode_rejects;
    late_frames = a.late_frames + b.late_frames;
    deadline_expiries = a.deadline_expiries + b.deadline_expiries;
  }

type 'd outcome = {
  decisions : 'd option array;
  decided_slots : int option array;
  decided_strs : string option array;
  words : int array;
  messages : int array;
  slots : int;
  stepped : int;
  stats : stats;
  wire_events : string Trace.event list;
  stalled : Pid.t list;
  failures : (Pid.t * string) list;
}

let default_delta = 5.0

(* One process's run, executed on its own thread. *)
type 'd proc_result = {
  r_decision : 'd option;
  r_decided_at : int option;
  r_str : string option;
  r_words : int;
  r_msgs : int;
  r_stepped : int;
  r_stats : stats;
  r_events : string Trace.event list;
  r_stalled : bool;
  r_fail : string option;
}

(* Mutable per-process tallies; folded into the immutable [stats] at exit. *)
type tally = {
  mutable t_frames : int;
  mutable t_bytes : int;
  mutable t_enc_words : int;
  mutable t_retries : int;
  mutable t_timeouts : int;
  mutable t_faults : int;
  mutable t_rejects : int;
  mutable t_late : int;
  mutable t_expiries : int;
}

let run (type p s m d) (protocol : (p, s, m, d) Mewc_core.Protocol.t)
    ~(codec : m Codec.t) ~cfg ?(seed = 1L) ?(delta = default_delta) ?deadman
    ?(clock = Clock.real) ?(byte_faults = Faults.byte_none) ~(params : p) () :
    d outcome =
  let module P = (val protocol) in
  P.validate_params ~cfg ~params;
  (match Faults.validate_byte byte_faults with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Runtime.run: %s" e));
  let n = (cfg : Config.t).n in
  let horizon = P.horizon ~cfg ~params in
  let deadman =
    match deadman with
    | Some d -> d
    | None -> Float.max 30.0 (float_of_int horizon *. delta *. 2.0)
  in
  let pki, secrets = Mewc_crypto.Pki.setup ~seed ~n () in
  let hub = Transport.create ~n in
  let marker_seq = 1_000_000 in
  (* A process that dies (say, on a value its codec cannot carry) ends the
     run: its peers stop at their next barrier instead of waiting out one
     δ deadline per remaining slot. *)
  let aborted = Atomic.make false in
  let body pid () : d proc_result =
    let ep = Transport.endpoint hub ~pid in
    let machine = P.machine ~cfg ~pki ~secret:secrets.(pid) ~params ~pid in
    let state = ref machine.Process.init in
    let tl =
      {
        t_frames = 0;
        t_bytes = 0;
        t_enc_words = 0;
        t_retries = 0;
        t_timeouts = 0;
        t_faults = 0;
        t_rejects = 0;
        t_late = 0;
        t_expiries = 0;
      }
    in
    let events = ref [] in
    let words = ref 0 and msgs = ref 0 in
    (* frames buffered for future slots, keyed by the sender-stamped slot *)
    let buffer : (int, Codec.frame list ref) Hashtbl.t = Hashtbl.create 32 in
    (* Per peer, the slot of the latest [Done] marker seen and the
       next-needed slot it carried. Markers are monotone: [Done s] covers
       every barrier <= s, so an older one arriving late changes nothing. *)
    let seen = Array.make n (-1) and hints = Array.make n 0 in
    let note_marker (f : Codec.frame) =
      let q = f.src in
      if q >= 0 && q < n && q <> pid && f.slot > seen.(q) then begin
        seen.(q) <- f.slot;
        hints.(q) <- Codec.marker_next f
      end
    in
    let barrier_complete tau =
      let ok = ref true in
      for q = 0 to n - 1 do
        if q <> pid && seen.(q) < tau then ok := false
      done;
      !ok
    in
    let buffer_frame (f : Codec.frame) =
      match Hashtbl.find_opt buffer f.slot with
      | Some l -> l := f :: !l
      | None -> Hashtbl.replace buffer f.slot (ref [ f ])
    in
    (* Wait for every peer's marker to cover [tau], or the δ deadline, and
       return the next slot to step. FIFO links mean a seen marker
       certifies the peer's frames up to its slot arrived. A completed
       barrier jumps to the earliest slot anyone needs: [hint] is ours, a
       peer still at [tau] named its own, and a peer already past [tau]
       has stepped that slot. A barrier that ended on δ steps [tau + 1]. *)
    let gather tau hint =
      let deadline = clock.Clock.now () +. delta in
      let rec loop () =
        if barrier_complete tau then true
        else if Atomic.get aborted then false
        else
          match Transport.recv ep ~clock ~deadline with
          | `Frame f ->
            if f.kind = Codec.Done then note_marker f else buffer_frame f;
            loop ()
          | `Rejected e ->
            tl.t_rejects <- tl.t_rejects + 1;
            events :=
              Trace.Decode_reject
                { slot = tau + 1; dst = pid; reason = Codec.error_to_string e }
              :: !events;
            loop ()
          | `Timeout ->
            tl.t_expiries <- tl.t_expiries + 1;
            false
      in
      if not (loop ()) then tau + 1
      else begin
        let next = ref hint in
        for q = 0 to n - 1 do
          if q <> pid then
            next := min !next (if seen.(q) > tau then seen.(q) else hints.(q))
        done;
        !next
      end
    in
    (* Everything buffered for slots <= upto becomes this slot's inbox,
       merged with loopback sends and sorted by (src, slot, seq) — the
       lock-step engine's delivery order. *)
    let deliver ~cur_slot ~upto self_msgs =
      let collected = ref [] in
      Hashtbl.iter
        (fun slot frames -> if slot <= upto then collected := (slot, frames) :: !collected)
        buffer;
      let decoded = ref [] in
      List.iter
        (fun (slot, frames) ->
          Hashtbl.remove buffer slot;
          if slot < upto then tl.t_late <- tl.t_late + List.length !frames;
          List.iter
            (fun (f : Codec.frame) ->
              match Codec.decode codec f.payload with
              | Ok msg -> decoded := (f.src, f.slot, f.seq, msg) :: !decoded
              | Error e ->
                tl.t_rejects <- tl.t_rejects + 1;
                events :=
                  Trace.Decode_reject
                    {
                      slot = cur_slot;
                      dst = pid;
                      reason = Codec.error_to_string e;
                    }
                  :: !events)
            !frames)
        !collected;
      let self = List.map (fun (seq, msg) -> (pid, upto, seq, msg)) self_msgs in
      List.concat [ self; !decoded ]
      |> List.sort (fun (s1, sl1, q1, _) (s2, sl2, q2, _) ->
             compare (s1, sl1, q1) (s2, sl2, q2))
      |> List.map (fun (src, sent_at, _, msg) ->
             { Envelope.src; dst = pid; sent_at; msg })
    in
    (* Reorder faults hold a frame back until the link's next write. *)
    let held = Array.make n [] in
    let raw_send ~deadline dst bytes =
      match Transport.send ep ~clock ~deadline ~dst bytes with
      | `Sent r -> tl.t_retries <- tl.t_retries + r
      | `Timeout -> tl.t_timeouts <- tl.t_timeouts + 1
    in
    let link_send ~deadline dst bytes =
      raw_send ~deadline dst bytes;
      let flush = List.rev held.(dst) in
      held.(dst) <- [];
      List.iter (raw_send ~deadline dst) flush
    in
    let send_frame ~deadline ~slot ~seq dst (frame : Codec.frame) =
      let bytes = Codec.encode_frame frame in
      (* Barrier markers ride the same faultable byte path but are runtime
         overhead, not protocol traffic — the stats meter protocol frames
         only, so they reconcile against the lock-step meter. *)
      if frame.kind = Codec.Msg then begin
        tl.t_frames <- tl.t_frames + 1;
        tl.t_bytes <- tl.t_bytes + String.length bytes;
        tl.t_enc_words <-
          tl.t_enc_words + Codec.words_of_bytes (String.length frame.payload)
      end;
      match
        Faults.byte_fate byte_faults ~slot ~src:pid ~dst ~seq
          ~len:(String.length bytes)
      with
      | None -> link_send ~deadline dst bytes
      | Some fault ->
        tl.t_faults <- tl.t_faults + 1;
        events :=
          Trace.Frame_fault { slot; src = pid; dst; seq; fault } :: !events;
        (match fault with
        | Faults.Reorder -> held.(dst) <- bytes :: held.(dst)
        | _ -> link_send ~deadline dst (Faults.apply_byte_fault fault bytes))
    in
    let send_markers ~slot ~next =
      let payload = Codec.marker_payload ~next in
      let deadline = clock.Clock.now () +. delta in
      for dst = 0 to n - 1 do
        if dst <> pid then
          send_frame ~deadline ~slot ~seq:marker_seq dst
            { Codec.kind = Codec.Done; src = pid; dst; slot; seq = marker_seq; payload }
      done
    in
    let stall = Stall.create ~clock ~budget:deadman in
    let stalled = ref false in
    let self_pending = ref [] in
    let stepped = ref 0 in
    let slot = ref 0 in
    while !slot < horizon && (not !stalled) && not (Atomic.get aborted) do
      let tau = !slot in
      if Stall.expired stall then stalled := true
      else begin
        let inbox =
          if tau = 0 then Mail.empty
          else
            Mail.of_list
              (deliver ~cur_slot:tau ~upto:(tau - 1) (List.rev !self_pending))
        in
        self_pending := [];
        let state', sends = machine.Process.step ~slot:tau ~inbox !state in
        state := state';
        incr stepped;
        let deadline = clock.Clock.now () +. delta in
        (* One copy of [msg] as send [seq], from its encoding. *)
        let send_copy ~seq ~words:w payload dst =
          if dst = pid then begin
            (* Loopback still crosses the codec — the bytes discipline is
               uniform — but is never charged or byte-faulted, matching
               the engine's free self-delivery. *)
            match Codec.decode codec payload with
            | Ok msg' -> self_pending := (seq, msg') :: !self_pending
            | Error e ->
              failwith
                (Printf.sprintf "codec round-trip failure on %s: %s" P.name
                   (Codec.error_to_string e))
          end
          else begin
            words := !words + w;
            msgs := !msgs + 1;
            send_frame ~deadline ~slot:tau ~seq dst
              { Codec.kind = Codec.Msg; src = pid; dst; slot = tau; seq; payload }
          end
        in
        (* [seq] runs over the sends as [Process.expand] lists them; a
           broadcast is encoded once for all of its copies. *)
        let seq = ref 0 in
        List.iter
          (function
            | Process.Unicast (msg, dst) ->
              send_copy ~seq:!seq ~words:(P.words msg) (Codec.encode codec msg)
                dst;
              incr seq
            | Process.Broadcast msg ->
              let payload = Codec.encode codec msg and w = P.words msg in
              for dst = 0 to n - 1 do
                send_copy ~seq:(!seq + dst) ~words:w payload dst
              done;
              seq := !seq + n)
          sends;
        (* The slot this process needs next: the following one if it sent
           anything, else its own timer's (with no wake query, every
           slot). Slots nobody needs are skipped by everyone, and there
           the lock-step engine steps nobody either. *)
        let next =
          match (sends, machine.Process.wake) with
          | [], Some wake -> wake ~after:(tau + 1) state'
          | _ -> tau + 1
        in
        Stall.beat stall;
        if tau + 1 >= horizon then slot := horizon
        else begin
          send_markers ~slot:tau ~next:(min next horizon);
          slot := gather tau next
        end
      end
    done;
    (* Past the last slot anyone needs, a process leaves, often well before
       the horizon. Its last marker, [Done horizon], covers every barrier
       of a peer still behind on a lost marker, which would otherwise wait
       out δ in every slot left. *)
    if !slot >= horizon && not (!stalled || Atomic.get aborted) then
      send_markers ~slot:horizon ~next:(horizon + 1);
    {
      r_decision = P.decision !state;
      r_decided_at = P.decided_at !state;
      r_str = P.decided_str !state;
      r_words = !words;
      r_msgs = !msgs;
      r_stepped = !stepped;
      r_stats =
        {
          frames_sent = tl.t_frames;
          bytes_sent = tl.t_bytes;
          encoded_words = tl.t_enc_words;
          retries = tl.t_retries;
          send_timeouts = tl.t_timeouts;
          frame_faults = tl.t_faults;
          decode_rejects = tl.t_rejects;
          late_frames = tl.t_late;
          deadline_expiries = tl.t_expiries;
        };
      r_events = List.rev !events;
      r_stalled = !stalled;
      r_fail = None;
    }
  in
  let guarded pid () =
    try body pid () with
    | e ->
      Atomic.set aborted true;
      {
        r_decision = None;
        r_decided_at = None;
        r_str = None;
        r_words = 0;
        r_msgs = 0;
        r_stepped = 0;
        r_stats = zero_stats;
        r_events = [];
        r_stalled = true;
        r_fail = Some (Printexc.to_string e);
      }
  in
  (* Process 0 runs on the calling thread, every other process on a thread
     of the calling domain that ends with the run. A domain of its own per
     process would outlive the run or cost a join, and on OCaml 5 every
     live domain takes part in every minor collection of the program. *)
  let slots = Array.make n None in
  let lane pid = slots.(pid) <- Some (guarded pid ()) in
  let started = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Thread.join !started;
      Transport.close hub)
    (fun () ->
      (try
         for pid = 1 to n - 1 do
           started := Thread.create lane pid :: !started
         done
       with e ->
         Atomic.set aborted true;
         raise e);
      lane 0);
  Mewc_crypto.Pki.release pki;
  let results = Array.map Option.get slots in
  let event_key : string Trace.event -> int * int * int * int = function
    | Trace.Frame_fault { slot; src; dst; seq; _ } -> (slot, 0, (src * 4096) + dst, seq)
    | Trace.Decode_reject { slot; dst; _ } -> (slot, 1, dst, 0)
    | _ -> (max_int, 2, 0, 0)
  in
  {
    decisions = Array.map (fun r -> r.r_decision) results;
    decided_slots = Array.map (fun r -> r.r_decided_at) results;
    decided_strs = Array.map (fun r -> r.r_str) results;
    words = Array.map (fun r -> r.r_words) results;
    messages = Array.map (fun r -> r.r_msgs) results;
    slots = horizon;
    stepped = Array.fold_left (fun acc r -> max acc r.r_stepped) 0 results;
    stats = Array.fold_left (fun acc r -> add_stats acc r.r_stats) zero_stats results;
    wire_events =
      Array.to_list results
      |> List.concat_map (fun r -> r.r_events)
      |> List.sort (fun a b -> compare (event_key a) (event_key b));
    stalled =
      Array.to_list results
      |> List.mapi (fun pid r -> (pid, r.r_stalled))
      |> List.filter_map (fun (pid, s) -> if s then Some pid else None);
    failures =
      Array.to_list results
      |> List.mapi (fun pid r -> (pid, r.r_fail))
      |> List.filter_map (fun (pid, f) -> Option.map (fun m -> (pid, m)) f);
  }
