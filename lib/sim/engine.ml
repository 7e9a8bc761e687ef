open Mewc_prelude

type ('s, 'm) outcome = {
  states : 's array;
  corrupted : Pid.t list;
  f : int;
  faulty : Pid.t list;
  meter : Meter.t;
  trace : 'm Trace.t;
  slots : int;
}

type scheduler = [ `Legacy | `Event_driven ]

let scheduler_to_string = function
  | `Legacy -> "legacy"
  | `Event_driven -> "event-driven"

type ('s, 'm) options = {
  record_trace : bool;
  shuffle_seed : int64 option;
  monitors : 'm Monitor.t list;
  decided : ('s -> string option) option;
  profile : Profile.t option;
  faults : Faults.plan;
  scheduler : scheduler;
  shards : int;
  metrics : Mewc_obs.Metrics.t option;
}

let default_options =
  {
    record_trace = false;
    shuffle_seed = None;
    monitors = [];
    decided = None;
    profile = None;
    faults = Faults.none;
    scheduler = `Event_driven;
    shards = 1;
    metrics = None;
  }

(* Live-telemetry handles, resolved once per run. Every recorded quantity is
   scheduler- and shard-invariant by construction: all increments happen on
   the main domain, in the sequential post/merge phases, and count the same
   events the dense and event-driven modes produce byte-identically. *)
type engine_meters = {
  slots_c : Mewc_obs.Metrics.counter;
  messages_c : Mewc_obs.Metrics.counter;
  words_c : Mewc_obs.Metrics.counter;
  corruptions_c : Mewc_obs.Metrics.counter;
  decisions_c : Mewc_obs.Metrics.counter;
  link_faults_c : Mewc_obs.Metrics.counter;
  slot_words_h : Mewc_obs.Metrics.histogram;
}

let engine_meters_of registry =
  Option.map
    (fun reg ->
      let open Mewc_obs.Metrics in
      {
        slots_c = counter reg "engine.slots";
        messages_c = counter reg "engine.messages";
        words_c = counter reg "engine.words";
        corruptions_c = counter reg "engine.corruptions";
        decisions_c = counter reg "engine.decisions";
        link_faults_c = counter reg "engine.link_faults";
        slot_words_h = histogram reg "engine.slot_words";
      })
    registry

let mincr meters get =
  match meters with None -> () | Some m -> Mewc_obs.Metrics.incr (get m)

(* ---- sharded step phase -------------------------------------------------

   Within a slot, [Process.step ~slot ~inbox state] reads nothing but its
   own state and inbox — every cross-process effect flows through [post].
   That makes the step phase (where all the crypto lives) embarrassingly
   parallel: stripe the slot's ascending active set across domains (lane
   [w] takes entries [w], [w + lanes], ...), have each lane compute its
   processes' results — the new state and the raw sends — into distinct
   slots of a results array, then merge on the main domain in ascending
   pid order. Everything order-sensitive (envelope ids, meter charges,
   trace events, provenance parents, shuffle draws, delayed buckets)
   happens in the merge and the sequential [post] phase, so a sharded run
   is byte-identical to the sequential one by construction. The barrier is
   {!Pool.exec} on a persistent worker set: one mutex/condvar round-trip
   per slot, no domain spawns. *)

type ('s, 'm) step_out =
  | Skipped
  | Stepped of 's * 'm Process.send list
  | Failed of exn

let compute_active_steps ws ~pids ~count ~step_one results =
  let lanes = Pool.size ws in
  ignore
    (Pool.exec ws
       (Array.init lanes (fun w () ->
            let i = ref w in
            while !i < count do
              let p = pids.(!i) in
              results.(p) <- step_one p;
              i := !i + lanes
            done)))

(* Writes the members of [set] in ascending order to the front of [out]
   (an [n]-array reused slot after slot), empties the set, and returns how
   many there were; [flag] marks the members. Past n/8 members one pass
   over the flags beats sorting. *)
let drain_ascending set flag out =
  let len = Vec.length set in
  let n = Array.length flag in
  if len > n / 8 then begin
    let k = ref 0 in
    for p = 0 to n - 1 do
      if flag.(p) then begin
        flag.(p) <- false;
        out.(!k) <- p;
        incr k
      end
    done
  end
  else
    Array.iteri
      (fun i p ->
        flag.(p) <- false;
        out.(i) <- p)
      (Vec.sorted_ints set);
  Vec.clear set;
  len

(* The slot loop. A slot's cost scales with the processes that actually
   have something to do (a delivery, or a wake filed for the slot) instead
   of with [n]. The load-bearing identities:

   - {e Delivery order and shuffle draws.} Only processes with pooled
     messages are visited, in ascending pid order. Shuffling an empty inbox
     draws nothing from the RNG, so skipping empty pools replays the shuffle
     stream of a pass over every process. Pools are {!Mail.Pool}s appended
     in post order; a process's inbox is a view of its pool, read in post
     order or in the shuffled order {!Mail.Pool.shuffle} draws.

   - {e Pool lifetime.} A pool and the shared broadcast log are read in
     place by every view for the whole slot — by the correct step, the
     adversary's [inboxes] and the Byzantine step — and emptied only after
     the Byzantine step, just before this slot's posts refill them. So a
     unicast copies four fields into the destination's vectors, a reliable
     broadcast appends one log entry whatever [n] is, and a delivery builds
     nothing. A slot whose log is nonempty delivers to every pid, and each
     view merges its pool with the log by envelope id, which is exact
     because ids grow in post order. Fault plans post every copy into the
     pools and leave the log empty, so delayed flushes, which append older
     ids, never meet it; a shuffled pool copies the log in before it
     draws.

   - {e Step order and event order.} Active processes step in ascending pid
     order, so send ids, meter charges and trace events interleave exactly
     as if every process stepped. Skipped steps are no-ops by the
     [Process.wake] contract, so their absence is invisible to states and
     traces.

   - {e The wake calendar.} A process is active in a slot iff it has a
     delivery or the slot is the one its next-wake query named. The query
     runs once at start and once after each of the process's steps, so a
     quiet process costs nothing per slot and a quiet slot costs O(1). The
     query reads only the process's own state, which nothing but a step
     changes, so the filed slot is the first slot at which an empty-inbox
     step would act.

   - {e Provenance.} [inbox_ids] is maintained as a persistent array that
     is [[]] for every process without deliveries this slot, so [parents]
     of sends (including byzantine sends and timer-driven sends) are the
     ids of exactly this slot's deliveries. The lists are built only when
     something reads them: a recording trace, or a monitor that declares
     [provenance]. Otherwise every event carries [parents = []].

   - {e Quiet slots.} The phases, the adversary view and its thunks are
     built once per run. A phase runs, and opens its profiler span, only
     when it has input, so a slot with no delivery, no filed wake and no
     corrupted process costs its clock, its [Slot_start] event and the
     corruption query, and allocates only that event. The query opens no
     span even when profiled: it is timed and charged in bulk.

   The dense mode ([`Legacy]) is this same loop over machines whose [wake]
   is forced to [None]: the calendar then files every live correct process
   for every slot (a down one re-files, a corrupted one drops), so every
   live correct process steps every slot and the decision scan over the
   active set covers every state that can have changed. It is the test
   oracle for the wake queries: a query that answers too late diverges
   from it. *)
let run_loop ~workers ~cfg ~options ~words ~horizon ~protocol ~adversary () =
  let {
    record_trace;
    shuffle_seed;
    monitors;
    decided;
    profile;
    faults;
    scheduler;
    shards = _;
    metrics;
  } =
    options
  in
  let meters = engine_meters_of metrics in
  let slot_words = ref 0 in
  (* A phase is a function built once per run and handed its argument, so
     an unprofiled slot builds no closure; only a profiled one builds the
     span's. *)
  let timed category name phase x =
    match profile with
    | None -> phase x
    | Some p -> Profile.span p ~category name (fun () -> phase x)
  in
  (* The corruption query runs in every slot, and a span costs more than
     the query, so a profiled run times it with the profile's clock and
     charges [adversary.corrupt] in bulk, when the run ends or raises. *)
  let corrupt_row =
    Option.map
      (fun p -> (p, Profile.bulk p ~category:Profile.Adversary "adversary.corrupt"))
      profile
  in
  let corrupt_query view =
    match corrupt_row with
    | None -> adversary.Adversary.corrupt view
    | Some (p, row) ->
      let since = Profile.elapsed p in
      let ps = adversary.Adversary.corrupt view in
      Profile.bulk_add row ~since;
      ps
  in
  let n = cfg.Config.n in
  let shuffle_rng = Option.map Rng.create shuffle_seed in
  (* [None] when the plan is empty, so the reliable path is byte-identical
     to a faultless build: no extra draws, allocations, or branches that
     could perturb traces. *)
  let faults_rt =
    if Faults.is_none faults then None else Some (Faults.start ~n faults)
  in
  let faulty_seen = Array.make n false in
  let faulty_order = ref [] in
  let machines =
    match scheduler with
    | `Event_driven -> Array.init n protocol
    | `Legacy ->
      Array.init n (fun p -> { (protocol p) with Process.wake = None })
  in
  let states = Array.map (fun m -> m.Process.init) machines in
  let corrupted = Array.make n false in
  let corruption_order = ref [] in
  let corruption_count = ref 0 in
  let meter = Meter.create () in
  let trace = Trace.create ~enabled:record_trace in
  (* Events are only materialized when someone is looking: a recording trace
     or at least one monitor. The meter's per-slot series is always on. *)
  let observing = record_trace || monitors <> [] in
  (* The [parents] id lists are built only when something reads them: a
     recording trace, or a monitor that declares it. *)
  let provenance =
    record_trace || List.exists (fun m -> m.Monitor.provenance) monitors
  in
  let rec notify ev = function
    | [] -> ()
    | m :: rest ->
      m.Monitor.on_event ev;
      notify ev rest
  in
  let emit ev =
    Trace.record trace ev;
    notify ev monitors
  in
  let emit_broadcast b =
    Trace.record_broadcast trace b;
    Monitor.broadcast monitors b
  in
  let prev_decided = Array.make n None in
  let next_id = ref 0 in
  (* Per-process pools, appended in post order (oldest first) and reused
     slot after slot. Envelope ids are assigned in post order, so ids
     increase monotonically along the trace and a message's id is always
     smaller than any message it causally feeds. *)
  let log = Mail.Log.create () in
  let pools = Array.init n (fun dst -> Mail.Pool.create ~dst ~log) in
  (* The processes whose pool is nonempty — the only ones the next delivery
     pass must visit while the broadcast log is empty. Collected unsorted
     with a flag for O(1) dedup, sorted ascending at delivery time. *)
  let dirty_flag = Array.make n false in
  let dirty = Vec.create () in
  let mark_dirty p =
    if not dirty_flag.(p) then begin
      dirty_flag.(p) <- true;
      Vec.push dirty p
    end
  in
  (* Persistent inbox arrays: entries are empty except for this slot's
     delivered processes, and are reset at slot end. [post] reads
     [inbox_ids.(src)] for every sender — including timer-woken and
     byzantine ones, whose provenance is therefore empty. *)
  let inboxes = Array.make n Mail.empty in
  let inbox_ids = Array.make n [] in
  (* [delayed] buckets messages a [Faults.Delayed] verdict postponed, keyed
     by delivery slot. Kept apart from the pools so the reliable path never
     touches it. Buckets past the horizon are simply never flushed: the
     message is lost to the end of time, which is what a late message in a
     terminated synchronous protocol is. *)
  let delayed = Hashtbl.create 8 in
  let flush_delayed slot =
    match Hashtbl.find_opt delayed slot with
    | None -> ()
    | Some entries ->
      Hashtbl.remove delayed slot;
      (* Oldest-first appends at the pool's end: after the delivery pass
         reverses the pool, flushed messages land after the slot's punctual
         ones, in original send order. *)
      List.iter
        (fun (id, { Envelope.src; dst; sent_at; msg }) ->
          Mail.Pool.push pools.(dst) ~src ~sent_at ~id msg;
          mark_dirty dst)
        (List.rev entries)
  in
  let is_down p =
    match faults_rt with None -> false | Some rt -> Faults.is_down rt p
  in
  (* Process [p]'s pool becomes its inbox, read in place. Shuffled, the
     pool draws its order first, one draw per message; the draws happen
     even for a down process, whose delivery is then dropped. The pool is
     emptied after the Byzantine step. *)
  let deliver p =
    let pool = pools.(p) in
    (match shuffle_rng with Some rng -> Mail.Pool.shuffle pool rng | None -> ());
    if not (is_down p) then begin
      inboxes.(p) <- Mail.Pool.view pool;
      if provenance then inbox_ids.(p) <- Mail.Pool.ids pool
    end
  in
  (* Everything order-sensitive (the envelope id, the meter charge, trace
     emission, delayed buckets) happens here, on the main domain, in post
     order. A send's word count and fault fate are pure functions of the
     message and its per-sender index [seq]. *)
  let post_one ~slot ~src ~seq msg dst =
    if not (Pid.is_valid ~n dst) then
      invalid_arg
        (Printf.sprintf "Engine.run: p%d sent a message to unknown process %d"
           src dst);
    let word_count = words msg in
    let fault =
      match faults_rt with
      | None -> None
      | Some rt -> Faults.fate ~seq rt ~slot ~src ~dst
    in
    let byzantine = corrupted.(src) in
    let charged = Meter.charge meter ~byzantine ~src ~dst ~words:word_count in
    (match meters with
    | None -> ()
    | Some m ->
      Mewc_obs.Metrics.incr m.messages_c;
      Mewc_obs.Metrics.add m.words_c word_count;
      slot_words := !slot_words + word_count);
    let id = !next_id in
    incr next_id;
    if observing then
      emit
        (Trace.Send
           {
             id;
             envelope = { Envelope.src; dst; sent_at = slot; msg };
             byzantine_sender = byzantine;
             words = word_count;
             charged;
             parents = inbox_ids.(src);
           });
    match fault with
    | None ->
      Mail.Pool.push pools.(dst) ~src ~sent_at:slot ~id msg;
      mark_dirty dst
    | Some fault ->
      (* The send happened — it was charged and traced above; only its
         delivery is tampered with here. *)
      mincr meters (fun m -> m.link_faults_c);
      if observing then emit (Trace.Link_fault { slot; id; src; dst; fault });
      (match fault with
      | Faults.Omitted | Faults.Partitioned | Faults.Dropped -> ()
      | Faults.Delayed k ->
        let at = slot + 1 + k in
        let prev = Option.value ~default:[] (Hashtbl.find_opt delayed at) in
        Hashtbl.replace delayed at
          ((id, { Envelope.src; dst; sent_at = slot; msg }) :: prev)
      | Faults.Duplicated ->
        let pool = pools.(dst) in
        Mail.Pool.push pool ~src ~sent_at:slot ~id msg;
        Mail.Pool.push pool ~src ~sent_at:slot ~id msg;
        mark_dirty dst)
  in
  (* A broadcast without a fault plan: the [n] posts of its copies in pid
     order — ids [id .. id + n − 1], the self copy free — with the word
     count, meter charge, counters and monitor call made once, and one
     entry in the shared log that every pool's view reads. Under a plan
     each copy has its own fate and [Link_fault] events interleave with
     the sends, so the copies are posted one by one into the pools. *)
  let post_broadcast ~slot ~src msg =
    let word_count = words msg in
    let byzantine = corrupted.(src) in
    Meter.charge_all meter ~byzantine ~src ~n ~words:word_count;
    (match meters with
    | None -> ()
    | Some m ->
      Mewc_obs.Metrics.add m.messages_c n;
      Mewc_obs.Metrics.add m.words_c (n * word_count);
      slot_words := !slot_words + (n * word_count));
    let id = !next_id in
    next_id := id + n;
    if observing then
      emit_broadcast
        {
          Trace.first_id = id;
          src;
          n;
          sent_at = slot;
          msg;
          byzantine_sender = byzantine;
          words = word_count;
          parents = inbox_ids.(src);
        };
    Mail.Log.push log ~src ~sent_at:slot ~first_id:id msg
  in
  (* [seq] runs over the sends as {!Process.expand} lists them. *)
  let post_all ~slot (src, sends) =
    let seq = ref 0 in
    List.iter
      (function
        | Process.Unicast (msg, dst) ->
          post_one ~slot ~src ~seq:!seq msg dst;
          incr seq
        | Process.Broadcast msg when Option.is_none faults_rt ->
          post_broadcast ~slot ~src msg;
          seq := !seq + n
        | Process.Broadcast msg ->
          for dst = 0 to n - 1 do
            post_one ~slot ~src ~seq:(!seq + dst) msg dst
          done;
          seq := !seq + n)
      sends
  in
  let step_results = Array.make n Skipped in
  (* The wake calendar: one bucket per slot, each an intrusive doubly linked
     list of pids threaded through [next]/[prev] ([-1] ends a list).
     [due.(p)] is the slot [p] is filed under, [Process.never] if none, so
     a process sits in at most one bucket and re-filing moves it in O(1)
     without allocating. *)
  let due = Array.make n Process.never in
  let head = Array.make (max horizon 0) (-1) in
  let next = Array.make n (-1) in
  let prev = Array.make n (-1) in
  let unfile p =
    let w = due.(p) in
    if w <> Process.never then begin
      let nx = next.(p) and pv = prev.(p) in
      if pv >= 0 then next.(pv) <- nx else head.(w) <- nx;
      if nx >= 0 then prev.(nx) <- pv;
      due.(p) <- Process.never
    end
  in
  let file p ~after =
    let w =
      match machines.(p).Process.wake with
      | None -> after
      | Some wake -> wake ~after states.(p)
    in
    if w < after then
      invalid_arg
        (Printf.sprintf
           "Engine.run: p%d's wake query answered slot %d, before slot %d" p w
           after);
    if w <> due.(p) then begin
      unfile p;
      if w < horizon then begin
        let h = head.(w) in
        next.(p) <- h;
        prev.(p) <- -1;
        if h >= 0 then prev.(h) <- p;
        head.(w) <- p;
        due.(p) <- w
      end
    end
  in
  for p = 0 to n - 1 do
    file p ~after:0
  done;
  (* This slot's active set, deduplicated by flag and drained in ascending
     order into [active]; the delivered set likewise into [delivered]. *)
  let active_flag = Array.make n false in
  let active_set = Vec.create () in
  let activate p =
    if not active_flag.(p) then begin
      active_flag.(p) <- true;
      Vec.push active_set p
    end
  in
  let active = Array.make n 0 in
  let delivered = Array.make n 0 in
  let n_delivered = ref 0 in
  (* The corrupted pids in ascending order, for the Byzantine step. *)
  let byzantine = ref [] in
  (* This slot's sends: the correct ones in ascending pid order (the step
     phase collects them newest-first and reverses them), then the
     Byzantine ones. Emptied once posted. *)
  let correct_sends = ref [] in
  let byz_sends = ref [] in
  (* One adversary view per run, updated in place before each callback. A
     thunk is re-armed only after an adversary forced it; an unforced one
     snapshots at its first force, whichever slot that is. The rushing
     envelopes are empty during the corruption decision. *)
  let snapshot a = lazy (Array.copy a) in
  let no_outgoing = Lazy.from_val [] in
  let view =
    {
      Adversary.slot = 0;
      cfg;
      states = snapshot states;
      corrupted = snapshot corrupted;
      inboxes = snapshot inboxes;
      correct_outgoing = no_outgoing;
    }
  in
  let outgoing_of () =
    lazy
      (let slot = view.Adversary.slot in
       List.concat_map
         (fun (src, sends) ->
           List.map
             (fun (msg, dst) -> { Envelope.src; dst; sent_at = slot; msg })
             (Process.expand ~n sends))
         !correct_sends)
  in
  let outgoing = ref (outgoing_of ()) in
  let rearm () =
    if Lazy.is_val view.states then view.states <- snapshot states;
    if Lazy.is_val view.corrupted then view.corrupted <- snapshot corrupted;
    if Lazy.is_val view.inboxes then view.inboxes <- snapshot inboxes
  in
  (* The phases, built once per run. *)
  let deliver_phase () =
    let count =
      if Mail.Log.length log = 0 then drain_ascending dirty dirty_flag delivered
      else begin
        (* A broadcast reaches every pid. *)
        for p = 0 to n - 1 do
          dirty_flag.(p) <- false;
          delivered.(p) <- p
        done;
        Vec.clear dirty;
        n
      end
    in
    for i = 0 to count - 1 do
      deliver delivered.(i)
    done;
    count
  in
  let corrupt_one slot p =
    if not (Pid.is_valid ~n p) then
      invalid_arg (Printf.sprintf "Engine.run: cannot corrupt unknown process %d" p);
    if not corrupted.(p) then begin
      if !corruption_count >= cfg.Config.t then
        invalid_arg
          (Printf.sprintf
             "Engine.run: adversary %s exceeded the corruption budget t=%d"
             adversary.Adversary.name cfg.Config.t);
      corrupted.(p) <- true;
      byzantine := List.merge Int.compare [ p ] !byzantine;
      corruption_order := p :: !corruption_order;
      incr corruption_count;
      mincr meters (fun m -> m.corruptions_c);
      if observing then
        emit (Trace.Corruption { slot; pid = p; f = !corruption_count })
    end
  in
  let step_one slot p =
    match machines.(p).Process.step ~slot ~inbox:inboxes.(p) states.(p) with
    | state', sends -> Stepped (state', sends)
    | exception e -> Failed e
  in
  let merge slot p = function
    | Stepped (state', sends) ->
      states.(p) <- state';
      correct_sends := (p, sends) :: !correct_sends;
      file p ~after:(slot + 1)
    | Failed e -> raise e
    | Skipped -> ()
  in
  (* Active correct processes step: a delivery or a wake filed for this
     slot, in ascending pid order. A down process's filing moves on to the
     next slot; a corrupted process's is dropped for good. Each stepped
     process files its next wake. *)
  let step_phase slot =
    for i = 0 to !n_delivered - 1 do
      let p = delivered.(i) in
      if Mail.length inboxes.(p) > 0 && not corrupted.(p) then activate p
    done;
    let p = ref head.(slot) in
    head.(slot) <- -1;
    while !p >= 0 do
      let q = !p in
      p := next.(q);
      due.(q) <- Process.never;
      if corrupted.(q) then ()
      else if is_down q then file q ~after:(slot + 1)
      else activate q
    done;
    let count = drain_ascending active_set active_flag active in
    (match workers with
    | None ->
      for i = 0 to count - 1 do
        let p = active.(i) in
        merge slot p (step_one slot p)
      done
    | Some ws ->
      if count > 0 then
        compute_active_steps ws ~pids:active ~count ~step_one:(step_one slot)
          step_results;
      for i = 0 to count - 1 do
        let p = active.(i) in
        let r = step_results.(p) in
        step_results.(p) <- Skipped;
        merge slot p r
      done);
    correct_sends := List.rev !correct_sends;
    count
  in
  (* Decision transitions. Slot 0 scans everyone (an init state may already
     be decided); afterwards only stepped processes can have transitioned,
     so the scan follows the active set, in ascending pid order. *)
  let scan_decisions =
    match decided with
    | Some decided when observing ->
      let scan slot p =
        if not corrupted.(p) then begin
          match (prev_decided.(p), decided states.(p)) with
          | None, (Some value as d) ->
            prev_decided.(p) <- d;
            mincr meters (fun m -> m.decisions_c);
            emit
              (Trace.Decision { slot; pid = p; value; parents = inbox_ids.(p) })
          | Some v0, (Some value as d) when not (String.equal v0 value) ->
            (* A re-decision is a protocol bug; surface it to the monitors
               rather than silencing it here. *)
            prev_decided.(p) <- d;
            mincr meters (fun m -> m.decisions_c);
            emit
              (Trace.Decision { slot; pid = p; value; parents = inbox_ids.(p) })
          | _ -> ()
        end
      in
      fun slot n_active ->
        if slot = 0 then
          for p = 0 to n - 1 do
            scan slot p
          done
        else
          for i = 0 to n_active - 1 do
            scan slot active.(i)
          done
    | _ -> fun _ _ -> ()
  in
  (* Byzantine processes step, seeing this slot's correct sends. A step
     that sends nothing leaves no entry. *)
  let rec byz_step acc = function
    | [] -> List.rev acc
    | p :: rest -> (
      match adversary.Adversary.byz_step ~pid:p view with
      | [] -> byz_step acc rest
      | sends -> byz_step ((p, sends) :: acc) rest)
  in
  let byz_phase pids = byz_step [] pids in
  let rec post_each slot = function
    | [] -> ()
    | sends :: rest ->
      post_all ~slot sends;
      post_each slot rest
  in
  let post_phase slot =
    post_each slot !correct_sends;
    post_each slot !byz_sends
  in
  Fun.protect ~finally:(fun () ->
      Option.iter (fun (_, row) -> Profile.bulk_flush row) corrupt_row)
  @@ fun () ->
  (* Each phase below runs only when it has input: pooled mail to deliver,
     a delivery or a filed wake to step, a corrupted process, a send to
     post. *)
  for slot = 0 to horizon - 1 do
    Meter.begin_slot meter ~slot;
    mincr meters (fun m -> m.slots_c);
    if observing then emit (Trace.Slot_start slot);
    (match faults_rt with
    | None -> ()
    | Some rt ->
      List.iter
        (fun (pid, event) ->
          if not faulty_seen.(pid) then begin
            faulty_seen.(pid) <- true;
            faulty_order := pid :: !faulty_order
          end;
          if observing then emit (Trace.Process_fault { slot; pid; event }))
        (Faults.transitions rt ~slot);
      flush_delayed slot);
    n_delivered :=
      if Vec.length dirty = 0 && Mail.Log.length log = 0 then 0
      else timed Profile.Engine "engine.deliver" deliver_phase ();
    (* 1. Adaptive corruption, before correct processes act this slot. *)
    view.Adversary.slot <- slot;
    view.Adversary.correct_outgoing <- no_outgoing;
    rearm ();
    (match corrupt_query view with
    | [] -> ()
    | ps -> List.iter (corrupt_one slot) ps);
    (* 2. Correct processes step; 2b. decision transitions. *)
    let n_active =
      if !n_delivered > 0 || head.(slot) >= 0 then
        timed Profile.Machine "machine.step" step_phase slot
      else 0
    in
    scan_decisions slot n_active;
    (* 3. The Byzantine step, rushing: the view now shows this slot's
       correct sends. *)
    if !byzantine <> [] then begin
      rearm ();
      if Lazy.is_val !outgoing then outgoing := outgoing_of ();
      view.Adversary.correct_outgoing <- !outgoing;
      byz_sends :=
        timed Profile.Adversary "adversary.byz_step" byz_phase !byzantine
    end;
    (* Every view of this slot's mail is dead now: empty the delivered
       pools for this slot's posts. *)
    for i = 0 to !n_delivered - 1 do
      Mail.Pool.clear pools.(delivered.(i))
    done;
    Mail.Log.clear log;
    (* 4. Post everything: correct sends in ascending pid order, then the
       Byzantine ones. Fates are keyed by (slot, src, seq), and a corrupted
       process never reaches the correct step phase, so the two groups
       never share a key. *)
    if !correct_sends <> [] || !byz_sends <> [] then begin
      timed Profile.Engine "engine.post" post_phase slot;
      correct_sends := [];
      byz_sends := []
    end;
    (* Restore the all-empty inbox invariant for the next slot. *)
    for i = 0 to !n_delivered - 1 do
      let p = delivered.(i) in
      inboxes.(p) <- Mail.empty;
      inbox_ids.(p) <- []
    done;
    (match meters with
    | None -> ()
    | Some m ->
      Mewc_obs.Metrics.observe m.slot_words_h !slot_words;
      slot_words := 0)
  done;
  List.iter (fun m -> m.Monitor.on_finish ~slots:horizon) monitors;
  {
    states;
    corrupted = List.rev !corruption_order;
    f = !corruption_count;
    faulty = List.rev !faulty_order;
    meter;
    trace;
    slots = horizon;
  }

let run ~cfg ?(options = default_options) ~words ~horizon ~protocol ~adversary
    () =
  if options.shards < 1 then
    invalid_arg
      (Printf.sprintf "Engine.run: shards must be >= 1 (got %d)" options.shards);
  if options.shards > 1 && options.profile <> None then
    invalid_arg "Engine.run: profiling requires shards = 1";
  let go workers =
    run_loop ~workers ~cfg ~options ~words ~horizon ~protocol ~adversary ()
  in
  if options.shards = 1 then go None
  else
    (* One worker set per run: the spawn cost is paid once and amortized
       over every slot's barrier round. *)
    Pool.with_workers ~jobs:options.shards (fun ws -> go (Some ws))
