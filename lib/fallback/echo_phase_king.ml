open Mewc_prelude
open Mewc_crypto
open Mewc_sim

module Make (V : Value.S) = struct
  (* Certificate purposes. Distinct tags keep shares formed here from being
     replayed into any other protocol layer, and the phase baked into each
     payload keeps them from being replayed across phases. *)
  let input_purpose = "fb-input"
  let propose_purpose = "fb-propose"
  let commit_purpose = "fb-commit"
  let ack_purpose = "fb-ack"
  let phased_payload phase v = Certificate.phased ~phase (V.encode v)

  type justification =
    | Unjustified
    | Input_cert of Certificate.t
    | Lock_just of { level : int; qc : Certificate.t }

  type proposal = {
    p_phase : int;
    p_value : V.t;
    p_just : justification;
    p_king_sig : Pki.Sig.t;
    p_just_valid : bool;
        (* certificates inside the justification verified; voter-specific
           lock-level dominance is checked at vote time *)
  }

  type body =
    | Input of { value : V.t; share : Pki.Sig.t }
    | Status of {
        phase : int;
        lock : (int * V.t * Certificate.t) option;
        input_qc : (V.t * Certificate.t) option;
      }
    | Propose of proposal
    | Echo of proposal
    | Vote of { phase : int; value : V.t; share : Pki.Sig.t }
    | Commit of { phase : int; value : V.t; qc : Certificate.t }
    | Ack of { phase : int; value : V.t; share : Pki.Sig.t; qc : Certificate.t }
    | Decided of { phase : int; value : V.t; qc : Certificate.t }

  type msg = { round : int; body : body }

  let just_words = function
    | Unjustified -> 0
    | Input_cert _ -> 1
    | Lock_just _ -> 2

  let words { body; _ } =
    match body with
    | Input _ -> 2
    | Status { lock; input_qc; _ } ->
      1
      + (match lock with Some _ -> 3 | None -> 0)
      + (match input_qc with Some _ -> 2 | None -> 0)
    | Propose p | Echo p -> 2 + just_words p.p_just
    | Vote _ -> 2
    | Commit _ -> 2
    | Ack _ -> 3
    | Decided _ -> 2

  let pp_body fmt = function
    | Input { value; _ } -> Format.fprintf fmt "input(%a)" V.pp value
    | Status { phase; lock; input_qc } ->
      Format.fprintf fmt "status(j=%d, lock=%s, qc=%s)" phase
        (match lock with Some (l, _, _) -> string_of_int l | None -> "-")
        (match input_qc with Some _ -> "y" | None -> "-")
    | Propose p -> Format.fprintf fmt "propose(j=%d, %a)" p.p_phase V.pp p.p_value
    | Echo p -> Format.fprintf fmt "echo(j=%d, %a)" p.p_phase V.pp p.p_value
    | Vote { phase; value; _ } -> Format.fprintf fmt "vote(j=%d, %a)" phase V.pp value
    | Commit { phase; value; _ } -> Format.fprintf fmt "commit(j=%d, %a)" phase V.pp value
    | Ack { phase; value; _ } -> Format.fprintf fmt "ack(j=%d, %a)" phase V.pp value
    | Decided { phase; value; _ } ->
      Format.fprintf fmt "decided(j=%d, %a)" phase V.pp value

  let pp_msg fmt { round; body } = Format.fprintf fmt "r%d:%a" round pp_body body

  (* ---- the mewc-wire/1 codec ---------------------------------------------- *)

  let codec : msg Codec.t =
    let open Codec in
    let just =
      union ~what:"epk-just"
        [
          case 0 unit_c
            (function Unjustified -> Some () | _ -> None)
            (fun () -> Unjustified);
          case 1 cert_c
            (function Input_cert c -> Some c | _ -> None)
            (fun c -> Input_cert c);
          case 2 (pair vint_c cert_c)
            (function Lock_just { level; qc } -> Some (level, qc) | _ -> None)
            (fun (level, qc) -> Lock_just { level; qc });
        ]
    in
    let proposal =
      conv
        (fun p -> (p.p_phase, p.p_value, (p.p_just, p.p_king_sig, p.p_just_valid)))
        (fun (p_phase, p_value, (p_just, p_king_sig, p_just_valid)) ->
          { p_phase; p_value; p_just; p_king_sig; p_just_valid })
        (triple vint_c V.codec (triple just sig_c bool_c))
    in
    let pvc = triple vint_c V.codec cert_c in
    let body =
      union ~what:"epk-body"
        [
          case 0 (pair V.codec sig_c)
            (function Input { value; share } -> Some (value, share) | _ -> None)
            (fun (value, share) -> Input { value; share });
          case 1
            (triple vint_c
               (option_c (triple vint_c V.codec cert_c))
               (option_c (pair V.codec cert_c)))
            (function
              | Status { phase; lock; input_qc } -> Some (phase, lock, input_qc)
              | _ -> None)
            (fun (phase, lock, input_qc) -> Status { phase; lock; input_qc });
          case 2 proposal (function Propose p -> Some p | _ -> None) (fun p -> Propose p);
          case 3 proposal (function Echo p -> Some p | _ -> None) (fun p -> Echo p);
          case 4 (triple vint_c V.codec sig_c)
            (function
              | Vote { phase; value; share } -> Some (phase, value, share) | _ -> None)
            (fun (phase, value, share) -> Vote { phase; value; share });
          case 5 pvc
            (function Commit { phase; value; qc } -> Some (phase, value, qc) | _ -> None)
            (fun (phase, value, qc) -> Commit { phase; value; qc });
          case 6
            (triple vint_c V.codec (pair sig_c cert_c))
            (function
              | Ack { phase; value; share; qc } -> Some (phase, value, (share, qc))
              | _ -> None)
            (fun (phase, value, (share, qc)) -> Ack { phase; value; share; qc });
          case 7 pvc
            (function Decided { phase; value; qc } -> Some (phase, value, qc) | _ -> None)
            (fun (phase, value, qc) -> Decided { phase; value; qc });
        ]
    in
    conv (fun { round; body } -> (round, body)) (fun (round, body) -> { round; body })
      (pair vint_c body)

  (* Every constructor, at every nesting level, with positive probability:
     the codec laws then reach each arm of the reader. *)
  let gen g =
    let phase () = Rng.int g 8 in
    let value () = V.gen g in
    let sg () = Codec.gen_sig g in
    let qc () = Codec.gen_cert g in
    let opt f = if Rng.bool g then None else Some (f ()) in
    let proposal () =
      let p_just =
        match Rng.int g 3 with
        | 0 -> Unjustified
        | 1 -> Input_cert (qc ())
        | _ -> Lock_just { level = phase (); qc = qc () }
      in
      {
        p_phase = phase ();
        p_value = value ();
        p_just;
        p_king_sig = sg ();
        p_just_valid = Rng.bool g;
      }
    in
    let body =
      match Rng.int g 8 with
      | 0 -> Input { value = value (); share = sg () }
      | 1 ->
        Status
          {
            phase = phase ();
            lock = opt (fun () -> (phase (), value (), qc ()));
            input_qc = opt (fun () -> (value (), qc ()));
          }
      | 2 -> Propose (proposal ())
      | 3 -> Echo (proposal ())
      | 4 -> Vote { phase = phase (); value = value (); share = sg () }
      | 5 -> Commit { phase = phase (); value = value (); qc = qc () }
      | 6 -> Ack { phase = phase (); value = value (); share = sg (); qc = qc () }
      | _ -> Decided { phase = phase (); value = value (); qc = qc () }
    in
    { round = Rng.int g 32; body }

  (* Per-phase working memory, bounded against Byzantine spam. *)
  type scratch = {
    mutable king_locks : (int * V.t * Certificate.t) list;
    mutable king_input_qcs : (V.t * Certificate.t) list;
    mutable proposals : proposal list;
    mutable votes : (V.t * Certificate.Tally.t) list;
    mutable commit_cert : (V.t * Certificate.t) option;
    mutable acks : (V.t * Certificate.Tally.t) list;
    propose_msg : V.t Certificate.Signed_memo.t;
  }

  let fresh_scratch j =
    {
      king_locks = [];
      king_input_qcs = [];
      proposals = [];
      votes = [];
      commit_cert = None;
      acks = [];
      propose_msg = Certificate.Signed_memo.create ~purpose:propose_purpose ~phase:j ();
    }

  type state = {
    cfg : Config.t;
    pki : Pki.t;
    secret : Pki.Secret.t;
    pid : Pid.t;
    start_slot : int;
    round_len : int;
    input : V.t;
    buf : body Round_buffer.t;  (* by round tag; senders play no part *)
    scratch : (int, scratch) Hashtbl.t;
    input_msg : V.t Certificate.Signed_memo.t;
    mutable popular : V.t option;
    mutable my_input_qc : (V.t * Certificate.t) option;
    mutable lock : (int * V.t * Certificate.t) option;
    mutable decision : V.t option;
    mutable decide_qc : (int * V.t * Certificate.t) option;
    mutable announced : bool;
    mutable decided_at : int option;  (* slot at which [decision] was set *)
  }

  let phases cfg = cfg.Config.t + 1
  let king phase = fun cfg -> Pid.rotating_leader ~n:cfg.Config.n ~phase

  (* Round layout: round 0 = input exchange; phase j (1-based) spans rounds
     base(j) .. base(j)+5 = status, propose, echo, vote, commit, ack. *)
  let base j = 1 + ((j - 1) * 6)
  let rounds cfg = 1 + (6 * phases cfg) + 2
  let horizon cfg ~round_len = (rounds cfg * round_len) + 2

  let scratch_of st j =
    match Hashtbl.find st.scratch j with
    | s -> s
    | exception Not_found ->
      let s = fresh_scratch j in
      Hashtbl.add st.scratch j s;
      s

  let signed_msg memo value =
    Certificate.Signed_memo.message memo ~equal:V.equal ~encode:V.encode value

  let init ~cfg ~pki ~secret ~pid ~input ~start_slot ~round_len =
    if round_len < 1 then invalid_arg "Echo_phase_king.init: round_len >= 1";
    Composition.note ~user:"A-fallback (echo-phase-king)"
      ~uses:"threshold signatures";
    {
      cfg;
      pki;
      secret;
      pid;
      start_slot;
      round_len;
      input;
      buf = Round_buffer.create ~last:(rounds cfg);
      scratch = Hashtbl.create 16;
      input_msg = Certificate.Signed_memo.create ~purpose:input_purpose ();
      popular = None;
      my_input_qc = None;
      lock = None;
      decision = None;
      decide_qc = None;
      announced = false;
      decided_at = None;
    }

  let decision st = st.decision
  let decided_at st = st.decided_at
  let locked_value st = Option.map (fun (_, v, _) -> v) st.lock
  let popular_value st = st.popular

  let quorum st = Config.small_quorum st.cfg (* t + 1 *)

  let decide st ~phase ~value ~qc =
    if st.decision = None then begin
      st.decision <- Some value;
      st.decide_qc <- Some (phase, value, qc)
    end

  (* --- ingestion of one buffered round ------------------------------- *)

  let ingest_inputs st iter =
    (* Tally signed round-0 inputs; discard equivocating signers; a value
       with t+1 distinct signers is popular and yields an input QC.
       [first.(p)] is the first valid input from [p] (the body itself, so
       recording it allocates nothing) and [signed.(p)] how many distinct
       values [p] signed, capped at 2. *)
    let n = st.cfg.Config.n in
    let first = ref [||] and signed = Bytes.make n '\000' in
    iter (fun body ->
        match body with
        | Input { value; share } ->
          if Pki.verify st.pki share ~msg:(signed_msg st.input_msg value) then begin
            let p = Pki.Sig.signer share in
            match Bytes.get signed p with
            | '\000' ->
              if Array.length !first = 0 then first := Array.make n body;
              !first.(p) <- body;
              Bytes.set signed p '\001'
            | '\001' -> (
              match !first.(p) with
              | Input { value = v; _ } when not (V.equal v value) ->
                Bytes.set signed p '\002'
              | _ -> ())
            | _ -> ()
          end
        | _ -> ());
    (* Signers with two or more distinct signed inputs are provably
       Byzantine: ignore them. *)
    let single p = Bytes.get signed p = '\001' in
    let value_of p =
      match !first.(p) with Input { value; _ } -> value | _ -> assert false
    in
    let q = quorum st in
    let count v =
      let c = ref 0 in
      for p = 0 to n - 1 do
        if single p && V.equal (value_of p) v then incr c
      done;
      !c
    in
    (* Candidates by one Misra–Gries pass over the single signers' values:
       with [n / q] counters, every value of at least [q] signers keeps a
       positive counter, since [q * (n / q + 1) > n]. Each candidate is
       then counted exactly, so the tally costs O(n²/q) comparisons
       whatever the inputs. Of the values that reach the quorum (several
       only when n > 2t + 1) the one of the lowest signer is certified,
       whatever the arrival order. *)
    let chosen =
      if Array.length !first = 0 then None
      else begin
        let slots = n / q in
        let keys = Array.make slots st.input and counts = Array.make slots 0 in
        for p = 0 to n - 1 do
          if single p then begin
            let v = value_of p and hit = ref (-1) and free = ref (-1) in
            for i = 0 to slots - 1 do
              if counts.(i) = 0 then (if !free < 0 then free := i)
              else if !hit < 0 && V.equal keys.(i) v then hit := i
            done;
            if !hit >= 0 then counts.(!hit) <- counts.(!hit) + 1
            else if !free >= 0 then begin
              keys.(!free) <- v;
              counts.(!free) <- 1
            end
            else
              for i = 0 to slots - 1 do
                counts.(i) <- counts.(i) - 1
              done
          end
        done;
        for i = 0 to slots - 1 do
          counts.(i) <- (if counts.(i) > 0 && count keys.(i) >= q then 1 else 0)
        done;
        let chosen = ref None and p = ref 0 in
        while Option.is_none !chosen && !p < n do
          if single !p then
            for i = 0 to slots - 1 do
              if counts.(i) = 1 && V.equal keys.(i) (value_of !p) then
                chosen := Some keys.(i)
            done;
          incr p
        done;
        !chosen
      end
    in
    let shares_for v =
      let acc = ref [] in
      for p = n - 1 downto 0 do
        if single p && V.equal (value_of p) v then
          match !first.(p) with Input { share; _ } -> acc := share :: !acc | _ -> ()
      done;
      !acc
    in
    match chosen with
    | Some v when st.my_input_qc = None -> (
      match
        Certificate.make st.pki ~k:(quorum st) ~purpose:input_purpose
          ~payload:(V.encode v) (shares_for v)
      with
      | Some qc ->
        st.popular <- Some v;
        st.my_input_qc <- Some (v, qc)
      | None -> ())
    | _ -> ()

  let verify_commit_qc st ~level ~value qc =
    Certificate.verify_as st.pki qc ~k:(quorum st) ~purpose:commit_purpose
    && Certificate.is_phased qc ~phase:level (V.encode value)

  let verify_input_qc st ~value qc =
    Certificate.verify_as st.pki qc ~k:(quorum st) ~purpose:input_purpose
    && String.equal (Certificate.payload qc) (V.encode value)

  (* Re-locking on the lock already held (the same certificate, which every
     ack of a phase carries) changes nothing, so it allocates nothing. *)
  let relock st ~level ~value ~qc =
    match st.lock with
    | Some (l, v, q) when l = level && q == qc && V.equal v value -> ()
    | Some (l, _, _) when level < l -> ()
    | _ -> st.lock <- Some (level, value, qc)

  let validate_just st (p : proposal) =
    match p.p_just with
    | Unjustified -> true
    | Input_cert qc -> verify_input_qc st ~value:p.p_value qc
    | Lock_just { level; qc } ->
      level >= 1 && level <= phases st.cfg
      && verify_commit_qc st ~level ~value:p.p_value qc

  let rec copies value = function
    | [] -> 0
    | q :: rest -> (if V.equal q.p_value value then 1 else 0) + copies value rest

  (* Distinct values: each counted at its last occurrence. *)
  let rec distinct = function
    | [] -> 0
    | q :: rest ->
      (if copies q.p_value rest = 0 then 1 else 0) + distinct rest

  (* Bound Byzantine spam: at most 3 distinct values (2 already prove
     equivocation) and 3 copies per value (different justifications). *)
  let admits sc value =
    match copies value sc.proposals with
    | 0 -> distinct sc.proposals < 3
    | c -> c < 3

  let ingest_proposal st j (p : proposal) =
    if p.p_phase = j then begin
      let sc = scratch_of st j in
      if
        Pid.equal (Pki.Sig.signer p.p_king_sig) (king j st.cfg)
        && Pki.verify st.pki p.p_king_sig ~msg:(signed_msg sc.propose_msg p.p_value)
      then begin
        let valid = validate_just st p in
        if admits sc p.p_value then
          sc.proposals <- { p with p_just_valid = valid } :: sc.proposals
      end
    end

  let rec find_tally value = function
    | [] -> raise Not_found
    | (v, tl) :: rest -> if V.equal v value then tl else find_tally value rest

  let rec remove_tally value = function
    | [] -> []
    | ((v, _) as e) :: rest ->
      if V.equal v value then remove_tally value rest else e :: remove_tally value rest

  (* Incremental per-value tally with the original move-to-front order: a
     share that advances a count moves its value to the head; duplicates and
     invalid shares leave the list untouched (and never create an entry).
     Returns the new list and the verdict. *)
  let tally st j ~purpose table value share =
    match find_tally value table with
    | tl ->
      let verdict = Certificate.Tally.add tl share in
      let table =
        match (verdict, table) with
        | Pki.Tally.Added, (v, _) :: _ when V.equal v value -> table
        | Pki.Tally.Added, _ -> (value, tl) :: remove_tally value table
        | (Pki.Tally.Duplicate | Pki.Tally.Invalid), _ -> table
      in
      (table, verdict)
    | exception Not_found ->
      let tl =
        Certificate.Tally.create st.pki ~k:(quorum st) ~purpose
          ~payload:(phased_payload j value)
      in
      let verdict = Certificate.Tally.add tl share in
      let table =
        match verdict with
        | Pki.Tally.Added -> (value, tl) :: table
        | Pki.Tally.Duplicate | Pki.Tally.Invalid -> table
      in
      (table, verdict)

  let rec first_complete = function
    | [] -> raise Not_found
    | ((_, tl) as e) :: rest ->
      if Certificate.Tally.complete tl then e else first_complete rest

  let ingest_round st r iter =
    let am_i_king j = Pid.equal st.pid (king j st.cfg) in
    iter (fun body ->
        match body with
        | Input _ -> if r = 0 then () (* handled in bulk below *)
        | Status { phase = j; lock; input_qc } ->
          if r = base j && am_i_king j then begin
            let sc = scratch_of st j in
            (match lock with
            | Some (level, v, qc)
              when level >= 1 && level <= phases st.cfg
                   && verify_commit_qc st ~level ~value:v qc
                   && List.length sc.king_locks < st.cfg.Config.n + 1 ->
              sc.king_locks <- (level, v, qc) :: sc.king_locks
            | _ -> ());
            match input_qc with
            | Some (v, qc)
              when verify_input_qc st ~value:v qc
                   && List.length sc.king_input_qcs < st.cfg.Config.n + 1 ->
              sc.king_input_qcs <- (v, qc) :: sc.king_input_qcs
            | _ -> ()
          end
        | Propose p -> if r = base p.p_phase + 1 then ingest_proposal st p.p_phase p
        | Echo p -> if r = base p.p_phase + 2 then ingest_proposal st p.p_phase p
        | Vote { phase = j; value; share } ->
          if r = base j + 3 && am_i_king j then begin
            let sc = scratch_of st j in
            let votes, (_ : Pki.Tally.verdict) =
              tally st j ~purpose:commit_purpose sc.votes value share
            in
            sc.votes <- votes
          end
        | Commit { phase = j; value; qc } ->
          if r = base j + 4 && j <= phases st.cfg && verify_commit_qc st ~level:j ~value qc
          then begin
            relock st ~level:j ~value ~qc;
            let sc = scratch_of st j in
            if sc.commit_cert = None then sc.commit_cert <- Some (value, qc)
          end
        | Ack { phase = j; value; share; qc } ->
          if r = base j + 5 && j <= phases st.cfg && verify_commit_qc st ~level:j ~value qc
          then begin
            (* The attached commit certificate travels with every ack, so a
               single correct acker is enough to re-lock all correct
               processes (the linchpin of cross-phase safety). *)
            relock st ~level:j ~value ~qc;
            let sc = scratch_of st j in
            let acks, verdict = tally st j ~purpose:ack_purpose sc.acks value share in
            sc.acks <- acks;
            match verdict with
            | Pki.Tally.Invalid -> ()
            | Pki.Tally.Added | Pki.Tally.Duplicate -> (
              match first_complete sc.acks with
              | v, tl -> (
                match Certificate.Tally.certificate tl with
                | Some dqc -> decide st ~phase:j ~value:v ~qc:dqc
                | None -> ())
              | exception Not_found -> ())
          end
        | Decided { phase = j; value; qc } ->
          if
            j >= 1 && j <= phases st.cfg
            && Certificate.verify_as st.pki qc ~k:(quorum st) ~purpose:ack_purpose
            && Certificate.is_phased qc ~phase:j (V.encode value)
          then decide st ~phase:j ~value ~qc);
    if r = 0 then ingest_inputs st iter

  (* --- emission at the entry of one round ---------------------------- *)

  (* Emission only reads a phase's scratch. A lookup, unlike [scratch_of],
     leaves the state untouched, so a boundary the wake query skips is
     idle whether or not it would have run. *)
  let peek st j field ~none =
    match Hashtbl.find_opt st.scratch j with Some sc -> field sc | None -> none

  let emit st r =
    let bc body = Process.broadcast { round = r; body } in
    let to_king j body = [ Process.Unicast ({ round = r; body }, king j st.cfg) ] in
    match st.decision with
    | Some value ->
      if st.announced then []
      else begin
        st.announced <- true;
        match st.decide_qc with
        | Some (phase, v, qc) -> bc (Decided { phase; value = v; qc })
        | None ->
          (* unreachable: decisions always carry their certificate *)
          ignore value;
          []
      end
    | None ->
      if r = 0 then
        let share =
          Certificate.share st.pki st.secret ~purpose:input_purpose
            ~payload:(V.encode st.input)
        in
        bc (Input { value = st.input; share })
      else begin
        let j = ((r - 1) / 6) + 1 in
        let off = (r - 1) mod 6 in
        if j > phases st.cfg then []
        else
          match off with
          | 0 -> to_king j (Status { phase = j; lock = st.lock; input_qc = st.my_input_qc })
          | 1 ->
            if Pid.equal st.pid (king j st.cfg) then begin
              let king_locks = peek st j (fun sc -> sc.king_locks) ~none:[] in
              let locks =
                match st.lock with Some l -> l :: king_locks | None -> king_locks
              in
              let value, just =
                match
                  List.sort (fun (a, _, _) (b, _, _) -> Int.compare b a) locks
                with
                | (level, v, qc) :: _ -> (v, Lock_just { level; qc })
                | [] -> (
                  let king_qcs = peek st j (fun sc -> sc.king_input_qcs) ~none:[] in
                  let qcs =
                    match st.my_input_qc with
                    | Some q -> q :: king_qcs
                    | None -> king_qcs
                  in
                  match List.sort (fun (a, _) (b, _) -> V.compare a b) qcs with
                  | (v, qc) :: _ -> (v, Input_cert qc)
                  | [] -> (st.input, Unjustified))
              in
              let sg =
                Certificate.share st.pki st.secret ~purpose:propose_purpose
                  ~payload:(phased_payload j value)
              in
              bc
                (Propose
                   {
                     p_phase = j;
                     p_value = value;
                     p_just = just;
                     p_king_sig = sg;
                     p_just_valid = true;
                   })
            end
            else []
          | 2 ->
            (* Forward up to two distinct proposal values: one proves the
               king spoke, two prove it equivocated. *)
            let proposals = peek st j (fun sc -> sc.proposals) ~none:[] in
            let rec distinct acc = function
              | [] -> List.rev acc
              | p :: rest ->
                if List.exists (fun q -> V.equal q.p_value p.p_value) acc then
                  distinct acc rest
                else distinct (p :: acc) rest
            in
            let chosen =
              distinct [] proposals |> List.filteri (fun i _ -> i < 2)
            in
            List.concat_map (fun p -> bc (Echo p)) chosen
          | 3 -> (
            let proposals = peek st j (fun sc -> sc.proposals) ~none:[] in
            let values =
              List.sort_uniq V.compare (List.map (fun p -> p.p_value) proposals)
            in
            match values with
            | [ w ] ->
              let my_level = match st.lock with Some (l, _, _) -> l | None -> 0 in
              let acceptable (p : proposal) =
                p.p_just_valid
                &&
                match p.p_just with
                | Lock_just { level; _ } -> level >= my_level
                | Input_cert _ -> my_level = 0
                | Unjustified -> my_level = 0 && st.popular = None
              in
              let lock_value_match =
                match st.lock with Some (_, lv, _) -> V.equal lv w | None -> false
              in
              if lock_value_match || List.exists acceptable proposals then
                let share =
                  Certificate.share st.pki st.secret ~purpose:commit_purpose
                    ~payload:(phased_payload j w)
                in
                to_king j (Vote { phase = j; value = w; share })
              else []
            | _ -> [])
          | 4 ->
            if Pid.equal st.pid (king j st.cfg) then begin
              let votes = peek st j (fun sc -> sc.votes) ~none:[] in
              let ready =
                List.filter (fun (_, tl) -> Certificate.Tally.complete tl) votes
                |> List.sort (fun (a, _) (b, _) -> V.compare a b)
              in
              match ready with
              | (v, tl) :: _ -> (
                match Certificate.Tally.certificate tl with
                | Some qc -> bc (Commit { phase = j; value = v; qc })
                | None -> [])
              | [] -> []
            end
            else []
          | 5 -> (
            match peek st j (fun sc -> sc.commit_cert) ~none:None with
            | Some (v, qc) ->
              let share =
                Certificate.share st.pki st.secret ~purpose:ack_purpose
                  ~payload:(phased_payload j v)
              in
              bc (Ack { phase = j; value = v; share; qc })
            | None -> [])
          | _ -> assert false
      end

  (* Ingest every buffered round strictly below [r], in order. *)
  let ingest_upto st r = Round_buffer.drain st.buf ~upto:r (ingest_round st)

  (* Mail is buffered by its round tag, and a tag below [consumed] is
     dropped as late. A dense run steps every round boundary, and each step
     raises [consumed] to its round; a run that skipped boundaries (see
     {!wake}) first raises it to the round of the last boundary before
     [slot]. The rounds it passes are empty: a buffered round wakes the
     boundary that ingests it. *)
  let receive st ~slot ~src:_ { round; body } =
    if slot > st.start_slot then begin
      let upto =
        Int.min ((slot - 1 - st.start_slot) / st.round_len) (rounds st.cfg - 1)
      in
      (* Draining builds a closure; the mark is almost always current. *)
      if Round_buffer.consumed st.buf < upto then ingest_upto st upto
    end;
    Round_buffer.add st.buf ~round body

  let step ~slot ~inbox st =
    Mail.iter (fun src msg -> receive st ~slot ~src msg) inbox;
    if slot < st.start_slot || (slot - st.start_slot) mod st.round_len <> 0 then
      (st, [])
    else begin
      let r = (slot - st.start_slot) / st.round_len in
      if r >= rounds st.cfg then (st, [])
      else begin
        (* Ingest every strictly earlier round, in order, then act. *)
        ingest_upto st r;
        if st.decision <> None && st.decided_at = None then
          st.decided_at <- Some slot;
        (st, emit st r)
      end
    end

  (* Whether [emit st r] would send, on the current state. *)
  let sends_at st r =
    match st.decision with
    | Some _ -> not st.announced
    | None ->
      r = 0
      ||
      let j = ((r - 1) / 6) + 1 in
      j <= phases st.cfg
      &&
      match (r - 1) mod 6 with
      | 0 -> true
      | 1 | 4 -> Pid.equal st.pid (king j st.cfg)
      | 2 | 3 -> peek st j (fun sc -> sc.proposals <> []) ~none:false
      | _ -> peek st j (fun sc -> Option.is_some sc.commit_cert) ~none:false

  (* A boundary step ingests the buffered rounds below its own and then
     emits. Until one of them ingests something the state is fixed, so the
     first boundary that acts is the earlier of the one that ingests the
     lowest buffered round and the first one at which [emit] sends. An
     undecided process sends its status every phase, so the scan is at most
     six rounds long; a decided process that has announced sends nothing
     again. *)
  let wake ~after st =
    let b0 =
      Process.next_boundary ~start:st.start_slot ~period:st.round_len ~after
    in
    let r0 = (b0 - st.start_slot) / st.round_len in
    let last = rounds st.cfg in
    let ingest =
      let p = Round_buffer.first_pending st.buf in
      if p < last - 1 then Int.max r0 (p + 1) else last
    in
    let r = ref (if st.decision <> None && st.announced then ingest else r0) in
    while !r < ingest && not (sends_at st !r) do
      incr r
    done;
    if !r < last then st.start_slot + (!r * st.round_len) else Process.never
end
