open Mewc_prelude
open Mewc_crypto
open Mewc_sim

module Make (V : Value.S) = struct
  let purpose = "dsba"

  (* Chains sign the instance (the broadcasting sender) together with the
     value, so a chain from one instance cannot be replayed into another. *)
  let payload ~instance v = Printf.sprintf "%d|%s" instance (V.encode v)

  type msg = {
    round : int;
    instance : Pid.t;  (** whose broadcast this chain belongs to *)
    value : V.t;
    chain : Pki.Sig.t list;  (** distinct signers, the instance's first *)
  }

  let words m = 1 + List.length m.chain

  let pp_msg fmt m =
    Format.fprintf fmt "ds[r%d, inst p%d, %a, %d sigs]" m.round m.instance V.pp
      m.value (List.length m.chain)

  type state = {
    cfg : Config.t;
    pki : Pki.t;
    secret : Pki.Secret.t;
    pid : Pid.t;
    start_slot : int;
    round_len : int;
    input : V.t;
    buf : msg Mewc_fallback.Round_buffer.t;
    extracted : (Pid.t, V.t list) Hashtbl.t;  (* per instance, at most 2 *)
    mutable to_relay : msg list;  (* chains to forward at the next round *)
    mutable decision : V.t option;
    mutable decided_at : int option;
  }

  (* Bucket r holds chains that must carry >= r+1 distinct signers (the
     sender's initial chain sits in bucket 0 with one signature). Buckets
     0..t are extraction rounds; the decision falls at round t+1. *)
  let rounds cfg = cfg.Config.t + 2
  let horizon cfg ~round_len = (rounds cfg * round_len) + 2

  let init ~cfg ~pki ~secret ~pid ~input ~start_slot ~round_len =
    if round_len < 1 then invalid_arg "Ds_strong_ba.init: round_len >= 1";
    {
      cfg;
      pki;
      secret;
      pid;
      start_slot;
      round_len;
      input;
      buf = Mewc_fallback.Round_buffer.create ~last:(rounds cfg);
      extracted = Hashtbl.create 16;
      to_relay = [];
      decision = None;
      decided_at = None;
    }

  let decision st = st.decision
  let decided_at st = st.decided_at

  let chain_valid st ~bucket m =
    let signed =
      Certificate.signed_message ~purpose
        ~payload:(payload ~instance:m.instance m.value)
    in
    match m.chain with
    | first :: _ ->
      Pid.equal (Pki.Sig.signer first) m.instance
      && List.length
           (List.sort_uniq Pid.compare (List.map Pki.Sig.signer m.chain))
         >= bucket + 1
      && List.for_all (fun sg -> Pki.verify st.pki sg ~msg:signed) m.chain
    | [] -> false

  let ingest st bucket iter =
    iter (fun m ->
        if bucket <= st.cfg.Config.t && chain_valid st ~bucket m then begin
          let seen = Option.value ~default:[] (Hashtbl.find_opt st.extracted m.instance) in
          if
            List.length seen < 2
            && not (List.exists (V.equal m.value) seen)
          then begin
            Hashtbl.replace st.extracted m.instance (m.value :: seen);
            if bucket < st.cfg.Config.t then begin
              let own =
                Pki.sign st.pki st.secret
                  (Certificate.signed_message ~purpose
                     ~payload:(payload ~instance:m.instance m.value))
              in
              st.to_relay <-
                { m with round = bucket + 1; chain = m.chain @ [ own ] }
                :: st.to_relay
            end
          end
        end)

  let decide st ~slot =
    (* The outcome of instance s is its unique extracted value (⊥ if zero or
       two); the decision is the most frequent non-⊥ outcome, ties broken by
       value order. With n = 2t+1, a unanimous correct input always wins. *)
    let counts : (string, V.t * int) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun instance ->
        match Hashtbl.find_opt st.extracted instance with
        | Some [ v ] ->
          let key = V.encode v in
          let _, c = Option.value ~default:(v, 0) (Hashtbl.find_opt counts key) in
          Hashtbl.replace counts key (v, c + 1)
        | Some _ | None -> ())
      (Pid.all ~n:st.cfg.Config.n);
    let best =
      Hashtbl.fold
        (fun _ (v, c) acc ->
          match acc with
          | Some (bv, bc) ->
            if c > bc || (c = bc && V.compare v bv < 0) then Some (v, c) else acc
          | None -> Some (v, c))
        counts None
    in
    st.decision <-
      Some (match best with Some (v, _) -> v | None -> st.input);
    st.decided_at <- Some slot

  (* Off-boundary (and post-protocol) steps only buffer the inbox, so with
     nothing delivered they are no-ops — the FALLBACK wake contract. *)
  let wake ~after st =
    let s =
      Process.next_boundary ~start:st.start_slot ~period:st.round_len ~after
    in
    if s < st.start_slot + (rounds st.cfg * st.round_len) then s
    else Process.never

  (* Every round boundary is a wake, so no boundary is skipped and the
     buffer's ingested-round mark is always current. *)
  let receive st ~slot:_ ~src:_ m =
    Mewc_fallback.Round_buffer.add st.buf ~round:m.round m

  let step ~slot ~inbox st =
    Mail.iter (fun src msg -> receive st ~slot ~src msg) inbox;
    if slot < st.start_slot || (slot - st.start_slot) mod st.round_len <> 0 then
      (st, [])
    else begin
      let r = (slot - st.start_slot) / st.round_len in
      if r >= rounds st.cfg then (st, [])
      else begin
        Mewc_fallback.Round_buffer.drain st.buf ~upto:r (ingest st);
        let n = st.cfg.Config.n in
        let sends =
          if r = 0 then begin
            let sg =
              Pki.sign st.pki st.secret
                (Certificate.signed_message ~purpose
                   ~payload:(payload ~instance:st.pid st.input))
            in
            Hashtbl.replace st.extracted st.pid [ st.input ];
            Process.broadcast_others ~n ~self:st.pid
              { round = 0; instance = st.pid; value = st.input; chain = [ sg ] }
          end
          else if r <= st.cfg.Config.t + 1 then begin
            let out =
              List.concat_map
                (fun m -> Process.broadcast_others ~n ~self:st.pid m)
                (List.rev st.to_relay)
            in
            st.to_relay <- [];
            out
          end
          else []
        in
        if r = st.cfg.Config.t + 1 && st.decision = None then decide st ~slot;
        (st, sends)
      end
    end
end
