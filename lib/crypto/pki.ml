open Mewc_prelude

(* Memo ids are consecutive ints: hashing one is the identity, and a lookup
   compares ints, where a generic [Hashtbl] would call [caml_hash] and
   [compare_val] on every verify. *)
module Id_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id
end)

(* Bounded memo table. MAC keys are fixed at setup and never rotate, so a
   cached tag can never go stale — the only invalidation is the capacity
   epoch-clear, which is a pure perf event, never a correctness one.

   Domain safety: the sharded engine calls [share_tag]/[aggregate_tag] from
   several domains at once, so each domain gets its own private hash table
   per memo (no locks on the hot path, no torn reads). A value computed in
   one domain is simply recomputed in another — correct by the same
   argument as the epoch-clear. Hit/miss counters are atomics: their totals
   are exact, but their *split* legitimately varies with the shard count
   (per-domain cache locality), which is why shard-identity comparisons
   exclude cache stats. *)
module Memo (Key : Hashtbl.HashedType) (Value : sig
  type t
end) =
struct
  module Tbl = Hashtbl.Make (Key)

  type tables = Value.t Tbl.t

  let ids = Atomic.make 0

  (* One DLS slot per key type: a per-domain map from memo identity to
     that domain's private table. DLS keys are never reclaimed by the
     runtime, so per-memo keys would leak one slot per simulation run; a
     single shared slot with a swept map is bounded instead. *)
  let domain_tables : tables Id_tbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Id_tbl.create 16)

  (* Tables of long-dead memos are swept wholesale once a domain has seen
     this many distinct memos of this key type — a rare, correctness-neutral
     event. Every PKI owns one memo of each of the two key types, so this
     keeps the tables of the last 32 PKIs live per domain. *)
  let max_live_tables = 32

  type t = {
    id : int;
    capacity : int;
    hits : int Atomic.t;
    misses : int Atomic.t;
  }

  let create ~capacity =
    {
      id = Atomic.fetch_and_add ids 1;
      capacity;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
    }

  (* [Hashtbl.find] rather than [find_opt]: a lookup that hits allocates
     nothing. *)
  let table m =
    let per_domain = Domain.DLS.get domain_tables in
    match Id_tbl.find per_domain m.id with
    | tbl -> tbl
    | exception Not_found ->
      if Id_tbl.length per_domain >= max_live_tables then
        Id_tbl.reset per_domain;
      let tbl = Tbl.create 256 in
      Id_tbl.add per_domain m.id tbl;
      tbl

  let store tbl m key v =
    if Tbl.length tbl >= m.capacity then Tbl.reset tbl;
    Tbl.replace tbl key v

  (* [compute ctx key] runs on a miss only. With a closed [compute] and
     its state passed as [ctx], a hit allocates nothing: no closure, no
     option. *)
  let find_or_compute m key compute ctx =
    let tbl = table m in
    match Tbl.find tbl key with
    | v ->
      Atomic.incr m.hits;
      v
    | exception Not_found ->
      Atomic.incr m.misses;
      let v = compute ctx key in
      store tbl m key v;
      v

  (* Record a value computed elsewhere, counting neither a hit nor a miss. *)
  let seed m key v = store (table m) m key v

  (* A lookup answered before it reached the table. *)
  let hit m = Atomic.incr m.hits

  (* Drops the calling domain's table, so a finished run's entries are
     garbage now instead of when the sweep above reaches them. *)
  let release m = Id_tbl.remove (Domain.DLS.get domain_tables) m.id

  let reset m =
    (* Clears only the calling domain's table. Other domains' tables cannot
       go stale (keys never rotate), so leaving them is a perf artifact,
       not a correctness one. *)
    (match Id_tbl.find_opt (Domain.DLS.get domain_tables) m.id with
    | Some tbl -> Tbl.reset tbl
    | None -> ());
    Atomic.set m.hits 0;
    Atomic.set m.misses 0
end

(* The share-tag memo key: signer [p] on [msg]. A record rather than a
   joined string, so a lookup copies no bytes. *)
type share_key = { signer : int; msg : string }

module Share_memo =
  Memo
    (struct
      type t = share_key

      let equal a b = a.signer = b.signer && String.equal a.msg b.msg
      let hash = Hashtbl.hash
    end)
    (Sha256)

(* The aggregate memo key: a signer set as its bitset (bit [p] of [set] is
   process [p], see {!bits_create}; one length per setup, so equal sets
   have equal strings) and the message. Its value keeps the set as a
   [Pid.Set.t] beside the tag, so a certificate built on a hit reuses the
   set instead of rebuilding it. *)
type agg_key = { set : string; msg : string }

module Agg_memo =
  Memo
    (struct
      type t = agg_key

      let equal a b = String.equal a.set b.set && String.equal a.msg b.msg
      let hash = Hashtbl.hash
    end)
    (struct
      type t = Pid.Set.t * Sha256.t
    end)

let default_cache_capacity = 1 lsl 14

(* Timing hook for the hash hot paths. The profiler lives above this
   library (lib/sim), so the dependency is inverted through a polymorphic
   record the caller installs; [None] (the default) costs one match per
   hash computation. *)
type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

(* Live-telemetry mirrors of the sign/verify/combine counters. Handles are
   resolved once at install time; the per-op cost when metering is off is
   one match, and when on each counter lands in the calling domain's
   private cell — safe from sharded workers, and the totals are
   shard-invariant because every shard performs exactly the calls the
   sequential engine would. *)
type meters = {
  signs_m : Mewc_obs.Metrics.counter;
  verifies_m : Mewc_obs.Metrics.counter;
  combines_m : Mewc_obs.Metrics.counter;
}

type t = {
  n : int;
  hmac_keys : Sha256.key array;  (* trusted setup, HMAC midstates precomputed *)
  tag_memo : Share_memo.t;  (* (signer, msg) -> expected share tag *)
  agg_memo : Agg_memo.t;  (* (signer bitset, msg) -> (signer set, aggregate tag) *)
  (* Atomic so concurrent shards count exactly. The totals are a pure
     function of which operations ran — identical across shard counts —
     because every shard performs the same calls the sequential engine
     would have. *)
  signs : int Atomic.t;
  verifies : int Atomic.t;
  combines : int Atomic.t;
  mutable timer : timer option;
  mutable meters : meters option;
}

module Secret = struct
  type nonrec t = { owner : Pid.t; hmac_key : Sha256.key }

  let owner s = s.owner
end

let setup ?(seed = 0x5EEDL) ?(cache_capacity = default_cache_capacity) ~n () =
  let rng = Rng.create seed in
  let hmac_keys =
    Array.init n (fun i ->
        Sha256.hmac_key
          (Printf.sprintf "mewc-key-%d-%Lx-%Lx" i (Rng.int64 rng) (Rng.int64 rng)))
  in
  let pki =
    {
      n;
      hmac_keys;
      tag_memo = Share_memo.create ~capacity:cache_capacity;
      agg_memo = Agg_memo.create ~capacity:cache_capacity;
      signs = Atomic.make 0;
      verifies = Atomic.make 0;
      combines = Atomic.make 0;
      timer = None;
      meters = None;
    }
  in
  let secrets =
    Array.init n (fun i -> { Secret.owner = i; hmac_key = hmac_keys.(i) })
  in
  (pki, secrets)

let n t = t.n
let set_timer t timer = t.timer <- timer

let set_metrics t registry =
  t.meters <-
    Option.map
      (fun reg ->
        {
          signs_m = Mewc_obs.Metrics.counter reg "pki.signs";
          verifies_m = Mewc_obs.Metrics.counter reg "pki.verifies";
          combines_m = Mewc_obs.Metrics.counter reg "pki.combines";
        })
      registry

let timed t name f =
  match t.timer with None -> f () | Some { time } -> time name f

let meter t get =
  match t.meters with
  | None -> ()
  | Some m -> Mewc_obs.Metrics.incr (get m)

module Sig = struct
  (* [mark] is the [Tsig.ok_for] verdict cell for a signature: [Marked (pki,
     msg)] says this tag already passed under [pki] (compared physically)
     on [msg], so a broadcast signature is checked once per value rather
     than once per receiver. The pair is one immutable block written by a
     single store, so a reader on another domain sees the old pair or the
     new one, never one's pki with the other's message. Every pair ever
     written is a verdict that held, and keys never rotate, so a lost
     update only costs a memo probe. [equal], [compare] and the wire view
     ignore the cell. *)
  type mark = Unmarked | Marked of t * string

  type nonrec t = { signer : Pid.t; tag : Sha256.t; mutable mark : mark }

  let signer s = s.signer
  let equal a b = Pid.equal a.signer b.signer && Sha256.equal a.tag b.tag

  let compare a b =
    match Pid.compare a.signer b.signer with
    | 0 -> Sha256.compare a.tag b.tag
    | c -> c

  let pp fmt s = Format.fprintf fmt "<sig:%a>" Pid.pp s.signer
end

(* A signer's tag is the very tag its receivers' [verify] will recompute,
   so signing seeds the memo with it and marks the signature verified —
   but only for a secret this setup issued to that owner (the key compared
   physically): a secret from another setup must never plant its tag under
   a local signer's id, nor vouch for its own signature. *)
let sign t (secret : Secret.t) msg =
  Atomic.incr t.signs;
  meter t (fun m -> m.signs_m);
  let owner = secret.Secret.owner in
  let tag =
    timed t "crypto.sign" (fun () -> Sha256.hmac_with secret.Secret.hmac_key msg)
  in
  if Pid.is_valid ~n:t.n owner && t.hmac_keys.(owner) == secret.Secret.hmac_key
  then begin
    Share_memo.seed t.tag_memo { signer = owner; msg } tag;
    { Sig.signer = owner; tag; mark = Sig.Marked (t, msg) }
  end
  else { Sig.signer = owner; tag; mark = Sig.Unmarked }

(* Timed on the miss path only: a cache hit is a hashtable probe, and
   timing it would drown the signal in clock reads. *)
let share_tag_miss t { signer; msg } =
  timed t "crypto.share_tag" (fun () -> Sha256.hmac_with t.hmac_keys.(signer) msg)

(* The genuine share tag of signer [p] on [msg], memoized. A hit allocates
   only its key. *)
let share_tag t p msg =
  Share_memo.find_or_compute t.tag_memo { signer = p; msg } share_tag_miss t

(* A signature marked for this setup and message answers from its cell,
   counted as the memo hit it stands for; anything else asks the memo, and
   only a passing check marks. *)
let verify t (s : Sig.t) ~msg =
  Atomic.incr t.verifies;
  meter t (fun m -> m.verifies_m);
  match s.Sig.mark with
  | Sig.Marked (pki, m) when pki == t && String.equal m msg ->
    Share_memo.hit t.tag_memo;
    true
  | Sig.Marked _ | Sig.Unmarked ->
    Pid.is_valid ~n:t.n s.Sig.signer
    && Sha256.equal s.Sig.tag (share_tag t s.Sig.signer msg)
    && begin
         s.Sig.mark <- Sig.Marked (t, msg);
         true
       end

module Tsig = struct
  (* [ok_for] caches a (pki, msg) pair this tag has already been fully
     checked against. MAC keys never rotate, so a verdict cannot go stale;
     the pki witness (compared physically) keeps the shortcut from leaking
     across distinct trusted setups. The cell rides the value itself, so a
     broadcast certificate is re-verified once per run, not once per
     receiver — and unlike the bounded memo tables it survives epoch
     clears for free. Under the sharded engine concurrent writes to the
     cell race benignly: a pointer store cannot tear, every written value
     is a valid verdict for the same immutable tag, and a lost update only
     costs a re-verification.

     [count] is [Pid.Set.cardinal signers], computed once where the value is
     built: every receiver's threshold check reads it instead of walking
     the set. *)
  type nonrec t = {
    signers : Pid.Set.t;
    count : int;
    tag : Sha256.t;
    mutable ok_for : (t * string) option;
  }

  let make signers ~count tag = { signers; count; tag; ok_for = None }
  let cardinality ts = ts.count
  let equal a b = Pid.Set.equal a.signers b.signers && Sha256.equal a.tag b.tag
  let pp fmt ts = Format.fprintf fmt "<tsig:%d shares>" ts.count
end

(* Signer sets under construction: bit [p] of the bytes is process [p]. *)
let bits_create t = Bytes.make ((t.n + 7) / 8) '\000'

let bits_mem bits p =
  Char.code (Bytes.unsafe_get bits (p lsr 3)) land (1 lsl (p land 7)) <> 0

let bits_add bits p =
  let byte = Char.code (Bytes.unsafe_get bits (p lsr 3)) in
  Bytes.unsafe_set bits (p lsr 3) (Char.unsafe_chr (byte lor (1 lsl (p land 7))))

(* The [k] lowest members of [bits], which holds at least [k], as a fresh
   bitset of the same length. *)
let lowest_bits bits k =
  let out = Bytes.make (Bytes.length bits) '\000' in
  let left = ref k and i = ref 0 in
  while !left > 0 do
    let byte = ref (Char.code (Bytes.get bits !i)) and kept = ref 0 in
    while !byte <> 0 && !left > 0 do
      let low = !byte land (- !byte) in
      kept := !kept lor low;
      byte := !byte lxor low;
      decr left
    done;
    Bytes.unsafe_set out !i (Char.unsafe_chr !kept);
    incr i
  done;
  Bytes.unsafe_to_string out

(* [Pid.Set.of_list] sorts its argument even when it is sorted, which costs
   several times the set itself. [Pid.Set.map] of a strictly increasing
   function rebuilds a tree node by node, so the set of [k] ascending pids
   is the template [of_list [0; …; k-1]] mapped onto them, for about the
   price of its nodes. (Its balance can differ from [of_list]'s; only the
   elements are ever read.) The templates, one per [k], are immutable and
   published by compare-and-set, so every domain and thread shares them
   without a lock. *)
module Int_map = Map.Make (Int)

let templates : Pid.Set.t Int_map.t Atomic.t = Atomic.make Int_map.empty

let rec template k =
  let known = Atomic.get templates in
  match Int_map.find k known with
  | s -> s
  | exception Not_found ->
    let s = Pid.Set.of_list (List.init k Fun.id) in
    if Atomic.compare_and_set templates known (Int_map.add k s known) then s
    else template k

(* The members of a bitset, ascending. *)
let members set =
  let pids = ref [] in
  for p = (String.length set * 8) - 1 downto 0 do
    if bits_mem (Bytes.unsafe_of_string set) p then pids := p :: !pids
  done;
  Array.of_list !pids

(* The aggregate tag binds the signer set and the message: it is the digest
   of the individual HMAC tags in signer order, which only someone holding
   (or having verified) k genuine shares can compute. Memoized per
   (signer bitset, msg) with the set itself: combine computes it and
   verify_tsig re-derives it for the same set on the receiving side,
   usually n times per certificate. A miss builds the set from the bitset;
   a hit hands back the set the miss built. *)
let aggregate_miss t { set; msg } =
  let pids = members set in
  let signers = Pid.Set.map (fun i -> pids.(i)) (template (Array.length pids)) in
  let tag =
    timed t "crypto.aggregate_tag" (fun () ->
        let buf = Buffer.create 256 in
        Array.iter
          (fun p -> Buffer.add_string buf (Sha256.to_raw (share_tag t p msg)))
          pids;
        Sha256.digest (Buffer.contents buf))
  in
  (signers, tag)

let aggregate t ~set ~msg =
  Agg_memo.find_or_compute t.agg_memo { set; msg } aggregate_miss t

(* The threshold signature over exactly the [k] lowest signers in [bits],
   which holds at least [k] — kept for determinism by both {!combine} and
   {!Tally.certificate}. Each call builds a fresh [Tsig.t], so one
   process's verdict cell never answers another's check. *)
let lowest_k t ~k ~msg bits =
  let k = max 0 k in
  let signers, tag = aggregate t ~set:(lowest_bits bits k) ~msg in
  Tsig.make signers ~count:k tag

let combine t ~k ~msg shares =
  Atomic.incr t.combines;
  meter t (fun m -> m.combines_m);
  let bits = bits_create t in
  let count =
    List.fold_left
      (fun count s ->
        (* [verify] passes only signers of this setup. *)
        if verify t s ~msg && not (bits_mem bits (Sig.signer s)) then begin
          bits_add bits (Sig.signer s);
          count + 1
        end
        else count)
      0 shares
  in
  if count < k then None else Some (lowest_k t ~k ~msg bits)

let verify_tsig t (ts : Tsig.t) ~k ~msg =
  Atomic.incr t.verifies;
  meter t (fun m -> m.verifies_m);
  ts.Tsig.count >= k
  && (* The cardinality check stays outside the shortcut: the same tag can
        legitimately pass at one [k] and fail at a larger one. *)
  match ts.Tsig.ok_for with
  | Some (pki, m) when pki == t && String.equal m msg -> true
  | _ ->
    Pid.Set.for_all (Pid.is_valid ~n:t.n) ts.Tsig.signers
    && begin
         let bits = bits_create t in
         Pid.Set.iter (bits_add bits) ts.Tsig.signers;
         let _, tag = aggregate t ~set:(Bytes.unsafe_to_string bits) ~msg in
         Sha256.equal ts.Tsig.tag tag
       end
    && begin
         ts.Tsig.ok_for <- Some (t, msg);
         true
       end

(* Incremental quorum accounting: verify each share once, on delivery, and
   keep a running signer bitset — instead of stockpiling shares and
   re-verifying the whole batch inside {!combine} when the quorum finally
   lands. [count] tracks the set's cardinality, so {!complete} is a
   comparison, and a share costs one bit: the [Pid.Set] is built by
   {!certificate}. *)
module Tally = struct
  type verdict = Added | Duplicate | Invalid

  type nonrec t = {
    pki : t;
    msg : string;
    k : int;
    signers : Bytes.t;  (* see {!bits_create} *)
    mutable count : int;
  }

  let add tl (s : Sig.t) =
    (* Verify before deduplicating: callers distinguish a valid repeat (a
       correct process re-sending) from garbage, e.g. weak BA answers every
       valid help request, duplicates included. [verify] passes only
       signers of this setup. *)
    if not (verify tl.pki s ~msg:tl.msg) then Invalid
    else begin
      let p = Sig.signer s in
      if bits_mem tl.signers p then Duplicate
      else begin
        bits_add tl.signers p;
        tl.count <- tl.count + 1;
        Added
      end
    end

  let count tl = tl.count
  let mem tl p = Pid.is_valid ~n:tl.pki.n p && bits_mem tl.signers p
  let complete tl = count tl >= tl.k

  let certificate tl =
    if not (complete tl) then None
    else begin
      let t = tl.pki in
      Atomic.incr t.combines;
      meter t (fun m -> m.combines_m);
      (* Byte-identical to what {!combine} returns for the same valid
         signers. *)
      Some (lowest_k t ~k:tl.k ~msg:tl.msg tl.signers)
    end
end

let tally t ~k ~msg = { Tally.pki = t; msg; k; signers = bits_create t; count = 0 }

module Wire = struct
  let sig_view (s : Sig.t) = (s.Sig.signer, s.Sig.tag)
  let sig_of_view ~signer ~tag = { Sig.signer; tag; mark = Sig.Unmarked }
  let tsig_view (ts : Tsig.t) = (Pid.Set.elements ts.Tsig.signers, ts.Tsig.tag)

  let tsig_of_view ~signers ~tag =
    let signers = Pid.Set.of_list signers in
    Tsig.make signers ~count:(Pid.Set.cardinal signers) tag
end

let signatures_created t = Atomic.get t.signs
let verifications_performed t = Atomic.get t.verifies
let combines_performed t = Atomic.get t.combines

type cache_stats = {
  verify_hits : int;
  verify_misses : int;
  agg_hits : int;
  agg_misses : int;
}

let cache_stats t =
  {
    verify_hits = Atomic.get t.tag_memo.Share_memo.hits;
    verify_misses = Atomic.get t.tag_memo.Share_memo.misses;
    agg_hits = Atomic.get t.agg_memo.Agg_memo.hits;
    agg_misses = Atomic.get t.agg_memo.Agg_memo.misses;
  }

let no_cache_stats = { verify_hits = 0; verify_misses = 0; agg_hits = 0; agg_misses = 0 }

let hit_rate ~hits ~misses =
  if hits + misses = 0 then 0.0
  else float_of_int hits /. float_of_int (hits + misses)

let cache_stats_of_json j =
  let ( let* ) = Result.bind in
  let field name =
    match Option.bind (Jsonx.member name j) Jsonx.get_int with
    | Some v -> Ok v
    | None ->
      Error (Printf.sprintf "Pki.cache_stats_of_json: bad or missing %S" name)
  in
  let* verify_hits = field "verify_hits" in
  let* verify_misses = field "verify_misses" in
  let* agg_hits = field "agg_hits" in
  let* agg_misses = field "agg_misses" in
  Ok { verify_hits; verify_misses; agg_hits; agg_misses }

let cache_stats_to_json (s : cache_stats) =
  Jsonx.Obj
    [
      ("verify_hits", Jsonx.Int s.verify_hits);
      ("verify_misses", Jsonx.Int s.verify_misses);
      ("verify_hit_rate", Jsonx.Float (hit_rate ~hits:s.verify_hits ~misses:s.verify_misses));
      ("agg_hits", Jsonx.Int s.agg_hits);
      ("agg_misses", Jsonx.Int s.agg_misses);
      ("agg_hit_rate", Jsonx.Float (hit_rate ~hits:s.agg_hits ~misses:s.agg_misses));
    ]

let release t =
  Share_memo.release t.tag_memo;
  Agg_memo.release t.agg_memo

let reset_counters t =
  Atomic.set t.signs 0;
  Atomic.set t.verifies 0;
  Atomic.set t.combines 0;
  Share_memo.reset t.tag_memo;
  Agg_memo.reset t.agg_memo
