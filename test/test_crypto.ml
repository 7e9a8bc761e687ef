open Mewc_crypto

let hex = Sha256.to_hex

let check_digest msg expected () =
  Alcotest.(check string) "digest" expected (hex (Sha256.digest msg))

let sha256_vectors =
  [
    ( "empty string",
      "",
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" );
    ( "abc",
      "abc",
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" );
    ( "two blocks",
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "448 bits (padding edge)",
      String.make 56 'x',
      Sha256.to_hex (Sha256.digest (String.make 56 'x')) );
  ]

(* Padding edges: every length around the 64-byte block boundary must hash
   without error and injectively (distinct inputs, distinct digests). *)
let padding_edges () =
  let digests =
    List.map
      (fun len -> hex (Sha256.digest (String.make len 'a')))
      [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]
  in
  let distinct = List.sort_uniq String.compare digests in
  Alcotest.(check int) "all distinct" (List.length digests) (List.length distinct)

let million_a () =
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex (Sha256.digest (String.make 1_000_000 'a')))

let hmac_rfc4231_case2 () =
  (* RFC 4231 test case 2: key "Jefe". *)
  Alcotest.(check string) "hmac"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Sha256.hmac ~key:"Jefe" "what do ya want for nothing?"))

let hmac_long_key () =
  (* Keys longer than one block are themselves hashed (RFC 2104). *)
  let key = String.make 131 '\xaa' in
  Alcotest.(check string) "hmac"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex
       (Sha256.hmac ~key
          "Test Using Larger Than Block-Size Key - Hash Key First"))

(* ---- reference kernel ----------------------------------------------------
   A boxed-Int32 SHA-256 in OCaml, the test-only oracle for the C kernel
   (lib/crypto/sha256_stubs.c), with textbook padding and textbook HMAC
   (RFC 2104: H((K xor opad) || H((K xor ipad) || m))) — no midstates, no
   partial blocks. *)
module Reference = struct
  let k =
    [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
       0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
       0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
       0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
       0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
       0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
       0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
       0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
       0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
       0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
       0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
       0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
       0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

  let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
  let ( +% ) = Int32.add
  let ( ^% ) = Int32.logxor
  let ( &% ) = Int32.logand
  let lnot32 = Int32.lognot

  let fresh_state () =
    [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al;
       0x510e527fl; 0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l |]

  (* One FIPS 180-4 compression round: fold the 64-byte block at [buf.(off)]
     into [h]. [w] is caller-provided scratch so tight loops allocate nothing. *)
  let compress h w buf off =
    let word o =
      let b i = Int32.of_int (Char.code (Bytes.unsafe_get buf (o + i))) in
      Int32.logor
        (Int32.shift_left (b 0) 24)
        (Int32.logor (Int32.shift_left (b 1) 16)
           (Int32.logor (Int32.shift_left (b 2) 8) (b 3)))
    in
    for i = 0 to 15 do
      w.(i) <- word (off + (i * 4))
    done;
    for i = 16 to 63 do
      let s0 = rotr w.(i - 15) 7 ^% rotr w.(i - 15) 18 ^% Int32.shift_right_logical w.(i - 15) 3 in
      let s1 = rotr w.(i - 2) 17 ^% rotr w.(i - 2) 19 ^% Int32.shift_right_logical w.(i - 2) 10 in
      w.(i) <- w.(i - 16) +% s0 +% w.(i - 7) +% s1
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 63 do
      let s1 = rotr !e 6 ^% rotr !e 11 ^% rotr !e 25 in
      let ch = (!e &% !f) ^% (lnot32 !e &% !g) in
      let temp1 = !hh +% s1 +% ch +% k.(i) +% w.(i) in
      let s0 = rotr !a 2 ^% rotr !a 13 ^% rotr !a 22 in
      let maj = (!a &% !b) ^% (!a &% !c) ^% (!b &% !c) in
      let temp2 = s0 +% maj in
      hh := !g;
      g := !f;
      f := !e;
      e := !d +% temp1;
      d := !c;
      c := !b;
      b := !a;
      a := temp1 +% temp2
    done;
    h.(0) <- h.(0) +% !a;
    h.(1) <- h.(1) +% !b;
    h.(2) <- h.(2) +% !c;
    h.(3) <- h.(3) +% !d;
    h.(4) <- h.(4) +% !e;
    h.(5) <- h.(5) +% !f;
    h.(6) <- h.(6) +% !g;
    h.(7) <- h.(7) +% !hh

  let state_to_raw h =
    let out = Bytes.create 32 in
    for i = 0 to 7 do
      let v = h.(i) in
      for j = 0 to 3 do
        Bytes.set out
          ((i * 4) + j)
          (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical v (8 * (3 - j))) 0xFFl)))
      done
    done;
    Bytes.unsafe_to_string out

  let digest msg =
    let len = String.length msg in
    let total = (len + 9 + 63) / 64 * 64 in
    let buf = Bytes.make total '\x00' in
    Bytes.blit_string msg 0 buf 0 len;
    Bytes.set buf len '\x80';
    Bytes.set_int64_be buf (total - 8) (Int64.of_int (len * 8));
    let h = fresh_state () and w = Array.make 64 0l in
    for blk = 0 to (total / 64) - 1 do
      compress h w buf (blk * 64)
    done;
    state_to_raw h

  let hmac ~key msg =
    let key = if String.length key > 64 then digest key else key in
    let pad byte =
      String.init 64 (fun i ->
          let c = if i < String.length key then Char.code key.[i] else 0 in
          Char.chr (c lxor byte))
    in
    digest (pad 0x5c ^ digest (pad 0x36 ^ msg))
end

(* Padding boundaries: the last length whose tail fits one block (55), the
   first that needs two (56), and the block edges around them. *)
let boundary_lengths = [ 55; 56; 63; 64; 119; 120; 128 ]

(* Key lengths around the block size: the longest kept as is (64), and the
   first that is hashed first (65). *)
let key_lengths = [ 63; 64; 65 ]

(* Every case checks a random message of 0-2,048 bytes plus a message of
   each boundary length, under a random key of 0-200 bytes and a key of
   each edge length, so no run can miss the padding or key edges. *)
let kernel_matches_reference =
  Test_util.qcheck_case ~count:200
    ~name:"digest and hmac_with == the Int32 reference kernel"
    QCheck2.Gen.(
      triple (string_size (int_range 0 200)) (string_size (int_range 0 2048))
        (string_size (return 128)))
    (fun (key, msg, filler) ->
      let prefixes s = List.map (fun len -> String.sub s 0 len) in
      let msgs = msg :: prefixes filler boundary_lengths in
      let keys = key :: prefixes (String.uppercase_ascii filler) key_lengths in
      List.for_all
        (fun m ->
          String.equal (Sha256.to_raw (Sha256.digest m)) (Reference.digest m))
        msgs
      && List.for_all
           (fun key ->
             let hkey = Sha256.hmac_key key in
             List.for_all
               (fun m ->
                 String.equal
                   (Sha256.to_raw (Sha256.hmac_with hkey m))
                   (Reference.hmac ~key m))
               msgs)
           keys)

(* One call to the C kernel, which allocates only the 32-byte tag: 6 words
   with its header (the OCaml kernel it replaced allocated 180). *)
let hmac_allocation_guard () =
  let key = Sha256.hmac_key "mewc-key-0" in
  let msg = String.make 26 'm' in
  ignore (Sha256.hmac_with key msg : Sha256.t);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Sha256.hmac_with key msg) : Sha256.t)
  done;
  let per_call = (Gc.minor_words () -. before) /. 1000. in
  if per_call >= 16. then
    Alcotest.failf "hmac_with allocates %.1f minor words per call (limit 16)"
      per_call

(* The kernel keeps no state between calls: two domains hashing at once
   get exactly the sequential answers. *)
let kernel_shares_nothing () =
  let key = Sha256.hmac_key "shared key" in
  let msgs =
    List.init 64 (fun i -> String.make (i * 37) (Char.chr (65 + (i mod 26))))
  in
  let run () =
    List.map (fun m -> (Sha256.hmac_with key m, Sha256.digest m)) msgs
  in
  let expected = run () in
  let loop () = List.init 200 (fun _ -> run ()) in
  let d1 = Domain.spawn loop and d2 = Domain.spawn loop in
  List.iter
    (fun results ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "same as sequential" true
            (List.for_all2
               (fun (h, d) (h', d') -> Sha256.equal h h' && Sha256.equal d d')
               expected r))
        results)
    [ Domain.join d1; Domain.join d2 ]

let setup n = Pki.setup ~seed:42L ~n ()

let sign_verify () =
  let pki, secrets = setup 5 in
  let sg = Pki.sign pki secrets.(2) "hello" in
  Alcotest.(check bool) "verifies" true (Pki.verify pki sg ~msg:"hello");
  Alcotest.(check bool) "wrong msg" false (Pki.verify pki sg ~msg:"hellp");
  Alcotest.(check int) "signer" 2 (Pki.Sig.signer sg)

let cross_pki_rejected () =
  let pki_a, secrets_a = Pki.setup ~seed:1L ~n:5 () in
  let pki_b, _ = Pki.setup ~seed:2L ~n:5 () in
  let sg = Pki.sign pki_a secrets_a.(0) "m" in
  Alcotest.(check bool) "own pki" true (Pki.verify pki_a sg ~msg:"m");
  Alcotest.(check bool) "other pki" false (Pki.verify pki_b sg ~msg:"m")

let shares pki secrets msg idxs = List.map (fun i -> Pki.sign pki secrets.(i) msg) idxs

let threshold_combine () =
  let pki, secrets = setup 7 in
  let sh = shares pki secrets "v" [ 0; 1; 2; 3 ] in
  (match Pki.combine pki ~k:4 ~msg:"v" sh with
  | Some ts ->
    Alcotest.(check bool) "verifies" true (Pki.verify_tsig pki ts ~k:4 ~msg:"v");
    Alcotest.(check bool) "wrong msg" false (Pki.verify_tsig pki ts ~k:4 ~msg:"w");
    Alcotest.(check int) "cardinality" 4 (Pki.Tsig.cardinality ts)
  | None -> Alcotest.fail "combine failed with enough shares");
  Alcotest.(check bool) "too few" true
    (Pki.combine pki ~k:4 ~msg:"v" (shares pki secrets "v" [ 0; 1; 2 ]) = None)

let threshold_duplicates_dont_count () =
  let pki, secrets = setup 7 in
  let s0 = Pki.sign pki secrets.(0) "v" in
  let sh = [ s0; s0; s0; Pki.sign pki secrets.(1) "v" ] in
  Alcotest.(check bool) "dups rejected" true (Pki.combine pki ~k:3 ~msg:"v" sh = None)

let threshold_invalid_shares_filtered () =
  let pki, secrets = setup 7 in
  let bad = Pki.sign pki secrets.(2) "other-message" in
  let sh = bad :: shares pki secrets "v" [ 0; 1 ] in
  Alcotest.(check bool) "invalid filtered" true
    (Pki.combine pki ~k:3 ~msg:"v" sh = None)

let threshold_deterministic () =
  let pki, secrets = setup 7 in
  let sh = shares pki secrets "v" [ 4; 1; 3; 0; 2 ] in
  match (Pki.combine pki ~k:3 ~msg:"v" sh, Pki.combine pki ~k:3 ~msg:"v" (List.rev sh)) with
  | Some a, Some b -> Alcotest.(check bool) "equal" true (Pki.Tsig.equal a b)
  | _ -> Alcotest.fail "combine failed"

let certificate_roundtrip () =
  let pki, secrets = setup 7 in
  let share i =
    Certificate.share pki secrets.(i) ~purpose:"test" ~payload:"42"
  in
  let sh = List.map share [ 0; 1; 2; 5 ] in
  match Certificate.make pki ~k:4 ~purpose:"test" ~payload:"42" sh with
  | None -> Alcotest.fail "make failed"
  | Some c ->
    Alcotest.(check bool) "verify" true (Certificate.verify pki c ~k:4);
    Alcotest.(check bool) "verify_as" true
      (Certificate.verify_as pki c ~k:4 ~purpose:"test");
    Alcotest.(check bool) "wrong purpose" false
      (Certificate.verify_as pki c ~k:4 ~purpose:"other");
    Alcotest.(check string) "payload" "42" (Certificate.payload c);
    Alcotest.(check int) "words" 1 (Certificate.words c)

let certificate_purpose_domain_separation () =
  (* A share for one purpose must not contribute to a certificate for
     another purpose even with identical payloads. *)
  let pki, secrets = setup 7 in
  let alien =
    List.map
      (fun i -> Certificate.share pki secrets.(i) ~purpose:"a" ~payload:"x")
      [ 0; 1; 2 ]
  in
  Alcotest.(check bool) "cross-purpose rejected" true
    (Certificate.make pki ~k:3 ~purpose:"b" ~payload:"x" alien = None)

let certificate_higher_k_rejected () =
  let pki, secrets = setup 7 in
  let sh =
    List.map
      (fun i -> Certificate.share pki secrets.(i) ~purpose:"p" ~payload:"y")
      [ 0; 1; 2 ]
  in
  match Certificate.make pki ~k:3 ~purpose:"p" ~payload:"y" sh with
  | None -> Alcotest.fail "make failed"
  | Some c ->
    Alcotest.(check bool) "k=3 ok" true (Certificate.verify pki c ~k:3);
    Alcotest.(check bool) "k=4 rejected" false (Certificate.verify pki c ~k:4)

let counters () =
  let pki, secrets = setup 3 in
  Pki.reset_counters pki;
  let sg = Pki.sign pki secrets.(0) "m" in
  ignore (Pki.verify pki sg ~msg:"m");
  Alcotest.(check int) "signs" 1 (Pki.signatures_created pki);
  Alcotest.(check bool) "verifies counted" true (Pki.verifications_performed pki >= 1)

(* ---- cache equivalence ---------------------------------------------------
   The memo tables must be invisible: a cached verdict always equals the
   from-scratch one, on valid, tampered, and wrong-signer inputs alike. An
   uncached oracle is simulated with a fresh same-seed PKI per query. *)

let cached_verify_equals_uncached () =
  (* Same seed, two PKIs: one answers everything twice (second answer comes
     from the memo table), the other is rebuilt per query so it never hits.
     Verdicts must agree on valid, tampered, and wrong-signer inputs. *)
  let warm_pki, warm_secrets = setup 5 in
  let queries =
    [ ("valid", 2, "hello", "hello"); ("tampered msg", 2, "hello", "hellp") ]
  in
  List.iter
    (fun (name, signer, signed_msg, checked_msg) ->
      let uncached =
        let pki, secrets = setup 5 in
        let sg = Pki.sign pki secrets.(signer) signed_msg in
        Pki.verify pki sg ~msg:checked_msg
      in
      let sg = Pki.sign warm_pki warm_secrets.(signer) signed_msg in
      Alcotest.(check bool) (name ^ " (cold)") uncached
        (Pki.verify warm_pki sg ~msg:checked_msg);
      Alcotest.(check bool) (name ^ " (warm)") uncached
        (Pki.verify warm_pki sg ~msg:checked_msg))
    queries;
  (* Wrong signer: a tag the claimed signer's key never produced (it came
     from a different-seed PKI). Cached and uncached verdicts must agree,
     and stay rejected even after the genuine tag warmed the memo. *)
  let alien_pki, alien_secrets = Pki.setup ~seed:99L ~n:5 () in
  let alien = Pki.sign alien_pki alien_secrets.(2) "hello" in
  let uncached_alien =
    let pki, _ = setup 5 in
    Pki.verify pki alien ~msg:"hello"
  in
  Alcotest.(check bool) "wrong signer (cold)" uncached_alien
    (Pki.verify warm_pki alien ~msg:"hello");
  Alcotest.(check bool) "wrong signer (warm)" uncached_alien
    (Pki.verify warm_pki alien ~msg:"hello");
  Alcotest.(check bool) "wrong signer rejected" false
    (Pki.verify warm_pki alien ~msg:"hello");
  let stats = Pki.cache_stats warm_pki in
  Alcotest.(check bool) "warm queries hit the memo" true (stats.Pki.verify_hits >= 3)

let cached_verify_signer_isolation () =
  (* The memo is keyed by the *claimed* signer: warming it with p3's tag on
     "m" must not make p1's tag on "m" answer from p3's entry or vice versa. *)
  let pki, secrets = setup 5 in
  let sg1 = Pki.sign pki secrets.(1) "m" in
  let sg3 = Pki.sign pki secrets.(3) "m" in
  Alcotest.(check bool) "p3 genuine (warms p3 entry)" true (Pki.verify pki sg3 ~msg:"m");
  Alcotest.(check bool) "p1 genuine, same msg" true (Pki.verify pki sg1 ~msg:"m");
  Alcotest.(check bool) "p1 tampered, warm cache" false (Pki.verify pki sg1 ~msg:"m'");
  Alcotest.(check bool) "p3 again (memo hit)" true (Pki.verify pki sg3 ~msg:"m")

let cached_tsig_equals_uncached () =
  (* combine warms both memo tables; every later verdict must agree with a
     cold same-seed PKI's answer. *)
  let cold ~k ~msg =
    let pki, secrets = setup 7 in
    match Pki.combine pki ~k:4 ~msg:"v" (shares pki secrets "v" [ 0; 1; 2; 3 ]) with
    | None -> Alcotest.fail "cold combine failed"
    | Some ts -> Pki.verify_tsig pki ts ~k ~msg
  in
  let pki, secrets = setup 7 in
  let sh = shares pki secrets "v" [ 0; 1; 2; 3 ] in
  match Pki.combine pki ~k:4 ~msg:"v" sh with
  | None -> Alcotest.fail "combine failed"
  | Some ts ->
    Alcotest.(check bool) "valid" (cold ~k:4 ~msg:"v")
      (Pki.verify_tsig pki ts ~k:4 ~msg:"v");
    Alcotest.(check bool) "valid is true" true (Pki.verify_tsig pki ts ~k:4 ~msg:"v");
    Alcotest.(check bool) "tampered msg" (cold ~k:4 ~msg:"w")
      (Pki.verify_tsig pki ts ~k:4 ~msg:"w");
    Alcotest.(check bool) "tampered is false" false (Pki.verify_tsig pki ts ~k:4 ~msg:"w");
    Alcotest.(check bool) "higher k" (cold ~k:5 ~msg:"v")
      (Pki.verify_tsig pki ts ~k:5 ~msg:"v");
    let stats = Pki.cache_stats pki in
    Alcotest.(check bool) "aggregate cache hit" true (stats.Pki.agg_hits >= 1)

let cache_capacity_epoch_clear () =
  (* A capacity-2 cache thrashes constantly; answers must not change. *)
  let pki, secrets = Pki.setup ~seed:42L ~cache_capacity:2 ~n:5 () in
  let msgs = [ "a"; "b"; "c"; "d"; "a"; "b"; "c"; "d" ] in
  List.iter
    (fun msg ->
      let sg = Pki.sign pki secrets.(0) msg in
      Alcotest.(check bool) ("valid " ^ msg) true (Pki.verify pki sg ~msg);
      Alcotest.(check bool) ("tampered " ^ msg) false (Pki.verify pki sg ~msg:(msg ^ "!")))
    msgs

let reset_clears_cache_stats () =
  let pki, secrets = setup 3 in
  let sg = Pki.sign pki secrets.(0) "m" in
  ignore (Pki.verify pki sg ~msg:"m");
  ignore (Pki.verify pki sg ~msg:"m");
  Alcotest.(check bool) "hits before reset" true
    ((Pki.cache_stats pki).Pki.verify_hits > 0);
  Pki.reset_counters pki;
  let s = Pki.cache_stats pki in
  Alcotest.(check int) "hits cleared" 0 s.Pki.verify_hits;
  Alcotest.(check int) "misses cleared" 0 s.Pki.verify_misses

(* ---- memo seeding --------------------------------------------------------
   [sign] stores the tag it computes in the share-tag memo so the first
   [verify] is a lookup. It must only ever store a genuine tag: a secret
   from another setup, or one whose owner this setup does not have, never
   writes. *)

let alien_sign_does_not_seed () =
  let pki, secrets = setup 5 in
  let twin, twin_secrets = setup 5 in
  let _, alien_secrets = Pki.setup ~seed:99L ~n:5 () in
  (* The alien signs first, on a cold memo, under the colliding owner id 2;
     the genuine signature comes from a same-seed twin, so no local sign
     could repair a poisoned entry. *)
  let alien = Pki.sign pki alien_secrets.(2) "m" in
  let genuine = Pki.sign twin twin_secrets.(2) "m" in
  Alcotest.(check bool) "genuine verifies after alien sign" true
    (Pki.verify pki genuine ~msg:"m");
  Alcotest.(check bool) "alien rejected" false (Pki.verify pki alien ~msg:"m");
  (* Genuine local sign first, then the alien: the entry must stay genuine. *)
  let local = Pki.sign pki secrets.(3) "m" in
  let alien3 = Pki.sign pki alien_secrets.(3) "m" in
  Alcotest.(check bool) "local still verifies" true (Pki.verify pki local ~msg:"m");
  Alcotest.(check bool) "alien still rejected" false (Pki.verify pki alien3 ~msg:"m");
  (* A secret whose owner this setup does not have (id 7 >= n = 5). *)
  let _, wide_secrets = Pki.setup ~seed:42L ~n:10 () in
  let outsider = Pki.sign pki wide_secrets.(7) "m" in
  Alcotest.(check bool) "out-of-range owner rejected" false
    (Pki.verify pki outsider ~msg:"m")

let sign_then_verify_is_a_hit () =
  let pki, secrets = setup 5 in
  Pki.reset_counters pki;
  let sg = Pki.sign pki secrets.(1) "m" in
  Alcotest.(check bool) "verifies" true (Pki.verify pki sg ~msg:"m");
  let s = Pki.cache_stats pki in
  Alcotest.(check (pair int int)) "hits, misses" (1, 0)
    (s.Pki.verify_hits, s.Pki.verify_misses)

(* A copy rebuilt from the wire view: the same signature, unmarked. *)
let unmarked sg =
  let signer, tag = Pki.Wire.sig_view sg in
  Pki.Wire.sig_of_view ~signer ~tag

let seed_is_per_domain () =
  (* Seeding writes the signing domain's table only: another domain's first
     verify of an unmarked copy is a miss that recomputes the same genuine
     tag. *)
  let pki, secrets = setup 5 in
  Pki.reset_counters pki;
  let sg = unmarked (Pki.sign pki secrets.(4) "m") in
  let verdict = Domain.join (Domain.spawn (fun () -> Pki.verify pki sg ~msg:"m")) in
  Alcotest.(check bool) "verifies in another domain" true verdict;
  let s = Pki.cache_stats pki in
  Alcotest.(check (pair int int)) "hits, misses" (0, 1)
    (s.Pki.verify_hits, s.Pki.verify_misses)

let mark_crosses_domains () =
  (* The mark rides the value: another domain's first verify of the signed
     value answers from it, a hit, with its memo table still cold. *)
  let pki, secrets = setup 5 in
  Pki.reset_counters pki;
  let sg = Pki.sign pki secrets.(4) "m" in
  let verdict = Domain.join (Domain.spawn (fun () -> Pki.verify pki sg ~msg:"m")) in
  Alcotest.(check bool) "verifies in another domain" true verdict;
  let s = Pki.cache_stats pki in
  Alcotest.(check (pair int int)) "hits, misses" (1, 0)
    (s.Pki.verify_hits, s.Pki.verify_misses)

let seeded_epoch_clears_keep_verdicts () =
  (* Sign everything first, so seeding itself drives the capacity-2 clears,
     then verify genuine, tampered and alien signatures; every verdict must
     match the default-capacity PKI's. *)
  let _, alien_secrets = Pki.setup ~seed:99L ~n:5 () in
  let verdicts cache_capacity =
    let pki, secrets = Pki.setup ~seed:42L ?cache_capacity ~n:5 () in
    let msgs = [ "a"; "b"; "c"; "d"; "e" ] in
    let sigs =
      List.concat_map
        (fun msg ->
          List.map (fun p -> (msg, Pki.sign pki secrets.(p) msg)) [ 0; 3 ]
          @ [ (msg, Pki.sign pki alien_secrets.(0) msg) ])
        msgs
    in
    List.concat_map
      (fun (msg, sg) ->
        [ Pki.verify pki sg ~msg; Pki.verify pki sg ~msg:(msg ^ "!") ])
      (sigs @ List.rev sigs)
  in
  Alcotest.(check (list bool)) "same verdicts" (verdicts None) (verdicts (Some 2))

(* ---- verdict cell --------------------------------------------------------
   A signature remembers the one (pki, message) pair it last passed under,
   so a broadcast signature is checked once per value. The cell must be
   invisible: a marked signature's verdict is always that of an unmarked
   copy, and equality and the codec never see it. *)

(* Verifiers: [a] signs; [twin] is a second setup with [a]'s seed (the same
   keys, another value); [stranger] has other keys. *)
let verdict_cell_matches_unmarked =
  let a, secrets = setup 5 in
  let twin, _ = setup 5 in
  let stranger, _ = Pki.setup ~seed:7L ~n:5 () in
  let _, alien_secrets = Pki.setup ~seed:99L ~n:5 () in
  let verifiers = [| a; twin; stranger |] and msgs = [| "m"; "m'" |] in
  let tamper sg =
    let signer, tag = Pki.Wire.sig_view sg in
    let raw = Bytes.of_string (Sha256.to_raw tag) in
    Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) lxor 1));
    Pki.Wire.sig_of_view ~signer
      ~tag:(Option.get (Sha256.of_raw (Bytes.to_string raw)))
  in
  Test_util.qcheck_case ~name:"marked verdict == unmarked copy's"
    QCheck2.Gen.(
      quad (int_range 0 4) bool (int_range 0 2)
        (list_size (int_range 1 8) (pair (int_range 0 2) (int_range 0 1))))
    (fun (signer, alien, form, checks) ->
      let sg =
        Pki.sign a
          (if alien then alien_secrets.(signer) else secrets.(signer))
          msgs.(signer land 1)
      in
      let sg = match form with 0 -> sg | 1 -> unmarked sg | _ -> tamper sg in
      List.for_all
        (fun (v, m) ->
          let pki = verifiers.(v) and msg = msgs.(m) in
          let oracle = Pki.verify pki (unmarked sg) ~msg in
          Pki.verify pki sg ~msg = oracle)
        checks)

let marked_rejected_elsewhere () =
  let a, secrets = setup 5 in
  let b, _ = Pki.setup ~seed:7L ~n:5 () in
  let sg = Pki.sign a secrets.(1) "m" in
  Alcotest.(check bool) "marked under A passes A" true (Pki.verify a sg ~msg:"m");
  Alcotest.(check bool) "rejected under B" false (Pki.verify b sg ~msg:"m");
  Alcotest.(check bool) "rejected under A on m'" false (Pki.verify a sg ~msg:"m'");
  Alcotest.(check bool) "still passes A" true (Pki.verify a sg ~msg:"m");
  let twin, _ = setup 5 in
  Alcotest.(check bool) "passes a twin setup with A's keys" true
    (Pki.verify twin sg ~msg:"m")

let marked_equals_unmarked () =
  let pki, secrets = setup 5 in
  let sg = Pki.sign pki secrets.(3) "m" in
  let copy = unmarked sg in
  Alcotest.(check bool) "Sig.equal" true (Pki.Sig.equal sg copy);
  Alcotest.(check int) "Sig.compare" 0 (Pki.Sig.compare sg copy);
  let bytes s = Mewc_sim.Codec.encode Mewc_sim.Codec.sig_c s in
  Alcotest.(check string) "same bytes" (bytes copy) (bytes sg);
  ignore (Pki.verify pki copy ~msg:"m");
  Alcotest.(check string) "same bytes once the copy is marked" (bytes copy)
    (bytes (unmarked sg))

(* One signature, verified at once on two domains under two setups with
   the same keys (so both pass on "m") and probed on "m'" (which passes
   under neither): every verify of a passing pair rewrites the cell, and no
   read of it may ever accept "m'". *)
let verdict_cell_two_domains () =
  let a, secrets = setup 5 in
  let b, _ = setup 5 in
  let sg = Pki.sign a secrets.(2) "m" in
  let rounds = 20_000 in
  let hammer first second =
    let wrong = ref 0 in
    for i = 1 to rounds do
      let pki = if i land 1 = 0 then first else second in
      if not (Pki.verify pki sg ~msg:"m") then incr wrong;
      if Pki.verify pki sg ~msg:"m'" then incr wrong
    done;
    !wrong
  in
  let other = Domain.spawn (fun () -> hammer b a) in
  let here = hammer a b in
  Alcotest.(check (pair int int)) "wrong verdicts (here, other domain)" (0, 0)
    (here, Domain.join other)

let hmac_key_equivalence =
  Test_util.qcheck_case ~name:"hmac_with (hmac_key k) = hmac ~key:k"
    QCheck2.Gen.(pair (string_size (int_range 0 200)) string)
    (fun (key, msg) ->
      Sha256.equal
        (Sha256.hmac_with (Sha256.hmac_key key) msg)
        (Sha256.hmac ~key msg))

let qcheck_sign_verify =
  Test_util.qcheck_case ~name:"sign/verify roundtrip on random messages"
    QCheck2.Gen.string (fun msg ->
      let pki, secrets = Pki.setup ~seed:7L ~n:3 () in
      let sg = Pki.sign pki secrets.(1) msg in
      Pki.verify pki sg ~msg)

(* ---- incremental tallies -------------------------------------------------
   Pki.Tally is the event-driven engine's incremental quorum counter: shares
   tick in one delivery at a time instead of being re-verified as a batch.
   The contract is that incrementality is invisible — after any delivery
   prefix the tally agrees with a from-scratch recount, duplicates and junk
   never move the count, and the certificate it emits is the very Tsig
   `combine` would have built from the same shares. *)

let qcheck_tally_prefix_equals_recount =
  Test_util.qcheck_case
    ~name:"tally after any delivery prefix == from-scratch recount"
    QCheck2.Gen.(
      pair (int_range 1 7) (list_size (int_range 0 30) (int_range 0 9)))
    (fun (k, deliveries) ->
      let pki, secrets = Pki.setup ~seed:11L ~n:10 () in
      let tl = Pki.tally pki ~k ~msg:"m" in
      let seen = ref [] in
      List.for_all
        (fun i ->
          let sg =
            (* index 9 stands in for a junk delivery: a genuine signature,
               but over a different message. *)
            if i = 9 then Pki.sign pki secrets.(0) "other"
            else Pki.sign pki secrets.(i) "m"
          in
          (match Pki.Tally.add tl sg with
          | Pki.Tally.Added -> seen := i :: !seen
          | Pki.Tally.Duplicate | Pki.Tally.Invalid -> ());
          let distinct = List.sort_uniq Int.compare !seen in
          Pki.Tally.count tl = List.length distinct
          && Pki.Tally.complete tl = (List.length distinct >= k)
          &&
          match Pki.Tally.certificate tl with
          | None -> List.length distinct < k
          | Some ts -> (
            let sh = List.map (fun j -> Pki.sign pki secrets.(j) "m") distinct in
            match Pki.combine pki ~k ~msg:"m" sh with
            | None -> false
            | Some ts' ->
              Pki.Tsig.equal ts ts'
              && Pki.Tsig.cardinality ts = k
              && Pki.verify_tsig pki ts ~k ~msg:"m"))
        deliveries)

let qcheck_tally_duplicates_idempotent =
  Test_util.qcheck_case
    ~name:"duplicate and invalid deliveries never move a tally"
    QCheck2.Gen.(list_size (int_range 1 15) (int_range 0 6))
    (fun signers ->
      let pki, secrets = Pki.setup ~seed:13L ~n:7 () in
      let tl = Pki.tally pki ~k:3 ~msg:"m" in
      List.for_all
        (fun i ->
          let sg = Pki.sign pki secrets.(i) "m" in
          let first = Pki.Tally.add tl sg in
          let count = Pki.Tally.count tl in
          let again = Pki.Tally.add tl sg in
          let bad = Pki.Tally.add tl (Pki.sign pki secrets.(i) "junk") in
          (first = Pki.Tally.Added || first = Pki.Tally.Duplicate)
          && again = Pki.Tally.Duplicate
          && bad = Pki.Tally.Invalid
          && Pki.Tally.count tl = count
          && Pki.Tally.mem tl i)
        signers)

let qcheck_tally_epoch_clear_freshness =
  (* A capacity-2 memo table epoch-clears constantly under stray traffic;
     the tally's verdict stream and final certificate must not notice. *)
  Test_util.qcheck_case
    ~name:"capacity-2 epoch clears don't change tally verdicts"
    QCheck2.Gen.(
      list_size (int_range 0 25)
        (pair (int_range 0 4) (string_size (int_range 0 3))))
    (fun deliveries ->
      let run cache_capacity =
        let pki, secrets = Pki.setup ~seed:17L ?cache_capacity ~n:5 () in
        let tl = Pki.tally pki ~k:2 ~msg:"m" in
        let verdicts =
          List.map
            (fun (i, extra) ->
              (* stray verification traffic evicts memo entries when the
                 capacity is tiny *)
              ignore (Pki.verify pki (Pki.sign pki secrets.(i) extra) ~msg:extra : bool);
              let msg = if String.length extra mod 2 = 0 then "m" else extra in
              Pki.Tally.add tl (Pki.sign pki secrets.(i) msg))
            deliveries
        in
        (verdicts, Pki.Tally.certificate tl)
      in
      let va, ca = run (Some 2) in
      let vb, cb = run None in
      va = vb
      &&
      match (ca, cb) with
      | None, None -> true
      | Some a, Some b -> Pki.Tsig.equal a b
      | _ -> false)

let certificate_tally_matches_make () =
  let pki, secrets = setup 7 in
  let share i = Certificate.share pki secrets.(i) ~purpose:"test" ~payload:"42" in
  let tl = Certificate.Tally.create pki ~k:3 ~purpose:"test" ~payload:"42" in
  List.iter
    (fun i -> ignore (Certificate.Tally.add tl (share i) : Pki.Tally.verdict))
    [ 5; 0; 2 ];
  Alcotest.(check int) "count" 3 (Certificate.Tally.count tl);
  Alcotest.(check bool) "complete" true (Certificate.Tally.complete tl);
  match
    ( Certificate.Tally.certificate tl,
      Certificate.make pki ~k:3 ~purpose:"test" ~payload:"42"
        (List.map share [ 5; 0; 2 ]) )
  with
  | Some a, Some b ->
    Alcotest.(check bool) "verify_as" true
      (Certificate.verify_as pki a ~k:3 ~purpose:"test");
    Alcotest.(check string) "payload" (Certificate.payload b) (Certificate.payload a);
    Alcotest.(check int) "words" (Certificate.words b) (Certificate.words a)
  | _ -> Alcotest.fail "tally or make failed"

(* ---- cached fields -------------------------------------------------------
   A threshold signature carries its signer count and a certificate its
   signed message, both computed once where the value is built. Each must
   agree with the from-scratch formula it stands for, on every way a value
   can be built: make, the wire view (with duplicate and out-of-range signer
   ids) and a codec round trip. A tally's running count is pinned against
   a recount by the prefix property in the tallies group. *)

module Pid = Mewc_prelude.Pid

let old_signed_message ~purpose ~payload =
  Printf.sprintf "cert|%d|%s|%d|%s" (String.length purpose) purpose
    (String.length payload) payload

let cached_n = 9

(* signers (duplicates and ids >= n allowed), purpose, payload, k *)
let gen_cert_case =
  QCheck2.Gen.(
    quad
      (list_size (int_range 1 14) (int_range 0 (cached_n + 2)))
      (oneofl [ "p"; "q"; "fb-ack" ])
      (string_size ~gen:printable (int_range 0 12))
      (int_range 0 (cached_n + 1)))

(* The certificate over the valid distinct [signers], re-spelled through the
   wire view with the raw (possibly duplicated, possibly invalid) signer
   list, and optionally through the codec. *)
let wire_cert pki secrets ~signers ~purpose ~payload ~via_codec =
  let valid =
    List.sort_uniq Int.compare (List.filter (fun p -> p < cached_n) signers)
  in
  let shares =
    List.map (fun p -> Certificate.share pki secrets.(p) ~purpose ~payload) valid
  in
  match Certificate.make pki ~k:(List.length valid) ~purpose ~payload shares with
  | None -> None
  | Some genuine ->
    let _, _, genuine_ts = Certificate.Wire.view genuine in
    let _, tag = Pki.Wire.tsig_view genuine_ts in
    let c =
      Certificate.Wire.of_view ~purpose ~payload
        ~tsig:(Pki.Wire.tsig_of_view ~signers ~tag)
    in
    if not via_codec then Some c
    else
      match Mewc_wire.Codec.(decode cert_c (encode cert_c c)) with
      | Ok c' -> Some c'
      | Error e -> Alcotest.failf "codec: %s" (Mewc_wire.Codec.error_to_string e)

let qcheck_cardinality_cached =
  Test_util.qcheck_case ~count:200
    ~name:"cardinality == Pid.Set.cardinal of the signers"
    QCheck2.Gen.(pair gen_cert_case bool)
    (fun ((signers, purpose, payload, _), via_codec) ->
      let pki, secrets = Pki.setup ~seed:21L ~n:cached_n () in
      match wire_cert pki secrets ~signers ~purpose ~payload ~via_codec with
      | None -> true
      | Some c ->
        let _, _, ts = Certificate.Wire.view c in
        let set, _ = Pki.Wire.tsig_view ts in
        let expected = Pid.Set.cardinal (Pid.Set.of_list signers) in
        Certificate.cardinality c = expected
        && Pki.Tsig.cardinality ts = expected
        && List.length set = expected)

(* The old verdict: the count check against a set recount, and the hash
   check on a cold copy of the tag against the Printf-built message. *)
let old_verify pki c ~k =
  let purpose, payload, ts = Certificate.Wire.view c in
  let signers, tag = Pki.Wire.tsig_view ts in
  List.length signers >= k
  && Pki.verify_tsig pki
       (Pki.Wire.tsig_of_view ~signers ~tag)
       ~k:0
       ~msg:(old_signed_message ~purpose ~payload)

let qcheck_verify_matches_old =
  Test_util.qcheck_case ~count:200
    ~name:"verify/verify_as == the old formula"
    QCheck2.Gen.(pair gen_cert_case (int_range 0 3))
    (fun ((signers, purpose, payload, k), variant) ->
      let pki, secrets = Pki.setup ~seed:25L ~n:cached_n () in
      match
        wire_cert pki secrets ~signers ~purpose ~payload ~via_codec:(variant = 3)
      with
      | None -> true
      | Some c ->
        (* variant 0 valid, 1 tampered payload, 2 re-labelled purpose, 3
           codec round trip; k ranges past the signer count. *)
        let c =
          let p, pl, ts = Certificate.Wire.view c in
          match variant with
          | 1 -> Certificate.Wire.of_view ~purpose:p ~payload:(pl ^ "!") ~tsig:ts
          | 2 -> Certificate.Wire.of_view ~purpose:(p ^ "'") ~payload:pl ~tsig:ts
          | _ -> c
        in
        let expected = old_verify pki c ~k in
        let as_purpose = Certificate.purpose c in
        String.equal (Certificate.signed_message ~purpose ~payload)
          (old_signed_message ~purpose ~payload)
        (* twice: cold, then through the cached verdict *)
        && Certificate.verify pki c ~k = expected
        && Certificate.verify pki c ~k = expected
        && Certificate.verify_as pki c ~k ~purpose:as_purpose = expected
        && (not (Certificate.verify_as pki c ~k ~purpose:(as_purpose ^ "x")))
        && Certificate.verify pki c ~k:(Certificate.cardinality c + 1) = false)

(* [is_phased] compares in place; its verdict must be the string
   comparison it stands for, on the genuine payload and on near misses:
   one byte changed (the separator included), another phase, a longer or
   cut encoding, a random payload. *)
let qcheck_is_phased =
  Test_util.qcheck_case ~count:500 ~name:"is_phased == equal to phased"
    QCheck2.Gen.(
      pair
        (quad (int_range (-20) 2000) (string_size (int_range 0 40))
           (int_range 0 5) (string_size (int_range 0 12)))
        (int_bound 8))
    (fun ((phase, enc, variant, junk), at) ->
      let phased = Certificate.phased ~phase enc in
      let payload =
        match variant with
        | 0 -> phased
        | 1 ->
          let at = at mod String.length phased in
          String.mapi
            (fun i c -> if i = at then Char.chr (Char.code c lxor 1) else c)
            phased
        | 2 -> Certificate.phased ~phase:(phase + 1) enc
        | 3 -> Certificate.phased ~phase (enc ^ junk)
        | 4 -> String.sub phased 0 (String.length phased / 2) ^ junk
        | _ -> junk
      in
      let c =
        Certificate.Wire.of_view ~purpose:"p" ~payload
          ~tsig:(Pki.Wire.tsig_of_view ~signers:[] ~tag:(Sha256.digest ""))
      in
      Certificate.is_phased c ~phase enc
      = String.equal (Certificate.payload c) (Certificate.phased ~phase enc))

let qcheck_threshold_subsets =
  Test_util.qcheck_case ~name:"any k distinct valid shares combine"
    QCheck2.Gen.(list_size (int_range 1 10) int)
    (fun idxs ->
      let pki, secrets = Pki.setup ~seed:9L ~n:10 () in
      let idxs =
        List.sort_uniq Int.compare (List.map (fun i -> abs i mod 10) idxs)
      in
      let sh = List.map (fun i -> Pki.sign pki secrets.(i) "m") idxs in
      let k = List.length idxs in
      if k = 0 then true
      else
        match Pki.combine pki ~k ~msg:"m" sh with
        | Some ts -> Pki.verify_tsig pki ts ~k ~msg:"m"
        | None -> false)

let () =
  Alcotest.run "crypto"
    [
      ( "sha256",
        List.map
          (fun (name, msg, expected) ->
            Alcotest.test_case name `Quick (check_digest msg expected))
          sha256_vectors
        @ [
            Alcotest.test_case "padding edges" `Quick padding_edges;
            Alcotest.test_case "million 'a'" `Slow million_a;
          ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 case 2" `Quick hmac_rfc4231_case2;
          Alcotest.test_case "long key" `Quick hmac_long_key;
          hmac_key_equivalence;
          kernel_matches_reference;
          Alcotest.test_case "hmac_with allocation guard" `Quick
            hmac_allocation_guard;
          Alcotest.test_case "two domains at once" `Quick kernel_shares_nothing;
        ] );
      ( "cache",
        [
          Alcotest.test_case "cached verify == uncached" `Quick
            cached_verify_equals_uncached;
          Alcotest.test_case "memo keyed by claimed signer" `Quick
            cached_verify_signer_isolation;
          Alcotest.test_case "cached tsig == uncached" `Quick
            cached_tsig_equals_uncached;
          Alcotest.test_case "capacity-2 epoch clears don't change verdicts" `Quick
            cache_capacity_epoch_clear;
          Alcotest.test_case "reset clears cache stats" `Quick
            reset_clears_cache_stats;
        ] );
      ( "memo seeding",
        [
          Alcotest.test_case "alien secret never seeds" `Quick
            alien_sign_does_not_seed;
          Alcotest.test_case "sign then verify: 1 hit, 0 misses" `Quick
            sign_then_verify_is_a_hit;
          Alcotest.test_case "another domain misses" `Quick seed_is_per_domain;
          Alcotest.test_case "the mark crosses domains" `Quick
            mark_crosses_domains;
          Alcotest.test_case "capacity-2 clears keep verdicts" `Quick
            seeded_epoch_clears_keep_verdicts;
        ] );
      ( "verdict cell",
        [
          verdict_cell_matches_unmarked;
          Alcotest.test_case "marked under A is rejected under B" `Quick
            marked_rejected_elsewhere;
          Alcotest.test_case "marked == unmarked, same bytes" `Quick
            marked_equals_unmarked;
          Alcotest.test_case "two domains, two setups, two messages" `Quick
            verdict_cell_two_domains;
        ] );
      ( "signatures",
        [
          Alcotest.test_case "sign/verify" `Quick sign_verify;
          Alcotest.test_case "cross-pki rejected" `Quick cross_pki_rejected;
          Alcotest.test_case "counters" `Quick counters;
          qcheck_sign_verify;
        ] );
      ( "threshold",
        [
          Alcotest.test_case "combine & verify" `Quick threshold_combine;
          Alcotest.test_case "duplicates don't count" `Quick
            threshold_duplicates_dont_count;
          Alcotest.test_case "invalid shares filtered" `Quick
            threshold_invalid_shares_filtered;
          Alcotest.test_case "deterministic" `Quick threshold_deterministic;
          qcheck_threshold_subsets;
        ] );
      ( "tallies",
        [
          qcheck_tally_prefix_equals_recount;
          qcheck_tally_duplicates_idempotent;
          qcheck_tally_epoch_clear_freshness;
          Alcotest.test_case "certificate tally == make" `Quick
            certificate_tally_matches_make;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "roundtrip" `Quick certificate_roundtrip;
          Alcotest.test_case "purpose domain separation" `Quick
            certificate_purpose_domain_separation;
          Alcotest.test_case "higher k rejected" `Quick certificate_higher_k_rejected;
        ] );
      ( "cert fields",
        [
          qcheck_cardinality_cached;
          qcheck_verify_matches_old;
          qcheck_is_phased;
        ] );
    ]
