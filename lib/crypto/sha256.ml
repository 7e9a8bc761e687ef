type t = string (* 32 raw bytes *)

(* The kernel keeps every 32-bit word unsigned in the low half of a native
   int: [lxor]/[land]/[lor] never set the high half, and each sum is masked
   back to 32 bits. Nothing is boxed, so a compression allocates nothing.
   Needs 63-bit ints. *)
let () = if Sys.int_size < 63 then failwith "Sha256: needs 63-bit native ints"

let mask = 0xFFFF_FFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

(* Right rotation of a 32-bit word; only the low 32 bits of the result are
   meaningful, so callers mask once after combining rotations. *)
let[@inline] rotr x n = (x lsr n) lor (x lsl (32 - n))

let fresh_state () =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
     0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

(* One FIPS 180-4 compression round: fold the 64-byte block at [buf.(off)]
   into [h]. [w] is caller-provided scratch for the 64-word schedule. *)
let compress h w buf off =
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be buf (off + (i * 4))) land mask
  done;
  for i = 16 to 63 do
    let x = w.(i - 15) and y = w.(i - 2) in
    let s0 = (rotr x 7 lxor rotr x 18 lxor (x lsr 3)) land mask in
    let s1 = (rotr y 17 lxor rotr y 19 lxor (y lsr 10)) land mask in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let ev = !e and av = !a in
    let s1 = (rotr ev 6 lxor rotr ev 11 lxor rotr ev 25) land mask in
    let ch = (ev land !f) lxor (lnot ev land !g) in
    let temp1 = !hh + s1 + ch + k.(i) + w.(i) in
    let s0 = (rotr av 2 lxor rotr av 13 lxor rotr av 22) land mask in
    let maj = (av land !b) lxor (av land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := ev;
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := av;
    a := (temp1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let state_to_raw h =
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (i * 4) (Int32.of_int h.(i))
  done;
  Bytes.unsafe_to_string out

(* Hash [msg] starting from [state], which has already absorbed [prefix]
   bytes (a multiple of 64; the length padding covers prefix + msg). Full
   blocks are compressed in place — no copy of the message is taken. *)
let digest_from state ~prefix msg =
  let h = Array.copy state in
  let w = Array.make 64 0 in
  let len = String.length msg in
  let body = Bytes.unsafe_of_string msg in
  let full = len / 64 in
  for blk = 0 to full - 1 do
    compress h w body (blk * 64)
  done;
  let rem = len - (full * 64) in
  (* Tail: remainder ++ 0x80 ++ zeros ++ 64-bit big-endian bit length. *)
  let tail_len = if rem + 9 <= 64 then 64 else 128 in
  let tail = Bytes.make tail_len '\x00' in
  Bytes.blit_string msg (full * 64) tail 0 rem;
  Bytes.set tail rem '\x80';
  Bytes.set_int64_be tail (tail_len - 8) (Int64.of_int ((prefix + len) * 8));
  compress h w tail 0;
  if tail_len = 128 then compress h w tail 64;
  state_to_raw h

let digest msg = digest_from (fresh_state ()) ~prefix:0 msg

let to_raw d = d
let of_raw s = if String.length s = 32 then Some s else None

let to_hex d =
  let buf = Buffer.create 64 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf

let equal = String.equal
let compare = String.compare
let pp fmt d = Format.pp_print_string fmt (to_hex d)

(* Precomputed HMAC key: the compression states after absorbing the ipad
   and opad blocks. Deriving these once at key creation saves the two
   key-schedule compressions (plus the key normalization and xors) that a
   from-scratch HMAC would redo on every tag. *)
type key = { inner : int array; outer : int array }

let hmac_key key_str =
  let block = 64 in
  let key_str = if String.length key_str > block then digest key_str else key_str in
  let key_str = key_str ^ String.make (block - String.length key_str) '\x00' in
  let absorb byte =
    let h = fresh_state () in
    let w = Array.make 64 0 in
    let padded =
      Bytes.unsafe_of_string
        (String.map (fun c -> Char.chr (Char.code c lxor byte)) key_str)
    in
    compress h w padded 0;
    h
  in
  { inner = absorb 0x36; outer = absorb 0x5c }

let hmac_with key msg =
  let inner = digest_from key.inner ~prefix:64 msg in
  digest_from key.outer ~prefix:64 inner

let hmac ~key msg = hmac_with (hmac_key key) msg
