type t = string (* 32 raw bytes *)

(* The hashing itself is lib/crypto/sha256_stubs.c. *)
external digest : string -> t = "mewc_sha256_digest"

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
   and opad blocks, 64 bytes (see the stub). Deriving these once at key
   creation saves the two key-schedule compressions (plus the key
   normalization and xors) that a from-scratch HMAC would redo on every
   tag. *)
type key = string

external hmac_key : string -> key = "mewc_sha256_hmac_key"
external hmac_with : key -> string -> t = "mewc_sha256_hmac_with"

let hmac ~key msg = hmac_with (hmac_key key) msg
