open Mewc_prelude
open Mewc_crypto

type error =
  | Truncated
  | Overlong
  | Bad_tag of { what : string; tag : int }
  | Bad_length of { what : string; len : int }
  | Bad_digest
  | Trailing of { left : int }

let error_to_string = function
  | Truncated -> "truncated"
  | Overlong -> "overlong varint"
  | Bad_tag { what; tag } -> Printf.sprintf "bad %s tag %d" what tag
  | Bad_length { what; len } -> Printf.sprintf "bad %s length %d" what len
  | Bad_digest -> "frame digest mismatch"
  | Trailing { left } -> Printf.sprintf "%d trailing bytes" left

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

type reader = { buf : string; mutable pos : int; limit : int }

type 'a t = {
  write : Buffer.t -> 'a -> unit;
  read : reader -> ('a, error) result;
}

let ( let* ) = Result.bind

module W = struct
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let vint b v =
    if v < 0 then invalid_arg "Codec.W.vint: negative";
    let rec go v =
      if v < 0x80 then u8 b v
      else begin
        u8 b (0x80 lor (v land 0x7f));
        go (v lsr 7)
      end
    in
    go v

  let bool b v = u8 b (if v then 1 else 0)
  let raw b s = Buffer.add_string b s

  let str b s =
    vint b (String.length s);
    raw b s
end

module R = struct
  let u8 r =
    if r.pos >= r.limit then Error Truncated
    else begin
      let c = Char.code r.buf.[r.pos] in
      r.pos <- r.pos + 1;
      Ok c
    end

  (* Minimal LEB128, at most 8 bytes (56 bits — every quantity we ship is
     far below that). A final zero continuation byte would be a second
     spelling of a shorter encoding: Overlong. *)
  let vint r =
    let rec go acc shift =
      if shift > 49 then Error (Bad_length { what = "varint"; len = shift / 7 })
      else
        let* b = u8 r in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 <> 0 then go acc (shift + 7)
        else if b = 0 && shift > 0 then Error Overlong
        else Ok acc
    in
    go 0 0

  let bool r =
    let* b = u8 r in
    match b with
    | 0 -> Ok false
    | 1 -> Ok true
    | tag -> Error (Bad_tag { what = "bool"; tag })

  let raw ~len r =
    if len < 0 then Error (Bad_length { what = "raw"; len })
    else if r.limit - r.pos < len then Error Truncated
    else begin
      let s = String.sub r.buf r.pos len in
      r.pos <- r.pos + len;
      Ok s
    end

  let str ~max r =
    let* len = vint r in
    if len > max then Error (Bad_length { what = "string"; len })
    else raw ~len r
end

let encode c v =
  let b = Buffer.create 64 in
  c.write b v;
  Buffer.contents b

let decode c s =
  let r = { buf = s; pos = 0; limit = String.length s } in
  let* v = c.read r in
  if r.pos < r.limit then Error (Trailing { left = r.limit - r.pos }) else Ok v

let encoded_size c v = String.length (encode c v)

(* ---- combinators ------------------------------------------------------- *)

let vint_c = { write = W.vint; read = R.vint }
let bool_c = { write = W.bool; read = R.bool }

let str_c ~max =
  {
    write =
      (fun b s ->
        let len = String.length s in
        if len > max then
          invalid_arg
            (Printf.sprintf "a %d-byte string exceeds the %d-byte bound" len max);
        W.str b s);
    read = R.str ~max;
  }

let pair ca cb =
  {
    write =
      (fun b (x, y) ->
        ca.write b x;
        cb.write b y);
    read =
      (fun r ->
        let* x = ca.read r in
        let* y = cb.read r in
        Ok (x, y));
  }

let triple ca cb cc =
  {
    write =
      (fun b (x, y, z) ->
        ca.write b x;
        cb.write b y;
        cc.write b z);
    read =
      (fun r ->
        let* x = ca.read r in
        let* y = cb.read r in
        let* z = cc.read r in
        Ok (x, y, z));
  }

let unit_c = { write = (fun _ () -> ()); read = (fun _ -> Ok ()) }

let conv proj inj c =
  { write = (fun b v -> c.write b (proj v)); read = (fun r -> Result.map inj (c.read r)) }

type 'a case =
  | Case : { tag : int; codec : 'b t; proj : 'a -> 'b option; inj : 'b -> 'a } -> 'a case

let case tag codec proj inj =
  if tag < 0 || tag > 0xff then invalid_arg "Codec.case: tag outside a byte";
  Case { tag; codec; proj; inj }

let union ~what cases =
  let by_tag = Array.make 0x100 None in
  List.iter
    (fun (Case { tag; _ } as c) ->
      if by_tag.(tag) <> None then invalid_arg ("Codec.union: duplicate tag in " ^ what);
      by_tag.(tag) <- Some c)
    cases;
  {
    write =
      (fun b v ->
        let rec go = function
          | [] -> invalid_arg ("Codec.union: no case for this " ^ what)
          | Case c :: rest -> (
            match c.proj v with
            | Some x ->
              W.u8 b c.tag;
              c.codec.write b x
            | None -> go rest)
        in
        go cases);
    read =
      (fun r ->
        let* tag = R.u8 r in
        match by_tag.(tag) with
        | Some (Case c) -> Result.map c.inj (c.codec.read r)
        | None -> Error (Bad_tag { what; tag }));
  }

let option_c c =
  union ~what:"option"
    [
      case 0 unit_c (function None -> Some () | Some _ -> None) (fun () -> None);
      case 1 c Fun.id Option.some;
    ]

(* ---- domain codecs ----------------------------------------------------- *)

let tag_c =
  {
    write = (fun b t -> W.raw b (Sha256.to_raw t));
    read =
      (fun r ->
        let* s = R.raw ~len:32 r in
        match Sha256.of_raw s with
        | Some t -> Ok t
        | None -> Error (Bad_length { what = "digest"; len = String.length s }));
  }

let sig_c =
  {
    write =
      (fun b s ->
        let signer, tag = Pki.Wire.sig_view s in
        W.vint b signer;
        tag_c.write b tag);
    read =
      (fun r ->
        let* signer = R.vint r in
        let* tag = tag_c.read r in
        Ok (Pki.Wire.sig_of_view ~signer ~tag));
  }

(* Signer sets are delta-coded over the ascending order: first pid, then
   successive gaps minus one. Every byte string that decodes at all decodes
   to a strictly increasing list — the set's single canonical spelling. *)
let tsig_c =
  let max_signers = 4096 in
  {
    write =
      (fun b ts ->
        let signers, tag = Pki.Wire.tsig_view ts in
        W.vint b (List.length signers);
        ignore
          (List.fold_left
             (fun prev p ->
               (match prev with
               | None -> W.vint b p
               | Some q -> W.vint b (p - q - 1));
               Some p)
             None signers);
        tag_c.write b tag);
    read =
      (fun r ->
        let* count = R.vint r in
        if count > max_signers then
          Error (Bad_length { what = "tsig-signers"; len = count })
        else
          let rec go acc prev k =
            if k = 0 then Ok (List.rev acc)
            else
              let* d = R.vint r in
              let p = match prev with None -> d | Some q -> q + 1 + d in
              go (p :: acc) (Some p) (k - 1)
          in
          let* signers = go [] None count in
          let* tag = tag_c.read r in
          Ok (Pki.Wire.tsig_of_view ~signers ~tag));
  }

let purpose_c = str_c ~max:64
let payload_c = str_c ~max:2048

let cert_c =
  {
    write =
      (fun b c ->
        let purpose, payload, tsig = Certificate.Wire.view c in
        purpose_c.write b purpose;
        payload_c.write b payload;
        tsig_c.write b tsig);
    read =
      (fun r ->
        let* purpose = purpose_c.read r in
        let* payload = payload_c.read r in
        let* tsig = tsig_c.read r in
        Ok (Certificate.Wire.of_view ~purpose ~payload ~tsig));
  }

(* ---- generators -------------------------------------------------------- *)

let gen_bytes g len = String.init len (fun _ -> Char.chr (Rng.int g 256))
let gen_tag g = Sha256.digest (gen_bytes g 16)
let gen_sig g = Pki.Wire.sig_of_view ~signer:(Rng.int g 64) ~tag:(gen_tag g)

let gen_tsig g =
  let k = Rng.int g 6 in
  let signers = Rng.sample g k (List.init 16 Fun.id) in
  Pki.Wire.tsig_of_view ~signers ~tag:(gen_tag g)

let gen_cert g =
  Certificate.Wire.of_view
    ~purpose:(Rng.pick g [ "input"; "commit"; "ack"; "idk"; "decide" ])
    ~payload:(gen_bytes g (Rng.int g 48))
    ~tsig:(gen_tsig g)

(* ---- frames ------------------------------------------------------------ *)

type kind = Msg | Done

type frame = {
  kind : kind;
  src : int;
  dst : int;
  slot : int;
  seq : int;
  payload : string;
}

let version = 1
let magic = "MW"
let max_frame = 4096
let digest_len = 8
let digest_salt = "mewc-wire/1|"

let frame_digest body =
  String.sub (Sha256.to_raw (Sha256.digest (digest_salt ^ body))) 0 digest_len

let encode_frame f =
  let b = Buffer.create 64 in
  W.raw b magic;
  W.u8 b version;
  W.u8 b (match f.kind with Msg -> 0 | Done -> 1);
  W.vint b f.src;
  W.vint b f.dst;
  W.vint b f.slot;
  W.vint b f.seq;
  W.str b f.payload;
  let body = Buffer.contents b in
  if String.length body + digest_len > max_frame then
    invalid_arg
      (Printf.sprintf "Codec.encode_frame: %d bytes exceeds max frame %d"
         (String.length body + digest_len)
         max_frame);
  body ^ frame_digest body

(* The frame reader proper, positioned just past the magic. *)
let read_frame_at r =
  let start = r.pos - String.length magic in
  let* v = R.u8 r in
  if v <> version then Error (Bad_tag { what = "version"; tag = v })
  else
    let* k = R.u8 r in
    let* kind =
      match k with
      | 0 -> Ok Msg
      | 1 -> Ok Done
      | tag -> Error (Bad_tag { what = "frame-kind"; tag })
    in
    let* src = R.vint r in
    let* dst = R.vint r in
    let* slot = R.vint r in
    let* seq = R.vint r in
    let* payload = R.str ~max:(max_frame - digest_len) r in
    let body_end = r.pos in
    let* digest = R.raw ~len:digest_len r in
    if body_end - start > max_frame then
      Error (Bad_length { what = "frame"; len = body_end - start })
    else if
      not (String.equal digest (frame_digest (String.sub r.buf start (body_end - start))))
    then Error Bad_digest
    else Ok { kind; src; dst; slot; seq; payload }

let marker_payload ~next = encode vint_c next

let marker_next f =
  match decode vint_c f.payload with
  | Ok next when next > f.slot -> next
  | Ok _ | Error _ -> f.slot + 1

let gen_frame g =
  let kind = if Rng.int g 8 = 0 then Done else Msg in
  let slot = Rng.int g 1000 in
  {
    kind;
    src = Rng.int g 16;
    dst = Rng.int g 16;
    slot;
    seq = Rng.int g 10_000;
    payload =
      (match kind with
      | Done -> marker_payload ~next:(slot + 1 + Rng.int g 64)
      | Msg -> gen_bytes g (Rng.int g 200));
  }

let decode_frame s =
  let r = { buf = s; pos = 0; limit = String.length s } in
  let* m = R.raw ~len:(String.length magic) r in
  if not (String.equal m magic) then
    Error (Bad_tag { what = "magic"; tag = (if String.length s = 0 then -1 else Char.code s.[0]) })
  else
    let* f = read_frame_at r in
    if r.pos < r.limit then Error (Trailing { left = r.limit - r.pos }) else Ok f

let rec find_magic buf i =
  let len = String.length buf in
  if i >= len then len
  else
    match String.index_from_opt buf i 'M' with
    | None -> len
    | Some j ->
      if j + 1 >= len then j (* an 'M' at the very end might start a magic *)
      else if buf.[j + 1] = 'W' then j
      else find_magic buf (j + 1)

let scan buf ~start =
  let len = String.length buf in
  let j = find_magic buf start in
  if j >= len then `Need_more len (* only garbage: drop it all *)
  else if len - j < String.length magic then `Need_more j
  else
    let r = { buf; pos = j + String.length magic; limit = len } in
    match read_frame_at r with
    | Ok f -> `Frame (f, r.pos)
    | Error Truncated -> `Need_more j
    | Error e -> `Skip (j + String.length magic, e)

(* ---- word reconciliation ----------------------------------------------- *)

let word_bytes = 32
let words_of_bytes n = (n + word_bytes - 1) / word_bytes
