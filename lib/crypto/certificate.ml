(* [msg] is [signed_message ~purpose ~payload], built once wherever a
   certificate is built, so every receiver's {!verify} hands the threshold
   check the same physical string instead of re-formatting it. *)
type t = { purpose : string; payload : string; msg : string; tsig : Pki.Tsig.t }

let purpose c = c.purpose
let payload c = c.payload

let phased ~phase enc = Mewc_prelude.Decimal.of_int phase ^ "|" ^ enc

(* [s] occurs in [p] at [off]; the caller has checked that it fits. *)
let same_at p off s =
  let i = ref 0 and n = String.length s in
  while !i < n && String.unsafe_get p (off + !i) = String.unsafe_get s !i do
    incr i
  done;
  !i = n

let is_phased c ~phase enc =
  let p = c.payload and d = Mewc_prelude.Decimal.of_int phase in
  let ld = String.length d in
  String.length p = ld + 1 + String.length enc
  && String.unsafe_get p ld = '|'
  && same_at p 0 d
  && same_at p (ld + 1) enc

let cardinality c = Pki.Tsig.cardinality c.tsig

let signed_message ~purpose ~payload =
  (* Length-prefixed fields: no payload/purpose pair can collide with
     another. *)
  String.concat "|"
    [
      "cert";
      Mewc_prelude.Decimal.of_int (String.length purpose);
      purpose;
      Mewc_prelude.Decimal.of_int (String.length payload);
      payload;
    ]

let share pki secret ~purpose ~payload =
  Pki.sign pki secret (signed_message ~purpose ~payload)

module Signed_memo = struct
  type 'v t = {
    purpose : string;
    phase : int option;
    mutable first : ('v * string) option;
  }

  let create ~purpose ?phase () = { purpose; phase; first = None }

  let message m ~equal ~encode value =
    match m.first with
    | Some (v, msg) when equal v value -> msg
    | first ->
      let enc = encode value in
      let payload = match m.phase with None -> enc | Some phase -> phased ~phase enc in
      let msg = signed_message ~purpose:m.purpose ~payload in
      if Option.is_none first then m.first <- Some (value, msg);
      msg
end

let make pki ~k ~purpose ~payload shares =
  let msg = signed_message ~purpose ~payload in
  match Pki.combine pki ~k ~msg shares with
  | None -> None
  | Some tsig -> Some { purpose; payload; msg; tsig }

module Tally = struct
  type cert = t

  type t = {
    purpose : string;
    payload : string;
    msg : string;
    tally : Pki.Tally.t;
  }

  let create pki ~k ~purpose ~payload =
    let msg = signed_message ~purpose ~payload in
    { purpose; payload; msg; tally = Pki.tally pki ~k ~msg }

  let add tl share = Pki.Tally.add tl.tally share
  let count tl = Pki.Tally.count tl.tally
  let mem tl p = Pki.Tally.mem tl.tally p
  let complete tl = Pki.Tally.complete tl.tally

  let certificate tl : cert option =
    Pki.Tally.certificate tl.tally
    |> Option.map (fun tsig ->
           { purpose = tl.purpose; payload = tl.payload; msg = tl.msg; tsig })
end

module Wire = struct
  let view c = (c.purpose, c.payload, c.tsig)
  let of_view ~purpose ~payload ~tsig =
    { purpose; payload; msg = signed_message ~purpose ~payload; tsig }
end

let verify pki c ~k = Pki.verify_tsig pki c.tsig ~k ~msg:c.msg

let verify_as pki c ~k ~purpose = String.equal c.purpose purpose && verify pki c ~k

let equal a b =
  String.equal a.purpose b.purpose
  && String.equal a.payload b.payload
  && Pki.Tsig.equal a.tsig b.tsig

let pp fmt c =
  Format.fprintf fmt "<%s-cert(%d) %S>" c.purpose (cardinality c) c.payload

let words _ = 1
