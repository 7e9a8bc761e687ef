module Jsonx = Mewc_prelude.Jsonx

type cell = {
  mutable words : int;
  mutable messages : int;
  mutable byz_words : int;
  mutable byz_messages : int;
}

let fresh_cell () = { words = 0; messages = 0; byz_words = 0; byz_messages = 0 }

(* A series is a flat, growable [int array] of four-field rows indexed by
   slot or pid — (words, messages, byz_words, byz_messages) at offsets
   0..3 — so a charge is index arithmetic, with no lookup and no
   allocation. A row that was never charged reads all-zero. *)
type series = { mutable rows : int array }

let fields = 4
let series capacity = { rows = Array.make (capacity * fields) 0 }

let bump s ix ~byzantine ~words ~messages =
  if ix < 0 then invalid_arg "Meter.charge: negative slot or pid";
  let need = (ix + 1) * fields in
  if need > Array.length s.rows then begin
    let rows = Array.make (max need (2 * Array.length s.rows)) 0 in
    Array.blit s.rows 0 rows 0 (Array.length s.rows);
    s.rows <- rows
  end;
  let o = (ix * fields) + if byzantine then 2 else 0 in
  s.rows.(o) <- s.rows.(o) + words;
  s.rows.(o + 1) <- s.rows.(o + 1) + messages

let rows_len s = Array.length s.rows / fields

type t = {
  totals : cell;
  mutable current_slot : int;
  mutable max_slot : int;  (* highest slot begun; -1 before any *)
  per_slot : series;
  per_process : series;
}

let create () =
  {
    totals = fresh_cell ();
    current_slot = 0;
    max_slot = -1;
    per_slot = series 64;
    per_process = series 16;
  }

let begin_slot m ~slot =
  m.current_slot <- slot;
  if slot > m.max_slot then m.max_slot <- slot

(* [messages] copies of [words] words each, all from [src]. *)
let add m ~byzantine ~src ~words ~messages =
  let total = words * messages in
  bump m.per_slot m.current_slot ~byzantine ~words:total ~messages;
  bump m.per_process src ~byzantine ~words:total ~messages;
  if m.current_slot > m.max_slot then m.max_slot <- m.current_slot;
  let c = m.totals in
  if byzantine then begin
    c.byz_words <- c.byz_words + total;
    c.byz_messages <- c.byz_messages + messages
  end
  else begin
    c.words <- c.words + total;
    c.messages <- c.messages + messages
  end

let charge m ~byzantine ~src ~dst ~words =
  if words < 1 then invalid_arg "Meter.charge: each message is at least 1 word";
  if src = dst then false (* self-addressed: crosses no link, free *)
  else begin
    add m ~byzantine ~src ~words ~messages:1;
    true
  end

let charge_all m ~byzantine ~src ~n ~words =
  if words < 1 then invalid_arg "Meter.charge: each message is at least 1 word";
  if n > 1 then add m ~byzantine ~src ~words ~messages:(n - 1)

let correct_words m = m.totals.words
let correct_messages m = m.totals.messages
let byzantine_words m = m.totals.byz_words
let byzantine_messages m = m.totals.byz_messages

let reset m =
  m.totals.words <- 0;
  m.totals.messages <- 0;
  m.totals.byz_words <- 0;
  m.totals.byz_messages <- 0;
  m.current_slot <- 0;
  m.max_slot <- -1;
  Array.fill m.per_slot.rows 0 (Array.length m.per_slot.rows) 0;
  Array.fill m.per_process.rows 0 (Array.length m.per_process.rows) 0

type row = {
  ix : int;
  words : int;
  messages : int;
  byz_words : int;
  byz_messages : int;
}

type snapshot = {
  correct_words : int;
  correct_messages : int;
  byz_words : int;
  byz_messages : int;
  per_slot : row list;
  per_process : row list;
}

let row_of s ix =
  if ix >= rows_len s then
    { ix; words = 0; messages = 0; byz_words = 0; byz_messages = 0 }
  else
    let o = ix * fields in
    {
      ix;
      words = s.rows.(o);
      messages = s.rows.(o + 1);
      byz_words = s.rows.(o + 2);
      byz_messages = s.rows.(o + 3);
    }

let snapshot m =
  let per_slot = List.init (m.max_slot + 1) (row_of m.per_slot) in
  (* Every charge counts a message, so a pid has sent iff its row does. *)
  let per_process =
    List.init (rows_len m.per_process) (row_of m.per_process)
    |> List.filter (fun r -> r.messages + r.byz_messages > 0)
  in
  {
    correct_words = m.totals.words;
    correct_messages = m.totals.messages;
    byz_words = m.totals.byz_words;
    byz_messages = m.totals.byz_messages;
    per_slot;
    per_process;
  }

let row_to_json key r =
  Jsonx.Obj
    [
      (key, Jsonx.Int r.ix);
      ("words", Jsonx.Int r.words);
      ("messages", Jsonx.Int r.messages);
      ("byz_words", Jsonx.Int r.byz_words);
      ("byz_messages", Jsonx.Int r.byz_messages);
    ]

let snapshot_to_json s =
  Jsonx.Schema.tag "mewc-meter/1"
    [
      ("correct_words", Jsonx.Int s.correct_words);
      ("correct_messages", Jsonx.Int s.correct_messages);
      ("byz_words", Jsonx.Int s.byz_words);
      ("byz_messages", Jsonx.Int s.byz_messages);
      ("per_slot", Jsonx.Arr (List.map (row_to_json "slot") s.per_slot));
      ("per_process", Jsonx.Arr (List.map (row_to_json "pid") s.per_process));
    ]

let pp fmt m =
  Format.fprintf fmt "correct: %d words / %d msgs; byzantine: %d words / %d msgs"
    m.totals.words m.totals.messages m.totals.byz_words m.totals.byz_messages
