type hub = {
  n : int;
  reads : Unix.file_descr array;  (* reads.(p): p's inbox, read end *)
  writes : Unix.file_descr array;  (* writes.(p): p's inbox, write end *)
}

type endpoint = {
  hub : hub;
  pid : int;
  mutable acc : string;  (* unparsed inbox bytes *)
  mutable start : int;  (* scan position within [acc] *)
  read_buf : Bytes.t;
}

let create ~n =
  let pipes = Array.init n (fun _ -> Unix.pipe ~cloexec:true ()) in
  Array.iter
    (fun (rd, wr) ->
      Unix.set_nonblock rd;
      Unix.set_nonblock wr)
    pipes;
  { n; reads = Array.map fst pipes; writes = Array.map snd pipes }

let endpoint hub ~pid =
  if pid < 0 || pid >= hub.n then invalid_arg "Transport.endpoint";
  { hub; pid; acc = ""; start = 0; read_buf = Bytes.create 65536 }

let close hub =
  let quietly fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Array.iter quietly hub.reads;
  Array.iter quietly hub.writes

(* Retry backoff between EAGAIN probes: long enough not to spin the other
   threads off the core, short enough to be invisible next to δ. *)
let backoff = 0.0002

let send ep ~clock ~deadline ~dst bytes =
  if String.length bytes > Codec.max_frame then
    invalid_arg "Transport.send: frame exceeds max_frame";
  let fd = ep.hub.writes.(dst) in
  let len = String.length bytes in
  let rec go retries =
    match Unix.write_substring fd bytes 0 len with
    | written ->
      (* O_NONBLOCK pipe writes of <= PIPE_BUF bytes are atomic: the kernel
         takes all of it or none (EAGAIN). *)
      assert (written = len);
      `Sent retries
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      if clock.Clock.now () >= deadline then `Timeout
      else begin
        clock.Clock.sleep backoff;
        go (retries + 1)
      end
  in
  go 0

let compact ep =
  if ep.start > 0 then begin
    ep.acc <- String.sub ep.acc ep.start (String.length ep.acc - ep.start);
    ep.start <- 0
  end

let pending ep = String.length ep.acc - ep.start

let recv ep ~clock ~deadline =
  let fd = ep.hub.reads.(ep.pid) in
  let rec go () =
    match Codec.scan ep.acc ~start:ep.start with
    | `Frame (f, next) ->
      ep.start <- next;
      `Frame f
    | `Skip (next, e) ->
      ep.start <- next;
      `Rejected e
    | `Need_more keep ->
      ep.start <- keep;
      compact ep;
      let timeout = deadline -. clock.Clock.now () in
      if timeout <= 0.0 then `Timeout
      else begin
        match Unix.select [ fd ] [] [] timeout with
        | [], _, _ -> `Timeout
        | _ :: _, _, _ -> (
          match Unix.read fd ep.read_buf 0 (Bytes.length ep.read_buf) with
          | 0 -> `Timeout (* every write end closed: treat as quiescent *)
          | k ->
            ep.acc <- ep.acc ^ Bytes.sub_string ep.read_buf 0 k;
            go ()
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
            go ())
        | exception Unix.Unix_error (EINTR, _, _) -> go ()
      end
  in
  go ()
