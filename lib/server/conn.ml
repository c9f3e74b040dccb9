(* Every fd here is non-blocking, and every read or write stops at
   EAGAIN: a peer can slow a connection down but never the loop that
   owns it. *)

type t = {
  fd : Unix.file_descr;
  max_line : int;
  inbuf : Buffer.t;  (* bytes read but not yet line-terminated *)
  mutable out : Bytes.t;  (* outbox: unsent bytes are [out_start, out_end) *)
  mutable out_start : int;
  mutable out_end : int;
  mutable torn_start : int;  (* [torn_start, torn_end) go one per write *)
  mutable torn_end : int;
  mutable eof : bool;  (* nothing more will be read *)
  mutable dead : bool;  (* nothing more will be read or written *)
  mutable closed : bool;
  mutable owed : int;
  mutable last_progress : float;  (* [Metrics.now_s] of the last byte moved *)
}

type input = Line of string | Too_large

(* select(2) cannot watch a descriptor at or above FD_SETSIZE: the
   OCaml binding raises EINVAL for the whole call. *)
let fd_setsize = 1024

(* Backpressure: a connection whose peer leaves this many response
   bytes unread, or which is owed this many answers, is not read from
   until it drains. *)
let outbox_limit = 1 lsl 20
let owed_limit = 1024

(* One read buffer per domain: loops run on one domain each, and tests
   may run several at once. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.create 65536)
let read_chunks = 4

(* On Unix a file descriptor is its integer. *)
let int_of_fd (fd : Unix.file_descr) : int = Obj.magic fd

let error_response ?(extra = []) ~id ~code message =
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "error");
      ( "error",
        Json.Obj
          ((("code", Json.String code) :: extra)
          @ [ ("message", Json.String message) ]) );
    ]

let create ?(max_line = max_int) fd =
  Unix.set_nonblock fd;
  {
    fd;
    max_line;
    inbuf = Buffer.create 256;
    out = Bytes.empty;
    out_start = 0;
    out_end = 0;
    torn_start = 0;
    torn_end = 0;
    eof = false;
    dead = false;
    closed = false;
    owed = 0;
    last_progress = Metrics.now_s ();
  }

let eof c = c.eof
let dead c = c.dead
let add_owed c n = c.owed <- c.owed + n
let unsent_bytes c = c.out_end - c.out_start

let empty_outbox c =
  c.out_start <- 0;
  c.out_end <- 0;
  c.torn_start <- 0;
  c.torn_end <- 0

let kill c =
  c.dead <- true;
  empty_outbox c;
  Buffer.reset c.inbuf

let close c =
  if not c.closed then begin
    c.closed <- true;
    c.eof <- true;
    kill c;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let wants_read c =
  (not c.dead) && (not c.eof) && unsent_bytes c <= outbox_limit
  && c.owed < owed_limit

let unsent c = (not c.dead) && unsent_bytes c > 0

let stalled c ~give_up_s =
  (not c.dead)
  && (Buffer.length c.inbuf > 0 || unsent_bytes c > 0)
  && Metrics.now_s () -. c.last_progress > give_up_s

(* A half-closed peer is closed only once its answers are out. *)
let reap ~give_up_s conns =
  let stalls = ref 0 in
  let live =
    List.filter
      (fun c ->
        if stalled c ~give_up_s then begin
          incr stalls;
          kill c
        end;
        if c.dead || (c.eof && c.owed <= 0 && unsent_bytes c = 0) then begin
          close c;
          false
        end
        else true)
      conns
  in
  (live, !stalls)

(* ------------------------------------------------------------------ *)
(* Outbound                                                            *)

let flush c =
  let rec loop () =
    if c.out_start < c.out_end && not c.dead then
      let n =
        if c.out_start < c.torn_start then c.torn_start - c.out_start
        else if c.out_start < c.torn_end then 1
        else unsent_bytes c
      in
      match Unix.write c.fd c.out c.out_start n with
      | written ->
          c.out_start <- c.out_start + written;
          c.last_progress <- Metrics.now_s ();
          loop ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (_, _, _) -> kill c
  in
  loop ();
  if c.out_start = c.out_end then begin
    empty_outbox c;
    (* A drained burst gives its memory back. *)
    if Bytes.length c.out > 65536 then c.out <- Bytes.empty
  end

let append c line =
  let len = String.length line + 1 in
  let live = unsent_bytes c in
  if c.out_end + len > Bytes.length c.out then begin
    let buf =
      if live + len <= Bytes.length c.out then c.out
      else Bytes.create (max 4096 (max (2 * Bytes.length c.out) (live + len)))
    in
    Bytes.blit c.out c.out_start buf 0 live;
    c.torn_start <- max 0 (c.torn_start - c.out_start);
    c.torn_end <- max 0 (c.torn_end - c.out_start);
    c.out <- buf;
    c.out_start <- 0;
    c.out_end <- live
  end;
  Bytes.blit_string line 0 c.out c.out_end (len - 1);
  Bytes.set c.out (c.out_end + len - 1) '\n';
  c.out_end <- c.out_end + len

let send ?(torn = false) c line =
  if not c.dead then begin
    let idle = unsent_bytes c = 0 in
    (* A torn line extends a torn region still waiting to go out. *)
    if torn && c.out_start >= c.torn_end then c.torn_start <- c.out_end;
    append c line;
    if torn then c.torn_end <- c.out_end;
    flush c;
    (* The stall clock starts when bytes first wait in the outbox. *)
    if idle && unsent_bytes c > 0 then c.last_progress <- Metrics.now_s ()
  end;
  not c.dead

(* ------------------------------------------------------------------ *)
(* Inbound                                                             *)

let blank s =
  String.for_all
    (function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false)
    s

let too_large c inputs =
  ignore
    (send c
       (Json.encode
          (error_response ~id:Json.Null ~code:"too-large"
             (Printf.sprintf "request exceeds %d bytes" c.max_line)))
      : bool);
  inputs := Too_large :: !inputs

(* Split [n] fresh bytes of [chunk] into lines, continuing the partial
   line in [inbuf]. An over-long line that did end is answered and
   skipped; an over-long partial line leaves no boundary to resync on,
   so reading stops. *)
let frame c chunk n inputs =
  let start = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get chunk i = '\n' then begin
      let len = Buffer.length c.inbuf + (i - !start) in
      if len > c.max_line then begin
        Buffer.clear c.inbuf;
        too_large c inputs
      end
      else begin
        let line =
          if Buffer.length c.inbuf = 0 then
            Bytes.sub_string chunk !start (i - !start)
          else begin
            Buffer.add_subbytes c.inbuf chunk !start (i - !start);
            let line = Buffer.contents c.inbuf in
            Buffer.clear c.inbuf;
            line
          end
        in
        if not (blank line) then inputs := Line line :: !inputs
      end;
      start := i + 1
    end
  done;
  Buffer.add_subbytes c.inbuf chunk !start (n - !start);
  if Buffer.length c.inbuf > c.max_line then begin
    Buffer.reset c.inbuf;
    too_large c inputs;
    c.eof <- true
  end

let read c =
  let chunk = Domain.DLS.get scratch in
  let inputs = ref [] in
  let rec loop chunks =
    if chunks > 0 && not c.eof then
      match Unix.read c.fd chunk 0 (Bytes.length chunk) with
      | 0 ->
          c.eof <- true;
          (* A partial line at end of stream can never complete. *)
          Buffer.reset c.inbuf
      | n ->
          c.last_progress <- Metrics.now_s ();
          frame c chunk n inputs;
          if n = Bytes.length chunk then loop (chunks - 1)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> loop chunks
      | exception Unix.Unix_error (_, _, _) ->
          c.eof <- true;
          kill c
  in
  loop read_chunks;
  List.rev !inputs

(* ------------------------------------------------------------------ *)
(* Readiness                                                           *)

let wait ?(readers = []) conns timeout =
  let rd = List.filter wants_read conns in
  let wr = List.filter unsent conns in
  match
    Unix.select
      (readers @ List.map (fun c -> c.fd) rd)
      (List.map (fun c -> c.fd) wr)
      [] timeout
  with
  | exception Unix.Unix_error (EINTR, _, _) -> ([], [])
  | readable, writable, _ ->
      let member = function
        | [] -> fun _ -> false
        | fds ->
            let set = Bytes.make fd_setsize '\000' in
            List.iter (fun fd -> Bytes.set set (int_of_fd fd) '\001') fds;
            fun fd -> Bytes.get set (int_of_fd fd) <> '\000'
      in
      let is_writable = member writable in
      List.iter (fun c -> if is_writable c.fd then flush c) wr;
      let is_readable = member readable in
      ( List.filter is_readable readers,
        List.filter (fun c -> is_readable c.fd) rd )

let accept ?max_line ~reserve listener =
  match Unix.accept ~cloexec:true listener with
  | fd, _ ->
      let ceiling = fd_setsize - reserve in
      if int_of_fd fd < ceiling then Some (create ?max_line fd)
      else begin
        (* A fresh socket's send buffer is empty: the one short line
           goes out before the close. *)
        let c = create fd in
        ignore
          (send c
             (Json.encode
                (error_response ~id:Json.Null ~code:"too-many-connections"
                   (Printf.sprintf "connection limit reached (%d descriptors)"
                      ceiling)))
            : bool);
        close c;
        None
      end
  | exception
      Unix.Unix_error
        ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED | EMFILE | ENFILE), _, _)
    ->
      None
