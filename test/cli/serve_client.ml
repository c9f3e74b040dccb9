(* Test client for the serve smoke tests. The default mode sends one
   request line to a daemon on a Unix-domain socket (or 127.0.0.1 TCP
   via a "tcp:PORT" target), reads one response line, and prints either
   the raw response or a single member extracted by dotted path —
   string members print raw, so a served "output" can be byte-compared
   (cmp) against one-shot CLI stdout. Numeric path components index
   into arrays, so the shard tests can pull e.g. result.shard.0.pid out
   of a fleet-wide health response.

   Three load modes drive the connection-layer regression checks:
   --flood N holds N idle connections open, --hog N pipelines N copies
   of a request and never reads, --pipeline N pipelines N copies while
   reading and demands N ok answers. --within-ms MS bounds the default
   and --pipeline modes: no complete answer in time exits 4. *)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("serve_client: " ^ s);
      exit 2)
    fmt

let write_all fd s =
  let bytes = Bytes.of_string s in
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

let expired () =
  prerr_endline "serve_client: no complete answer within the time bound";
  exit 4

(* Block until [fd] is readable, or exit 4 once [deadline] has passed. *)
let await_readable fd deadline =
  match deadline with
  | None -> ()
  | Some at -> (
      let left = at -. Server.Metrics.now_s () in
      if left <= 0. then expired ();
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> expired ()
      | _ -> ())

let read_line_fd ?deadline fd =
  let buffer = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec loop () =
    await_readable fd deadline;
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> die "connection closed before a full response line"
    | n -> (
        match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
        | Some i -> Buffer.add_subbytes buffer chunk 0 i
        | None ->
            Buffer.add_subbytes buffer chunk 0 n;
            loop ())
  in
  loop ();
  Buffer.contents buffer

let connect target =
  let domain, addr =
    match String.split_on_char ':' target with
    | [ "tcp"; port ] -> (
        match int_of_string_opt port with
        | Some p when p >= 1 && p <= 65535 ->
            (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, p))
        | Some _ | None -> die "bad tcp port in target %s" target)
    | _ -> (Unix.PF_UNIX, Unix.ADDR_UNIX target)
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with Unix.Unix_error (err, _, _) ->
     die "cannot connect to %s: %s" target (Unix.error_message err));
  fd

let rec idle () =
  Unix.sleep 60;
  idle ()

(* Hold [n] idle connections until killed. *)
let flood n target =
  let fds = List.init n (fun _ -> connect target) in
  Printf.printf "flood: %d connections open\n%!" (List.length fds);
  idle ()

(* Send [n] copies of [request] and never read, until killed. *)
let hog n target request =
  let fd = connect target in
  write_all fd (String.concat "" (List.init n (fun _ -> request ^ "\n")));
  idle ()

(* Send [n] copies of [request] while reading the answers; each must
   be an ok response. *)
let pipeline ?deadline n target request =
  let fd = connect target in
  Unix.set_nonblock fd;
  let out = String.concat "" (List.init n (fun _ -> request ^ "\n")) in
  let off = ref 0 in
  let answered = ref 0 in
  let pending = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let check line =
    incr answered;
    match Server.Json.decode line with
    | Ok json
      when Option.bind (Server.Json.member "status" json)
             Server.Json.to_string_opt
           = Some "ok" ->
        ()
    | Ok _ | Error _ -> die "answer %d is not ok: %s" !answered line
  in
  while !answered < n do
    let wait =
      match deadline with
      | None -> 1.
      | Some at ->
          let left = at -. Server.Metrics.now_s () in
          if left <= 0. then expired () else Float.min left 1.
    in
    let writing = if !off < String.length out then [ fd ] else [] in
    let readable, writable, _ = Unix.select [ fd ] writing [] wait in
    if writable <> [] then (
      match Unix.write_substring fd out !off (String.length out - !off) with
      | k -> off := !off + k
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ());
    if readable <> [] then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> die "connection closed after %d of %d answers" !answered n
      | k ->
          Buffer.add_subbytes pending chunk 0 k;
          let data = Buffer.contents pending in
          let lines = String.split_on_char '\n' data in
          let rec consume = function
            | [ rest ] ->
                Buffer.clear pending;
                Buffer.add_string pending rest
            | line :: more ->
                check line;
                consume more
            | [] -> ()
          in
          consume lines
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  done;
  Unix.close fd;
  Printf.printf "%d\n" !answered

let () =
  let deadline, args =
    match List.tl (Array.to_list Sys.argv) with
    | "--within-ms" :: ms :: rest -> (
        match int_of_string_opt ms with
        | Some ms when ms > 0 ->
            (Some (Server.Metrics.now_s () +. (float_of_int ms /. 1000.)), rest)
        | Some _ | None -> die "bad --within-ms %s" ms)
    | args -> (None, args)
  in
  let count n =
    match int_of_string_opt n with
    | Some n when n > 0 -> n
    | Some _ | None -> die "bad count %s" n
  in
  let target, request, field =
    match args with
    | [ "--flood"; n; target ] -> flood (count n) target
    | [ "--hog"; n; target; request ] -> hog (count n) target request
    | [ "--pipeline"; n; target; request ] ->
        pipeline ?deadline (count n) target request;
        exit 0
    | [ target; request ] -> (target, request, None)
    | [ target; request; field ] -> (target, request, Some field)
    | _ ->
        die
          "usage: serve_client [--within-ms MS] SOCKET|tcp:PORT REQUEST \
           [FIELD.PATH]\n\
          \       serve_client [--within-ms MS] --pipeline N TARGET REQUEST\n\
          \       serve_client --hog N TARGET REQUEST\n\
          \       serve_client --flood N TARGET"
  in
  let fd = connect target in
  (* A server that refuses the connection answers and closes at once:
     the write may then fail, but the answer is still there to read. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try write_all fd (request ^ "\n")
   with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ());
  let response = read_line_fd ?deadline fd in
  Unix.close fd;
  match field with
  | None -> print_endline response
  | Some path -> (
      match Server.Json.decode response with
      | Error e -> die "bad response JSON: %s" (Server.Json.error_to_string e)
      | Ok json -> (
          let step json key =
            match (int_of_string_opt key, json) with
            | Some i, Server.Json.List items -> List.nth_opt items i
            | _ -> Server.Json.member key json
          in
          let v =
            List.fold_left
              (fun acc key -> Option.bind acc (fun json -> step json key))
              (Some json)
              (String.split_on_char '.' path)
          in
          match v with
          | None ->
              prerr_endline
                ("serve_client: response has no member " ^ path ^ ": "
               ^ response);
              exit 3
          | Some (Server.Json.String s) -> print_string s
          | Some j -> print_string (Server.Json.encode j)))
