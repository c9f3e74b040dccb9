let tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    Unix.set_nonblock fd;
    Ok (fd, Printf.sprintf "tcp:127.0.0.1:%d" port)
  with Unix.Unix_error (err, _, _) ->
    Unix.close fd;
    Error
      (Printf.sprintf "cannot listen on 127.0.0.1:%d: %s" port
         (Unix.error_message err))

(* A leftover socket file is only removed after a liveness probe
   proves no daemon owns it: connecting to a live listener succeeds
   (or blocks on a full backlog), connecting to an abandoned path
   fails with ECONNREFUSED. Anything other than a provably-dead
   socket is left untouched. *)
let stale_socket_check path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        Unix.set_nonblock probe;
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) -> false
        | exception Unix.Unix_error (_, _, _) ->
            (* EINPROGRESS, EAGAIN, EACCES...: assume live; never
               steal a path we cannot prove abandoned. *)
            true
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if live then
        Error (Printf.sprintf "socket %s is owned by a live daemon" path)
      else begin
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        Ok ()
      end
  | _ -> Ok () (* not a socket: leave it alone, bind will fail loudly *)
  | exception Unix.Unix_error (ENOENT, _, _) -> Ok ()

let unix path =
  match stale_socket_check path with
  | Error _ as e -> e
  | Ok () -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      try
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64;
        Unix.set_nonblock fd;
        Ok (fd, "unix:" ^ path)
      with Unix.Unix_error (err, _, _) ->
        Unix.close fd;
        Error
          (Printf.sprintf "cannot listen on socket %s: %s" path
             (Unix.error_message err)))

let bind ~port ~socket_path =
  let collect acc = function
    | None -> acc
    | Some listener -> (
        match acc with
        | Error _ -> acc
        | Ok listeners -> (
            match listener with
            | Ok l -> Ok (l :: listeners)
            | Error e -> Error e))
  in
  match
    List.fold_left collect (Ok [])
      [ Option.map tcp port; Option.map unix socket_path ]
  with
  | Error _ as e -> e
  | Ok [] -> Error "serve needs a listener: pass --port and/or --socket"
  | Ok listeners -> Ok (List.rev listeners)
