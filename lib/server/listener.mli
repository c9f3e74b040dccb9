(** Listener binding shared by the single-process daemon and the shard
    router front end.

    Both serve the same newline-delimited JSON protocol on a TCP
    loopback port and/or a Unix-domain socket, and both need the same
    care around leftover socket files: a stale path is only reclaimed
    after a liveness probe proves no live process owns it. *)

val bind :
  port:int option ->
  socket_path:string option ->
  ((Unix.file_descr * string) list, string) result
(** Bind and listen on the requested endpoints, non-blocking and
    close-on-exec (spawned workers must not inherit them). Returns one
    [(fd, name)] pair per listener, where [name] is a printable
    endpoint ("tcp:127.0.0.1:PORT" or "unix:PATH") for log lines.
    Fails if neither endpoint is requested, if a bind fails (e.g.
    [EADDRINUSE]), or if [socket_path] is owned by a live process. *)
