(** One non-blocking, line-framed connection: the only socket I/O layer
    under the daemon's clients, the router's clients and the router's
    links to its workers.

    Nothing here ever blocks on a peer. {!send} writes what the kernel
    accepts at once and keeps the rest in an outbox; {!wait} selects
    for writability only on connections whose outbox is not empty and
    writes more as the peer drains it. A connection is not read from
    while its outbox holds more than a fixed bound, so a client that
    never reads costs bounded memory, and {!stalled} reports it once
    neither direction has moved for the caller's give-up time. *)

type t

type input =
  | Line of string  (** One complete, non-blank line, terminator removed. *)
  | Too_large
      (** A line longer than [max_line]; already answered with the
          shared [too-large] error. *)

val accept : ?max_line:int -> reserve:int -> Unix.file_descr -> t option
(** Accept one pending connection on a non-blocking listener. [None]
    when there was none, or when its descriptor is at or above the
    select ceiling ([FD_SETSIZE] minus [reserve], the descriptors the
    loop must still be able to open): such a connection is answered
    with one [too-many-connections] error line and closed, so a
    connection flood can never push a descriptor out of [select]'s
    range. *)

val create : ?max_line:int -> Unix.file_descr -> t
(** Wrap a connected socket and make it non-blocking. [max_line]
    bounds one inbound line (default: unbounded). *)

val read : t -> input list
(** Read what the socket holds (a bounded amount per call) and return
    the complete lines, in order. A partial line stays buffered. A
    partial line that already exceeds [max_line] cannot be resynced:
    it is answered [too-large], reported as [Too_large], and the
    connection reads nothing more. End of stream sets {!eof}; a socket
    error also sets {!dead}. *)

val send : ?torn:bool -> t -> string -> bool
(** Queue [line] and a newline behind the outbox and write what the
    kernel accepts now. [torn] writes these bytes one per system call
    (chaos I/O); the peer reads the same bytes. Returns [false] when the
    connection is dead afterwards (it may have been dead before). *)

val wait :
  ?readers:Unix.file_descr list ->
  t list ->
  float ->
  Unix.file_descr list * t list
(** One [select] of at most [timeout] seconds over [readers] and every
    connection that may be read; writable connections have their outbox
    written on the way out. Returns the ready [readers] and the
    readable connections, both in argument order. *)

val stalled : t -> give_up_s:float -> bool
(** A live connection holding a partial inbound line or unsent bytes
    that has made no progress in either direction for [give_up_s]. *)

val add_owed : t -> int -> unit
(** Adjust the count of requests read from this connection that the
    caller has yet to answer. *)

val reap : give_up_s:float -> t list -> t list * int
(** Kill the {!stalled} connections, close every one that is dead or
    at end of stream with nothing owed and nothing unsent, and return
    the rest with the number killed for stalling. *)

val unsent : t -> bool
(** Live and holding bytes not yet written. *)

val eof : t -> bool
val dead : t -> bool

val kill : t -> unit
(** Stop all I/O on the connection; unsent bytes are dropped. *)

val close : t -> unit
(** Kill and close the descriptor; idempotent. *)

val error_response :
  ?extra:(string * Json.t) list -> id:Json.t -> code:string -> string -> Json.t
(** The structured error every server process answers:
    [{"id":..,"status":"error","error":{"code":..,EXTRA..,"message":..}}]. *)
