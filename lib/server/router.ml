(* The consistent-hash shard router. Single-threaded like the daemon's
   dispatcher: one select loop owns the public listeners, every client
   connection and one persistent pipelined connection per worker. All
   socket I/O goes through [Conn], so nothing here blocks on a peer. *)

type options = {
  port : int option;
  socket_path : string option;
  shards : int;
  spawn_timeout_ms : int;
  max_request_bytes : int;
  worker_exe : string;
  worker_args : string list;
  handle_signals : bool;
}

let default_options =
  {
    port = None;
    socket_path = None;
    shards = 2;
    spawn_timeout_ms = 10_000;
    max_request_bytes = 1024 * 1024;
    worker_exe = "rexspeed";
    worker_args = [];
    handle_signals = true;
  }

let stop_requested = Atomic.make false
let stop () = Atomic.set stop_requested true

(* How long a connection may hold unsent bytes or a partial line
   without progress before it is declared dead (a worker link is then
   failed over), how often each worker is probed, and how often a down
   shard is revived. *)
let give_up_s = 30.
let probe_interval_s = 0.5
let revive_interval_s = 2.0
let max_respawn_attempts = 3

let respond_local client response =
  ignore (Conn.send client (Json.encode response) : bool)

(* ------------------------------------------------------------------ *)
(* Pending entries                                                     *)

(* A fleet-wide fan-out ([health]/[stats]) in progress: one leg per
   live shard, composed into a single response when the last leg
   lands. Down shards contribute a [None] part immediately. *)
type agg = {
  agg_client : Conn.t;
  agg_id : Json.t;
  agg_route : string;
  mutable agg_waiting : int;
  mutable agg_parts : (int * Json.t option) list;
}

type entry_kind =
  | Relay of { client : Conn.t; id : Json.t }
  | Probe
  | Fanout of agg

(* One line owed to a worker. *)
type entry = {
  ordinal : int;
  line : string;  (* rewritten request line, no terminator *)
  kind : entry_kind;
}

(* A shard's pending entries: [pending] finds an entry by ordinal (a
   worker may answer out of order: it sheds at admission), [order]
   keeps every entry in send order so failover replays in ordinal
   order. An answered entry leaves [pending] at once and [order]
   lazily, from its head. The table is only ever looked up, never
   iterated, so its order cannot reach a response. *)
type shard = {
  worker : Supervisor.worker;
  mutable link : Conn.t option;
  pending : (int, entry) Hashtbl.t;
  order : entry Queue.t;
  mutable probe_sent_at : float option;  (* the outstanding probe *)
  mutable last_probe_at : float;
  mutable down : bool;
}

type counters = {
  mutable routed : int;
  mutable failovers : int;
  mutable replayed : int;
}

(* ------------------------------------------------------------------ *)
(* Id rewriting and response splicing                                  *)

(* Forwarded requests get the router ordinal spliced in as a duplicate
   first member: the daemon's decoder keeps duplicates and
   [Json.member] returns the first, so the worker echoes the ordinal
   while the client's own [id] member rides along untouched. Only
   lines that already parsed as valid requests reach this point, so
   the object is never empty (it has at least "route"). *)
let rewrite_request ~ordinal line =
  match String.index_opt line '{' with
  | Some i ->
      Printf.sprintf "{\"id\":%d,%s" ordinal
        (String.sub line (i + 1) (String.length line - i - 1))
  | None -> Printf.sprintf "{\"id\":%d}" ordinal (* unreachable *)

(* Every daemon response builder emits [id] as the first member, so a
   worker line starts with {"id":<ordinal>, — parse just that prefix
   and remember where the rest begins. Returns the ordinal and [Some
   offset] of the byte after the digits (the comma), or [None] offset
   when the fast path missed and the caller must fall back to a full
   decode. *)
let response_ordinal line =
  let prefix = "{\"id\":" in
  let plen = String.length prefix in
  let n = String.length line in
  let fast =
    if n > plen + 1 && String.equal (String.sub line 0 plen) prefix then begin
      let i = ref plen in
      while !i < n && line.[!i] >= '0' && line.[!i] <= '9' do
        incr i
      done;
      if !i > plen && !i < n && line.[!i] = ',' then
        Some (int_of_string (String.sub line plen (!i - plen)), Some !i)
      else None
    end
    else None
  in
  match fast with
  | Some _ as found -> found
  | None -> (
      match Json.decode line with
      | Error _ -> None
      | Ok json -> (
          match Json.member "id" json with
          | Some (Json.Int ordinal) -> Some (ordinal, None)
          | Some _ | None -> None))

(* Restore the client's id: splice bytes on the fast path (the relayed
   payload — [output] above all — stays exactly the worker's bytes),
   re-encode only when the prefix shape ever changes. *)
let restore_id ~id line rest_at =
  match rest_at with
  | Some i ->
      "{\"id\":" ^ Json.encode id ^ String.sub line i (String.length line - i)
  | None -> (
      match Json.decode line with
      | Ok (Json.Obj members) ->
          Json.encode
            (Json.Obj
               (("id", id)
               :: List.filter (fun (k, _) -> not (String.equal k "id")) members
               ))
      | Ok other -> Json.encode other
      | Error _ ->
          Json.encode
            (Conn.error_response ~id ~code:"internal" "unparseable shard response"))

(* ------------------------------------------------------------------ *)
(* Fleet-wide aggregation                                              *)

let int_at path json =
  let rec walk json = function
    | [] -> Json.to_int_opt json
    | key :: rest -> (
        match Json.member key json with
        | Some child -> walk child rest
        | None -> None)
  in
  Option.value (walk json path) ~default:0

let sum_parts parts path =
  List.fold_left
    (fun acc (_, part) ->
      match part with Some json -> acc + int_at path json | None -> acc)
    0 parts

(* Client requests awaiting a worker: every pending entry but the
   probes. *)
let in_flight shards =
  Array.fold_left
    (fun acc s ->
      acc + Hashtbl.length s.pending
      - if Option.is_some s.probe_sent_at then 1 else 0)
    0 shards

let router_json ~counters ~shards =
  let respawns =
    Array.fold_left (fun acc s -> acc + s.worker.Supervisor.respawns) 0 shards
  in
  Json.Obj
    [
      ("routed", Json.Int counters.routed);
      ("failovers", Json.Int counters.failovers);
      ("respawns", Json.Int respawns);
      ("replayed", Json.Int counters.replayed);
      ("in_flight", Json.Int (in_flight shards));
    ]

let compose_health ~counters ~shards agg =
  let parts =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) agg.agg_parts
  in
  let missing =
    List.exists (fun (_, part) -> Option.is_none part) parts
  in
  let any_down = Array.exists (fun s -> s.down) shards || missing in
  let shard_json (i, part) =
    let s = shards.(i) in
    Json.Obj
      [
        ("index", Json.Int i);
        ("pid", Json.Int s.worker.Supervisor.pid);
        ("respawns", Json.Int s.worker.Supervisor.respawns);
        ("status", Json.String (if s.down then "down" else "serving"));
        ( "health",
          match part with
          | Some json ->
              Option.value (Json.member "result" json) ~default:Json.Null
          | None -> Json.Null );
      ]
  in
  Json.Obj
    [
      ("id", agg.agg_id);
      ("status", Json.String "ok");
      ("route", Json.String "health");
      ( "result",
        Json.Obj
          [
            ("status", Json.String (if any_down then "degraded" else "serving"));
            ("version", Json.String Version.current);
            ("ready", Json.Bool (not any_down));
            ("shards", Json.Int (Array.length shards));
            ("router", router_json ~counters ~shards);
            ("shard", Json.List (List.map shard_json parts));
          ] );
    ]

let compose_stats ~counters ~shards agg =
  let parts =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) agg.agg_parts
  in
  let sum path = Json.Int (sum_parts parts ("result" :: path)) in
  let shard_json (i, part) =
    Json.Obj
      [
        ("index", Json.Int i);
        ( "stats",
          match part with
          | Some json ->
              Option.value (Json.member "result" json) ~default:Json.Null
          | None -> Json.Null );
      ]
  in
  Json.Obj
    [
      ("id", agg.agg_id);
      ("status", Json.String "ok");
      ("route", Json.String "stats");
      ( "result",
        Json.Obj
          [
            ("version", Json.String Version.current);
            ("requests", sum [ "requests" ]);
            ("errors", sum [ "errors" ]);
            ( "cache",
              Json.Obj
                [
                  ("capacity", sum [ "cache"; "capacity" ]);
                  ("entries", sum [ "cache"; "entries" ]);
                  ("hits", sum [ "cache"; "hits" ]);
                  ("misses", sum [ "cache"; "misses" ]);
                ] );
            ( "hardening",
              Json.Obj
                [
                  ("shed", sum [ "hardening"; "shed" ]);
                  ("deadline_exceeded", sum [ "hardening"; "deadline_exceeded" ]);
                  ("io_timeouts", sum [ "hardening"; "io_timeouts" ]);
                  ( "verify",
                    Json.Obj
                      [
                        ("checks", sum [ "hardening"; "verify"; "checks" ]);
                        ( "divergences",
                          sum [ "hardening"; "verify"; "divergences" ] );
                      ] );
                  ( "workers",
                    Json.Obj
                      [
                        ( "restarts",
                          sum [ "hardening"; "workers"; "restarts" ] );
                      ] );
                ] );
            ("router", router_json ~counters ~shards);
            ("shard", Json.List (List.map shard_json parts));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Runtime directory                                                   *)

let make_runtime_dir () =
  let path = Filename.temp_file "rexspeed-shard" "" in
  Unix.unlink path;
  Unix.mkdir path 0o700;
  path

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)

let run ?on_ready options =
  if options.shards < 1 then Error "--shards must be >= 1"
  else if options.shards > 64 then Error "--shards must be <= 64"
  else if options.spawn_timeout_ms < 1 then
    Error "--shard-spawn-timeout-ms must be >= 1"
  else if options.max_request_bytes < 2 then
    Error "--max-request-bytes must be at least 2"
  else
    match
      Listener.bind ~port:options.port ~socket_path:options.socket_path
    with
    | Error _ as e -> e
    | Ok listeners ->
        Atomic.set stop_requested false;
        let runtime_dir = make_runtime_dir () in
        let counters = { routed = 0; failovers = 0; replayed = 0 } in
        let map = Shard_map.create ~shards:options.shards in
        let shards =
          Array.init options.shards (fun i ->
              {
                worker =
                  Supervisor.make ~index:i
                    ~socket_path:
                      (Filename.concat runtime_dir
                         (Printf.sprintf "worker-%d.sock" i));
                link = None;
                pending = Hashtbl.create 64;
                order = Queue.create ();
                probe_sent_at = None;
                last_probe_at = 0.;
                down = false;
              })
        in
        let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> () in
        let probe_timeout_s =
          Float.max 2. (float_of_int options.spawn_timeout_ms /. 1000.)
        in
        let served = ref 0 in
        let clients = ref [] in
        let next_ordinal = ref 0 in
        let fresh_ordinal () =
          let o = !next_ordinal in
          incr next_ordinal;
          o
        in
        let worker_args shard =
          ("serve" :: "--socket" :: shard.worker.Supervisor.socket_path
         :: options.worker_args)
        in
        let close_link shard =
          Option.iter Conn.close shard.link;
          shard.link <- None
        in
        let connect_worker shard =
          close_link shard;
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match
            Unix.connect fd (Unix.ADDR_UNIX shard.worker.Supervisor.socket_path)
          with
          | () ->
              shard.link <- Some (Conn.create fd);
              Ok ()
          | exception Unix.Unix_error (err, _, _) ->
              close_fd fd;
              Error
                (Printf.sprintf "shard %d: cannot connect: %s"
                   shard.worker.Supervisor.index (Unix.error_message err))
        in
        let spawn_worker shard =
          let index = shard.worker.Supervisor.index in
          Tracing.Tracer.with_span ~id:index
            ~label:(Printf.sprintf "shard%d" index)
            Tracing.Span.Shard_spawn
          @@ fun () ->
          match
            Supervisor.spawn ~exe:options.worker_exe ~args:(worker_args shard)
              shard.worker
          with
          | Error _ as e -> e
          | Ok () -> (
              match
                Supervisor.wait_ready shard.worker
                  ~timeout_ms:options.spawn_timeout_ms
              with
              | Error _ as e -> e
              | Ok () -> connect_worker shard)
        in
        let take_entry shard ordinal =
          match Hashtbl.find_opt shard.pending ordinal with
          | None -> None
          | Some _ as found ->
              Hashtbl.remove shard.pending ordinal;
              while
                (not (Queue.is_empty shard.order))
                && not (Hashtbl.mem shard.pending (Queue.peek shard.order).ordinal)
              do
                ignore (Queue.pop shard.order : entry)
              done;
              found
        in
        let pending_in_order shard =
          List.of_seq
            (Seq.filter
               (fun e -> Hashtbl.mem shard.pending e.ordinal)
               (Queue.to_seq shard.order))
        in
        let finish_fanout agg =
          Conn.add_owed agg.agg_client (-1);
          let response =
            match agg.agg_route with
            | "health" -> compose_health ~counters ~shards agg
            | _ -> compose_stats ~counters ~shards agg
          in
          respond_local agg.agg_client response;
          incr served
        in
        let record_part agg index part =
          agg.agg_parts <- (index, part) :: agg.agg_parts;
          agg.agg_waiting <- agg.agg_waiting - 1;
          if agg.agg_waiting <= 0 then finish_fanout agg
        in
        (* Answer (or account) one pending entry that will never get a
           worker response — shard declared unusable. *)
        let abandon_entry shard entry =
          match entry.kind with
          | Probe -> ()
          | Relay { client; id } ->
              Conn.add_owed client (-1);
              respond_local client
                (Conn.error_response ~id ~code:"shard_unavailable"
                   ~extra:
                     [
                       ( "shard",
                         Json.Int shard.worker.Supervisor.index );
                     ]
                   "shard worker unavailable");
              incr served
          | Fanout agg -> record_part agg shard.worker.Supervisor.index None
        in
        let abandon_all shard =
          let live = pending_in_order shard in
          Hashtbl.reset shard.pending;
          Queue.clear shard.order;
          shard.probe_sent_at <- None;
          List.iter (abandon_entry shard) live
        in
        (* Handle one complete response line from a worker. Unmatched
           ordinals (e.g. a duplicate surfacing after a replay already
           answered) are dropped: a client hears exactly one response
           per request. *)
        let handle_worker_line shard line =
          match response_ordinal line with
          | None -> ()
          | Some (ordinal, rest_at) -> (
              match take_entry shard ordinal with
              | None -> ()
              | Some entry -> (
                  match entry.kind with
                  | Probe -> shard.probe_sent_at <- None
                  | Relay { client; id } ->
                      Conn.add_owed client (-1);
                      ignore (Conn.send client (restore_id ~id line rest_at) : bool);
                      incr served
                  | Fanout agg ->
                      let part =
                        match Json.decode line with
                        | Ok json -> Some json
                        | Error _ -> None
                      in
                      record_part agg shard.worker.Supervisor.index part))
        in
        let read_link shard link =
          List.iter
            (function
              | Conn.Line line -> handle_worker_line shard line
              | Conn.Too_large -> ())
            (Conn.read link)
        in
        (* Failover: salvage already-committed responses, kill and
           respawn the worker, replay what is still owed. Bounded
           respawn attempts; a shard that cannot come back is marked
           down and its pending work answered with a structured error
           (revival retries continue from the probe tick). *)
        let failover ~reason shard =
          let index = shard.worker.Supervisor.index in
          counters.failovers <- counters.failovers + 1;
          Tracing.Tracer.count Tracing.Span.Router_failovers;
          Tracing.Tracer.with_span ~id:counters.failovers
            ~label:(Printf.sprintf "shard%d" index)
            Tracing.Span.Router_failover
          @@ fun () ->
          Printf.eprintf "rexspeed serve: router: shard %d failover (%s)\n%!"
            index reason;
          (* Responses the worker already produced are committed work:
             relay them instead of recomputing. A torn partial line goes
             with the closed link — its entry stays pending and is
             replayed whole. *)
          Option.iter (read_link shard) shard.link;
          close_link shard;
          Supervisor.kill shard.worker;
          let rec attempt k =
            match spawn_worker shard with
            | Ok () -> Ok ()
            | Error e ->
                Supervisor.kill shard.worker;
                if k >= max_respawn_attempts then Error e else attempt (k + 1)
          in
          (match attempt 1 with
          | Ok () ->
              shard.down <- false;
              shard.worker.Supervisor.respawns <-
                shard.worker.Supervisor.respawns + 1;
              Tracing.Tracer.count Tracing.Span.Shard_respawns;
              let live = pending_in_order shard in
              let replayed = List.length live in
              counters.replayed <- counters.replayed + replayed;
              Tracing.Tracer.count ~n:replayed Tracing.Span.Router_replays;
              if Option.is_some shard.probe_sent_at then
                shard.probe_sent_at <- Some (Metrics.now_s ());
              let resent =
                match shard.link with
                | Some link -> List.for_all (fun e -> Conn.send link e.line) live
                | None -> false
              in
              if not resent then begin
                (* Freshly spawned yet unwritable: give up on the shard
                   for now rather than recurse. *)
                close_link shard;
                Supervisor.kill shard.worker;
                shard.down <- true;
                abandon_all shard
              end
          | Error e ->
              Printf.eprintf
                "rexspeed serve: router: shard %d down (%s)\n%!" index e;
              shard.down <- true;
              abandon_all shard);
          shard.last_probe_at <- Metrics.now_s ()
        in
        let enqueue shard entry =
          Hashtbl.replace shard.pending entry.ordinal entry;
          Queue.add entry shard.order;
          match shard.link with
          | Some link when Conn.send link entry.line -> ()
          | Some _ | None -> failover ~reason:"worker connection closed" shard
        in
        let fanout client ~id route =
          Conn.add_owed client 1;
          let down_parts =
            Array.to_list shards
            |> List.filter (fun s -> s.down)
            |> List.map (fun s -> (s.worker.Supervisor.index, None))
          in
          let live = Array.to_list shards |> List.filter (fun s -> not s.down) in
          let agg =
            {
              agg_client = client;
              agg_id = id;
              agg_route = route;
              agg_waiting = List.length live;
              agg_parts = down_parts;
            }
          in
          if live = [] then finish_fanout agg
          else
            List.iter
              (fun shard ->
                let ordinal = fresh_ordinal () in
                enqueue shard
                  {
                    ordinal;
                    line =
                      Printf.sprintf "{\"id\":%d,\"route\":%s}" ordinal
                        (Json.encode (Json.String route));
                    kind = Fanout agg;
                  })
              live
        in
        let route_line client line =
          let ordinal = fresh_ordinal () in
          Tracing.Tracer.with_span ~id:ordinal Tracing.Span.Router_route
          @@ fun () ->
          match Json.decode line with
          | Error e ->
              respond_local client
                (Conn.error_response ~id:Json.Null ~code:"parse"
                   ~extra:[ ("position", Json.Int e.position) ]
                   e.message);
              incr served
          | Ok json -> (
              let id =
                Option.value (Json.member "id" json) ~default:Json.Null
              in
              match Protocol.parse json with
              | Error reason ->
                  respond_local client
                    (Conn.error_response ~id ~code:"bad-request" reason);
                  incr served
              | Ok Protocol.Health -> fanout client ~id "health"
              | Ok Protocol.Stats -> fanout client ~id "stats"
              | Ok request ->
                  let fingerprint = Protocol.fingerprint request in
                  let index = Shard_map.lookup map fingerprint in
                  counters.routed <- counters.routed + 1;
                  Tracing.Tracer.count Tracing.Span.Router_routed;
                  let shard = shards.(index) in
                  if shard.down then begin
                    respond_local client
                      (Conn.error_response ~id ~code:"shard_unavailable"
                         ~extra:[ ("shard", Json.Int index) ]
                         "shard worker unavailable");
                    incr served
                  end
                  else begin
                    Conn.add_owed client 1;
                    enqueue shard
                      {
                        ordinal;
                        line = rewrite_request ~ordinal line;
                        kind = Relay { client; id };
                      }
                  end)
        in
        (* Liveness: process exits caught by waitpid, wedged workers by
           a stalled health probe, down shards periodically revived. *)
        let probe_tick () =
          let now = Metrics.now_s () in
          Array.iter
            (fun shard ->
              if shard.down then begin
                if now -. shard.last_probe_at > revive_interval_s then begin
                  shard.last_probe_at <- now;
                  failover ~reason:"revival attempt" shard
                end
              end
              else if not (Supervisor.alive shard.worker) then
                failover ~reason:"worker process exited" shard
              else
                match shard.probe_sent_at with
                | Some at when now -. at > probe_timeout_s ->
                    failover ~reason:"health probe stalled" shard
                | Some _ -> ()
                | None ->
                    if now -. shard.last_probe_at > probe_interval_s then begin
                      shard.last_probe_at <- now;
                      shard.probe_sent_at <- Some now;
                      let ordinal = fresh_ordinal () in
                      enqueue shard
                        {
                          ordinal;
                          line =
                            Printf.sprintf "{\"id\":%d,\"route\":\"health\"}"
                              ordinal;
                          kind = Probe;
                        }
                    end)
            shards
        in
        let listener_fds = List.map fst listeners in
        let reserve = List.length listeners + options.shards in
        let shard_of_link conn =
          Array.find_opt
            (fun s ->
              match s.link with Some link -> link == conn | None -> false)
            shards
        in
        let sweep ~accepting ~timeout =
          let links = Array.to_list shards |> List.filter_map (fun s -> s.link) in
          let ready, readable =
            Conn.wait
              ~readers:(if accepting then listener_fds else [])
              (links @ !clients) timeout
          in
          List.iter
            (fun listener ->
              match
                Conn.accept ~max_line:options.max_request_bytes ~reserve
                  listener
              with
              | Some client -> clients := client :: !clients
              | None -> ())
            ready;
          List.iter
            (fun conn ->
              match shard_of_link conn with
              | Some shard -> read_link shard conn
              | None ->
                  List.iter
                    (function
                      | Conn.Line line -> route_line conn line
                      | Conn.Too_large -> ())
                    (Conn.read conn))
            readable;
          Array.iter
            (fun shard ->
              match shard.link with
              | Some link when Conn.eof link || Conn.dead link ->
                  failover ~reason:"worker connection closed" shard
              | Some link when Conn.stalled link ~give_up_s ->
                  failover ~reason:"write to worker stalled" shard
              | Some _ | None -> ())
            shards;
          probe_tick ();
          (* Entries owed to a dropped client still complete on their
             worker; their answers go nowhere because it is dead. *)
          clients := fst (Conn.reap ~give_up_s !clients)
        in
        (* Startup: spawn the whole fleet before accepting traffic. *)
        let previous_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
        let cleanup () =
          Array.iter
            (fun shard ->
              close_link shard;
              Supervisor.terminate shard.worker ~grace_ms:5_000)
            shards;
          (try Unix.rmdir runtime_dir with Unix.Unix_error _ -> ());
          (match options.socket_path with
          | Some path -> (
              try Unix.unlink path with Unix.Unix_error _ -> ())
          | None -> ());
          ignore (Sys.signal Sys.sigpipe previous_sigpipe)
        in
        Fun.protect ~finally:cleanup @@ fun () ->
        let startup =
          Array.fold_left
            (fun acc shard ->
              match acc with
              | Error _ as e -> e
              | Ok () -> spawn_worker shard)
            (Ok ()) shards
        in
        match startup with
        | Error e ->
            List.iter close_fd listener_fds;
            Error e
        | Ok () ->
            if options.handle_signals then begin
              Sys.set_signal Sys.sigterm
                (Sys.Signal_handle (fun _ -> stop ()));
              Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop ()))
            end;
            List.iter
              (fun (_, name) ->
                Printf.eprintf
                  "rexspeed serve: router listening on %s (%d shards)\n%!"
                  name options.shards)
              listeners;
            Option.iter (fun f -> f ()) on_ready;
            while not (Atomic.get stop_requested) do
              sweep ~accepting:true ~timeout:0.2
            done;
            (* Drain: stop accepting, answer everything in flight plus
               any fully-received request still in a socket buffer, let
               the answers leave, then stop the fleet. Time-bounded so a
               wedged worker or a client that never reads cannot hang
               shutdown: leftovers get a structured error. *)
            List.iter close_fd listener_fds;
            let give_up_at = Metrics.now_s () +. give_up_s in
            let quiet = ref 0 in
            while
              (in_flight shards > 0 || !quiet < 2 || List.exists Conn.unsent !clients)
              && Metrics.now_s () < give_up_at
            do
              let before = !served in
              sweep ~accepting:false ~timeout:0.05;
              if in_flight shards = 0 && !served = before then incr quiet
              else quiet := 0
            done;
            Array.iter abandon_all shards;
            List.iter Conn.close !clients;
            clients := [];
            Printf.eprintf
              "rexspeed serve: router drained, %d response(s) relayed\n%!"
              !served;
            Ok ()
