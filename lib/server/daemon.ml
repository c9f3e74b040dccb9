type options = {
  port : int option;
  socket_path : string option;
  cache_entries : int;
  max_request_bytes : int;
  max_inflight : int;
  log_every : int;
  handle_signals : bool;
  deadline_ms : int;
  io_timeout_ms : int;
  max_queue : int;
  verify_sample : int;
}

let default_options =
  {
    port = None;
    socket_path = None;
    cache_entries = 256;
    max_request_bytes = 1024 * 1024;
    max_inflight = 64;
    log_every = 0;
    handle_signals = true;
    deadline_ms = 0;
    io_timeout_ms = 30_000;
    max_queue = 0;
    verify_sample = 0;
  }

let stop_requested = Atomic.make false
let stop () = Atomic.set stop_requested true

(* Hardening counters, owned by the dispatcher and reported by the
   [health] and [stats] routes. The matching trace counters are bumped
   at the same points; these survive when tracing is off. *)
type hardening = {
  mutable shed : int;
  mutable deadline_exceeded : int;
  mutable io_timeouts : int;
  mutable verify_checks : int;
  mutable verify_divergences : int;
  mutable chaos_io : int;
}

let fresh_hardening () =
  {
    shed = 0;
    deadline_exceeded = 0;
    io_timeouts = 0;
    verify_checks = 0;
    verify_divergences = 0;
    chaos_io = 0;
  }

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let float_or_null v = if Float.is_finite v then Json.Float v else Json.Null

let result_response ~id ~route ~fingerprint ~cached ~(rendering : Render.rendering) =
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "ok");
      ("route", Json.String route);
      ("fingerprint", Json.String fingerprint);
      ("cached", Json.Bool cached);
      ("exit", Json.Int (if rendering.ok then 0 else 1));
      ("output", Json.String rendering.output);
    ]

let hardening_json ~hardening ~queue_depth ~domains =
  [
    ("queue_depth", Json.Int queue_depth);
    ("shed", Json.Int hardening.shed);
    ("deadline_exceeded", Json.Int hardening.deadline_exceeded);
    ("io_timeouts", Json.Int hardening.io_timeouts);
    ( "verify",
      Json.Obj
        [
          ("checks", Json.Int hardening.verify_checks);
          ("divergences", Json.Int hardening.verify_divergences);
        ] );
    ( "workers",
      Json.Obj
        [
          ("domains", Json.Int domains);
          ("restarts", Json.Int (Parallel.Pool.worker_restarts ()));
        ] );
  ]

let health_response ~id ~metrics ~hardening ~queue_depth ~max_queue ~domains =
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "ok");
      ("route", Json.String "health");
      ( "result",
        Json.Obj
          ([
             ("status", Json.String "serving");
             ("version", Json.String Version.current);
             ("uptime_s", float_or_null (Metrics.uptime_s metrics));
             ("ready", Json.Bool (max_queue = 0 || queue_depth < max_queue));
           ]
          @ hardening_json ~hardening ~queue_depth ~domains) );
    ]

let latency_json (s : Metrics.route_stats) =
  let ms v = float_or_null (1000. *. v) in
  Json.Obj
    [
      ("min", ms s.latency_min_s);
      ("mean", ms s.latency_mean_s);
      ("max", ms s.latency_max_s);
      ("p99", ms s.latency_p99_s);
    ]

let stats_response ~id ~metrics ~cache ~hardening ~queue_depth ~domains =
  let route_json (s : Metrics.route_stats) =
    Json.Obj
      [
        ("route", Json.String s.route);
        ("requests", Json.Int s.requests);
        ("errors", Json.Int s.errors);
        ("latency_ms", latency_json s);
      ]
  in
  let totals = Metrics.totals metrics in
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "ok");
      ("route", Json.String "stats");
      ( "result",
        Json.Obj
          [
            ("version", Json.String Version.current);
            ("uptime_s", float_or_null (Metrics.uptime_s metrics));
            ("requests", Json.Int totals.requests);
            ("errors", Json.Int totals.errors);
            ("latency_ms", latency_json totals);
            ("routes", Json.List (List.map route_json (Metrics.routes metrics)));
            ( "cache",
              Json.Obj
                [
                  ("capacity", Json.Int (Lru.capacity cache));
                  ("entries", Json.Int (Lru.length cache));
                  ("hits", Json.Int (Lru.hits cache));
                  ("misses", Json.Int (Lru.misses cache));
                  ("hit_rate", Json.Float (Lru.hit_rate cache));
                ] );
            ("hardening", Json.Obj (hardening_json ~hardening ~queue_depth ~domains));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

(* Solver work, executed on a pool worker (or inline for a singleton
   batch). Never raises: a handler exception becomes an [internal]
   error response, not a dead daemon. *)
let compute request =
  let t0 = Metrics.now_s () in
  let outcome =
    match
      match request with
      | Protocol.Optimize { config; rho; single_speed } ->
          let mode =
            if single_speed then Core.Bicrit.Single_speed
            else Core.Bicrit.Two_speeds
          in
          Render.optimize ~mode
            ~env:(Core.Env.of_config config)
            ~name:(Platforms.Config.name config)
            ~rho ()
      | Protocol.Frontier { config } ->
          Render.frontier
            ~env:(Core.Env.of_config config)
            ~name:(Platforms.Config.name config)
            ()
      | Protocol.Evaluate { config; w; sigma1; sigma2; replicas } ->
          Render.evaluate
            ~env:(Core.Env.of_config config)
            ~w ~sigma1 ~sigma2 ~replicas ()
      | Protocol.Health | Protocol.Stats ->
          invalid_arg "Daemon.compute: live route"
    with
    | rendering -> Ok rendering
    | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
    | exception e -> Error (Printexc.to_string e)
  in
  (outcome, Metrics.now_s () -. t0)

(* The response fingerprint compared by verified re-execution: the
   rendered bytes plus the ok bit, hashed with the same checksum the
   run journal uses. *)
let response_fingerprint (rendering : Render.rendering) =
  Resilience.Checksum.hex_of_string
    ((if rendering.ok then "+" else "-") ^ rendering.output)

(* Best-effort request id for responses emitted before (or instead of)
   classification — shed and expired requests. *)
let request_id line =
  match Json.decode line with
  | Ok json -> Option.value (Json.member "id" json) ~default:Json.Null
  | Error _ -> Json.Null

(* One parsed-and-classified request line. *)
type job =
  | Immediate of { route : string; ok : bool; response : Json.t; latency_s : float }
  | Solve of {
      id : Json.t;
      request : Protocol.request;
      fingerprint : string;
      cached : Render.rendering option;
    }

let classify ~ordinal ~cache ~metrics ~hardening ~queue_depth ~max_queue
    ~domains line =
  let started = Metrics.now_s () in
  let elapsed () = Metrics.now_s () -. started in
  match Json.decode line with
  | Error e ->
      Immediate
        {
          route = "invalid";
          ok = false;
          response =
            Conn.error_response ~id:Json.Null ~code:"parse"
              ~extra:[ ("position", Json.Int e.position) ]
              e.message;
          latency_s = elapsed ();
        }
  | Ok json -> (
      let id = Option.value (Json.member "id" json) ~default:Json.Null in
      match Protocol.parse json with
      | Error reason ->
          Immediate
            {
              route = "invalid";
              ok = false;
              response = Conn.error_response ~id ~code:"bad-request" reason;
              latency_s = elapsed ();
            }
      | Ok Protocol.Health ->
          Immediate
            {
              route = "health";
              ok = true;
              response =
                health_response ~id ~metrics ~hardening ~queue_depth ~max_queue
                  ~domains;
              latency_s = elapsed ();
            }
      | Ok Protocol.Stats ->
          Immediate
            {
              route = "stats";
              ok = true;
              response =
                stats_response ~id ~metrics ~cache ~hardening ~queue_depth
                  ~domains;
              latency_s = elapsed ();
            }
      | Ok request ->
          let fingerprint = Protocol.fingerprint request in
          let cached =
            if Protocol.cacheable request then begin
              let hit =
                Tracing.Tracer.with_span ~id:ordinal
                  Tracing.Span.Cache_lookup (fun () ->
                    Lru.find cache fingerprint)
              in
              Tracing.Tracer.count
                (match hit with
                | Some _ -> Tracing.Span.Cache_hits
                | None -> Tracing.Span.Cache_misses);
              hit
            end
            else None
          in
          Solve { id; request; fingerprint; cached })

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)

let run ?pool ?on_ready options =
  if options.cache_entries < 0 then Error "--cache-entries must be >= 0"
  else if options.max_request_bytes < 2 then
    Error "--max-request-bytes must be at least 2"
  else if options.max_inflight < 1 then Error "--max-inflight must be >= 1"
  else if options.log_every < 0 then Error "--log-every must be >= 0"
  else if options.deadline_ms < 0 then Error "--deadline-ms must be >= 0"
  else if options.io_timeout_ms < 0 then Error "--io-timeout-ms must be >= 0"
  else if options.max_queue < 0 then Error "--max-queue must be >= 0"
  else if options.verify_sample < 0 then Error "--verify-sample must be >= 0"
  else
    match
      Listener.bind ~port:options.port ~socket_path:options.socket_path
    with
    | Error _ as e -> e
    | Ok listeners ->
        (* From here on the daemon owns the socket path: unlink it on
           every exit, normal drain or escaping exception, so a crash
           never leaves a stale file that blocks the next start. *)
        Fun.protect
          ~finally:(fun () ->
            match options.socket_path with
            | Some path -> (
                try Unix.unlink path with Unix.Unix_error _ -> ())
            | None -> ())
        @@ fun () ->
        Atomic.set stop_requested false;
        let pool =
          match pool with Some p -> p | None -> Parallel.Pool.default ()
        in
        let previous_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
        if options.handle_signals then begin
          Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop ()));
          Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop ()))
        end;
        let cache = Lru.create ~capacity:options.cache_entries in
        let metrics = Metrics.create () in
        let hardening = fresh_hardening () in
        let domains = Parallel.Pool.domains pool in
        let give_up_s =
          if options.io_timeout_ms = 0 then infinity
          else float_of_int options.io_timeout_ms /. 1000.
        in
        let deadline_s = float_of_int options.deadline_ms /. 1000. in
        let chaos_io () = Resilience.Chaos.io_active () in
        let io_fires kind ~ordinal =
          match chaos_io () with
          | None -> false
          | Some io ->
              let fire =
                Resilience.Chaos.io_fires io kind ~index:ordinal ~attempt:0
              in
              if fire then begin
                hardening.chaos_io <- hardening.chaos_io + 1;
                Tracing.Tracer.count Tracing.Span.Chaos_io_injections
              end;
              fire
        in
        let conns = ref [] in
        let served = ref 0 in
        let log_line () =
          let totals = Metrics.totals metrics in
          let uptime = Metrics.uptime_s metrics in
          Printf.eprintf
            "rexspeed serve: %d request(s), %.1f req/s, cache hit rate \
             %.1f%%, p99 %.1f ms\n\
             %!"
            totals.requests
            (float_of_int totals.requests /. Float.max uptime 1e-9)
            (100. *. Lru.hit_rate cache)
            (1000. *. totals.latency_p99_s)
        in
        (* Deterministic request ordinal: assigned at admission by the
           single dispatcher, so it doubles as the trace span id. *)
        let admitted = ref 0 in
        (* The admission queue: complete request lines accepted but not
           yet dispatched. Bounded by [max_queue]; persists across
           sweeps, so the drain path must empty it too. *)
        let queue = Queue.create () in
        let respond conn ~ordinal job =
          let route, ok, response, latency_s =
            match job with
            | Immediate { route; ok; response; latency_s } ->
                (route, ok, response, latency_s)
            | Solve { id; request; fingerprint; cached = Some rendering } ->
                ( Protocol.route request,
                  true,
                  result_response ~id
                    ~route:(Protocol.route request)
                    ~fingerprint ~cached:true ~rendering,
                  0. )
            | Solve { cached = None; _ } ->
                invalid_arg "Daemon.respond: unsolved job"
          in
          (* Chaos: a deterministically chosen response is never
             written — the connection drops instead, as if the network
             gave out. The request still counts as failed. *)
          if io_fires Resilience.Chaos.Drop ~ordinal then Conn.kill conn;
          let torn = io_fires Resilience.Chaos.Torn ~ordinal in
          (* Write before recording: a response that never reached its
             client is a failed request, whatever the solver said. A
             live peer's partly buffered response counts as written. *)
          let wrote = Conn.send ~torn conn (Json.encode response) in
          Metrics.record metrics ~route ~ok:(ok && wrote) ~latency_s;
          incr served;
          Tracing.Tracer.complete ~id:ordinal ~label:route
            Tracing.Span.Daemon_request
            ~since:(Tracing.Tracer.now_s () -. latency_s);
          if options.log_every > 0 && !served mod options.log_every = 0 then
            log_line ()
        in
        (* Admission: assign the ordinal, stamp the arrival time, and
           either enqueue or — when the bounded queue is full — shed
           with a structured error carrying a retry hint. Shedding
           answers immediately, out of request order; the id lets
           pipelined clients correlate. *)
        let admit ?(shedding = true) conn line =
          let ordinal = !admitted in
          incr admitted;
          let queue_depth = Queue.length queue in
          if shedding && options.max_queue > 0 && queue_depth >= options.max_queue
          then begin
            hardening.shed <- hardening.shed + 1;
            Tracing.Tracer.count Tracing.Span.Sheds;
            let retry_after_ms =
              50 * (1 + (queue_depth / Int.max 1 options.max_inflight))
            in
            let response =
              Conn.error_response ~id:(request_id line) ~code:"shed"
                ~extra:[ ("retry_after_ms", Json.Int retry_after_ms) ]
                (Printf.sprintf "admission queue full (%d queued)" queue_depth)
            in
            if not (Conn.dead conn) then
              respond conn ~ordinal
                (Immediate { route = "shed"; ok = false; response; latency_s = 0. })
          end
          else begin
            Queue.add (conn, line, Metrics.now_s (), ordinal) queue;
            Conn.add_owed conn 1
          end
        in
        (* Sampled dual execution: every [verify_sample]-th computed
           miss is re-executed and its response fingerprint compared
           before the response is committed. A mismatch is a detected
           silent error: count it, trace it, and let one authoritative
           re-execution decide. *)
        let miss_count = ref 0 in
        let verified ~ordinal ~request outcome =
          match outcome with
          | Error _ -> outcome
          | Ok rendering ->
              let sampled =
                options.verify_sample > 0
                && !miss_count mod options.verify_sample = 0
              in
              incr miss_count;
              if not sampled then outcome
              else begin
                hardening.verify_checks <- hardening.verify_checks + 1;
                Tracing.Tracer.count Tracing.Span.Verify_checks;
                Tracing.Tracer.with_span ~id:ordinal ~label:"verify"
                  Tracing.Span.Daemon_verify
                @@ fun () ->
                let confirmed =
                  match fst (compute request) with
                  | Ok second ->
                      String.equal
                        (response_fingerprint rendering)
                        (response_fingerprint second)
                  | Error _ -> false
                in
                if confirmed then outcome
                else begin
                  hardening.verify_divergences <-
                    hardening.verify_divergences + 1;
                  Tracing.Tracer.count Tracing.Span.Verify_divergences;
                  Tracing.Tracer.with_span ~id:ordinal ~label:"reexec"
                    Tracing.Span.Daemon_verify (fun () ->
                      fst (compute request))
                end
              end
        in
        (* Chaos: corrupt a computed response before verification, so
           the soak can prove divergences are caught, never shipped. *)
        let maybe_corrupt ~ordinal outcome =
          match outcome with
          | Error _ -> outcome
          | Ok (rendering : Render.rendering) -> (
              match chaos_io () with
              | Some io
                when io.corrupt_p > 0.
                     && io_fires Resilience.Chaos.Corrupt ~ordinal ->
                  Ok
                    {
                      rendering with
                      Render.output =
                        Resilience.Chaos.corrupt_string io ~index:ordinal
                          rendering.Render.output;
                    }
              | Some _ | None -> outcome)
        in
        (* Resolve up to [max_inflight] queued requests: expire the
           ones already past their deadline, classify the rest on the
           dispatcher (cache lookups included), fan the misses out
           over the pool, answer in order. *)
        let process () =
          let rec take n =
            if n = 0 || Queue.is_empty queue then []
            else
              let x = Queue.pop queue in
              x :: take (n - 1)
          in
          let batch = take options.max_inflight in
          let expired ~admitted_at line =
            let age = Metrics.now_s () -. admitted_at in
            if options.deadline_ms > 0 && age > deadline_s then begin
              hardening.deadline_exceeded <- hardening.deadline_exceeded + 1;
              Tracing.Tracer.count Tracing.Span.Deadline_timeouts;
              Some
                (Immediate
                   {
                     route = "deadline";
                     ok = false;
                     response =
                       Conn.error_response ~id:(request_id line)
                         ~code:"deadline_exceeded"
                         ~extra:
                           [
                             ("elapsed_ms", Json.Int (int_of_float (1000. *. age)));
                             ("deadline_ms", Json.Int options.deadline_ms);
                           ]
                         "request exceeded its deadline while queued";
                     latency_s = age;
                   })
            end
            else None
          in
          let classified =
            List.map
              (fun (conn, line, admitted_at, ordinal) ->
                let job =
                  match expired ~admitted_at line with
                  | Some job -> job
                  | None ->
                      classify ~ordinal ~cache ~metrics ~hardening
                        ~queue_depth:(Queue.length queue)
                        ~max_queue:options.max_queue
                        ~domains line
                in
                (conn, ordinal, admitted_at, job))
              batch
          in
          let misses =
            List.filter_map
              (function
                | _, _, _, Solve { request; cached = None; _ } -> Some request
                | _, _, _, (Immediate _ | Solve _) -> None)
              classified
          in
          (* A singleton miss keeps the dispatcher as the caller so
             the solver's own pool region still parallelizes; real
             batches trade that for inter-request parallelism. *)
          let solved =
            match misses with
            | [] -> []
            | [ request ] -> [ compute request ]
            | _ -> Parallel.Pool.map_list pool compute misses
          in
          let remaining = ref solved in
          List.iter
            (fun (conn, ordinal, admitted_at, job) ->
              Conn.add_owed conn (-1);
              match job with
              | Immediate _ | Solve { cached = Some _; _ } ->
                  if not (Conn.dead conn) then respond conn ~ordinal job
              | Solve { id; request; fingerprint; cached = None } ->
                  let outcome, latency_s =
                    match !remaining with
                    | x :: tl ->
                        remaining := tl;
                        x
                    | [] -> (Error "dispatch underflow", 0.)
                  in
                  let outcome = maybe_corrupt ~ordinal outcome in
                  let outcome = verified ~ordinal ~request outcome in
                  let route = Protocol.route request in
                  let response, ok =
                    match outcome with
                    | Ok rendering ->
                        (* Committed results only: a divergent primary
                           never reaches the cache or the wire. *)
                        if Protocol.cacheable request then
                          Lru.add cache fingerprint rendering;
                        let age = Metrics.now_s () -. admitted_at in
                        if options.deadline_ms > 0 && age > deadline_s then begin
                          hardening.deadline_exceeded <-
                            hardening.deadline_exceeded + 1;
                          Tracing.Tracer.count Tracing.Span.Deadline_timeouts;
                          ( Conn.error_response ~id ~code:"deadline_exceeded"
                              ~extra:
                                [
                                  ( "elapsed_ms",
                                    Json.Int (int_of_float (1000. *. age)) );
                                  ("deadline_ms", Json.Int options.deadline_ms);
                                ]
                              "request exceeded its deadline while computing",
                            false )
                        end
                        else
                          ( result_response ~id ~route ~fingerprint
                              ~cached:false ~rendering,
                            true )
                    | Error message ->
                        (Conn.error_response ~id ~code:"internal" message, false)
                  in
                  if not (Conn.dead conn) then
                    respond conn ~ordinal
                      (Immediate { route; ok; response; latency_s }))
            classified
        in
        let reserve = List.length listeners in
        let listener_fds = List.map fst listeners in
        List.iter
          (fun (_, name) ->
            Printf.eprintf "rexspeed serve: listening on %s\n%!" name)
          listeners;
        Option.iter (fun f -> f ()) on_ready;
        (* One sweep: accept, read and admit complete lines, dispatch
           one batch (the queue persists across sweeps, which is what
           makes [max_queue] a real bound and keeps accepts responsive
           under a backlog), then reap. A backlog means there is work
           regardless of the sockets: poll instead of sleeping. *)
        let sweep ~accepting ~shedding ~timeout =
          let timeout = if Queue.is_empty queue then timeout else 0. in
          let ready, readable =
            Conn.wait
              ~readers:(if accepting then listener_fds else [])
              !conns timeout
          in
          List.iter
            (fun listener ->
              match
                Conn.accept ~max_line:options.max_request_bytes ~reserve
                  listener
              with
              | Some conn -> conns := conn :: !conns
              | None -> ())
            ready;
          List.iter
            (fun conn ->
              List.iter
                (function
                  | Conn.Line line -> admit ~shedding conn line
                  | Conn.Too_large ->
                      Metrics.record metrics ~route:"invalid" ~ok:false
                        ~latency_s:0.)
                (Conn.read conn))
            readable;
          process ();
          (* Slow-client protection: a peer that leaves a request half
             sent, or its answers unread, for longer than the I/O
             timeout is dropped. Idle keepalives are left alone. *)
          let live, stalls = Conn.reap ~give_up_s !conns in
          conns := live;
          if stalls > 0 then begin
            hardening.io_timeouts <- hardening.io_timeouts + stalls;
            Tracing.Tracer.count ~n:stalls Tracing.Span.Io_timeouts
          end
        in
        while not (Atomic.get stop_requested) do
          sweep ~accepting:true ~shedding:true ~timeout:0.2
        done;
        (* Drain: stop accepting, then answer everything already
           admitted — including queued-but-unstarted requests — plus
           any fully-received request still sitting in a socket
           buffer, and wait for the answers to leave (bounded by the
           I/O timeout). Shedding is off: a request the client already
           sent gets an answer, not a retry hint. *)
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          listener_fds;
        let rec drain () =
          let before = !admitted in
          let unsent = List.exists Conn.unsent !conns in
          sweep ~accepting:false ~shedding:false
            ~timeout:(if unsent then 0.05 else 0.);
          if
            (not (Queue.is_empty queue))
            || !admitted > before
            || List.exists Conn.unsent !conns
          then drain ()
        in
        if !conns <> [] || not (Queue.is_empty queue) then
          Tracing.Tracer.with_span ~id:0 ~label:"daemon.drain"
            Tracing.Span.Daemon_request drain;
        List.iter Conn.close !conns;
        conns := [];
        Printf.eprintf "rexspeed serve: drained, %d request(s) served\n%!"
          !served;
        ignore (Sys.signal Sys.sigpipe previous_sigpipe);
        Ok ()
