(* The serving workload, serve-hot, driven against the real
   [rexspeed serve] binary over a Unix socket by one open-loop
   generator process: --shards 2 --domains 1, a router and two
   workers. The requests cycle over a hot set of optimize keys and the
   eight frontier keys that fits every worker's LRU and is warmed
   before timing, so every timed request is a hit.

   A request is timed from the moment it was due on the schedule, not
   from when the generator got round to sending it. Every answer is
   checked byte for byte against the response encoded locally from the
   in-process [Server.Render] result. *)

open Harness

type ctx = {
  seed : int;
  seconds : float;
  exe : string;  (** the rexspeed binary *)
  nproc : int;
}

let derive = Mc.derive

(* Uniform [0, 1) from (seed, k), independent of the program's own
   random-number generator so inputs stay the same across versions. *)
let uniform seed k = float_of_int (derive seed k) /. 1073741824.

(* ------------------------------------------------------------------ *)
(* Keys and expected answers                                           *)

type key = {
  body : string;  (** the request line after ["{\"id\":N,"] *)
  obj : Server.Json.t;  (** the request object without its id *)
}

let configs = Array.of_list Platforms.Config.all

let make_key route params =
  let obj = Server.Json.Obj [ ("route", Server.Json.String route); ("params", Server.Json.Obj params) ] in
  let enc = Server.Json.encode obj in
  { body = String.sub enc 1 (String.length enc - 1); obj }

let request_line id key = Printf.sprintf "{\"id\":%d,%s\n" id key.body

let config_name i = Platforms.Config.name configs.(i mod Array.length configs)

(* Cold key [i]: a fresh optimize (feasible rho in [3, 4)) or evaluate
   (replicas 0) query; the index term keeps every key distinct. Keys
   come in blocks of one per configuration, three optimize blocks to
   one evaluate block. The traced run times the model, the rendering
   and LRU inserts on these keys: the work a cache miss does. *)
let cold_key seed i =
  let c = configs.(i mod Array.length configs) in
  let name = Platforms.Config.name c in
  let u = uniform seed (3 * i) in
  if (i / Array.length configs) mod 4 <> 3 then
    make_key "optimize"
      [ ("config", Server.Json.String name); ("rho", Server.Json.Float (3. +. (float_of_int i *. 1e-5) +. (u *. 1e-6))) ]
  else begin
    let env = Core.Env.of_config c in
    let speeds = env.Core.Env.speeds in
    let pick k = speeds.(derive seed k mod Array.length speeds) in
    make_key "evaluate"
      [
        ("config", Server.Json.String name);
        ("w", Server.Json.Float (2000. +. (18000. *. u) +. (float_of_int i *. 1e-6)));
        ("s1", Server.Json.Float (pick ((3 * i) + 1)));
        ("s2", Server.Json.Float (pick ((3 * i) + 2)));
      ]
  end

let hot_rhos = 8

(* The hot set: [hot_rhos] optimize keys per configuration plus the
   eight frontier keys; 72 keys against 256 LRU entries per worker. *)
let hot_keys seed =
  let n = Array.length configs in
  Array.init ((hot_rhos + 1) * n) (fun i ->
      if i < hot_rhos * n then
        make_key "optimize"
          [
            ("config", Server.Json.String (config_name i));
            ("rho", Server.Json.Float (2. +. (0.25 *. float_of_int (i / n)) +. (0.01 *. uniform seed (1000 + i))));
          ]
      else make_key "frontier" [ ("config", Server.Json.String (config_name i)) ])

(* What [Daemon.compute] does for a parsed request. *)
let render (request : Server.Protocol.request) =
  match request with
  | Optimize { config; rho; single_speed } ->
      let mode = if single_speed then Core.Bicrit.Single_speed else Core.Bicrit.Two_speeds in
      Server.Render.optimize ~mode ~env:(Core.Env.of_config config)
        ~name:(Platforms.Config.name config) ~rho ()
  | Frontier { config } ->
      Server.Render.frontier ~env:(Core.Env.of_config config) ~name:(Platforms.Config.name config) ()
  | Evaluate { config; w; sigma1; sigma2; replicas } ->
      Server.Render.evaluate ~env:(Core.Env.of_config config) ~w ~sigma1 ~sigma2 ~replicas ()
  | Health | Stats -> invalid_arg "Serve.render: live route"

let parse_key key =
  match Server.Protocol.parse key.obj with
  | Ok r -> r
  | Error e -> failwith ("perfbench generated an invalid request: " ^ e)

(* The served response, encoded locally: same members, same order. *)
let response_json ~id ~cached request (rendering : Server.Render.rendering) =
  Server.Json.Obj
    [
      ("id", id);
      ("status", Server.Json.String "ok");
      ("route", Server.Json.String (Server.Protocol.route request));
      ("fingerprint", Server.Json.String (Server.Protocol.fingerprint request));
      ("cached", Server.Json.Bool cached);
      ("exit", Server.Json.Int (if rendering.ok then 0 else 1));
      ("output", Server.Json.String rendering.output);
    ]

(* The expected line minus its ["{\"id\":N"] prefix. *)
let expected_tail ~cached key =
  let request = parse_key key in
  let enc = Server.Json.encode (response_json ~id:Server.Json.Null ~cached request (render request)) in
  let prefix = "{\"id\":null" in
  String.sub enc (String.length prefix) (String.length enc - String.length prefix)

let expected_line id tail = Printf.sprintf "{\"id\":%d%s" id tail

(* ------------------------------------------------------------------ *)
(* Processes                                                           *)

let server_env () =
  let keep kv =
    not
      (String.starts_with ~prefix:"REXSPEED_" kv || String.starts_with ~prefix:"TMPDIR=" kv)
  in
  Array.of_list ("TMPDIR=." :: List.filter keep (Array.to_list (Unix.environment ())))

type fleet = { pid : int; socket : string; mutable workers : int list }

(* With two or more allowed cores and taskset(1) available, the
   generator runs on the first and the servers on the others, so the
   polling generator never shares a core with a server it is waiting
   for. Returns the generator's core and the servers' cores. *)
let pinning =
  (* Read once, before the generator pins itself to its core. *)
  lazy
    (match allowed_cpus () with
    | first :: (_ :: _ as rest) when Sys.file_exists taskset -> Some (first, rest)
    | _ -> None)

let run_quiet argv =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
  let pid = Unix.create_process argv.(0) argv null null null in
  match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false

let pin_generator () =
  match Lazy.force pinning with
  | Some (core, _) ->
      ignore (run_quiet [| taskset; "-p"; "-c"; string_of_int core; string_of_int (Unix.getpid ()) |])
  | None -> ()

let server_argv ctx args =
  let argv = ctx.exe :: args in
  match Lazy.force pinning with
  | Some (_, cores) ->
      taskset :: "-c" :: String.concat "," (List.map string_of_int cores) :: argv
  | None -> argv

let fleet_count = ref 0

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* Blocking request/response on a fresh connection (control routes);
   [None] when the server does not answer within 10 s. *)
let call socket line =
  match connect socket with
  | None -> None
  | Some fd ->
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      (match
         output_string oc line;
         flush oc;
         input_line ic
       with
      | l -> Some l
      | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> None)

let member_path json path =
  List.fold_left
    (fun acc k -> match acc with Some j -> Server.Json.member k j | None -> None)
    (Some json) path

let call_json socket route =
  match call socket (Printf.sprintf "{\"id\":0,\"route\":\"%s\"}\n" route) with
  | None -> None
  | Some line -> (
      match Server.Json.decode line with Ok j -> member_path j [ "result" ] | Error _ -> None)

let int_at json path =
  Option.value ~default:0 (Option.bind (member_path json path) Server.Json.to_int_opt)

let float_at json path =
  Option.value ~default:0. (Option.bind (member_path json path) Server.Json.to_float_opt)

exception Setup_failed of string

(* Start a fleet and wait until [health] reports it serving and
   ready; returns the fleet and the start-to-ready time. *)
let start_fleet ctx args =
  incr fleet_count;
  let socket = Printf.sprintf "s%d.sock" !fleet_count in
  let log = Unix.openfile "serve.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = now () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close log; Unix.close null) @@ fun () ->
    let argv = Array.of_list (server_argv ctx ("serve" :: "--socket" :: socket :: args)) in
    Unix.create_process_env argv.(0) argv (server_env ()) null log log
  in
  let fleet = { pid; socket; workers = [] } in
  let rec wait () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> raise (Setup_failed "rexspeed serve exited during start-up"));
    if now () -. t0 > 60. then raise (Setup_failed "rexspeed serve did not become ready");
    match call_json socket "health" with
    | Some h
      when Option.bind (member_path h [ "status" ]) Server.Json.to_string_opt = Some "serving"
           && Option.bind (member_path h [ "ready" ]) Server.Json.to_bool_opt = Some true ->
        (now () -. t0, h)
    | Some _ | None ->
        (* Spin rather than sleep between probes: on a virtual machine
           a sleep can end milliseconds late, which would be counted as
           set-up time. *)
        let until = now () +. 0.0001 in
        while now () < until do
          Domain.cpu_relax ()
        done;
        wait ()
  in
  let ready_s, health = wait () in
  (match member_path health [ "shard" ] with
  | Some (Server.Json.List shards) ->
      fleet.workers <- List.map (fun s -> int_at s [ "pid" ]) shards
  | Some _ | None -> ());
  (fleet, ready_s)

let alive pid = match Unix.kill pid 0 with () -> true | exception Unix.Unix_error _ -> false

(* SIGTERM drains the fleet (the router drains its workers); wait for
   every process, killing any that outlives the grace period. *)
let stop_fleet fleet =
  (try Unix.kill fleet.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] fleet.pid with
    | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill fleet.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] fleet.pid)
        end
        else begin
          Unix.sleepf 0.002;
          reap ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  List.iter
    (fun w ->
      let deadline = now () +. 5. in
      while alive w && now () < deadline do
        Unix.sleepf 0.002
      done;
      if alive w then try Unix.kill w Sys.sigkill with Unix.Unix_error _ -> ())
    fleet.workers

let fleet_hwm fleet =
  List.fold_left
    (fun acc pid -> acc +. Option.value ~default:0. (vm_hwm_mb (string_of_int pid)))
    0. (fleet.pid :: fleet.workers)

(* ------------------------------------------------------------------ *)
(* Open-loop generator                                                 *)

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;
  mutable out_off : int;
  inbuf : Buffer.t;
  mutable closed : bool;  (** the server closed it, or a write failed *)
}

let open_conns fleet n =
  List.init n (fun _ ->
      match connect fleet.socket with
      | Some fd ->
          Unix.set_nonblock fd;
          { fd; out = Buffer.create 4096; out_off = 0; inbuf = Buffer.create 65536; closed = false }
      | None -> raise (Setup_failed "cannot connect to rexspeed serve"))
  |> Array.of_list

let close_conns conns = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns

(* The generator's connections to one fleet, reopened when the server
   closed any of them. *)
type client = { fleet : fleet; width : int; mutable conns : conn array }

let open_client fleet width = { fleet; width; conns = open_conns fleet width }

let live_conns client =
  if Array.exists (fun c -> c.closed) client.conns then begin
    close_conns client.conns;
    client.conns <- open_conns client.fleet client.width
  end;
  client.conns

(* One answered request, as the generator saw it. *)
type answer = { line_digest : Digest.t; line_bytes : int; verbatim : string option }

type phase = {
  rate : float;
  sent : int;  (** requests sent *)
  answered : int;
  due : float array;  (** schedule, seconds since the phase began *)
  late : float array;  (** send time minus due time, s *)
  latency : float array;  (** answer time minus due time, s; nan if unanswered *)
  answers : answer option array;
  aborted : bool;
  span_s : float;  (** first due to last answer *)
}

(* Parse the id a response line starts with: ["{\"id\":N,..."]. *)
let id_of_line line =
  let prefix = "{\"id\":" in
  let pl = String.length prefix in
  if String.length line <= pl || String.sub line 0 pl <> prefix then None
  else begin
    let rec digits i = if i < String.length line && line.[i] >= '0' && line.[i] <= '9' then digits (i + 1) else i in
    let e = digits pl in
    if e = pl then None else int_of_string_opt (String.sub line pl (e - pl))
  end

(* Requests on the wire at once. Far past capacity, a client with a
   thousand requests in flight through the router stalls it for tens
   of seconds (the router's write to a worker and the worker's write
   back block each other), which would measure that stall instead of
   the capacity sought. *)
let max_in_flight = 128

(* Send [n] requests at [rate] per second, round-robin over [conns];
   request j carries id [base + j]. At most [max_in_flight] requests
   are on the wire; a request due while that many are waits in the
   generator, and its latency, timed from its due time, includes the
   wait. The backlog is every request due and not yet answered; the
   phase stops sending when it passes [abort_at], and waits up to
   [drain_s] for the answers. Returns the phase and the backlog
   samples of its sending window. *)
let run_phase ?(keep_lines = false) ?(sample_every = 0.01) ~conns ~rate ~n ~base ~line_of ~abort_at ~drain_s () =
  let nc = Array.length conns in
  let due = Array.init n (fun j -> float_of_int j /. rate) in
  let late = Array.make n nan and latency = Array.make n nan in
  let answers = Array.make n None in
  let sent = ref 0 and answered = ref 0 and aborted = ref false in
  let samples = ref [] and next_sample = ref 0. in
  let chunk = Bytes.create 65536 in
  let t0 = now () in
  let last_answer = ref t0 in
  let handle_line line t =
    match id_of_line line with
    | Some id when id >= base && id < base + n && Option.is_none answers.(id - base) ->
        let j = id - base in
        answers.(j) <-
          Some
            {
              line_digest = Digest.string line;
              line_bytes = String.length line + 1;
              verbatim = (if keep_lines then Some line else None);
            };
        latency.(j) <- t -. t0 -. due.(j);
        incr answered;
        last_answer := t
    | Some _ | None -> (* answers no outstanding request: ignored *) ()
  in
  let read_conn c =
    let rec loop () =
      match Unix.read c.fd chunk 0 (Bytes.length chunk) with
      | 0 -> c.closed <- true
      | k ->
          Buffer.add_subbytes c.inbuf chunk 0 k;
          loop ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> c.closed <- true
    in
    loop ();
    if Buffer.length c.inbuf > 0 then begin
      let t = now () in
      let data = Buffer.contents c.inbuf in
      let start = ref 0 in
      String.iteri
        (fun i ch ->
          if ch = '\n' then begin
            handle_line (String.sub data !start (i - !start)) t;
            start := i + 1
          end)
        data;
      Buffer.clear c.inbuf;
      Buffer.add_substring c.inbuf data !start (String.length data - !start)
    end
  in
  let flush_conn c =
    let len = Buffer.length c.out - c.out_off in
    if len > 0 && not c.closed then begin
      match Unix.write_substring c.fd (Buffer.contents c.out) c.out_off len with
      | k ->
          c.out_off <- c.out_off + k;
          if c.out_off = Buffer.length c.out then begin
            Buffer.clear c.out;
            c.out_off <- 0
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> c.closed <- true
    end
  in
  let finished_sending () = !sent >= n || !aborted in
  let send_end = ref infinity in
  let continue = ref true in
  (* Poll, never sleep: a sleeping process can wake up milliseconds
     late, which would be charged to the server as latency. The
     generator costs one core. *)
  while !continue do
    let t = now () in
    let el = t -. t0 in
    while
      (not (finished_sending ()))
      && due.(!sent) <= el
      && !sent - !answered < max_in_flight
    do
      let c = conns.(!sent mod nc) in
      Buffer.add_string c.out (line_of (base + !sent));
      late.(!sent) <- el -. due.(!sent);
      incr sent
    done;
    Array.iter flush_conn conns;
    Array.iter read_conn conns;
    let backlog = min n (1 + int_of_float (el *. rate)) - !answered in
    if el >= !next_sample then begin
      samples := (el, backlog) :: !samples;
      next_sample := el +. sample_every
    end;
    if (not !aborted) && backlog > abort_at then aborted := true;
    if finished_sending () && !send_end = infinity then send_end := t;
    if finished_sending ()
       && (!answered >= !sent || t -. !send_end > drain_s || Array.for_all (fun c -> c.closed) conns)
    then continue := false
  done;
  let window =
    List.rev !samples |> List.filter (fun (t, _) -> t <= !send_end -. t0) |> Array.of_list
  in
  ( {
      rate;
      sent = !sent;
      answered = !answered;
      due;
      late = Array.sub late 0 !sent;
      latency = Array.sub latency 0 !sent;
      answers = Array.sub answers 0 !sent;
      aborted = !aborted;
      span_s = !last_answer -. t0;
    },
    window )

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)

let fleet_args = [ "--shards"; "2"; "--domains"; "1" ]

(* The fixed rate p50 is reported at. *)
let ref_rate = 2000.

(* The p99 limit a ladder rung must meet, from each request's due time. *)
let limit_ms = 50.

(* The fixed ladder: geometric rungs [ladder_step] apart, each offered
   for [rung_s] seconds but at least 1100 requests, so its p99 has ten
   samples beyond it (55 ms at 20k/s), with the backlog sampled every
   [rung_sample_s]. Rungs are short for the reason MC operations are
   (see Harness.fast): the host slows the fleet for stretches of a
   fraction of a second to minutes, and a rung of 0.3 s seldom fell
   between two of them (its searches in one run read 17.8k to 22.7k/s,
   while the fleet answered 26k to 28k/s in 20 ms bursts). *)
let ladder_step = 1.05
let rung_s = 0.05
let rung_sample_s = 0.002

let ladder_lo = 1000.
let ladder_hi = 100_000.

let rungs =
  let k = int_of_float (Float.log (ladder_hi /. ladder_lo) /. Float.log ladder_step) in
  Array.init (k + 1) (fun i -> ladder_lo *. (ladder_step ** float_of_int i))

let setup_reps = 21
let ref_parts = 9

(* The reference p50 is read over windows of [ref_window] consecutive
   requests, 25 ms each (see Harness.fast): the p5 of 480 windows at
   --seconds 40. *)
let ref_window = 50

(* The ladder is searched once after each reference part; all but the
   first search within [rebracket] rungs of the first one's result. A
   failing rung is probed up to [probes] times: it passes if one probe
   does, i.e. if the fleet sustained the rate for one rung while the
   host let it run. *)
let rebracket = 4
let probes = 5

(* Saturation bursts after each reference part, 1.5 per second of the
   run, and requests per burst (20 ms at 25k/s): 540 bursts at
   --seconds 40, so that their p98 has 10 beyond it. *)
let bursts_per_part seconds = max 1 (int_of_float (1.5 *. seconds))
let burst_n = 500

(* Failures are counted per request: an unanswered request and a
   wrong answer both fail; a wrong answer also fails the run. *)
type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

let verify ~tally ~expected p ~base =
  Array.iteri
    (fun j a ->
      tally.attempted <- tally.attempted + 1;
      match a with
      | None -> tally.failed <- tally.failed + 1
      | Some a ->
          if not (Digest.equal a.line_digest (Digest.string (expected (base + j)))) then begin
            tally.failed <- tally.failed + 1;
            tally.wrong <- tally.wrong + 1
          end)
    p.answers

(* Latencies in ms; an unanswered request misses every limit. *)
let latencies_ms p = Array.map (fun l -> if Float.is_nan l then infinity else 1000. *. l) p.latency

(* Requests due but unanswered that a rung may carry: the in-flight
   count when every request takes the limit. A rung stops sending at
   four times that. *)
let slack rate = Float.max 8. (rate *. limit_ms /. 1000.)

(* The backlog grows when its trend over the rung adds more than 2 ms
   of requests at the rung's rate (at least 8): on a 55 ms rung, an
   offered rate 4 % above what the fleet sustains. *)
let growth_slack rate = Float.max 8. (rate *. 0.002)


(* A rung passes when every request was sent and answered, the p99
   (resolved: at least 10 samples beyond it) meets the limit, and the
   backlog did not grow. *)
let passes (p, window) =
  let grows = backlog_grows ~slack:(growth_slack p.rate) window in
  let ok =
    (not p.aborted) && p.answered = Array.length p.due && (not grows)
    && resolved ~n:p.sent 99.
    && percentile (latencies_ms p) 99. <= limit_ms
  in
  (ok, grows)

(* Median over [rounds] of the mean per-item time of [f] over [items],
   in µs: batches, because single calls are near the clock's
   resolution. *)
let per_call_us ?(rounds = 7) items f =
  let n = Array.length items in
  if n = 0 then 0.
  else
    median
      (Array.init rounds (fun _ ->
           let (), dt = time (fun () -> Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items) in
           1e6 *. dt /. float_of_int n))

let take k a = Array.sub a 0 (min k (Array.length a))

(* A request/response round trip on one persistent connection. *)
let rtt_us socket ~n =
  match connect socket with
  | None -> raise (Setup_failed "cannot connect for the health round trip")
  | Some fd ->
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      median
        (Array.init n (fun i ->
             let (), dt =
               time (fun () ->
                   Printf.fprintf oc "{\"id\":%d,\"route\":\"health\"}\n%!" i;
                   match input_line ic with
                   | _ -> ()
                   | exception (End_of_file | Sys_error _) ->
                       raise (Setup_failed "no answer to the health round trip"))
             in
             1e6 *. dt))

let run ctx ~trace =
  let conns_n = max 1 ctx.nproc in
  pin_generator ();
  (* Keep the server cores awake (see Harness.with_spinners and
     NOTES.md). *)
  with_spinners (match Lazy.force pinning with Some (_, cores) -> cores | None -> [])
  @@ fun () ->
  let hot = hot_keys (derive ctx.seed 7) in
  (* Set-up: start the fleet [setup_reps] times and keep the last. *)
  let starts =
    List.init setup_reps (fun i ->
        let fleet, dt = start_fleet ctx fleet_args in
        if i < setup_reps - 1 then stop_fleet fleet;
        (fleet, dt))
  in
  let fleet = fst (List.nth starts (setup_reps - 1)) in
  let setup_s = setup_median ~what:"fleet starts" (Array.of_list (List.map snd starts)) in
  let extra_fleets = ref [] in
  Fun.protect ~finally:(fun () -> List.iter stop_fleet (fleet :: !extra_fleets)) @@ fun () ->
  let tally = { attempted = 0; failed = 0; wrong = 0 } in
  (* Every id maps to the key it carried and the [cached] flag its
     answer must have. *)
  let key_of_id : (int, key * bool) Hashtbl.t = Hashtbl.create 65536 in
  let next_id = ref 1 in
  let tails : (string, string) Hashtbl.t = Hashtbl.create 4096 in
  let expected id =
    let key, cached = Hashtbl.find key_of_id id in
    let memo = (if cached then "+" else "-") ^ key.body in
    let tail =
      match Hashtbl.find_opt tails memo with
      | Some t -> t
      | None ->
          let t = expected_tail ~cached key in
          Hashtbl.replace tails memo t;
          t
    in
    expected_line id tail
  in
  (* Timed requests: a hot key, answered from the cache. *)
  let timed_key id = (hot.(derive ctx.seed (100_000 + id) mod Array.length hot), true) in
  let drain_s = 10. in
  let phase ?keep_lines ?sample_every ?(pick = timed_key) ?abort_at ~client ~rate ~n () =
    let base = !next_id in
    next_id := base + n;
    let line_of id =
      let key, cached = pick id in
      Hashtbl.replace key_of_id id (key, cached);
      request_line id key
    in
    let p, window =
      run_phase ?keep_lines ?sample_every ~conns:(live_conns client) ~rate ~n ~base ~line_of
        ~abort_at:(Option.value abort_at ~default:(int_of_float ((4. *. slack rate) +. 64.)))
        ~drain_s ()
    in
    verify ~tally ~expected p ~base;
    if p.answered < p.sent then
      say "  phase at %.0f/s: %d of %d requests unanswered after %.0f s" rate (p.sent - p.answered)
        p.sent drain_s;
    (p, window, base)
  in
  (* Warm-up: every hot key once, answered uncached; afterwards every
     timed request must be a hit. *)
  let warm client =
    let base = !next_id in
    ignore (phase ~client ~rate:200. ~n:(Array.length hot) ~pick:(fun id -> (hot.(id - base), false)) ())
  in
  let client = open_client fleet conns_n in
  Fun.protect ~finally:(fun () -> close_conns client.conns) @@ fun () ->
  warm client;
  let ref_n = int_of_float (ref_rate *. 0.3 *. ctx.seconds) in
  (* The reference rate, in [ref_parts] phases with [between] run after
     each, so the parts sample the host over the whole run: the p50 is
     the p5 over windows of [ref_window] consecutive requests of their
     medians (Harness.fast). The fleet's memory is read after the first
     part, before any ladder rung overloads the fleet on purpose. *)
  let reference ?(between = fun _ _ -> ()) client =
    let rss = ref 0. in
    let parts =
      Array.init ref_parts (fun i ->
          let ((p, window, _) as part) = phase ~client ~rate:ref_rate ~n:(ref_n / ref_parts) () in
          if i = 0 then rss := fleet_hwm client.fleet;
          between i (fst (passes (p, window)));
          part)
    in
    let p50s = Array.map (fun (p, _, _) -> percentile (latencies_ms p) 50.) parts in
    let windows =
      Array.concat
        (Array.to_list
           (Array.map
              (fun (p, _, _) ->
                let ms = latencies_ms p in
                Array.init (Array.length ms / ref_window) (fun w ->
                    median (Array.sub ms (w * ref_window) ref_window)))
              parts))
    in
    let all f = Array.concat (Array.to_list (Array.map (fun (p, _, _) -> f p) parts)) in
    let ms = all latencies_ms and late_ms = all (fun p -> Array.map (fun l -> 1000. *. l) p.late) in
    say "  reference rate %.0f/s over %d connections, p50 of %d parts %s ms" ref_rate conns_n
      ref_parts
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4g") p50s)));
    let p50 =
      fast ~what:(Printf.sprintf "reference p50 of windows of %d requests, ms" ref_window) windows 5.
    in
    describe_latencies ~label:"latency from due time" ms;
    describe_latencies ~label:"generator lateness" late_ms;
    (p50, late_ms, !rss)
  in
  let stats_health f =
    match (call_json f.socket "stats", call_json f.socket "health") with
    | Some st, Some h -> (st, h)
    | _ -> raise (Setup_failed "stats/health unavailable")
  in
  let refused st =
    int_at st [ "hardening"; "shed" ]
    + int_at st [ "hardening"; "deadline_exceeded" ]
    + int_at st [ "hardening"; "io_timeouts" ]
  in
  if not trace then begin
    (* Ladder: binary search for the highest passing rung; the rungs
       up to the reference rate pass if the first reference part did. A
       search always runs to the end: at most log2 of its bracket
       rungs, each probed at most [probes] times, each probe bounded by
       its rung's length and the drain time. More searches within
       [rebracket] rungs of the first follow, one after each later
       reference part; rps_max is the median of the searches. It is
       printed in the ledger, not gated: over ten seeds it spread 0.22
       to 0.29 of its median, against 0.08 for the saturation bursts,
       because a rung's verdict turns on whether the host stalls the
       fleet for a few milliseconds near its end (NOTES.md). *)
    let search lo hi =
      let lo = ref lo and hi = ref hi in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        let rate = rungs.(mid) in
        let n = int_of_float (Float.max (rung_s *. rate) 1100.) in
        let rec probe k =
          let rp, rwindow, _ = phase ~client ~sample_every:rung_sample_s ~rate ~n () in
          let ok, grows = passes (rp, rwindow) in
          if ok || k >= probes then (rp, ok, grows) else probe (k + 1)
        in
        let rp, ok, grows = probe 1 in
        say "  rung %.0f/s: %d sent, %d answered, p99 %s, backlog %s%s: %s" rate rp.sent rp.answered
          (if resolved ~n:rp.sent 99. then Printf.sprintf "%.3g ms" (percentile (latencies_ms rp) 99.)
           else "unresolved")
          (if grows then "grows" else "steady")
          (if rp.aborted then ", aborted" else "")
          (if ok then "pass" else "fail");
        if ok then lo := mid else hi := mid
      done;
      !lo
    in
    (* Saturation: offer [burst_n] requests at the top of the ladder,
       [bursts_per_part] times after each reference part; with
       [max_in_flight] on the wire the fleet answers as fast as it can,
       and the p98 of the bursts' answer rates is its throughput
       (Harness.fast). *)
    let burst () =
      let sat, _, _ = phase ~client ~rate:ladder_hi ~n:burst_n ~abort_at:max_int () in
      float_of_int sat.answered /. sat.span_s
    in
    let found = ref [] and bursts = ref [] in
    let between _ part_ok =
      (match !found with
      | [] ->
          let ref_rung = ref (-1) in
          Array.iteri (fun k r -> if r <= ref_rate && part_ok then ref_rung := k) rungs;
          found := [ search !ref_rung (Array.length rungs) ]
      | first :: _ ->
          (* A search that ends at an edge of its bracket goes on in a
             bracket around that edge, in the same direction, so a low
             or high first search does not cap or floor the others. *)
          let top = Array.length rungs in
          let rec around dir centre =
            let lo = max (-1) (centre - rebracket) and hi = min top (centre + rebracket + 1) in
            let r = search lo hi in
            if dir >= 0 && r = hi - 1 && hi < top then around 1 r
            else if dir <= 0 && r = lo && lo > -1 then around (-1) r
            else r
          in
          found := !found @ [ around 0 first ]
      );
      for _ = 1 to bursts_per_part ctx.seconds do
        bursts := burst () :: !bursts
      done
    in
    let p50_ms, _, rss = reference ~between client in
    let found = Array.of_list !found in
    Array.sort compare found;
    let rps_of i = if i >= 0 then rungs.(i) else 0. in
    let rps_max = rps_of found.(Array.length found / 2) in
    say "  rps_max %.0f/s, median of searches %s (p99 limit %.0f ms, ladder x%.2f from %.0f/s)"
      rps_max
      (String.concat ", " (Array.to_list (Array.map (fun i -> Printf.sprintf "%.0f" (rps_of i)) found)))
      limit_ms ladder_step ladder_lo;
    let bursts = Array.of_list (List.rev !bursts) in
    say "  saturation: %s answers/s"
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") bursts)));
    let throughput = fast ~what:"saturation answers/s" bursts 98. in
    let st, _ = stats_health fleet in
    if tally.wrong > 0 then say "  %d WRONG answers" tally.wrong;
    say "  %d requests, %d failed; the server refused %d" tally.attempted tally.failed (refused st);
    ( tally.wrong = 0 && rps_max > 0.,
      tally.attempted,
      tally.failed,
      [
        metric "setup_s" "s" setup_s;
        metric "patterns_per_s" "1/s" throughput;
        metric "peak_rss_mb" "MB" rss;
        metric "ok_frac" "frac"
          (float_of_int (tally.attempted - tally.failed) /. float_of_int tally.attempted);
        metric "p50_ms" "ms" p50_ms;
      ] )
  end
  else begin
    (* Traced: the same reference phase again, keeping every served
       line, then a replay: decode each line, check it, and re-encode
       the locally rendered response, which must equal it. *)
    let p50_ms, late_ms, _ = reference client in
    let tp, _, tbase = phase ~keep_lines:true ~client ~rate:ref_rate ~n:ref_n () in
    let replay_failed = ref 0 in
    Array.iteri
      (fun j a ->
        match a with
        | None -> ()
        | Some { verbatim = Some line; _ } ->
            let id = tbase + j in
            let key, cached = Hashtbl.find key_of_id id in
            let ok =
              match Server.Json.decode line with
              | Error _ -> false
              | Ok json ->
                  let str k = Option.bind (Server.Json.member k json) Server.Json.to_string_opt in
                  let request = parse_key key in
                  str "status" = Some "ok"
                  && Option.bind (Server.Json.member "id" json) Server.Json.to_int_opt = Some id
                  && Option.bind (Server.Json.member "cached" json) Server.Json.to_bool_opt = Some cached
                  && String.equal line
                       (Server.Json.encode
                          (response_json ~id:(Server.Json.Int id) ~cached request (render request)))
            in
            if not ok then incr replay_failed
        | Some { verbatim = None; _ } -> incr replay_failed)
      tp.answers;
    tally.attempted <- tally.attempted + 1;
    if !replay_failed > 0 then begin
      tally.failed <- tally.failed + 1;
      tally.wrong <- tally.wrong + 1;
      say "  REPLAY: %d served lines differ from the local encoding" !replay_failed
    end;
    let tms = latencies_ms tp in
    let p50_us = 1000. *. p50_ms in
    let overhead = (percentile tms 50. /. p50_ms) -. 1. in
    let st, h = stats_health fleet in
    let hits = float_at st [ "cache"; "hits" ] and misses = float_at st [ "cache"; "misses" ] in
    let daemon_p99 =
      match member_path st [ "shard" ] with
      | Some (Server.Json.List shards) ->
          List.fold_left (fun a sh -> Float.max a (float_at sh [ "stats"; "latency_ms"; "p99" ])) 0. shards
      | Some _ | None -> float_at st [ "latency_ms"; "p99" ]
    in
    (* The daemon's own round trip, and the router hop: the same hot
       phase against a plain --domains 1 daemon, whose health round
       trip is also the one reported (through the router, health fans
       out to every shard). *)
    let rtt, hop_us =
      let plain, _ = start_fleet ctx [ "--domains"; "1" ] in
      extra_fleets := plain :: !extra_fleets;
      let pclient = open_client plain conns_n in
      Fun.protect ~finally:(fun () -> close_conns pclient.conns) @@ fun () ->
      warm pclient;
      let plain_p50_ms, _, _ = reference pclient in
      (rtt_us plain.socket ~n:300, 1000. *. (p50_ms -. plain_p50_ms))
    in
    (* In-process layer costs on this run's own requests. *)
    let used =
      Hashtbl.fold (fun id (k, c) acc -> if id >= tbase then (id, k, c) :: acc else acc) key_of_id []
      |> List.sort compare |> Array.of_list |> take 400
    in
    let lines = Array.map (fun (id, k, _) -> request_line id k) used in
    let jsons = Array.map (fun l -> Result.get_ok (Server.Json.decode (String.trim l))) lines in
    let requests = Array.map (fun j -> Result.get_ok (Server.Protocol.parse j)) jsons in
    let fps = Array.map Server.Protocol.fingerprint requests in
    let decode_us = per_call_us lines (fun l -> Server.Json.decode l) in
    let parse_us = per_call_us jsons Server.Protocol.parse in
    let fingerprint_us = per_call_us requests Server.Protocol.fingerprint in
    let responses =
      Array.map (fun (id, k, c) -> let r = parse_key k in response_json ~id:(Server.Json.Int id) ~cached:c r (render r)) used
    in
    let encode_us = per_call_us responses Server.Json.encode in
    let capacity = 256 in
    let find_us =
      let lru = Server.Lru.create ~capacity in
      Array.iter (fun k -> Server.Lru.add lru (Server.Protocol.fingerprint (parse_key k)) ()) hot;
      per_call_us fps (Server.Lru.find lru)
    in
    (* What a cache miss costs, on fresh keys: the model, the rendering
       of each route, and an insert into a full LRU, which evicts. *)
    let cold = Array.init 200 (fun i -> parse_key (cold_key (derive ctx.seed 8) i)) in
    let of_route r keys = Array.of_list (List.filter (fun q -> Server.Protocol.route q = r) (Array.to_list keys)) in
    let render_us keys = per_call_us ~rounds:3 keys render in
    let optimize_us = render_us (of_route "optimize" cold) in
    let evaluate_us = render_us (of_route "evaluate" cold) in
    let frontier_us = render_us (of_route "frontier" (Array.map parse_key hot)) in
    let solve_us =
      per_call_us ~rounds:3 (of_route "optimize" cold) (function
        | Server.Protocol.Optimize { config; rho; _ } -> Core.Bicrit.solve (Core.Env.of_config config) ~rho
        | _ -> None)
    in
    let add_us =
      let lru = Server.Lru.create ~capacity in
      for i = 0 to capacity - 1 do
        Server.Lru.add lru (Printf.sprintf "filler-%d" i) ()
      done;
      let round = ref 0 in
      per_call_us (Array.map Server.Protocol.fingerprint cold) (fun fp ->
          incr round;
          Server.Lru.add lru (fp ^ "/" ^ string_of_int !round) ())
    in
    let accounted = rtt +. hop_us +. decode_us +. parse_us +. fingerprint_us +. find_us +. encode_us in
    let bytes =
      mean (Array.of_list (List.filter_map (Option.map (fun a -> float_of_int a.line_bytes)) (Array.to_list tp.answers)))
    in
    say "  replay: %d served lines re-encoded locally, %d differ" tp.answered !replay_failed;
    say "  client p50 %.1f us = accounted %.1f us + unaccounted %.1f us" p50_us accounted (p50_us -. accounted);
    ( tally.wrong = 0,
      tally.attempted,
      tally.failed,
      [
        metric "core.bicrit.solve_us" "us" solve_us;
        metric "server.render.optimize_us" "us" optimize_us;
        metric "server.render.evaluate_us" "us" evaluate_us;
        metric "server.render.frontier_us" "us" frontier_us;
        metric "server.lru.add_us" "us" add_us;
        metric "server.lru.find_us" "us" find_us;
        metric "server.lru.hit_rate" "frac" (if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
        metric "server.json.decode_us" "us" decode_us;
        metric "server.protocol.parse_us" "us" parse_us;
        metric "server.protocol.fingerprint_us" "us" fingerprint_us;
        metric "server.json.encode_us" "us" encode_us;
        metric "server.response_bytes" "B" bytes;
        metric "server.daemon.rtt_us" "us" rtt;
        metric "server.daemon.p99_ms" "ms" daemon_p99;
        metric "server.router.hop_us" "us" hop_us;
        metric "server.router.failovers" "count" (float_of_int (int_at h [ "router"; "failovers" ]));
        metric "server.daemon.refused" "count" (float_of_int (refused st));
        metric "server.unaccounted_us" "us" (p50_us -. accounted);
        metric "loadgen.late_p99_ms" "ms" (percentile late_ms 99.);
        metric "bench.trace_overhead" "frac" overhead;
      ] )
  end
