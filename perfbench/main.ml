(* perfbench: the repository benchmark. See perfbench/NOTES.md.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--exe PATH-TO-REXSPEED]
   main.exe --spin    (a core keeper serve-hot starts)

   Prints a ledger of human-readable lines, then as its last line one
   JSON object {correct, attempted, failed, metrics}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. Exits
   1 on any wrong output or failed check, 2 on bad arguments, 3 if the
   harness self-tests fail. *)

let workloads = [ "mc-suite"; "mc-app"; "serve-hot" ]

(* Every per-layer metric, in ledger order. A traced run reports all
   of them; a layer the workload does not exercise reads 0. *)
let per_layer =
  [
    ("prng.split_us", "us");
    ("prng.split_share", "frac");
    ("prng.draw_ns", "ns");
    ("sim.pattern_us", "us");
    ("sim.busy_share", "frac");
    ("parallel.idle_share", "frac");
    ("parallel.speedup_1dom", "x");
    ("resilience.journal_us", "us");
    ("resilience.journal_bytes", "B");
    ("resilience.flushes", "count");
    ("numerics.summarize_ms", "ms");
    ("core.bicrit.solve_us", "us");
    ("server.render.optimize_us", "us");
    ("server.render.evaluate_us", "us");
    ("server.render.frontier_us", "us");
    ("server.lru.add_us", "us");
    ("server.lru.find_us", "us");
    ("server.lru.hit_rate", "frac");
    ("server.json.decode_us", "us");
    ("server.protocol.parse_us", "us");
    ("server.protocol.fingerprint_us", "us");
    ("server.json.encode_us", "us");
    ("server.response_bytes", "B");
    ("server.daemon.rtt_us", "us");
    ("server.daemon.p99_ms", "ms");
    ("server.router.hop_us", "us");
    ("server.router.failovers", "count");
    ("server.daemon.refused", "count");
    ("server.unaccounted_us", "us");
    ("loadgen.late_p99_ms", "ms");
    ("bench.trace_overhead", "frac");
  ]

let complete_layers measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : Harness.metric) -> m.name = name) measured with
      | Some m -> m
      | None -> Harness.metric name unit_ 0.)
    per_layer

let usage () =
  prerr_endline
    "usage: main.exe --workload (mc-suite|mc-app|serve-hot) --seed N --seconds S \
     --trace 0|1 [--exe PATH]";
  exit 2

(* The commit when run in a git checkout, and always a digest of the
   library and binary sources, which identifies the code measured. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let commit () =
  let head = ".git/HEAD" in
  if not (Sys.file_exists head) then "none"
  else
    let h = String.trim (read_file head) in
    if String.starts_with ~prefix:"ref: " h then
      let r = Filename.concat ".git" (String.sub h 5 (String.length h - 5)) in
      if Sys.file_exists r then String.trim (read_file r) else h
    else h

let source_digest () =
  let rec files dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then []
    else
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.concat_map (fun f ->
             let p = Filename.concat dir f in
             if Sys.is_directory p then files p
             else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
             else [])
  in
  files "lib" @ files "bin"
  |> List.map (fun p -> p ^ Digest.to_hex (Digest.file p))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  let exe = ref "_build/default/bin/rexspeed.exe" and spin = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N");
      ("--seconds", Arg.Set_int seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--exe", Arg.Set_string exe, "PATH");
      ("--spin", Arg.Set spin, "");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun _ -> usage ()) "perfbench"
   with Arg.Bad _ | Arg.Help _ -> usage ());
  if !spin then begin
    (* A core keeper for serve-hot (see Serve): spin until the
       benchmark process that started it is gone. *)
    let parent = Unix.getppid () in
    while Unix.getppid () = parent do
      for _ = 1 to 100_000 do
        ignore (Sys.opaque_identity ())
      done
    done;
    exit 0
  end;
  if not (Selftest.report ()) then exit 3;
  let seed = match !seed with Some s -> s | None -> usage () in
  if (not (List.mem !workload workloads)) || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 in
  let nproc = Domain.recommended_domain_count () in
  let exe =
    if Filename.is_relative !exe then Filename.concat (Sys.getcwd ()) !exe else !exe
  in
  Harness.say "# perfbench workload=%s seed=%d seconds=%d trace=%b" !workload seed !seconds trace;
  Harness.say "# nproc=%d ocaml=%s commit=%s sources=%s" nproc Sys.ocaml_version (commit ())
    (source_digest ());
  let base = ".perfbench_run" in
  if not (Sys.file_exists base) then Unix.mkdir base 0o755;
  let dir = Filename.concat base (string_of_int (Unix.getpid ())) in
  remove_tree dir;
  Unix.mkdir dir 0o755;
  let home = Sys.getcwd () in
  Sys.chdir dir;
  let seconds_f = float_of_int !seconds in
  (* A signal or the watchdog unwinds through the workload's cleanup,
     which stops every server it started. The watchdog allows the
     fixed costs (correctness gate, repeated set-ups) plus twice the
     measuring time, and stops a hung 40 s run after 140 s, before the
     180 s a run may take. *)
  let watchdog = 60 + (2 * !seconds) in
  let interrupt name = Sys.Signal_handle (fun _ -> failwith ("interrupted by " ^ name)) in
  Sys.set_signal Sys.sigterm (interrupt "SIGTERM");
  Sys.set_signal Sys.sigint (interrupt "SIGINT");
  Sys.set_signal Sys.sighup (interrupt "SIGHUP");
  Sys.set_signal Sys.sigalrm (interrupt (Printf.sprintf "the %d s watchdog" watchdog));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  ignore (Unix.alarm watchdog);
  let outcome =
    match
      match !workload with
      | "mc-suite" ->
          Mc.run_suite { Mc.seed; seconds = seconds_f; domains = nproc } ~trace
      | "mc-app" -> Mc.run_app { Mc.seed; seconds = seconds_f; domains = nproc } ~trace
      | _ -> Serve.run { Serve.seed; seconds = seconds_f; exe; nproc } ~trace
    with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  Sys.chdir home;
  remove_tree dir;
  (try Unix.rmdir base with Unix.Unix_error _ -> ());
  match outcome with
  | Error message ->
      Printf.eprintf "perfbench: %s: %s\n%!" !workload message;
      exit 1
  | Ok (correct, attempted, failed, metrics) ->
      let metrics = if trace then complete_layers metrics else metrics in
      List.iter
        (fun (m : Harness.metric) -> Harness.say "  %-32s %.6g %s" m.name m.value m.unit_)
        metrics;
      print_endline
        (Harness.result_json { Harness.correct; attempted; failed; metrics });
      exit (if correct then 0 else 1)
