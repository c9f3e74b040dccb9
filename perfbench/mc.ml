(* The two Monte-Carlo workloads.

   mc-suite  one operation = one journaled (durable) [Validation.run]
             of one scenario of [Validation.default_suite ()]: the work
             [rexspeed simulate --suite --journal] does per scenario
             file. Operations cycle through the suite in order.
   mc-app    one operation = one [Montecarlo.application_estimate] of a
             Theorem-2 application (fail-stop errors only, sigma2 =
             2 sigma1) at the Theorem-2 or the Young/Daly period, no
             journal. Operations cycle through 4 generated inputs.

   The untraced run is a closed loop on a one-domain pool for the
   measuring time, calling only the entry points a user calls (as
   [rexspeed simulate --domains 1] does). One domain, because a pool
   of [nproc] domains spawns a domain per region (one per batch of
   the journal on mc-suite) and stops every domain
   for each minor collection, so on a shared virtual machine its rate
   followed the host's scheduling: interquartile spreads of 0.35 to
   0.62 of the median over ten seeds. The correctness gates run at
   [nproc] domains. The traced run rebuilds every operation from the
   layers' public functions with a timer around each, on the
   [nproc]-domain pool, and asserts the rebuild is bit-equal to the
   entry point, at [nproc] domains and at 1; it also times the
   entry point at both, which gives [parallel.speedup_1dom]. *)

open Harness

(* Each run works in a directory of its own; journals go there. *)
type ctx = { seed : int; seconds : float; domains : int }

(* Bit-level equality of pure values (floats compared by bits). *)
let same a b = String.equal (Marshal.to_string a []) (Marshal.to_string b [])

(* Generated-input seeds: SplitMix64 finalizer over (seed, k). *)
let derive seed k =
  let open Int64 in
  let z = ref (add (of_int seed) (mul (of_int (k + 1)) 0x9E3779B97F4A7C15L)) in
  z := mul (logxor !z (shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := mul (logxor !z (shift_right_logical !z 27)) 0x94D049BB133111EBL;
  z := logxor !z (shift_right_logical !z 31);
  to_int (logand !z 0x3FFFFFFFL)

(* Set-up is building the inputs, creating the pool and running one
   region that brings its domains up. On the timed loop's one-domain
   pool that takes microseconds, near the clock's resolution, so a
   set-up sample is the mean of [setup_batch] set-ups. The closed loop
   takes [setup_samples] samples spread evenly over the measuring
   time, so set-up meets the same host as the operations do. *)
let setup_samples = 600
let setup_batch = 100

let ready_pool domains =
  let pool = Parallel.Pool.create ~domains in
  ignore (Parallel.Pool.init_array pool domains Fun.id);
  pool

let setup_sample f =
  let (), dt =
    time (fun () ->
        for _ = 1 to setup_batch do
          ignore (Sys.opaque_identity (f ()))
        done)
  in
  dt /. float_of_int setup_batch

let self_hwm () = Option.value (vm_hwm_mb "self") ~default:0.

(* The peak resident set is read once [hwm_cycles] cycles of the
   inputs have run, so it measures a fixed amount of work: read at the
   end of the loop it grew with the number of operations, i.e. with
   the host's speed (18 to 25 MB on mc-suite in one set of runs). *)
let hwm_cycles = 20

(* Closed loop: [op k] for k = 0, 1, ... until [seconds] have passed,
   cycling over [inputs] inputs; every result must be bit-equal to the
   first result for its input. Between operations it takes the set-up
   samples of [setup]. Returns the latencies, the number of operations
   that differed, the peak resident set (MB) after [hwm_cycles]
   cycles, or at the end if the loop ran fewer, and the set-up
   samples. *)
let closed_loop ~seconds ~inputs ~setup op =
  let lat = ref [] and refs = Array.make inputs None and mismatches = ref 0 in
  let hwm = ref None and setups = ref [] and taken = ref 0 in
  let start = now () in
  let k = ref 0 in
  while now () -. start < seconds do
    if !k = hwm_cycles * inputs then hwm := Some (self_hwm ());
    if now () -. start >= seconds *. float_of_int !taken /. float_of_int setup_samples then begin
      setups := setup_sample setup :: !setups;
      incr taken
    end;
    let r, dt = time (fun () -> op !k) in
    (match refs.(!k mod inputs) with
    | None -> refs.(!k mod inputs) <- Some r
    | Some r0 -> if not (same r r0) then incr mismatches);
    lat := dt :: !lat;
    incr k
  done;
  if !mismatches > 0 then say "  %d operations differed from their first run" !mismatches;
  let hwm = match !hwm with Some h -> h | None -> self_hwm () in
  while !taken < setup_samples do
    setups := setup_sample setup :: !setups;
    incr taken
  done;
  (Array.of_list (List.rev !lat), !mismatches, hwm, Array.of_list !setups)

(* End-to-end metrics of a closed-loop run. Every operation on the
   same input does the same work, so the latencies are read per input:
   an input's fast time is the p2 of its own operations' latencies
   (see [fast]; a 40 s run gives each input about 1500 operations on
   mc-suite and 3000 on mc-app). One operation takes 2 to 5 ms, short
   enough that some of every input's operations fall where the host
   let the program run, which longer samples seldom did (NOTES.md). A
   cycle of the inputs at their fast times gives [patterns_per_s];
   [p50_ms] is the median over inputs of their fast times. *)
let e2e_metrics ~setups ~lat ~hwm ~inputs ~patterns_per_op ~attempted ~failed =
  let total = Array.fold_left ( +. ) 0. lat in
  describe_latencies ~label:"operation latency" (Array.map (fun s -> 1000. *. s) lat);
  let patterns = ref 0 in
  Array.iteri (fun k _ -> patterns := !patterns + patterns_per_op k) lat;
  say "  %d operations, %d patterns in %.3f s" (Array.length lat) !patterns total;
  let seen = min inputs (Array.length lat) in
  let fast_s =
    Array.init seen (fun i ->
        let own = List.filter (fun k -> k mod inputs = i) (List.init (Array.length lat) Fun.id) in
        fast ~what:(Printf.sprintf "input %d latency, ms" i)
          (Array.of_list (List.map (fun k -> 1000. *. lat.(k)) own))
          2.
        /. 1000.)
  in
  let cycle_s = Array.fold_left ( +. ) 0. fast_s in
  let cycle_patterns = List.fold_left ( + ) 0 (List.init seen patterns_per_op) in
  let setup_s = fast ~what:(Printf.sprintf "set-up, s (means of %d)" setup_batch) setups 2. in
  [
    metric "setup_s" "s" setup_s;
    metric "patterns_per_s" "1/s" (float_of_int cycle_patterns /. cycle_s);
    metric "peak_rss_mb" "MB" hwm;
    metric "ok_frac" "frac" (float_of_int (attempted - failed) /. float_of_int attempted);
    metric "p50_ms" "ms" (1000. *. median fast_s);
  ]

(* ------------------------------------------------------------------ *)
(* Traced rebuild                                                      *)

(* Layer timings of one rebuilt operation. *)
type layers = {
  streams : int;
  patterns : int;
  split_s : float;  (** Rng.create + Rng.split *)
  region_s : float;  (** Checkpointed.init_array, journal included *)
  busy_s : float;  (** task time summed over all domains *)
  plain_s : float;  (** Pool.init_array over the same tasks, no journal *)
  summarize_s : float;
  total_s : float;  (** split + region + summarize *)
}

let timed_tasks ~replicas task rngs =
  let busy = Array.make replicas 0. in
  (* Each slot is written by the one task that owns it. *)
  let f i =
    let s = now () in
    let v = task rngs.(i) in
    busy.(i) <- now () -. s;
    v
  in
  (busy, f)

(* Rng.create/split, then Checkpointed.init_array over the timed task;
   then the same tasks on fresh streams through Pool.init_array alone,
   which must give the same outcomes. *)
let rebuild_pass ~pool ?journal ~replicas ~seed task =
  let t0 = now () in
  let rngs = Prng.Rng.split (Prng.Rng.create ~seed) replicas in
  let t1 = now () in
  let busy, f = timed_tasks ~replicas task rngs in
  let outcomes = Resilience.Checkpointed.init_array ~pool ?journal replicas f in
  let t2 = now () in
  let busy_s = Array.fold_left ( +. ) 0. busy in
  let rngs' = Prng.Rng.split (Prng.Rng.create ~seed) replicas in
  let _, f' = timed_tasks ~replicas task rngs' in
  let plain, plain_s = time (fun () -> Parallel.Pool.init_array pool replicas f') in
  let consistent = same plain outcomes in
  (outcomes, consistent, t1 -. t0, t2 -. t1, busy_s, plain_s)

(* The comparison [Montecarlo.checks] makes, rebuilt from the closed
   forms and [Stats.summarize]. *)
let make_check ~label ~expected (observed : Numerics.Stats.summary) =
  let z = 3.89 in
  let score =
    if Float.equal observed.std_error 0. then
      if Numerics.Float_utils.approx_equal observed.mean expected then 0. else infinity
    else Float.abs (observed.mean -. expected) /. observed.std_error
  in
  { Sim.Montecarlo.label; expected; observed; z = score; ok = score <= z }

(* ns per [Rng.exponential] draw, median of 5 rounds. *)
let draw_ns ~seed =
  let rng = Prng.Rng.create ~seed in
  let n = 200_000 in
  let rounds =
    Array.init 5 (fun _ ->
        let acc = ref 0. in
        let (), dt =
          time (fun () ->
              for _ = 1 to n do
                acc := !acc +. Prng.Rng.exponential rng ~rate:1e-4
              done)
        in
        ignore (Sys.opaque_identity !acc);
        1e9 *. dt /. float_of_int n)
  in
  median rounds

(* Journal flushes of one operation, read from the program's own
   counter, with the tracer armed around one untimed operation. *)
let count_flushes f =
  Tracing.Tracer.start ~sample_every:1_000_000 ();
  (match f () with
  | () -> ()
  | exception e ->
      ignore (Tracing.Tracer.finish ());
      raise e);
  match Tracing.Tracer.finish () with
  | None -> 0.
  | Some dump ->
      float_of_int
        (List.fold_left
           (fun acc (c, n) -> if c = Tracing.Span.Journal_flushes then acc + n else acc)
           0 dump.Tracing.Tracer.counters)

let layer_metrics ~domains ~(ops : layers list) ~draw_ns ~speedup ~journaled
    ~journal_bytes ~flushes ~overhead =
  let sum f = List.fold_left (fun a o -> a +. f o) 0. ops in
  let isum f = float_of_int (List.fold_left (fun a o -> a + f o) 0 ops) in
  let patterns = isum (fun o -> o.patterns) in
  let domains = float_of_int domains in
  let busy = sum (fun o -> o.busy_s) in
  [
    metric "prng.split_us" "us" (1e6 *. sum (fun o -> o.split_s) /. isum (fun o -> o.streams));
    metric "prng.split_share" "frac" (sum (fun o -> o.split_s) /. sum (fun o -> o.total_s));
    metric "prng.draw_ns" "ns" draw_ns;
    metric "sim.pattern_us" "us" (1e6 *. busy /. patterns);
    metric "sim.busy_share" "frac" (busy /. (domains *. sum (fun o -> o.total_s)));
    metric "parallel.idle_share" "frac" (1. -. (busy /. (domains *. sum (fun o -> o.region_s))));
    metric "parallel.speedup_1dom" "x" speedup;
    metric "resilience.journal_us" "us"
      (if journaled then
         1e6 *. median (Array.of_list (List.map (fun o -> o.region_s -. o.plain_s) ops))
       else 0.);
    metric "resilience.journal_bytes" "B" journal_bytes;
    metric "resilience.flushes" "count" flushes;
    metric "numerics.summarize_ms" "ms"
      (1000. *. median (Array.of_list (List.map (fun o -> o.summarize_s) ops)));
    metric "bench.trace_overhead" "frac" overhead;
  ]

(* The traced loop shared by both workloads: per operation [k], the
   entry point ([plain k] at [nproc] domains) and the rebuild
   ([rebuilt pool k]); on the first [cycle] operations also both at 1
   domain. Every rebuild must be bit-equal to its entry point. *)
let traced_loop ~ctx ~pool ~cycle ~plain ~rebuilt =
  let ops = ref [] and plain_t = ref 0. and rebuilt_t = ref 0. in
  let one_t = ref 0. and many_t = ref 0. in
  let attempted = ref 0 and failed = ref 0 in
  let expect what ok =
    incr attempted;
    if not ok then begin
      incr failed;
      say "  FIDELITY FAILURE: %s" what
    end
  in
  let start = now () in
  let k = ref 0 in
  while !k < cycle || now () -. start < ctx.seconds do
    let reference, dt = time (fun () -> plain pool !k) in
    let result, consistent, layers = rebuilt pool !k in
    plain_t := !plain_t +. dt;
    rebuilt_t := !rebuilt_t +. layers.total_s;
    expect (Printf.sprintf "rebuild of operation %d equals the entry point" !k)
      (same result reference);
    expect (Printf.sprintf "journaled and plain task outcomes agree (operation %d)" !k)
      consistent;
    ops := layers :: !ops;
    if !k < cycle then begin
      let seq = Parallel.Pool.sequential in
      let one, dt1 = time (fun () -> plain seq !k) in
      let result1, _, _ = rebuilt seq !k in
      one_t := !one_t +. dt1;
      many_t := !many_t +. dt;
      expect (Printf.sprintf "1-domain entry point equals %d-domain (operation %d)" ctx.domains !k)
        (same one reference);
      expect (Printf.sprintf "1-domain rebuild equals the entry point (operation %d)" !k)
        (same result1 reference)
    end;
    incr k
  done;
  say "  traced: %d operations rebuilt, %d fidelity assertions, %d failed" !k !attempted !failed;
  (List.rev !ops, !attempted, !failed, !one_t /. !many_t, (!rebuilt_t /. !plain_t) -. 1.)

(* ------------------------------------------------------------------ *)
(* mc-suite                                                            *)

(* Replicas per timed operation: 128, two journal batches, about 2.5
   ms, so that each of the 11 scenarios gets enough operations for its
   p2 (see [e2e_metrics]). *)
let suite_replicas = 128
let gate_replicas = 4000

let run_suite ctx ~trace =
  let setup domains () =
    (Array.of_list (Experiments.Validation.default_suite ()), ready_pool domains)
  in
  let scenarios, pool = setup ctx.domains () in
  let n = Array.length scenarios in
  (* Correctness gate: the whole suite at the library's validated
     replica count, journaled; every z-check must pass, and resuming
     the completed journal must recover every slot and give identical
     checks. *)
  let gate_seed = derive ctx.seed 0 in
  let gate_journal resume =
    {
      Resilience.Checkpointed.path = "gate";
      resume;
      description = Printf.sprintf "perfbench gate seed=%d" gate_seed;
      durable = true;
    }
  in
  let suite = Array.to_list scenarios in
  let checks =
    Experiments.Validation.run ~replicas:gate_replicas ~seed:gate_seed ~pool
      ~journal:(gate_journal false) suite
  in
  let recovered = ref 0 in
  let resumed =
    Experiments.Validation.run ~replicas:gate_replicas ~seed:gate_seed ~pool
      ~journal:(gate_journal true)
      ~on_resume:(fun ~entries ~dropped:_ -> recovered := !recovered + entries)
      suite
  in
  let z_failed = List.filter (fun (c : Sim.Montecarlo.check) -> not c.ok) checks in
  List.iter (fun c -> say "  Z-CHECK FAILED: %s" (Format.asprintf "%a" Sim.Montecarlo.pp_check c)) z_failed;
  let resume_ok = same checks resumed && !recovered = gate_replicas * n in
  say "  gate: %d z-checks at %d replicas, seed %d: %d failed (max z %.2f); resume %s (%d slots)"
    (List.length checks) gate_replicas gate_seed (List.length z_failed)
    (List.fold_left (fun a (c : Sim.Montecarlo.check) -> Float.max a c.z) 0. checks)
    (if resume_ok then "identical" else "DIFFERS") !recovered;
  let gate_attempted = List.length checks + 1 in
  let gate_failed = List.length z_failed + if resume_ok then 0 else 1 in
  (* Timed operations. *)
  let op_seed = derive ctx.seed 1 in
  let op_journal =
    {
      Resilience.Checkpointed.path = "op";
      resume = false;
      description = Printf.sprintf "perfbench mc-suite seed=%d" op_seed;
      durable = true;
    }
  in
  let plain pool k =
    Experiments.Validation.run ~replicas:suite_replicas ~seed:op_seed ~pool
      ~journal:op_journal
      [ scenarios.(k mod n) ]
  in
  if not trace then begin
    let lat, mismatches, hwm, setups =
      closed_loop ~seconds:ctx.seconds ~inputs:n ~setup:(setup 1) (plain (ready_pool 1))
    in
    let attempted = gate_attempted + Array.length lat in
    let failed = gate_failed + mismatches in
    ( failed = 0,
      attempted,
      failed,
      e2e_metrics ~setups ~lat ~hwm ~inputs:n ~patterns_per_op:(fun _ -> suite_replicas) ~attempted
        ~failed )
  end
  else begin
    let rebuilt pool k =
      let s = scenarios.(k mod n) in
      let journal =
        {
          op_journal with
          Resilience.Checkpointed.description =
            Printf.sprintf "%s scenario=%s" op_journal.description s.name;
        }
      in
      let task rng =
        let machine = Sim.Machine.create s.power in
        Sim.Executor.run_pattern ~model:s.model ~machine ~rng ~w:s.w ~sigma1:s.sigma1
          ~sigma2:s.sigma2 ()
      in
      let outcomes, consistent, split_s, region_s, busy_s, plain_s =
        rebuild_pass ~pool ~journal ~replicas:suite_replicas ~seed:op_seed task
      in
      let checks, summarize_s =
        time (fun () ->
            let summarize f = Numerics.Stats.summarize (Array.map f outcomes) in
            let tag (c : Sim.Montecarlo.check) = { c with label = s.name ^ " " ^ c.label } in
            let p1 = Core.Mixed.success_probability s.model ~w:s.w ~sigma:s.sigma1 in
            let p2 = Core.Mixed.success_probability s.model ~w:s.w ~sigma:s.sigma2 in
            [
              tag
                (make_check ~label:"pattern time"
                   ~expected:
                     (Core.Mixed.expected_time s.model ~w:s.w ~sigma1:s.sigma1 ~sigma2:s.sigma2)
                   (summarize (fun (o : Sim.Executor.pattern_outcome) -> o.time)));
              tag
                (make_check ~label:"pattern energy"
                   ~expected:
                     (Core.Mixed.expected_energy s.model s.power ~w:s.w ~sigma1:s.sigma1
                        ~sigma2:s.sigma2)
                   (summarize (fun (o : Sim.Executor.pattern_outcome) -> o.energy)));
              tag
                (make_check ~label:"re-executions"
                   ~expected:((1. -. p1) /. p2)
                   (summarize (fun (o : Sim.Executor.pattern_outcome) ->
                        float_of_int o.re_executions)));
            ])
      in
      ( checks,
        consistent,
        {
          streams = suite_replicas;
          patterns = suite_replicas;
          split_s;
          region_s;
          busy_s;
          plain_s;
          summarize_s;
          total_s = split_s +. region_s +. summarize_s;
        } )
    in
    let ops, attempted, failed, speedup, overhead =
      traced_loop ~ctx ~pool ~cycle:n ~plain ~rebuilt
    in
    let journal_bytes =
      ignore (plain pool 0);
      float_of_int (Unix.stat op_journal.path).Unix.st_size
    in
    let flushes = count_flushes (fun () -> ignore (plain pool 0)) in
    let attempted = gate_attempted + attempted and failed = gate_failed + failed in
    ( failed = 0,
      attempted,
      failed,
      layer_metrics ~domains:ctx.domains ~ops ~draw_ns:(draw_ns ~seed:op_seed) ~speedup
        ~journaled:true ~journal_bytes ~flushes ~overhead )
  end

(* ------------------------------------------------------------------ *)
(* mc-app                                                              *)

let app_replicas = 16
(* Two seeds at two periods: four inputs, so that each gets enough
   operations for its p2 (see [e2e_metrics]). *)
let app_seeds = 2
let app_w_base = 5e6

type app = {
  model : Core.Mixed.t;
  power : Core.Power.t;
  periods : float array;  (** Theorem-2 period, Young/Daly period *)
  sigma : float;
}

(* The examples/twice_faster.ml application: C = R = 300 s, fail-stop
   rate 1e-4, re-execution twice as fast as the first execution. *)
let app_setup () =
  let c = 300. and lambda = 1e-4 and sigma = 1. in
  let model = Core.Mixed.make ~c ~r:c ~v:0. ~lambda_f:lambda ~lambda_s:0. () in
  let power = Core.Power.make ~kappa:1550. ~p_idle:60. ~p_io:5.2 in
  {
    model;
    power;
    periods =
      [|
        Core.Second_order.w_opt_twice_faster ~c ~lambda ~sigma;
        Core.Young_daly.failstop_period ~c ~lambda *. sigma;
      |];
    sigma;
  }

let run_app ctx ~trace =
  let setup domains () = (app_setup (), ready_pool domains) in
  let app, pool = setup ctx.domains () in
  let inputs = 2 * app_seeds in
  let input k =
    let k = k mod inputs in
    (derive ctx.seed (k / 2), app.periods.(k mod 2))
  in
  let patterns_of pattern_w = app_replicas * int_of_float (Float.ceil (app_w_base /. pattern_w)) in
  let plain pool k =
    let seed, pattern_w = input k in
    Sim.Montecarlo.application_estimate ~pool ~replicas:app_replicas ~seed ~model:app.model
      ~power:app.power ~w_base:app_w_base ~pattern_w ~sigma1:app.sigma
      ~sigma2:(2. *. app.sigma) ()
  in
  (* Gate: the domain count must not change an estimate. *)
  let gate_failed =
    List.length
      (List.filter
         (fun k -> not (same (plain Parallel.Pool.sequential k) (plain pool k)))
         [ 0; 1 ])
  in
  if gate_failed > 0 then say "  1-domain and %d-domain estimates DIFFER" ctx.domains;
  if not trace then begin
    let lat, mismatches, hwm, setups =
      closed_loop ~seconds:ctx.seconds ~inputs ~setup:(setup 1) (plain (ready_pool 1))
    in
    let attempted = 2 + Array.length lat and failed = gate_failed + mismatches in
    ( failed = 0,
      attempted,
      failed,
      e2e_metrics ~setups ~lat ~hwm ~inputs
        ~patterns_per_op:(fun k -> patterns_of (snd (input k)))
        ~attempted ~failed )
  end
  else begin
    let pattern_mismatch = ref 0 in
    let rebuilt pool k =
      let seed, pattern_w = input k in
      let task rng =
        Sim.Executor.run_application ~model:app.model ~power:app.power ~rng ~w_base:app_w_base
          ~pattern_w ~sigma1:app.sigma ~sigma2:(2. *. app.sigma) ()
      in
      let outcomes, consistent, split_s, region_s, busy_s, plain_s =
        rebuild_pass ~pool ~replicas:app_replicas ~seed task
      in
      let estimate, summarize_s =
        time (fun () ->
            {
              Sim.Montecarlo.time =
                Numerics.Stats.summarize
                  (Array.map (fun (o : Sim.Executor.outcome) -> o.makespan) outcomes);
              energy =
                Numerics.Stats.summarize
                  (Array.map (fun (o : Sim.Executor.outcome) -> o.total_energy) outcomes);
              re_executions_mean =
                Numerics.Stats.mean
                  (Array.map
                     (fun (o : Sim.Executor.outcome) -> float_of_int o.re_executions)
                     outcomes);
            })
      in
      let patterns = Array.fold_left (fun a (o : Sim.Executor.outcome) -> a + o.patterns) 0 outcomes in
      if patterns <> patterns_of pattern_w then incr pattern_mismatch;
      ( estimate,
        consistent,
        {
          streams = app_replicas;
          patterns;
          split_s;
          region_s;
          busy_s;
          plain_s;
          summarize_s;
          total_s = split_s +. region_s +. summarize_s;
        } )
    in
    let ops, attempted, failed, speedup, overhead =
      traced_loop ~ctx ~pool ~cycle:inputs ~plain ~rebuilt
    in
    if !pattern_mismatch > 0 then
      say "  %d operations simulated another pattern count than the untraced run assumes"
        !pattern_mismatch;
    let attempted = 2 + attempted + 1 in
    let failed = gate_failed + failed + if !pattern_mismatch > 0 then 1 else 0 in
    ( failed = 0,
      attempted,
      failed,
      layer_metrics ~domains:ctx.domains ~ops ~draw_ns:(draw_ns ~seed:(derive ctx.seed 0))
        ~speedup ~journaled:false ~journal_bytes:0. ~flushes:0. ~overhead )
  end
