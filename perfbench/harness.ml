(* Measurement primitives shared by every workload: the clock, order
   statistics with their resolution rule, backlog detection for the
   open-loop generator, and the result record the benchmark prints. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Nearest-rank percentile: the smallest sample such that at least
   [p] percent of the samples are <= it. [rank] is 1-based. *)
let rank ~n p =
  if n < 1 then invalid_arg "Harness.rank: no samples";
  if not (p > 0. && p <= 100.) then invalid_arg "Harness.rank: p outside (0, 100]";
  max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n -. 1e-9))))

let percentile_sorted s p = s.(rank ~n:(Array.length s) p - 1)
let percentile a p = percentile_sorted (sorted a) p

(* Samples strictly above the percentile's rank: a percentile is only
   reported when at least [min_beyond] samples lie beyond it, so the
   tail it claims to describe was actually observed. *)
let min_beyond = 10
let beyond ~n p = n - rank ~n p
let resolved ~n p = n >= 1 && beyond ~n p >= min_beyond

(* Quartiles as Python's [statistics.quantiles(data, n=4)] computes
   them (the default "exclusive" method), so a spread printed in the
   ledger is computed as perfbench/spread.py computes spreads across
   runs. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld < 2 then invalid_arg "Harness.quartiles: need at least 2 samples";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Harness.median: no samples";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* ------------------------------------------------------------------ *)
(* Backlog detection                                                   *)

(* [samples] are (seconds since the rate step began, requests due but
   not yet answered). The backlog grows when its trend over the step
   adds more than [slack] requests. The trend is the median of the
   slopes between every two samples (Theil-Sen), not a least-squares
   fit: when the host holds the fleet back for a few milliseconds, the
   backlog jumps and drains again within a few samples, which moved a
   least-squares slope enough to fail most 55 ms ladder rungs near
   capacity, but moves the median slope little. A flat, noisy backlog
   passes; one that climbs steadily fails even if every answer so far
   was fast. *)
let backlog_grows ~slack samples =
  let n = Array.length samples in
  if n < 4 then false
  else begin
    let slopes = ref [] in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        let (ti, oi) = samples.(i) and (tj, oj) = samples.(j) in
        if tj > ti then slopes := (float_of_int (oj - oi) /. (tj -. ti)) :: !slopes
      done
    done;
    match !slopes with
    | [] -> false
    | slopes ->
        let span = fst samples.(n - 1) -. fst samples.(0) in
        median (Array.of_list slopes) *. span > slack
  end

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* All 17 significant digits: readings are compared raw across runs. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_json r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
              (json_number m.value) (json_string m.unit_))
          r.metrics))

(* ------------------------------------------------------------------ *)
(* Human-readable ledger lines (stdout, before the result line)        *)

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Another program on the host (or on the other hyperthread of the
   same core) only ever slows a run down, by up to about 1.8 times and
   for seconds to minutes at a time. So the timed figures are read
   where the host let the program run: the fast tail of many short
   samples spread over the run ([p] above 50 for a rate, below 50 for
   a time), with at least [min_beyond] samples beyond it (the ledger
   says "unresolved" otherwise). Over four 15 s mc-suite runs, the sum
   over the 11 scenarios of each scenario's p2 operation latency read
   99 to 103 ms, its p10 103 to 112 ms and its median 125 to 165 ms. *)
let fast ~what samples p =
  let n = Array.length samples in
  let v = percentile samples p in
  let beyond = if p > 50. then beyond ~n p else rank ~n p - 1 in
  say "  %s: p%g of %d = %.4g (%d beyond%s)" what p n v beyond
    (if beyond < min_beyond then ", unresolved" else "");
  v

(* Median and interquartile spread of repeated set-ups, for the ledger. *)
let setup_median ~what times =
  let m = median times in
  (if Array.length times >= 2 then
     let q1, _, q3 = quartiles times in
     say "  setup: median of %d %s %.4g s, interquartile spread %.3f" (Array.length times) what m
       ((q3 -. q1) /. m));
  m

(* A latency distribution with the sample count behind each
   percentile; a percentile without [min_beyond] samples beyond it
   prints as "unresolved". *)
let describe_latencies ~label samples_ms =
  let n = Array.length samples_ms in
  if n = 0 then say "  %s: no samples" label
  else begin
    let s = sorted samples_ms in
    let show p =
      if resolved ~n p then
        Printf.sprintf "p%g=%.4g ms (%d beyond)" p (percentile_sorted s p) (beyond ~n p)
      else Printf.sprintf "p%g=unresolved (%d beyond)" p (beyond ~n p)
    in
    say "  %s: n=%d %s %s %s" label n (show 50.) (show 90.) (show 99.)
  end

(* ------------------------------------------------------------------ *)
(* Process memory                                                      *)

(* Peak resident set (VmHWM) of a process, in MiB; [None] when the
   process is gone or /proc is unavailable. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> Some (float_of_int kb /. 1024.))
            else loop ()
      in
      loop ()

(* ------------------------------------------------------------------ *)
(* Core keepers                                                        *)

(* One lowest-priority (SCHED_IDLE) spinner per given core keeps the
   core from going idle. An idle virtual core is woken by the host,
   which takes from microseconds to milliseconds depending on the
   host's load, and every wake-up of a server or a pool domain would
   carry that delay. Any other thread preempts a spinner at once. The
   spinner is this executable run with [--spin]. Needs taskset(1) and
   chrt(1); without them no spinner starts. *)
let taskset = "/usr/bin/taskset"
let chrt = "/usr/bin/chrt"

(* The cores this process may run on (Cpus_allowed_list in
   /proc/self/status), in order; [] when unknown. *)
let allowed_cpus () =
  let parse list =
    String.split_on_char ',' (String.trim list)
    |> List.concat_map (fun range ->
           match String.split_on_char '-' range with
           | [ a ] -> [ int_of_string a ]
           | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (( + ) (int_of_string a))
           | _ -> [])
  in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> []
  | status -> (
      let prefix = "Cpus_allowed_list:" in
      match
        List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' status)
      with
      | None -> []
      | Some line -> (
          let value = String.sub line (String.length prefix) (String.length line - String.length prefix) in
          match parse value with cpus -> cpus | exception Failure _ -> []))

let start_spinners cores =
  if not (Sys.file_exists taskset && Sys.file_exists chrt) then []
  else begin
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
    List.map
      (fun core ->
        let argv =
          [| chrt; "-i"; "0"; taskset; "-c"; string_of_int core; Sys.executable_name; "--spin" |]
        in
        Unix.create_process argv.(0) argv null null null)
      cores
  end

let stop_spinners pids =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    pids

let with_spinners cores f =
  let pids = start_spinners cores in
  Fun.protect ~finally:(fun () -> stop_spinners pids) f
