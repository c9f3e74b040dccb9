(* Self-tests of the harness statistics. They run at the start of
   every benchmark run (a wrong percentile would make every figure
   wrong). Expected values are worked by
   hand or match Python's [statistics.quantiles]. *)

let failures = ref []

let check name ok = if not ok then failures := name :: !failures

let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1. (Float.abs b)

let run () =
  failures := [];
  let open Harness in
  let ten = Array.init 10 (fun i -> float_of_int (10 - i)) in
  (* Nearest rank: ceil(p/100 * n), 1-based. *)
  check "p50 of 1..10" (percentile ten 50. = 5.);
  check "p90 of 1..10" (percentile ten 90. = 9.);
  check "p91 of 1..10" (percentile ten 91. = 10.);
  check "p100 of 1..10" (percentile ten 100. = 10.);
  check "p1 of 1..10" (percentile ten 1. = 1.);
  check "p99 of 1 sample" (percentile [| 7. |] 99. = 7.);
  let thousand = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  check "p99 of 1..1000" (percentile thousand 99. = 990.);
  check "rank p99 n=1000" (rank ~n:1000 99. = 990);
  check "rank p99.9 n=1000" (rank ~n:1000 99.9 = 999);
  (* The 10-samples-beyond rule. *)
  check "p99 resolved at n=1000" (resolved ~n:1000 99.);
  check "p99 unresolved at n=999" (not (resolved ~n:999 99.));
  check "p50 resolved at n=20" (resolved ~n:20 50.);
  check "p50 unresolved at n=19" (not (resolved ~n:19 50.));
  check "beyond p90 n=100" (beyond ~n:100 90. = 10);
  (* Quartiles, as statistics.quantiles(range(1, 11), n=4) gives
     [2.75, 5.5, 8.25] and quantiles([1, 2, 3, 4], n=4) gives
     [1.25, 2.5, 3.75]. *)
  let q1, q2, q3 = quartiles ten in
  check "q1 of 1..10" (close q1 2.75);
  check "q2 of 1..10" (close q2 5.5);
  check "q3 of 1..10" (close q3 8.25);
  let q1, q2, q3 = quartiles [| 4.; 1.; 3.; 2. |] in
  check "quartiles of 1..4" (close q1 1.25 && close q2 2.5 && close q3 3.75);
  (* Two samples extrapolate, as in Python: [0.0, 3.0, 6.0]. *)
  let q1, q2, q3 = quartiles [| 5.; 1. |] in
  check "quartiles of 2 samples" (close q1 0. && close q2 3. && close q3 6.);
  check "median even" (median [| 4.; 1.; 3.; 2. |] = 2.5);
  check "median odd" (median [| 9.; 1.; 3. |] = 3.);
  (* Backlog detection. *)
  let steps f = Array.init 100 (fun i -> (float_of_int i *. 0.01, f i)) in
  check "flat backlog passes" (not (backlog_grows ~slack:8. (steps (fun _ -> 5))));
  check "noisy flat backlog passes"
    (not (backlog_grows ~slack:8. (steps (fun i -> 3 + ((i * 7) mod 5)))));
  check "climbing backlog fails" (backlog_grows ~slack:8. (steps (fun i -> i / 4)));
  check "short climb within slack passes"
    (not (backlog_grows ~slack:40. (steps (fun i -> i / 4))));
  check "draining backlog passes" (not (backlog_grows ~slack:1. (steps (fun i -> 100 - i))));
  check "too few samples pass" (not (backlog_grows ~slack:0. [| (0., 0); (1., 9) |]));
  check "a backlog that jumps and drains again passes"
    (not
       (backlog_grows ~slack:8.
          (steps (fun i -> if i >= 80 && i < 90 then 5 + (10 * (90 - i)) else 5))));
  (* Result line: numbers keep all their digits. *)
  check "json keeps digits" (json_number 0.1 = "0.10000000000000001");
  check "json integers" (json_number 12. = "12");
  List.rev !failures

let report () =
  match run () with
  | [] -> true
  | failed ->
      List.iter (fun name -> Printf.eprintf "perfbench self-test failed: %s\n%!" name) failed;
      false
