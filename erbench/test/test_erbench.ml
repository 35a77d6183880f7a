(* The benchmark's own arithmetic: percentiles with their sample counts,
   self time from nested spans, parallel efficiency, overhead and the
   share of an interval not stolen by the hypervisor. *)

open Erbench_lib

let close = Alcotest.float 1e-9

let percentile () =
  let xs = List.init 20 (fun i -> float_of_int (i + 1)) in
  let p50 = Stats.percentile 50. xs and p90 = Stats.percentile 90. xs in
  Alcotest.check close "p50 is the 10th of 20" 10. p50.Stats.value;
  Alcotest.check close "p90 is the 18th of 20" 18. p90.Stats.value;
  Alcotest.(check int) "sample count travels along" 20 p90.Stats.samples;
  Alcotest.(check int) "two samples beyond p90" 2 (Stats.beyond 90. xs);
  Alcotest.check close "unsorted input" 3.
    (Stats.percentile 50. [ 5.; 1.; 3.; 4.; 2. ]).Stats.value;
  let empty = Stats.percentile 90. [] in
  Alcotest.check close "empty reads 0" 0. empty.Stats.value;
  Alcotest.(check int) "with no samples" 0 empty.Stats.samples;
  Alcotest.check close "p100 is the maximum" 20.
    (Stats.percentile 100. xs).Stats.value

let median () =
  Alcotest.check close "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even: mean of the middle two" 2.5
    (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "empty" 0. (Stats.median [])

let span ~id ?(parent = -1) start stop =
  { Spans.id; name = Printf.sprintf "s%d" id; start; stop; parent; job = 0;
    domain = 0 }

let self_of spans id =
  snd (List.find (fun (s, _) -> s.Spans.id = id) (Spans.self_times spans))

let self_time () =
  (* root [0,10] with children [1,3] and [2,5] (overlapping: they ran on
     two domains) and [8,12] (outliving it); [1,3] has a child [1,2] *)
  let spans =
    [ span ~id:0 0. 10.; span ~id:1 ~parent:0 1. 3.;
      span ~id:2 ~parent:0 2. 5.; span ~id:3 ~parent:0 8. 12.;
      span ~id:4 ~parent:1 1. 2. ]
  in
  Alcotest.check close "root minus the union [1,5] + [8,10]" 4.
    (self_of spans 0);
  Alcotest.check close "child minus its own child" 1. (self_of spans 1);
  Alcotest.check close "leaf is its duration" 3. (self_of spans 2);
  Alcotest.check close "grandchild leaf" 1. (self_of spans 4);
  let by_name = Spans.self_by_name spans in
  Alcotest.check close "summed by name" 4. (Hashtbl.find by_name "s0")

let efficiency () =
  Alcotest.check close "3 busy s on 2 workers over 2 s" 0.75
    (Stats.parallel_efficiency ~busy:3. ~workers:2 ~wall:2.);
  Alcotest.check close "one worker always busy" 1.
    (Stats.parallel_efficiency ~busy:1.5 ~workers:1 ~wall:1.5);
  Alcotest.check close "zero wall reads 0" 0.
    (Stats.parallel_efficiency ~busy:1. ~workers:2 ~wall:0.)

let overhead () =
  Alcotest.check close "totals, not mean of ratios" 150.
    (Stats.overhead_pct ~traced:(1. +. 4.) ~untraced:(1. +. 1.));
  Alcotest.check close "no untraced time" 0.
    (Stats.overhead_pct ~traced:1. ~untraced:0.)

let held () =
  Alcotest.check close "0.5 s stolen over 2 s" 0.75
    (Clock.held ~wall:2. ~steal:0.5);
  Alcotest.check close "no steal" 1. (Clock.held ~wall:1. ~steal:0.);
  Alcotest.check close "empty interval" 1. (Clock.held ~wall:0. ~steal:0.1);
  Alcotest.check close "never negative" 0. (Clock.held ~wall:1. ~steal:3.)

let chrome_export () =
  Spans.reset ();
  Spans.set_enabled true;
  let v =
    Spans.with_span ~job:7 "outer" (fun () ->
        Spans.with_span "inner \"quoted\"" (fun () -> 42))
  in
  Spans.set_enabled false;
  Alcotest.(check int) "with_span returns the body's value" 42 v;
  let spans = Spans.all () in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let inner = List.find (fun s -> s.Spans.name <> "outer") spans in
  let outer = List.find (fun s -> s.Spans.name = "outer") spans in
  Alcotest.(check int) "inner's parent is outer" outer.Spans.id
    inner.Spans.parent;
  Alcotest.(check int) "inner inherits the job" 7 inner.Spans.job;
  let path = Filename.temp_file "spans" ".json" in
  Spans.write_chrome path spans;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Er_json.parse text with
  | None -> Alcotest.fail "trace-event file does not parse"
  | Some doc -> (
      match Option.bind (Er_json.member "traceEvents" doc) Er_json.to_list with
      | Some evs -> Alcotest.(check int) "both events written" 2 (List.length evs)
      | None -> Alcotest.fail "no traceEvents list")

let () =
  Alcotest.run "erbench"
    [ ( "arithmetic",
        [ Alcotest.test_case "percentile with sample count" `Quick percentile;
          Alcotest.test_case "median" `Quick median;
          Alcotest.test_case "self time of nested spans" `Quick self_time;
          Alcotest.test_case "parallel efficiency" `Quick efficiency;
          Alcotest.test_case "overhead over totals" `Quick overhead;
          Alcotest.test_case "share of time not stolen" `Quick held;
          Alcotest.test_case "chrome export parses" `Quick chrome_export ] ) ]
