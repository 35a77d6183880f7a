(* Tests for domain-parallel fleet execution (Er_core.Fleet) and the
   domain-safety work underneath it: the determinism contract between
   -j settings, per-bug crash isolation, and exact solver result-cache
   accounting when one shared cache is hammered from several domains. *)

module Fleet = Er_core.Fleet
module Job = Er_core.Job
module Pipeline = Er_core.Pipeline
module Events = Er_core.Events
module Json = Er_core.Json
module Bug = Er_corpus.Bug
module Registry = Er_corpus.Registry

(* A cheap corpus subset so the suite stays fast; names must exist. *)
let subset_names =
  [ "bash-108885"; "libpng-2004-0597"; "pbzip2"; "python-2018-1000030" ]

let subset () =
  List.map
    (fun n ->
       match Registry.find n with
       | Some s -> s
       | None -> Alcotest.failf "corpus bug %s disappeared" n)
    subset_names

let job_of_spec ?(events = Events.null) (s : Bug.spec) =
  {
    Fleet.job_name = s.Bug.name;
    job_run =
      (fun () ->
         Pipeline.run ~config:s.Bug.config ~events ~base_prog:s.Bug.program
           ~workload:s.Bug.failing_workload ());
    job_config = Job.Config.of_pipeline s.Bug.config;
  }

(* --- determinism: -j 1 and -j 4 agree byte for byte ----------------- *)

let test_determinism () =
  let norm jobs =
    let report = Fleet.run ~jobs (List.map job_of_spec (subset ())) in
    (* rows come back in submission order regardless of completion order *)
    Alcotest.(check (list string))
      "row order is submission order" subset_names
      (List.map (fun r -> r.Fleet.row_name) report.Fleet.rows);
    Fleet.report_to_json ~normalize:true report
  in
  let j1 = norm 1 and j4 = norm 4 in
  Alcotest.(check string) "normalized -j1 = -j4" j1 j4

(* --- crash isolation ------------------------------------------------ *)

(* A synthetic corpus bug whose workload raises while the pipeline is
   driving it: the fleet must report a structured [Worker_crashed] row
   for it and still complete every other bug.  Every job also writes
   into one shared job-tagged JSONL log (the same shape [er_cli fleet
   --events] produces, line-serialized under one mutex), and the log
   must come out complete and parseable despite the mid-run crash. *)
let test_crash_isolation () =
  let log = Buffer.create 4096 in
  let log_mutex = Mutex.create () in
  let tagged_sink name : Events.sink =
    fun e ->
      let line =
        match Events.to_json_value e with
        | Json.Obj fields ->
            Json.to_string (Json.Obj (("job", Json.Str name) :: fields))
        | j -> Json.to_string j
      in
      Mutex.lock log_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock log_mutex)
        (fun () ->
           Buffer.add_string log line;
           Buffer.add_char log '\n')
  in
  let good =
    List.map
      (fun s -> job_of_spec ~events:(tagged_sink s.Bug.name) s)
      (subset ())
  in
  let sick = Registry.running_example in
  let crashing =
    {
      Fleet.job_name = "synthetic-crasher";
      job_run =
        (fun () ->
           Pipeline.run ~config:sick.Bug.config
             ~events:(tagged_sink "synthetic-crasher")
             ~base_prog:sick.Bug.program
             ~workload:(fun ~occurrence:_ ->
               failwith "synthetic mid-reconstruction fault")
             ());
      job_config = Job.Config.of_pipeline sick.Bug.config;
    }
  in
  (* crasher in the middle, so healthy jobs surround it in every deque *)
  let jobs =
    match good with a :: rest -> a :: crashing :: rest | [] -> [ crashing ]
  in
  let report = Fleet.run ~jobs:4 jobs in
  let crashed, finished =
    List.partition
      (fun r ->
         match r.Fleet.row_outcome with
         | Fleet.Worker_crashed _ -> true
         | Fleet.Finished _ -> false)
      report.Fleet.rows
  in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (match crashed with
   | [ { Fleet.row_name = "synthetic-crasher"; row_outcome; _ } ] -> (
       match row_outcome with
       | Fleet.Worker_crashed { exn; _ } ->
           Alcotest.(check bool) "exception text preserved" true
             (contains ~sub:"synthetic" exn)
       | Fleet.Finished _ -> assert false)
   | rows ->
       Alcotest.failf "expected exactly the synthetic crash, got %d crashes"
         (List.length rows));
  Alcotest.(check int) "every other bug completed" (List.length good)
    (List.length finished);
  List.iter
    (fun r ->
       match r.Fleet.row_outcome with
       | Fleet.Finished res -> (
           match res.Pipeline.status with
           | Pipeline.Reproduced _ -> ()
           | Pipeline.Gave_up _ ->
               Alcotest.failf "%s should reproduce" r.Fleet.row_name)
       | Fleet.Worker_crashed _ -> assert false)
    finished;
  (* The event log survived the crash intact: every line parses back
     through [Events.of_json] with its job tag, every finished bug
     closed its stream with [Pipeline_finished], and the crasher got
     far enough to log something but never a finish marker. *)
  let lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Buffer.contents log))
  in
  let parsed =
    List.map
      (fun line ->
         let job =
           match Json.parse line with
           | Some j -> (
               match Option.bind (Json.member "job" j) Json.to_str with
               | Some name -> name
               | None -> Alcotest.failf "event line missing job tag: %s" line)
           | None -> Alcotest.failf "event line is not JSON: %s" line
         in
         match Events.of_json line with
         | Some e -> (job, e)
         | None -> Alcotest.failf "event line does not round-trip: %s" line)
      lines
  in
  let is_finish = function Events.Pipeline_finished _ -> true | _ -> false in
  List.iter
    (fun r ->
       Alcotest.(check bool)
         (r.Fleet.row_name ^ " logged pipeline_finished")
         true
         (List.exists
            (fun (job, e) -> job = r.Fleet.row_name && is_finish e)
            parsed))
    finished;
  let crasher_events =
    List.filter (fun (job, _) -> job = "synthetic-crasher") parsed
  in
  Alcotest.(check bool) "crasher emitted events before dying" true
    (crasher_events <> []);
  Alcotest.(check bool) "crasher never logged pipeline_finished" true
    (List.for_all (fun (_, e) -> not (is_finish e)) crasher_events)

(* --- concurrent access to one shared solver cache ------------------- *)

(* Four domains share one interning space (hence one result-cache
   shard) and fire sessions at it concurrently.  Exact accounting must
   survive: every nontrivial check is exactly one cache hit or one
   cache miss, both per session and in the atomic registry counters. *)
let concurrent_cache_prop picks =
  Er_smt.Solver.reset_cache ();
  let sp = Er_smt.Expr.create_space () in
  let pool =
    Er_smt.Expr.with_space sp (fun () ->
        let x = Er_smt.Expr.bv_var "cc_x" ~width:16 in
        Array.init 8 (fun i ->
            Er_smt.Expr.eq
              (Er_smt.Expr.urem x
                 (Er_smt.Expr.const ~width:16 (Int64.of_int (i + 2))))
              (Er_smt.Expr.const ~width:16 1L)))
  in
  let workloads = Array.make 4 [] in
  List.iteri
    (fun i pick -> workloads.(i mod 4) <- pick :: workloads.(i mod 4))
    picks;
  let registry = Er_metrics.default in
  Er_metrics.reset registry;
  Er_metrics.set_enabled registry true;
  let stats =
    Fun.protect
      ~finally:(fun () -> Er_metrics.set_enabled registry false)
      (fun () ->
        let hammer w () =
          Er_smt.Expr.with_space sp (fun () ->
              let s = Er_smt.Solver.Session.create () in
              List.iter
                (fun pick ->
                   Er_smt.Solver.Session.push s pool.(pick);
                   ignore (Er_smt.Solver.Session.check s);
                   Er_smt.Solver.Session.pop s)
                w;
              Er_smt.Solver.Session.cache_stats s)
        in
        let domains =
          Array.map (fun w -> Domain.spawn (hammer w)) workloads
        in
        Array.to_list (Array.map Domain.join domains))
  in
  let queries = List.length picks in
  let hits =
    List.fold_left
      (fun a s -> a + s.Er_smt.Solver.Session.cache_hits)
      0 stats
  and misses =
    List.fold_left
      (fun a s -> a + s.Er_smt.Solver.Session.cache_misses)
      0 stats
  in
  let session_exact =
    List.for_all2
      (fun s w ->
         s.Er_smt.Solver.Session.cache_hits
         + s.Er_smt.Solver.Session.cache_misses
         = List.length w)
      stats (Array.to_list workloads)
  in
  (* the registry counters saw the same traffic, with no torn updates *)
  let snap = Er_metrics.snapshot ~registry () in
  let m_hits =
    Er_metrics.Snapshot.counter_total snap "er_smt_session_cache_hits_total"
  and m_misses =
    Er_metrics.Snapshot.counter_total snap "er_smt_session_cache_misses_total"
  in
  session_exact && hits + misses = queries
  && m_hits = hits && m_misses = misses

let test_concurrent_cache =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:15
       ~name:"4 domains, one shared cache: hits+misses = queries"
       QCheck.(list_of_size Gen.(int_range 4 40) (int_range 0 7))
       concurrent_cache_prop)

(* --- resource and clock hygiene ---------------------------------------- *)

(* Each job's fresh interning space gets its own solver-cache shard; the
   job must release it on the way out, or a long-lived process keeps one
   shard per job forever. *)
let test_jobs_release_cache_shards () =
  let s = Registry.running_example in
  let before = Er_smt.Solver.cache_shards () in
  for _ = 1 to 20 do
    let j =
      Job.create
        {
          Job.tenant = "t";
          work =
            Job.Reconstruct
              { src_name = s.Bug.name; src_prog = s.Bug.program;
                src_workload = s.Bug.failing_workload };
          config = Job.Config.of_pipeline s.Bug.config;
        }
    in
    Job.execute j;
    match Job.await j with
    | Job.Finished _ -> ()
    | _ -> Alcotest.fail "job did not finish"
  done;
  Alcotest.(check int) "shards after 20 sequential jobs" before
    (Er_smt.Solver.cache_shards ())

(* Stage seconds are wall time: on two worker domains their sum over all
   bugs cannot exceed twice the fleet wall.  CPU seconds summed over the
   process would count both domains' work in every stage. *)
let test_stage_seconds_are_wall () =
  let report = Fleet.run ~jobs:2 (List.map job_of_spec (subset ())) in
  let stage_s =
    List.fold_left
      (fun acc (row : Fleet.row) ->
         match row.Fleet.row_outcome with
         | Fleet.Finished r ->
             List.fold_left
               (fun a (it : Pipeline.iteration) ->
                  a +. it.Pipeline.trace_time +. it.Pipeline.symex_time
                  +. it.Pipeline.selection_time +. it.Pipeline.verify_time)
               acc r.Pipeline.iterations
         | Fleet.Worker_crashed _ -> Alcotest.fail "worker crashed")
      0. report.Fleet.rows
  in
  Alcotest.(check bool)
    (Printf.sprintf "stage seconds %.3f <= 2 x fleet wall %.3f" stage_s
       report.Fleet.wall)
    true
    (stage_s <= 2. *. report.Fleet.wall)

let suites =
  [
    ( "fleet",
      [
        Alcotest.test_case "-j1 and -j4 normalized reports identical" `Slow
          test_determinism;
        Alcotest.test_case "worker crash isolates to its row" `Slow
          test_crash_isolation;
        test_concurrent_cache;
        Alcotest.test_case "20 sequential jobs release their cache shards"
          `Slow test_jobs_release_cache_shards;
        Alcotest.test_case "2-domain stage seconds within 2x fleet wall" `Slow
          test_stage_seconds_are_wall;
      ] );
  ]
