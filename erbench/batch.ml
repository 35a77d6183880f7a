(* One pass of a job list through the batch [Fleet.run] path, each job
   a thunk over the span-wrapped pipeline of {!Stages}.  The thunk's
   first instruction marks when the scheduler started it, so queue wait
   and busy time are measured from outside the scheduler. *)

open Erbench_lib
module P = Er_core.Pipeline
module Fleet = Er_core.Fleet

type job = {
  bug : Setup.bug;
  start : float;             (* thunk entry *)
  stop : float;              (* thunk exit *)
  occurrences : int;
  cost : int;                (* solver cost; 0 if the job crashed *)
  ok : bool;                 (* reproduced, and the report matches set-up *)
}

type pass = {
  workers : int;
  wall : float;              (* submission of the first job to the last join *)
  held : float;              (* share of [wall] the work held its CPUs *)
  queue_waits : float list;  (* submission to thunk entry, per job *)
  jobs : job list;
}

let job_ids = Atomic.make 0

let run ~workers (bugs : Setup.bug list) =
  let n = List.length bugs in
  let marks = Array.make n (0., 0.) in
  Spans.with_span "pass" @@ fun () ->
  let pass_id = Spans.current_id () in
  let t0 = Clock.now () in
  let fleet_jobs =
    List.mapi
      (fun i (b : Setup.bug) ->
         let spec = b.Setup.spec in
         let job = Atomic.fetch_and_add job_ids 1 in
         { Fleet.job_name = spec.Er_corpus.Bug.name;
           job_run =
             (fun () ->
                let start = Clock.now () in
                if Spans.is_enabled () then
                  ignore
                    (Spans.record ~parent:pass_id ~job "queue" ~start:t0
                       ~stop:start);
                let r =
                  Spans.with_span ~parent:pass_id ~job "job" (fun () ->
                      Stages.run ~config:spec.Er_corpus.Bug.config
                        ~base_prog:spec.Er_corpus.Bug.program
                        ~workload:spec.Er_corpus.Bug.failing_workload ())
                in
                marks.(i) <- (start, Clock.now ());
                r);
           job_config =
             Er_core.Job.Config.of_pipeline spec.Er_corpus.Bug.config })
      bugs
  in
  let s0 = Clock.steal () in
  let report = Fleet.run ~jobs:workers fleet_jobs in
  let wall = Clock.now () -. t0 in
  let held =
    Clock.held ~wall ~steal:(Clock.steal () -. s0)
  in
  let jobs =
    List.mapi
      (fun i ((b : Setup.bug), (row : Fleet.row)) ->
         let start, stop = marks.(i) in
         match row.Fleet.row_outcome with
         | Fleet.Finished r ->
             Stages.add_solver_counts r;
             { bug = b; start; stop; occurrences = r.P.occurrences;
               cost = Setup.solver_cost r;
               ok = Setup.reproduced r
                    && String.equal (Setup.payload r) b.Setup.payload }
         | Fleet.Worker_crashed _ ->
             { bug = b; start; stop; occurrences = 0; cost = 0; ok = false })
      (List.combine bugs report.Fleet.rows)
  in
  { workers = report.Fleet.jobs; wall; held;
    queue_waits = List.map (fun j -> j.start -. t0) jobs; jobs }

let solver_cost p = List.fold_left (fun a j -> a + j.cost) 0 p.jobs

let busy p = Stats.sum (List.map (fun j -> j.stop -. j.start) p.jobs)

let long_pole p =
  List.fold_left (fun m j -> Float.max m (j.stop -. j.start)) 0. p.jobs
