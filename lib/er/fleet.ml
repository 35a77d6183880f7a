(* Domain-parallel fleet execution.

   ER's iterate-until-reproduced loop is embarrassingly parallel across
   failures: each corpus bug reconstructs independently.  This module is
   the batch face of the job API: it wraps each corpus bug in a
   {!Job.Thunk}, submits the lot to a {!Scheduler} pool under one
   anonymous tenant, awaits the handles in submission order and renders
   the familiar fleet report.  Per-job crash isolation (an exception
   in one bug's reconstruction becomes a structured [Worker_crashed]
   row, not a fleet abort) now lives in {!Job.execute}.

   Determinism contract: [run ~jobs:8] produces the same per-bug
   iteration counts, solver costs and recorded-value sets as
   [run ~jobs:1].  Three mechanisms carry it:

     - every job body runs inside {!Er_smt.Solver.in_fresh_space} (see
       {!Job.execute}), so the interning order each bug observes — and
       the id-order-dependent solver trajectory downstream — is
       independent of what other domains intern concurrently;
     - the solver result cache is sharded by interning space
       ({!Er_smt.Solver}), so a bug's cache hits depend only on its own
       query sequence, never on which bugs happened to run before it;
     - handle completion is published by the job's own mutex/condvar
       (a happens-before edge on [await]), and rows are reported in
       submission order regardless of completion order.

   Only wall-clock fields ([row_wall], [wall], [cpu]) and the executing
   worker index vary between runs; [report_to_json_value ~normalize:true]
   strips exactly those, which is what the CI fleet-determinism gate
   diffs. *)

type job = {
  job_name : string;
  job_run : unit -> Pipeline.result;
  (* request config of the job: {!Job.execute} reads cache_dir from it
     to bind the persistent solver store; the budgets the thunk actually
     uses are bound inside [job_run] *)
  job_config : Job.Config.t;
}

type outcome =
  | Finished of Pipeline.result
  | Worker_crashed of { exn : string; backtrace : string }

type row = {
  row_name : string;
  row_outcome : outcome;
  row_worker : int;  (* index of the worker that executed the job *)
  row_wall : float;  (* wall-clock seconds the job took *)
}

type report = {
  rows : row list;  (* submission order, not completion order *)
  jobs : int;       (* workers actually used *)
  wall : float;     (* fleet wall clock, spawn to last join *)
  cpu : float;      (* sum of per-job walls: the sequential-equivalent time *)
}

(* The share of the workers' wall time spent inside jobs: 1.0 when every
   worker is busy from spawn to last join.  The sum of job walls over
   fleet wall is the parallel work done, not a speedup; a speedup needs
   a second run to compare against (the bench's [-j 1] trial). *)
let efficiency r =
  if r.wall > 0. then r.cpu /. (r.wall *. float_of_int r.jobs) else 1.

(* ---------------------------------------------------------------- *)
(* Batch execution over the scheduler                                 *)
(* ---------------------------------------------------------------- *)

let run ?jobs (js : job list) : report =
  let requested =
    match jobs with Some n -> n | None -> Domain.recommended_domain_count ()
  in
  let nworkers = max 1 (min requested (List.length js)) in
  let t0 = Er_metrics.default_clock () in
  let sched = Scheduler.create ~workers:nworkers () in
  let handles =
    List.map
      (fun j ->
         let h =
           Job.create
             {
               Job.tenant = "fleet";
               work = Job.Thunk { name = j.job_name; run = j.job_run };
               config = j.job_config;
             }
         in
         (* the queue bound is a service concern; a batch run submits a
            known, finite corpus, so a refusal here is a programming
            error, not backpressure *)
         (match Scheduler.submit sched h with
         | Ok () -> ()
         | Error _ -> invalid_arg "Fleet.run: scheduler refused a job");
         h)
      js
  in
  let rows =
    List.map
      (fun h ->
         let outcome =
           match Job.await h with
           | Job.Finished r -> Finished r
           | Job.Crashed { exn; backtrace } -> Worker_crashed { exn; backtrace }
           | Job.Cancelled _ ->
               (* nothing cancels batch jobs; keep the row total *)
               assert false
         in
         {
           row_name = Job.name h;
           row_outcome = outcome;
           row_worker = (match Job.worker h with Some w -> w | None -> 0);
           row_wall = Job.wall h;
         })
      handles
  in
  Scheduler.shutdown sched;
  let wall = Er_metrics.default_clock () -. t0 in
  let cpu = List.fold_left (fun a r -> a +. r.row_wall) 0. rows in
  { rows; jobs = nworkers; wall; cpu }

(* ---------------------------------------------------------------- *)
(* JSON rendering                                                    *)
(* ---------------------------------------------------------------- *)

(* Wall-clock fields inside a pipeline result; everything else in the
   result JSON is deterministic across [jobs] settings. *)
let time_fields =
  [ "total_symex_time"; "trace_time"; "symex_time"; "selection_time";
    "verify_time" ]

let rec normalize_json (j : Json.t) : Json.t =
  match j with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
              if List.mem k time_fields then (k, Json.Float 0.)
              else (k, normalize_json v))
           fields)
  | Json.List l -> Json.List (List.map normalize_json l)
  | j -> j

let row_to_json ~normalize (r : row) : Json.t =
  let open Json in
  let timing =
    if normalize then []
    else [ ("worker", Int r.row_worker); ("wall", Float r.row_wall) ]
  in
  let fields =
    match r.row_outcome with
    | Finished res ->
        let res_json = Pipeline.result_to_json_value res in
        [ ("outcome", Str "finished");
          ("result", if normalize then normalize_json res_json else res_json) ]
    | Worker_crashed { exn; backtrace } ->
        ("outcome", Str "crashed") :: ("exn", Str exn)
        :: (if normalize then [] else [ ("backtrace", Str backtrace) ])
  in
  Obj ((("bug", Str r.row_name) :: fields) @ timing)

(* [~normalize:true] is the determinism view: per-bug content only, no
   wall clocks, no worker placement, no job count — the baseline fields
   are wall clocks, so the normalized schema omits them *by design*
   (documented in DESIGN.md "Domain-safety model"; consumers of the
   normalized view must not expect them).  Two reports from the same
   corpus at different [-j] must render byte-identically.
   [?baseline:(file, wall)] adds the committed sequential baseline the
   human table compares against; in the full view the three baseline
   keys are always present — explicit [null]s when no baseline was given
   (or the report's wall clock is unusable) — so downstream consumers
   can key on them unconditionally. *)
let report_to_json_value ?(normalize = false) ?baseline (r : report) :
    Json.t =
  let open Json in
  let rows = List (List.map (row_to_json ~normalize) r.rows) in
  if normalize then Obj [ ("rows", rows) ]
  else
    let baseline_fields =
      match baseline with
      | Some (file, base_wall) when r.wall > 0. ->
          [ ("baseline_file", Str file);
            ("baseline_wall", Float base_wall);
            ("baseline_speedup", Float (base_wall /. r.wall)) ]
      | Some _ | None ->
          [ ("baseline_file", Null); ("baseline_wall", Null);
            ("baseline_speedup", Null) ]
    in
    Obj
      ([ ("jobs", Int r.jobs); ("wall", Float r.wall); ("cpu", Float r.cpu);
         ("efficiency", Float (efficiency r)); ("rows", rows) ]
       @ baseline_fields)

let report_to_json ?normalize ?baseline r =
  Json.to_string (report_to_json_value ?normalize ?baseline r)
