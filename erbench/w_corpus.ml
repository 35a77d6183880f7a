(* corpus-cold: the 13 Table 1 bugs through the batch [Fleet.run] path
   with no solver store, passes alternating 1 and 2 workers, in a seeded
   submission order.  After each pass, one record pass over the corpus
   supplies the recording metrics. *)

open Erbench_lib

let expected_cost = 204_036

(* End-to-end and scheduler values of a list of batch passes, each
   paired with whether its solver-cost check held.  End-to-end times
   are the time the work held its CPUs (see [Clock.held]). *)
let batch_values (passes : (Batch.pass * bool) list) =
  let held (p : Batch.pass) = p.Batch.wall *. p.Batch.held in
  let jobs = List.concat_map (fun (p, _) -> p.Batch.jobs) passes in
  let good = List.concat_map
      (fun ((p : Batch.pass), cost_ok) ->
         List.filter (fun j -> cost_ok && j.Batch.ok) p.Batch.jobs)
      passes
  in
  let walls w =
    List.filter_map
      (fun ((p : Batch.pass), _) ->
         if p.Batch.workers = w then Some (held p) else None)
      passes
  in
  (* latency is what one job takes when it has the machine to itself:
     jobs of 2-worker passes share it, and their cost shows in
     corpus_wall_j2_s *)
  let latencies =
    List.concat_map
      (fun ((p : Batch.pass), _) ->
         if p.Batch.workers = 1 then
           List.map
             (fun j -> (j.Batch.stop -. j.Batch.start) *. p.Batch.held)
             p.Batch.jobs
         else [])
      passes
  in
  let occurrences = List.fold_left (fun a j -> a + j.Batch.occurrences) 0 good in
  let n = List.length passes in
  let per v = Stats.ratio v (float_of_int n) in
  let ps = List.map fst passes in
  let p50 = Stats.percentile 50. latencies in
  let p90 = Stats.percentile 90. latencies in
  Printf.printf "latency: p50 %.4fs p90 %.4fs over %d jobs (%d beyond p90)\n"
    p50.Stats.value p90.Stats.value p90.Stats.samples
    (Stats.beyond 90. latencies);
  ( List.length jobs,
    List.length jobs - List.length good,
    [ ("corpus_wall_j1_s", Stats.median (walls 1));
      ("corpus_wall_j2_s", Stats.median (walls 2));
      ( "reconstructions_per_s",
        Stats.ratio (float_of_int (List.length jobs))
          (Stats.sum (List.map held ps)) );
      ("latency_p50_s", p50.Stats.value);
      ("latency_p90_s", p90.Stats.value);
      ( "reproduced_frac",
        Stats.ratio (float_of_int (List.length good))
          (float_of_int (List.length jobs)) );
      ( "occurrences_per_reproduction",
        Stats.ratio (float_of_int occurrences)
          (float_of_int (List.length good)) );
      ( "scheduler.queue_wait_p50_s",
        (Stats.percentile 50. (List.concat_map (fun p -> p.Batch.queue_waits) ps))
          .Stats.value );
      ("scheduler.busy_s", per (Stats.sum (List.map Batch.busy ps)));
      ( "scheduler.parallel_efficiency",
        Stats.median
          (List.map
             (fun p ->
                Stats.parallel_efficiency ~busy:(Batch.busy p)
                  ~workers:p.Batch.workers ~wall:p.Batch.wall)
             ps) );
      ("scheduler.long_pole_s", Stats.median (List.map Batch.long_pole ps)) ] )

(* The batch workload shape shared with longtrace: after set-up, rounds
   of one [Fleet.run] pass, alternating 1 and 2 workers, each followed
   by a record pass over the same bugs ([record_reps] times each).  One
   round per worker count runs unmeasured first. *)
let run_batch (c : Ctx.t) ~specs ~pass ~pass_ok ~record_reps =
  let setup = Setup.run ~reps:3 specs in
  let rng = Random.State.make [| c.Ctx.seed |] in
  let passes = ref [] and walls = ref [] and records = ref [] in
  let round ~measured i =
    let workers = if i mod 2 = 0 then 1 else 2 in
    let p = Batch.run ~workers (pass rng setup.Setup.bugs) in
    let r = Record.probe ~reps:record_reps setup.Setup.bugs rng in
    if measured then begin
      passes := (p, pass_ok p) :: !passes;
      walls := (workers, Ctx.spans_on c i, p.Batch.wall) :: !walls;
      records := r :: !records
    end
  in
  Ctx.warm 2 (round ~measured:false);
  let { Ctx.rounds; rss_mb; gc0; gc1 } =
    Ctx.loop c ~min:6 (round ~measured:true)
  in
  let jobs, failed, values = batch_values (List.rev !passes) in
  { Report.attempted = jobs + Record.attempted !records;
    failed = failed + Record.failed !records;
    values =
      [ ("setup_s", setup.Setup.setup_s); ("ir.lower_s", setup.Setup.lower_s);
        ("peak_rss_mb", rss_mb);
        ("tracing.overhead_pct", Report.tracing_overhead_pct !walls) ]
      @ values @ Record.metrics !records
      @ Report.layer_common ~rounds
          ~traced_rounds:
            (List.length (List.filter (fun (_, on, _) -> on) !walls))
          ~spans:(Spans.all ()) ~gc0 ~gc1 }

let run c =
  run_batch c ~specs:Er_corpus.Registry.table1 ~pass:Ctx.shuffle
    ~pass_ok:(fun p -> Batch.solver_cost p = expected_cost)
    ~record_reps:1
