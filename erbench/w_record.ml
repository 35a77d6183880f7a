(* record: always-on production tracing.  Each round runs every Table 1
   bug's performance inputs untraced and traced, interleaved per bug, in
   a seeded order.  Every fourth round shares the bug list between two
   domains: it gives corpus_wall_j2_s, and its runs are checked but kept
   out of the recording totals, which two domains meeting at every
   stop-the-world minor collection would skew.  Latency is a traced production run's wall;
   the reconstruction numbers come from the set-up reconstructions that
   chose the recording points. *)

open Erbench_lib
module P = Er_core.Pipeline

(* Run [f] over [items] on [workers] domains pulling from one index. *)
let parallel_iter ~workers f items =
  let a = Array.of_list items in
  let next = Atomic.make 0 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length a then begin
      f a.(i);
      worker ()
    end
  in
  if workers <= 1 then worker ()
  else
    List.iter Domain.join
      (List.init workers (fun _ -> Domain.spawn worker))

(* The set-up reconstructions as the reconstruction numbers: a rate per
   set-up, and its median. *)
let setup_values (s : Setup.t) =
  let all = List.concat s.Setup.refs in
  let good = List.filter (fun (r, _) -> Setup.reproduced r) all in
  let occurrences =
    List.fold_left (fun a (r, _) -> a + r.P.occurrences) 0 good
  in
  let rate refs =
    Stats.ratio (float_of_int (List.length refs)) (Stats.sum (List.map snd refs))
  in
  ( List.length all,
    List.length all - List.length good,
    [ ("reconstructions_per_s", Stats.median (List.map rate s.Setup.refs));
      ( "reproduced_frac",
        Stats.ratio (float_of_int (List.length good))
          (float_of_int (List.length all)) );
      ( "occurrences_per_reproduction",
        Stats.ratio (float_of_int occurrences)
          (float_of_int (List.length good)) ) ] )

let run (c : Ctx.t) =
  let setup = Setup.run ~reps:3 Er_corpus.Registry.table1 in
  let rng = Random.State.make [| c.Ctx.seed |] in
  let passes = ref [] in
  let lock = Mutex.create () in
  let walls = ref [] and j2_runs = ref 0 and j2_failed = ref 0 in
  let round ~measured i =
    let workers = if i mod 4 = 3 then 2 else 1 in
    let order = Ctx.shuffle rng setup.Setup.bugs in
    let totals = Record.pass () in
    let (), wall, held =
      Clock.measure (fun () ->
          Spans.with_span "pass" (fun () ->
              let parent = Spans.current_id () in
              parallel_iter ~workers
                (fun b ->
                   let o = Record.run_bug ~parent b in
                   Mutex.lock lock;
                   if workers = 1 then Record.add totals o
                   else if measured then begin
                     incr j2_runs;
                     if not o.Record.ok then incr j2_failed
                   end;
                   Mutex.unlock lock)
                order))
    in
    if measured then begin
      Record.scale totals held;
      if workers = 1 then passes := totals :: !passes;
      walls := (workers, Ctx.spans_on c i, wall *. held) :: !walls
    end
  in
  Ctx.warm 4 (round ~measured:false);
  let { Ctx.rounds; rss_mb; gc0; gc1 } =
    Ctx.loop c ~min:8 (round ~measured:true)
  in
  let walls_of w =
    List.filter_map (fun (w', _, x) -> if w = w' then Some x else None) !walls
  in
  let n_refs, failed_refs, ref_values = setup_values setup in
  (* a production request's latency under always-on tracing *)
  let latencies = List.concat_map (fun p -> p.Record.latencies) !passes in
  let p50 = Stats.percentile 50. latencies
  and p90 = Stats.percentile 90. latencies in
  Printf.printf "latency: p50 %.5fs p90 %.5fs over %d traced runs (%d beyond p90)\n"
    p50.Stats.value p90.Stats.value p90.Stats.samples
    (Stats.beyond 90. latencies);
  { Report.attempted = Record.attempted !passes + !j2_runs + n_refs;
    failed = Record.failed !passes + !j2_failed + failed_refs;
    values =
      [ ("setup_s", setup.Setup.setup_s); ("ir.lower_s", setup.Setup.lower_s);
        ("corpus_wall_j1_s", Stats.median (walls_of 1));
        ("corpus_wall_j2_s", Stats.median (walls_of 2));
        ("peak_rss_mb", rss_mb);
        ("latency_p50_s", p50.Stats.value);
        ("latency_p90_s", p90.Stats.value);
        ("tracing.overhead_pct", Report.tracing_overhead_pct !walls) ]
      @ ref_values @ Record.metrics !passes
      @ Report.layer_common ~rounds
          ~traced_rounds:
            (List.length (List.filter (fun (_, on, _) -> on) !walls))
          ~spans:(Spans.all ()) ~gc0 ~gc1 }
