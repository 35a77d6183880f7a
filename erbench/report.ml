(* The metric catalogue and the one-line JSON result.  The names and
   units here are the ones BENCHMARK.json declares; a workload supplies
   values by name and anything it does not exercise reads 0. *)

open Erbench_lib

let end_to_end =
  [ ("setup_s", "s"); ("corpus_wall_j1_s", "s"); ("corpus_wall_j2_s", "s");
    ("reconstructions_per_s", "1/s"); ("latency_p50_s", "s");
    ("latency_p90_s", "s"); ("reproduced_frac", "ratio");
    ("occurrences_per_reproduction", "count"); ("untraced_mips", "Minstr/s");
    ("traced_mips", "Minstr/s"); ("overhead_pct", "%");
    ("trace_bytes_per_minstr", "B/Minstr"); ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("ir.lower_s", "s"); ("vm.instrs", "count"); ("vm.untraced_s", "s");
    ("vm.traced_s", "s"); ("trace.bytes", "B"); ("trace.packets", "count");
    ("trace.ptwrites", "count"); ("trace.ring_overwritten", "B");
    ("trace.decode_s", "s"); ("tracer.calls", "count"); ("tracer.s", "s");
    ("tracer.skipped_runs", "count"); ("tracer.resumes", "count");
    ("tracer.saved_instrs", "count"); ("tracer.executed_instrs", "count");
    ("shepherd.calls", "count"); ("shepherd.s", "s");
    ("shepherd.steps", "count"); ("shepherd.stalls", "count");
    ("smt.queries", "count"); ("smt.cost", "count");
    ("smt.cost_per_query", "count"); ("smt.cache_hit_ratio", "ratio");
    ("selector.calls", "count"); ("selector.s", "s");
    ("selector.points_added", "count"); ("selector.useful_ratio", "ratio");
    ("verifier.calls", "count"); ("verifier.s", "s");
    ("verifier.ok_ratio", "ratio"); ("pipeline.self_s", "s");
    ("scheduler.queue_wait_p50_s", "s"); ("scheduler.busy_s", "s");
    ("scheduler.parallel_efficiency", "ratio");
    ("scheduler.long_pole_s", "s"); ("server.queue_wait_p50_s", "s");
    ("server.rejected", "count"); ("persist.replay_ratio", "ratio");
    ("persist.journal_bytes", "B"); ("gc.minor_words", "words");
    ("gc.major_words", "words"); ("gc.major_collections", "count");
    ("tracing.overhead_pct", "%"); ("tracing.spans", "count") ]

type t = {
  attempted : int;
  failed : int;
  values : (string * float) list;  (* end-to-end and per-layer, by name *)
}

(* Per-layer values every workload derives the same way: [Tally] counts
   and span self times, both per round (one iteration of the workload's
   loop); seconds only over the rounds that recorded spans. *)
let layer_common ~rounds ~traced_rounds ~spans ~gc0 ~gc1 =
  let per v = Stats.ratio v (float_of_int rounds) in
  let self = Spans.self_by_name spans in
  let self_s name =
    Stats.ratio
      (Option.value (Hashtbl.find_opt self name) ~default:0.)
      (float_of_int traced_rounds)
  in
  let t = Tally.get in
  [ ("vm.instrs", per (t "vm.instrs"));
    ("vm.untraced_s", self_s "vm.untraced");
    ("vm.traced_s", self_s "vm.traced");
    ("trace.bytes", per (t "trace.bytes"));
    ("trace.packets", per (t "trace.packets"));
    ("trace.ptwrites", per (t "trace.ptwrites"));
    ("trace.ring_overwritten", per (t "trace.ring_overwritten"));
    ("trace.decode_s", self_s "trace.decode");
    ("tracer.calls", per (t "tracer.calls"));
    ("tracer.s", self_s "tracer");
    ("tracer.skipped_runs", per (t "tracer.skipped_runs"));
    ("tracer.resumes", per (t "tracer.resumes"));
    ("tracer.saved_instrs", per (t "tracer.saved_instrs"));
    ("tracer.executed_instrs", per (t "tracer.executed_instrs"));
    ("shepherd.calls", per (t "shepherd.calls"));
    ("shepherd.s", self_s "shepherd");
    ("shepherd.steps", per (t "shepherd.steps"));
    ("shepherd.stalls", per (t "shepherd.stalls"));
    ("smt.queries", per (t "smt.queries"));
    ("smt.cost", per (t "smt.cost"));
    ("smt.cost_per_query", Stats.ratio (t "smt.cost") (t "smt.queries"));
    ( "smt.cache_hit_ratio",
      Stats.ratio (t "smt.cache_hits")
        (t "smt.cache_hits" +. t "smt.cache_misses") );
    ("selector.calls", per (t "selector.calls"));
    ("selector.s", self_s "selector");
    ("selector.points_added", per (t "selector.points_added"));
    ("selector.useful_ratio",
     Stats.ratio (t "selector.useful") (t "selector.calls"));
    ("verifier.calls", per (t "verifier.calls"));
    ("verifier.s", self_s "verifier");
    ("verifier.ok_ratio", Stats.ratio (t "verifier.ok") (t "verifier.calls"));
    ("pipeline.self_s", self_s "job");
    ( "gc.minor_words",
      per (gc1.Gc.minor_words -. gc0.Gc.minor_words) );
    ("gc.major_words", per (gc1.Gc.major_words -. gc0.Gc.major_words));
    ( "gc.major_collections",
      per (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections))
    );
    ( "tracing.spans",
      Stats.ratio (float_of_int (List.length spans))
        (float_of_int traced_rounds) ) ]

(* 100 x (median spans-on wall / median spans-off wall - 1), averaged
   over the groups (e.g. 1- and 2-worker passes) that both sides have. *)
let tracing_overhead_pct (samples : (int * bool * float) list) =
  let groups = List.sort_uniq compare (List.map (fun (g, _, _) -> g) samples) in
  let pcts =
    List.filter_map
      (fun g ->
         let side on =
           List.filter_map
             (fun (g', on', w) -> if g' = g && on' = on then Some w else None)
             samples
         in
         match (side true, side false) with
         | [], _ | _, [] -> None
         | a, b ->
             Some (Stats.overhead_pct ~traced:(Stats.median a)
                     ~untraced:(Stats.median b)))
      groups
  in
  Stats.ratio (Stats.sum pcts) (float_of_int (List.length pcts))

let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json ~trace (r : t) =
  let catalogue = if trace then per_layer else end_to_end in
  let metric (name, unit) =
    let v = Option.value (List.assoc_opt name r.values) ~default:0. in
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
      (Spans.json_string name) (number v) (Spans.json_string unit)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " (List.map metric catalogue))
