(* The pipeline rebuilt from outside: [Pipeline.Make] over thin wrappers
   of the four default stages.  Each wrapper times its call as a span
   and counts what the call did; the stage itself is the library's. *)

open Erbench_lib
module P = Er_core.Pipeline

module Tracer : P.TRACER with type session = P.Default_tracer.session =
struct
  module T = P.Default_tracer

  type session = T.session

  let start = T.start

  let capture ~session ~config ~points ~forward ~tracked ~inputs ~sched_seed
      =
    let before = T.stats session in
    let ((outcome, resumed) as r) =
      Spans.with_span "tracer" (fun () ->
          T.capture ~session ~config ~points ~forward ~tracked ~inputs
            ~sched_seed)
    in
    let after = T.stats session in
    Tally.incr "tracer.calls";
    (match outcome with
     | P.No_failure | P.Different_failure -> Tally.incr "tracer.skipped_runs"
     | P.Captured _ | P.Decode_failed _ -> ());
    if resumed <> None then Tally.incr "tracer.resumes";
    Tally.addi "tracer.saved_instrs"
      (after.P.ck_saved_instrs - before.P.ck_saved_instrs);
    Tally.addi "tracer.executed_instrs"
      (after.P.ck_executed_instrs - before.P.ck_executed_instrs);
    r

  let stats = T.stats
end

module Shepherd : P.SHEPHERD = struct
  let analyze ~config ~prog ~capture =
    let r =
      Spans.with_span "shepherd" (fun () ->
          P.Default_shepherd.analyze ~config ~prog ~capture)
    in
    Tally.incr "shepherd.calls";
    Tally.addi "shepherd.steps" r.Er_symex.Exec.steps;
    (match r.Er_symex.Exec.outcome with
     | Er_symex.Exec.Stalled _ -> Tally.incr "shepherd.stalls"
     | Er_symex.Exec.Complete _ | Er_symex.Exec.Diverged _ -> ());
    r
end

module Selector : P.SELECTOR = struct
  let select ~stall ~mapper ~existing =
    let s =
      Spans.with_span "selector" (fun () ->
          P.Default_selector.select ~stall ~mapper ~existing)
    in
    Tally.incr "selector.calls";
    Tally.addi "selector.points_added" (List.length s.P.sel_points);
    if s.P.sel_points <> [] then Tally.incr "selector.useful";
    s
end

module Verifier : P.VERIFIER = struct
  let verify ~solution ~base_prog ~testcase ~expected_failure
      ~expected_branches ~sched_seed =
    let v =
      Spans.with_span "verifier" (fun () ->
          P.Default_verifier.verify ~solution ~base_prog ~testcase
            ~expected_failure ~expected_branches ~sched_seed)
    in
    Tally.incr "verifier.calls";
    if v.Er_core.Verify.ok then Tally.incr "verifier.ok";
    v
end

include P.Make (Tracer) (Shepherd) (Selector) (Verifier)

(* Solver accounting of a finished reconstruction, from its
   [Symex_finished] events (the iterations derive from them). *)
let add_solver_counts (r : P.result) =
  List.iter
    (fun (it : P.iteration) ->
       Tally.addi "smt.queries" it.P.solver_calls;
       Tally.addi "smt.cost" it.P.solver_cost;
       Tally.addi "smt.cache_hits" it.P.cache_hits;
       Tally.addi "smt.cache_misses" it.P.cache_misses)
    r.P.iterations
