(* Always-on recording: a bug's performance inputs run untraced through
   [Interp.run], then traced through [Pipeline.Default_tracer.capture]
   carrying the recording points its set-up reconstruction selected —
   the pipeline's production path, hooks and plan included.

   [capture] reports nothing about the trace of a run that does not
   fail, and performance inputs never fail, so a third run replays the
   tracer's hook set and plan over [Vm_state] into a bench-owned
   encoder: that run is where trace volume and decode time are
   measured, and it takes no part in the overhead arithmetic. *)

open Erbench_lib
module P = Er_core.Pipeline
module Vs = Er_vm.Vm_state
module Enc = Er_trace.Encoder

type obs = {
  instrs : int;
  untraced_s : float;
  traced_s : float;
  bytes : int;
  ok : bool;          (* same instructions and outcome; ring decodes *)
}

let hooks enc =
  { Er_vm.Interp.no_hooks with
    Er_vm.Interp.on_branch = Some (fun b -> Enc.branch enc b);
    on_switch = Some (fun ~tid ~clock -> Enc.thread_switch enc ~tid ~clock);
    on_ptwrite = Some (fun v -> Enc.ptwrite enc v);
    on_alloc = Some (fun v -> Enc.ptwrite enc v) }

let run_bug ?parent (b : Setup.bug) =
  Spans.with_span ?parent ("record:" ^ b.Setup.spec.Er_corpus.Bug.name)
  @@ fun () ->
  let spec = b.Setup.spec in
  let config = spec.Er_corpus.Bug.config in
  let sched_seed = config.P.vm_config.Er_vm.Interp.sched_seed in
  let inputs = spec.Er_corpus.Bug.perf_inputs () in
  let u, untraced_s =
    Clock.time (fun () ->
        Spans.with_span "vm.untraced" (fun () ->
            Er_vm.Interp.run ~config:config.P.vm_config b.Setup.prog inputs))
  in
  let session = P.Default_tracer.start ~config ~base_prog:b.Setup.prog in
  let forward =
    Er_select.Instrument.forward spec.Er_corpus.Bug.program b.Setup.points
  in
  let (outcome, _), traced_s =
    Clock.time (fun () ->
        Spans.with_span "vm.traced" (fun () ->
            P.Default_tracer.capture ~session ~config ~points:b.Setup.points
              ~forward ~tracked:None ~inputs ~sched_seed))
  in
  let traced_instrs =
    (P.Default_tracer.stats session).P.ck_executed_instrs
  in
  (* the replay for trace volume *)
  let enc = Enc.create ~ring_bytes:config.P.ring_bytes () in
  Enc.start enc;
  let vm =
    Vs.create
      ~config:{ config.P.vm_config with Er_vm.Interp.sched_seed;
                hooks = hooks enc }
      ~plan:(Vs.plan_of_points (Er_ir.Prog.lowered b.Setup.prog)
               b.Setup.points)
      b.Setup.prog inputs
  in
  let e = Spans.with_span "trace.encode" (fun () -> Vs.run_to_end vm) in
  let raw = Enc.finish enc in
  let st = Enc.stats enc in
  let decoded =
    Spans.with_span "trace.decode" (fun () -> Er_trace.Decoder.decode raw)
  in
  let same_outcome =
    match (u.Er_vm.Interp.outcome, outcome) with
    | Er_vm.Interp.Finished _, P.No_failure -> true
    | Er_vm.Interp.Failed _, (P.Captured _ | P.Different_failure) -> true
    | _ -> false
  in
  let instrs = u.Er_vm.Interp.instr_count in
  let ok =
    same_outcome && traced_instrs = instrs
    && e.Er_vm.Interp.instr_count = instrs
    && Result.is_ok decoded
  in
  Tally.addi "vm.instrs" instrs;
  Tally.addi "trace.bytes" (Bytes.length raw);
  Tally.addi "trace.packets" st.Enc.packets;
  Tally.addi "trace.ptwrites" st.Enc.ptwrites;
  Tally.addi "trace.ring_overwritten" (Enc.overwritten enc);
  { instrs; untraced_s; traced_s; bytes = Bytes.length raw; ok }

(* One record pass: its runs' totals.  Each pass's figures are ratios
   of totals over every run in it (tens of milliseconds of untraced
   time, long enough for the clock); the metrics are the median over
   passes, so one pass disturbed by the machine does not move them. *)
type pass = {
  mutable n : int;
  mutable failed : int;
  mutable instrs : float;
  mutable untraced : float;
  mutable traced : float;
  mutable tbytes : float;
  mutable latencies : float list;  (* traced run walls *)
}

let pass () =
  { n = 0; failed = 0; instrs = 0.; untraced = 0.; traced = 0.; tbytes = 0.;
    latencies = [] }

let add t (o : obs) =
  t.n <- t.n + 1;
  if not o.ok then t.failed <- t.failed + 1;
  t.instrs <- t.instrs +. float_of_int o.instrs;
  t.untraced <- t.untraced +. o.untraced_s;
  t.traced <- t.traced +. o.traced_s;
  t.latencies <- o.traced_s :: t.latencies;
  t.tbytes <- t.tbytes +. float_of_int o.bytes

(* Keep only the share [held] of a pass's times: the share of the
   pass during which its domains held their CPUs. *)
let scale t held =
  t.untraced <- t.untraced *. held;
  t.traced <- t.traced *. held;
  t.latencies <- List.map (fun l -> l *. held) t.latencies

(* A pass over [bugs], [reps] times each in order, on this domain. *)
let run_pass ?(reps = 1) bugs =
  let t = pass () in
  let (), _, held =
    Clock.measure (fun () ->
        for _ = 1 to reps do
          List.iter (fun b -> add t (run_bug b)) bugs
        done)
  in
  scale t held;
  t

(* The record pass other workloads run after each round, in a seeded
   order: it feeds only the four recording metrics, so it records no
   spans and adds to no per-layer counter. *)
let probe ?reps bugs rng =
  let spans = Spans.is_enabled () in
  Spans.set_enabled false;
  Tally.suspend (fun () ->
      Fun.protect ~finally:(fun () -> Spans.set_enabled spans) (fun () ->
          run_pass ?reps (Ctx.shuffle rng bugs)))

let attempted passes = List.fold_left (fun a t -> a + t.n) 0 passes
let failed passes = List.fold_left (fun a t -> a + t.failed) 0 passes

(* The four recording metrics.  Overhead is summed traced time against
   summed untraced time within a pass, never an average of per-run
   ratios. *)
let metrics passes =
  let med f = Stats.median (List.map f passes) in
  let minstr t = t.instrs /. 1e6 in
  [ ("untraced_mips", med (fun t -> Stats.ratio (minstr t) t.untraced));
    ("traced_mips", med (fun t -> Stats.ratio (minstr t) t.traced));
    ( "overhead_pct",
      med (fun t -> Stats.overhead_pct ~traced:t.traced ~untraced:t.untraced) );
    ("trace_bytes_per_minstr", med (fun t -> Stats.ratio t.tbytes (minstr t))) ]
