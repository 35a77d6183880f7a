(* Snapshot/revert bit-identity of the resumable engine (Vm_state).

   Pausing, snapshotting and reverting must commute with execution: after
   [snapshot; run-to-end; revert; run-to-end], the replayed suffix has to
   reproduce the first completion exactly — outcome, instruction count,
   outputs, encoder packet bytes, branch-outcome sequence, final store
   contents and the VM metric counters — and both must equal an
   uninterrupted straight-line run.  Checked on the running example and on the random-program
   generator shared with the lowered-VM differential. *)

module Prog = Er_ir.Prog
module Interp = Er_vm.Interp
module Vs = Er_vm.Vm_state

type obs = {
  ob_outcome : string;
  ob_instrs : int;
  ob_outputs : int64 list;
  ob_trace : string;          (* finished encoder packet bytes *)
  ob_bits : bool list;        (* conditional-branch outcome sequence *)
  ob_mem : (int * bool * int64 list) list;  (* final store: id, freed, cells *)
  ob_metrics : int list;      (* the thirteen VM counters *)
}

let vm_metric_values () = List.map Er_metrics.counter_value Vs.vm_counters

let outcome_str = function
  | Vs.Finished None -> "finished"
  | Vs.Finished (Some v) -> Printf.sprintf "finished %Ld" v
  | Vs.Failed f -> "failed: " ^ Er_vm.Failure.to_string f

(* identical modulo the process-global metric counters (which only
   compare within one revert cycle, not across separate runs) *)
let same_core a b =
  String.equal a.ob_outcome b.ob_outcome
  && a.ob_instrs = b.ob_instrs
  && a.ob_outputs = b.ob_outputs
  && String.equal a.ob_trace b.ob_trace
  && a.ob_bits = b.ob_bits
  && a.ob_mem = b.ob_mem

let same_full a b = same_core a b && a.ob_metrics = b.ob_metrics

let check_same name a b =
  Alcotest.(check string) (name ^ ": outcome") a.ob_outcome b.ob_outcome;
  Alcotest.(check int) (name ^ ": instrs") a.ob_instrs b.ob_instrs;
  Alcotest.(check (list int64)) (name ^ ": outputs") a.ob_outputs b.ob_outputs;
  Alcotest.(check string) (name ^ ": packet bytes") a.ob_trace b.ob_trace;
  Alcotest.(check (list bool)) (name ^ ": branch bits") a.ob_bits b.ob_bits;
  Alcotest.(check bool) (name ^ ": final store") true (a.ob_mem = b.ob_mem)

(* fresh encoder + branch-bit recorder wired into a VM config *)
let tracing_config seed =
  let enc = Er_trace.Encoder.create () in
  Er_trace.Encoder.start enc;
  let bits = ref [] in
  let hooks =
    Vs.compose_hooks
      { Interp.no_hooks with
        Interp.on_branch = Some (fun b -> bits := b :: !bits) }
      (Vs.tracer_hooks enc)
  in
  let config = { Interp.default_config with Interp.sched_seed = seed; hooks } in
  (config, enc, bits)

(* every cell of every object, freed ones included *)
let mem_dump m =
  List.map
    (fun (id, size, _, freed) ->
       ( id, freed,
         List.init size (fun i -> Option.get (Er_vm.Memory.peek m ~obj:id ~index:i)) ))
    (Er_vm.Memory.objects m)

let obs_of enc bits (r : Vs.run_result) =
  {
    ob_outcome = outcome_str r.Vs.outcome;
    ob_instrs = r.Vs.instr_count;
    ob_outputs = r.Vs.outputs;
    ob_trace = Bytes.to_string (Er_trace.Encoder.finish enc);
    ob_bits = List.rev !bits;
    ob_mem = mem_dump r.Vs.final_mem;
    ob_metrics = vm_metric_values ();
  }

let run_straight program mk_inputs seed =
  let config, enc, bits = tracing_config seed in
  let r = Vs.run_program ~config (Prog.of_program program) (mk_inputs ()) in
  obs_of enc bits r

(* Pause at the first quantum boundary at clock >= k, snapshot the VM and
   the encoder, finish the run, then rewind both and replay the suffix.
   [None] when the program finished before ever pausing. *)
let run_with_revert program mk_inputs seed k =
  let config, enc, bits = tracing_config seed in
  let prog = Prog.of_program program in
  let vm =
    Vs.create ~config ~plan:(Vs.empty_plan (Prog.lowered prog)) prog
      (mk_inputs ())
  in
  match Vs.run ~pause_at:k vm with
  | Some _ -> None
  | None ->
      let vck = Vs.snapshot vm in
      let eck = Er_trace.Encoder.checkpoint enc in
      let bits_at = !bits in
      let first = obs_of enc bits (Vs.run_to_end vm) in
      Vs.revert ~restore_metrics:true vm vck;
      if not (Er_trace.Encoder.revert enc eck) then
        Alcotest.fail "encoder refused its own checkpoint";
      bits := bits_at;
      let second = obs_of enc bits (Vs.run_to_end vm) in
      Some (first, second)

(* metric rewinding only bites when the registry counts *)
let with_vm_metrics f =
  let reg = Er_metrics.default in
  let was = Er_metrics.enabled reg in
  Er_metrics.set_enabled reg true;
  Fun.protect ~finally:(fun () -> Er_metrics.set_enabled reg was) f

(* --- deterministic case: the running example --------------------------- *)

let test_fig3_revert_identical () =
  with_vm_metrics (fun () ->
      let spec = Er_corpus.Registry.running_example in
      let mk () =
        fst (spec.Er_corpus.Bug.failing_workload ~occurrence:1)
      in
      let _, seed = spec.Er_corpus.Bug.failing_workload ~occurrence:1 in
      let straight = run_straight spec.Er_corpus.Bug.program mk seed in
      List.iter
        (fun k ->
           match run_with_revert spec.Er_corpus.Bug.program mk seed k with
           | None -> ()
           | Some (first, second) ->
               let name = Printf.sprintf "fig3 k=%d" k in
               check_same (name ^ " replay") first second;
               Alcotest.(check bool) (name ^ " metrics rewound") true
                 (first.ob_metrics = second.ob_metrics);
               check_same (name ^ " vs straight") straight first)
        [ 1; 5; 20 ])

(* --- randomized property ------------------------------------------------ *)

let qcheck_snapshot_revert =
  QCheck2.Test.make
    ~name:"snapshot/revert replay is bit-identical on random programs"
    ~count:120 Test_lower.gen_prog_and_inputs
    (fun (program, input_vals, seed) ->
       with_vm_metrics (fun () ->
           let mk () = Er_vm.Inputs.make [ ("s", input_vals) ] in
           let straight = run_straight program mk seed in
           List.for_all
             (fun k ->
                match run_with_revert program mk seed k with
                | None -> true
                | Some (first, second) ->
                    same_full first second && same_core straight first)
             [ 1; 4; 15 ]))

(* --- multi-checkpoint history ---------------------------------------------- *)

(* One mark in a run's history: VM and encoder checkpoints plus the
   branch bits recorded so far. *)
type mark = { m_vm : Vs.checkpoint; m_enc : Er_trace.Encoder.checkpoint;
              m_bits : bool list }

(* [~quantum:8] (the minimum, without jitter) makes the short generated
   programs pause several times. *)
let history_config ?quantum seed =
  let config, enc, bits = tracing_config seed in
  match quantum with
  | None -> (config, enc, bits)
  | Some q -> ({ config with Interp.quantum = q; quantum_jitter = 0 }, enc, bits)

(* Straight run, then the same run with a checkpoint at every quantum
   boundary and a branching history over them: revert to checkpoint
   [i], snapshot again right after the revert and one quantum later,
   finish; revert to the older checkpoint [j] and finish; revert to the
   post-revert checkpoint and finish.  Every completion must match the
   straight run.  [i] and [j] index the checkpoints modulo their count
   ([j] at or before [i]). *)
let history_matches ?quantum program mk_inputs seed (i, j) =
  let prog = Prog.of_program program in
  let straight =
    let config, enc, bits = history_config ?quantum seed in
    obs_of enc bits (Vs.run_program ~config prog (mk_inputs ()))
  in
  let config, enc, bits = history_config ?quantum seed in
  let vm =
    Vs.create ~config ~plan:(Vs.empty_plan (Prog.lowered prog)) prog
      (mk_inputs ())
  in
  let mark () =
    { m_vm = Vs.snapshot vm; m_enc = Er_trace.Encoder.checkpoint enc;
      m_bits = !bits }
  in
  let back m =
    Vs.revert vm m.m_vm;
    if not (Er_trace.Encoder.revert enc m.m_enc) then
      Alcotest.fail "encoder refused its own checkpoint";
    bits := m.m_bits
  in
  let finish () = obs_of enc bits (Vs.run_to_end vm) in
  let rec checkpoints acc =
    match Vs.run ~pause_at:(Vs.clock vm + 1) vm with
    | Some _ -> List.rev acc
    | None -> checkpoints (mark () :: acc)
  in
  let cks = Array.of_list (checkpoints [ mark () ]) in
  let first = finish () in
  let n = Array.length cks in
  let i = i mod n in
  let j = j mod (i + 1) in
  back cks.(i);
  let after_revert = mark () in
  (* may finish the run: a checkpoint of a finished run must replay its
     result *)
  ignore (Vs.run ~pause_at:(Vs.clock vm + 1) vm);
  let later = mark () in
  let second = finish () in
  back cks.(j);
  let third = finish () in
  back later;
  let fourth = finish () in
  back after_revert;
  let fifth = finish () in
  List.for_all (same_core straight) [ first; second; third; fourth; fifth ]

let qcheck_history =
  QCheck2.Test.make
    ~name:"revert across a multi-checkpoint history matches the straight run"
    ~count:150
    QCheck2.Gen.(pair Test_lower.gen_prog_and_inputs (pair nat nat))
    (fun ((program, input_vals, seed), picks) ->
       let mk () = Er_vm.Inputs.make [ ("s", input_vals) ] in
       history_matches ~quantum:8 program mk seed picks)

(* The same history over corpus performance runs at the default quanta:
   sqlite-4e8e485 ends with 1,805 objects, nearly all live; nasm-2004-1287
   allocates and frees 751. *)
let test_corpus_history () =
  List.iter
    (fun name ->
       let spec = Option.get (Er_corpus.Registry.find name) in
       let mk = spec.Er_corpus.Bug.perf_inputs in
       List.iter
         (fun picks ->
            Alcotest.(check bool)
              (Printf.sprintf "%s history (%d, %d)" name (fst picks) (snd picks))
              true
              (history_matches spec.Er_corpus.Bug.program mk 0 picks))
         [ (3, 1); (700, 350); (5000, 4999) ])
    [ "sqlite-4e8e485"; "nasm-2004-1287" ]

(* --- snapshot cost ---------------------------------------------------------- *)

(* A snapshot folds only what changed since the previous one: after one
   store, its allocation must not grow with the number of live
   objects. *)
let snapshot_words ~objects =
  let m = Er_vm.Memory.create () in
  let ptrs =
    Array.init objects (fun _ ->
        Option.get
          (Er_vm.Memory.alloc m ~elt_ty:Er_ir.Types.I64 ~size:4 ~heap:true))
  in
  ignore (Er_vm.Memory.snapshot m);
  Er_vm.Memory.store_exn m ptrs.(objects / 2) ~ty:Er_ir.Types.I64 7L;
  let w0 = Gc.minor_words () in
  let ck = Er_vm.Memory.snapshot m in
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity ck);
  words

(* Freed objects leave the shared tables, so reverting to a checkpoint
   taken after mass frees restores only what was live then. *)
let revert_words_after_frees ~objects =
  let m = Er_vm.Memory.create () in
  let ptrs =
    Array.init objects (fun _ ->
        Option.get
          (Er_vm.Memory.alloc m ~elt_ty:Er_ir.Types.I64 ~size:4 ~heap:true))
  in
  ignore (Er_vm.Memory.snapshot m);
  Array.iter (fun p -> Result.get_ok (Er_vm.Memory.free m p)) ptrs;
  let ck = Er_vm.Memory.snapshot m in
  ignore (Er_vm.Memory.alloc m ~elt_ty:Er_ir.Types.I64 ~size:4 ~heap:true);
  let w0 = Gc.minor_words () in
  Er_vm.Memory.revert m ck;
  Gc.minor_words () -. w0

(* The bound covers the persistent map's logarithmic path, not the
   object count: 1,000 objects folded in full take about 8,000 words. *)
let test_snapshot_cost_bounded () =
  List.iter
    (fun objects ->
       let words = snapshot_words ~objects in
       if words > 256. then
         Alcotest.failf "snapshot after one store over %d objects: %.0f words"
           objects words;
       let words = revert_words_after_frees ~objects in
       if words > 256. then
         Alcotest.failf "revert after freeing all %d objects: %.0f words"
           objects words)
    [ 10; 1_000; 10_000 ]

let suites =
  [
    ( "vm-state",
      [
        Alcotest.test_case "fig3 snapshot/revert replay identical" `Quick
          test_fig3_revert_identical;
        QCheck_alcotest.to_alcotest qcheck_snapshot_revert;
        QCheck_alcotest.to_alcotest qcheck_history;
        Alcotest.test_case "corpus multi-checkpoint history" `Quick
          test_corpus_history;
        Alcotest.test_case "snapshot allocation bounded by changes" `Quick
          test_snapshot_cost_bounded;
      ] );
  ]
