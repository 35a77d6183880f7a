(** The concrete EIR runtime: failure detection, a coarse-chunk jittered
    thread scheduler, and tracing hooks.

    Two engines implement one semantics.  {!run} is the production path:
    it delegates to {!Vm_state}, whose block-fused threaded code executes
    every production run — untraced runs through its fast variant, hooked
    ones through its observed variant, which fires each hook where the
    reference does.  {!run_reference} is the tree-walking reference
    engine, kept in this module as the oracle; the differential suites in
    test/test_lower.ml enforce bit-for-bit agreement on every observable
    (the ordered calls of each hook, failure reports, outputs, metric
    totals).

    The hook, config and result types are defined in {!Vm_state} and
    re-exported here, so callers keep writing [Interp.run],
    [Interp.default_config], [Interp.no_hooks], ...  Retirement metrics
    and the shared evaluation helpers live in {!Vm_state} alone. *)

open Er_ir.Types

(** {1 Hooks and configuration} *)

type hooks = Vm_state.hooks = {
  on_branch : (bool -> unit) option;
  on_switch : (tid:int -> clock:int -> unit) option;
  on_ptwrite : (int64 -> unit) option;
  on_input : (stream:string -> value:int64 -> unit) option;
  on_store :
    (obj:int -> index:int -> old_value:int64 -> new_value:int64 -> unit) option;
  on_alloc : (int64 -> unit) option;
  on_def : (point -> reg:string -> value:int64 -> unit) option;
  on_enter : (func:string -> args:int64 list -> unit) option;
  on_ret : (func:string -> value:int64 option -> unit) option;
}

val no_hooks : hooks

(** Run two hook sets side by side (first argument first). *)
val compose_hooks : hooks -> hooks -> hooks

type config = Vm_state.config = {
  max_instrs : int;
  max_call_depth : int;
  quantum : int;
  quantum_jitter : int;
  sched_seed : int;
  hooks : hooks;
}

val default_config : config

(** {1 Results} *)

type outcome = Vm_state.outcome =
  | Finished of int64 option
  | Failed of Failure.t

type run_result = Vm_state.run_result = {
  outcome : outcome;
  instr_count : int;
  branch_count : int;
  outputs : int64 list;
  peak_mem_cells : int;
  final_mem : Memory.t;
}

type tstatus = Vm_state.tstatus =
  | Runnable
  | Blocked_lock of int64
  | Waiting_join
  | Done_t

type step = Vm_state.step =
  | Stepped
  | Stepped_free
  | Blocked
  | Thread_done
  | Program_done of int64 option

exception Crash of Failure.kind

(** {1 Execution} *)

(** The production engine: lowered dispatch over the code cache,
    resumable state ({!Vm_state}). *)
val run : ?config:config -> Er_ir.Prog.t -> Inputs.t -> run_result

(** The tree-walking reference engine. *)
val run_reference : ?config:config -> Er_ir.Prog.t -> Inputs.t -> run_result
