(* A corpus entry: one miniature application with a production bug, its
   failing workload (what production traffic looks like when the failure
   fires) and its performance workload (the benchmark used to measure
   online tracing overhead, Fig. 6). *)

type spec = {
  name : string;                 (* corpus id, e.g. "php-74194" *)
  models : string;               (* paper's Application-BugID *)
  bug_type : string;
  multithreaded : bool;
  program : Er_ir.Types.program;
  failing_workload : Er_core.Pipeline.workload;
  perf_inputs : unit -> Er_vm.Inputs.t;
  config : Er_core.Pipeline.config;
}

(* Budgets are per-bug: the paper tunes a 30 s solver timeout globally;
   our deterministic equivalents scale with how heavy each miniature's
   constraints are. *)
let config_with ?(max_occurrences = 24) ?(solver_budget = 600_000)
    ?(gate_budget = 120_000) () =
  let open Er_core.Pipeline in
  {
    default_config with
    max_occurrences;
    exec_config =
      { Er_symex.Exec.default_config with solver_budget; gate_budget };
  }
