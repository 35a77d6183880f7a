(* Workload set-up: lower the programs and reconstruct every job once
   through the unwrapped [Pipeline.run].  The reference results are the
   oracle the timed region is checked against, and their recording
   points are what the record runs carry. *)

open Erbench_lib
module P = Er_core.Pipeline
module Bug = Er_corpus.Bug

type bug = {
  spec : Bug.spec;
  prog : Er_ir.Prog.t;           (* lowered once, shared by record runs *)
  payload : string;              (* normalized reference report *)
  cost : int;                    (* reference solver cost *)
  points : Er_ir.Types.point list;
}

let payload (r : P.result) =
  Er_core.Json.to_string
    (Er_core.Fleet.normalize_json (P.result_to_json_value r))

let solver_cost (r : P.result) =
  List.fold_left (fun a it -> a + it.P.solver_cost) 0 r.P.iterations

(* Reproduced, and — when the pipeline verified — verified. *)
let reproduced (r : P.result) =
  match r.P.status with
  | P.Reproduced { verified = Some v; _ } -> v.Er_core.Verify.ok
  | P.Reproduced { verified = None; _ } -> true
  | P.Gave_up _ -> false

(* A reconstruction as a batch job runs it: in a fresh interning space,
   so its solver trajectory depends on nothing else in the process. *)
let reconstruct ?(run = P.run) (s : Bug.spec) =
  Er_smt.Expr.in_fresh_space (fun () ->
      run ~config:s.Bug.config ~base_prog:s.Bug.program
        ~workload:s.Bug.failing_workload ())

type t = {
  bugs : bug list;
  setup_s : float;     (* median over the repetitions, steal removed *)
  lower_s : float;     (* median lowering time per set-up *)
  refs : (P.result * float) list list;
      (* per set-up: every reference run and its wall, steal removed *)
}

let lower specs =
  List.map
    (fun (s : Bug.spec) ->
       let p = Er_ir.Prog.of_program s.Bug.program in
       ignore (Er_ir.Prog.lowered p);
       p)
    specs

(* [reps] complete set-ups; the last one's products are used. *)
let run ~reps (specs : Bug.spec list) =
  let one () =
    let ((progs, lower_s), refs), wall, held =
      Clock.measure (fun () ->
          let lowered = Clock.time (fun () -> lower specs) in
          (lowered, List.map (fun s -> Clock.time (fun () -> reconstruct s)) specs))
    in
    let bugs =
      List.map2
        (fun (spec, prog) ((r : P.result), _) ->
           { spec; prog; payload = payload r; cost = solver_cost r;
             points = r.P.recording_points })
        (List.combine specs progs) refs
    in
    (bugs, wall *. held, lower_s, List.map (fun (r, w) -> (r, w *. held)) refs)
  in
  let runs = List.init (max 1 reps) (fun _ -> one ()) in
  let bugs, _, _, _ = List.nth runs (List.length runs - 1) in
  { bugs;
    setup_s = Stats.median (List.map (fun (_, s, _, _) -> s) runs);
    lower_s = Stats.median (List.map (fun (_, _, l, _) -> l) runs);
    refs = List.map (fun (_, _, _, r) -> r) runs }
