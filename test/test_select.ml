(* Tests for key data value selection: bottleneck identification on
   constructed constraint graphs, recording-set cost reduction (the
   paper's worked example), and instrumentation/mapping round trips. *)

open Er_ir.Types
module Expr = Er_smt.Expr
module Cgraph = Er_symex.Cgraph
module Symmem = Er_symex.Symmem

let pt i = { p_func = "foo"; p_block = "body"; p_index = i }

(* Rebuild the Fig. 4 constraint graph: V[x]=1; if(V[c]==0) V[c]=512;
   V[V[x]]=x with x = a + b. *)
let fig4 () =
  let g = Cgraph.create () in
  let mem = Symmem.create () in
  let v = Symmem.alloc mem ~elt_ty:I32 ~size:256 ~heap:true in
  let a = Expr.bv_var "fig4a" ~width:32 and b = Expr.bv_var "fig4b" ~width:32 in
  let c = Expr.bv_var "fig4c" ~width:32 in
  let x = Expr.add a b in
  Cgraph.define g (pt 0) a;       (* inputs are register defs too *)
  Cgraph.define g (pt 1) b;
  Cgraph.define g (pt 2) x;
  Cgraph.define g (pt 3) c;
  Symmem.write v x (Expr.const ~width:32 1L);
  Symmem.write v c (Expr.const ~width:32 512L);
  let vx = Symmem.read v x in
  Cgraph.define g (pt 4) vx;      (* V[x] loaded into a register *)
  Symmem.write v vx x;
  Cgraph.set_assertions g
    [ Expr.ult x (Expr.const ~width:32 256L);
      Expr.ult c (Expr.const ~width:32 256L) ];
  (g, mem, x, c, vx)

let test_bottleneck_fig4 () =
  let g, mem, x, c, vx = fig4 () in
  let b = Er_select.Bottleneck.compute g mem in
  Alcotest.(check int) "three symbolic writes" 3
    b.Er_select.Bottleneck.longest_chain;
  Alcotest.(check int) "largest object is V (1024 bytes)" 1024
    b.Er_select.Bottleneck.largest_object_bytes;
  (* the bottleneck set is {x, c, V[x]} as in section 3.3.2 *)
  let has e = List.exists (Expr.equal e) b.Er_select.Bottleneck.elements in
  Alcotest.(check bool) "x in bottleneck" true (has x);
  Alcotest.(check bool) "c in bottleneck" true (has c);
  Alcotest.(check bool) "V[x] in bottleneck" true (has vx)

(* Selection is structural (section 3.3.2): computing the bottleneck set
   of a graph with assertions makes no solver query. *)
let test_bottleneck_no_solver () =
  let module M = Er_metrics in
  let queries () =
    M.Snapshot.counter_total (M.snapshot ()) "er_smt_queries_total"
  in
  let was = M.enabled M.default in
  M.set_enabled M.default true;
  Fun.protect
    ~finally:(fun () -> M.set_enabled M.default was)
    (fun () ->
       let g, mem, _, _, _ = fig4 () in
       let before = queries () in
       let b = Er_select.Bottleneck.compute g mem in
       Alcotest.(check bool) "graph has assertions" true
         (g.Cgraph.assertions <> []);
       Alcotest.(check bool) "non-empty bottleneck set" true
         (b.Er_select.Bottleneck.elements <> []);
       Alcotest.(check int) "no solver queries" 0 (queries () - before))

let test_recording_reduction_fig4 () =
  (* the paper's reduction: record {x, c}; V[x] is deducible from them *)
  let g, mem, x, c, vx = fig4 () in
  let b = Er_select.Bottleneck.compute g mem in
  let plan = Er_select.Recording.reduce g b.Er_select.Bottleneck.elements in
  Alcotest.(check bool) "reduced cost <= bottleneck cost" true
    (plan.Er_select.Recording.reduced_cost
     <= plan.Er_select.Recording.bottleneck_cost);
  let recorded_points = Er_select.Recording.points plan in
  let point_of e =
    match Cgraph.provenance g e with
    | Some p -> p.Cgraph.pr_point
    | None -> Alcotest.fail "missing provenance"
  in
  let has e =
    List.exists (fun p -> point_compare p (point_of e) = 0) recorded_points
  in
  Alcotest.(check bool) "x recorded" true (has x);
  Alcotest.(check bool) "c recorded" true (has c);
  Alcotest.(check bool) "V[x] deduced, not recorded" false (has vx)

let test_cost_uses_refcount () =
  let g = Cgraph.create () in
  let e = Expr.bv_var "hot" ~width:32 in
  Cgraph.define g (pt 9) e;
  Cgraph.define g (pt 9) e;
  Cgraph.define g (pt 9) e;
  Alcotest.(check (option int)) "4 bytes x 3 executions" (Some 12)
    (Cgraph.cost_of g e)

let test_instrument_and_map () =
  let t = Er_ir.Builder.create () in
  Er_ir.Builder.func t ~name:"main" ~params:[] (fun fb ->
      let v = Er_ir.Builder.input fb I32 "s" in
      let w = Er_ir.Builder.add fb I32 v (Er_ir.Builder.i32 1) in
      Er_ir.Builder.output fb w;
      Er_ir.Builder.ret_void fb);
  let prog = Er_ir.Builder.program t ~main:"main" in
  let target = { p_func = "main"; p_block = "entry"; p_index = 0 } in
  let inst, mapper = Er_select.Instrument.apply prog [ target ] in
  Alcotest.(check int) "one ptwrite inserted" 1
    (Er_select.Instrument.ptwrite_count inst);
  (* instrumented index 1 is the ptwrite; index 2 maps back to base 1 *)
  Alcotest.(check (option string)) "ptwrite maps to None" None
    (Option.map point_to_string
       (mapper { p_func = "main"; p_block = "entry"; p_index = 1 }));
  Alcotest.(check (option string)) "shifted index maps back" (Some "main:entry:1")
    (Option.map point_to_string
       (mapper { p_func = "main"; p_block = "entry"; p_index = 2 }))

let test_instrumented_program_equivalent () =
  (* instrumentation must not change observable behaviour *)
  let s = Er_corpus.Registry.running_example in
  let prog = s.Er_corpus.Bug.program in
  let points =
    [ { p_func = "foo"; p_block = "entry"; p_index = 0 } ]
  in
  let inst, _ = Er_select.Instrument.apply prog points in
  let inputs, seed = s.Er_corpus.Bug.failing_workload ~occurrence:1 in
  let cfg = { Er_vm.Interp.default_config with sched_seed = seed } in
  let r1 = Er_vm.Interp.run ~config:cfg (Er_ir.Prog.of_program prog) inputs in
  let inputs2, _ = s.Er_corpus.Bug.failing_workload ~occurrence:1 in
  let r2 = Er_vm.Interp.run ~config:cfg (Er_ir.Prog.of_program inst) inputs2 in
  Alcotest.(check int) "same instruction count (ptwrite is clock-free)"
    r1.Er_vm.Interp.instr_count r2.Er_vm.Interp.instr_count;
  Alcotest.(check int) "same branch count" r1.Er_vm.Interp.branch_count
    r2.Er_vm.Interp.branch_count

let suites =
  [
    ( "select",
      [
        Alcotest.test_case "fig4 bottleneck set" `Quick test_bottleneck_fig4;
        Alcotest.test_case "bottleneck makes no solver query" `Quick
          test_bottleneck_no_solver;
        Alcotest.test_case "fig4 recording reduction" `Quick
          test_recording_reduction_fig4;
        Alcotest.test_case "cost = size x refcount" `Quick test_cost_uses_refcount;
        Alcotest.test_case "instrument + coordinate mapping" `Quick
          test_instrument_and_map;
        Alcotest.test_case "instrumentation preserves behaviour" `Quick
          test_instrumented_program_equivalent;
      ] );
  ]
