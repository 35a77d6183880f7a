(* Tests for the Daikon-style invariant engine and MIMIC-style
   localization. *)

module D = Er_invariants.Daikon

let test_infer_constant () =
  match D.infer_slot [ 5L; 5L; 5L ] with
  | [ D.Constant 5L ] -> ()
  | _ -> Alcotest.fail "expected constant invariant"

let test_infer_range_and_nonzero () =
  let invs = D.infer_slot [ 2L; 9L; 4L; 7L; 3L ] in
  let has p = List.exists p invs in
  Alcotest.(check bool) "range" true
    (has (function D.Range { lo = 2L; hi = 9L } -> true | _ -> false));
  Alcotest.(check bool) "nonzero" true
    (has (function D.Non_zero -> true | _ -> false))

let test_infer_modulus () =
  let invs = D.infer_slot [ 4L; 8L; 12L; 16L; 20L ] in
  Alcotest.(check bool) "mod 2 = 0 found" true
    (List.exists
       (function D.Modulus { m = 2L; r = 0L } -> true | _ -> false)
       invs)

let test_infer_pairs () =
  let entries = [ [| 3L; 3L; 10L |]; [| 5L; 5L; 11L |]; [| 1L; 1L; 2L |] ] in
  let invs = D.infer_pairs entries in
  Alcotest.(check bool) "arg0 = arg1" true
    (List.exists
       (function D.Eq_slots (D.Arg 0, D.Arg 1) -> true | _ -> false)
       invs);
  Alcotest.(check bool) "arg0 <= arg2" true
    (List.exists
       (function D.Le_slots (D.Arg 0, D.Arg 2) -> true | _ -> false)
       invs)

let test_check_flags_violation () =
  let obs = D.observations () in
  List.iter (fun v -> D.record_enter obs ~func:"f" [ v ]) [ 1L; 2L; 3L ];
  let invs = D.infer obs in
  let bad = D.observations () in
  D.record_enter bad ~func:"f" [ 99L ];
  let vios = D.check invs bad in
  Alcotest.(check bool) "violation found" true (vios <> []);
  let clean = D.observations () in
  D.record_enter clean ~func:"f" [ 2L ];
  Alcotest.(check (list string)) "no violation on in-range value" []
    (List.map (fun v -> v.D.where) (D.check invs clean))

let test_od_localization_direct () =
  (* even without ER in the loop, the violated invariants implicate the
     buggy function *)
  let spec = Er_corpus.Coreutils_od.spec in
  let prog = Er_ir.Prog.of_program spec.Er_corpus.Bug.program in
  let passing = List.init 4 Er_corpus.Coreutils_od.passing_inputs in
  let failing, _ = spec.Er_corpus.Bug.failing_workload ~occurrence:1 in
  let report = Er_invariants.Localize.localize ~prog ~passing ~failing in
  match report.Er_invariants.Localize.ranked_functions with
  | (top, _) :: _ -> Alcotest.(check string) "root cause" "dump_block" top
  | [] -> Alcotest.fail "no candidates"

let test_er_and_direct_agree () =
  (* the section 5.4 claim: localization from the ER-reconstructed
     execution matches localization from the original failing input *)
  let spec = Er_corpus.Coreutils_od.spec in
  let prog = Er_ir.Prog.of_program spec.Er_corpus.Bug.program in
  let passing = List.init 4 Er_corpus.Coreutils_od.passing_inputs in
  let r =
    Er_core.Pipeline.run ~config:spec.Er_corpus.Bug.config
      ~base_prog:spec.Er_corpus.Bug.program
      ~workload:spec.Er_corpus.Bug.failing_workload ()
  in
  match r.Er_core.Pipeline.status with
  | Er_core.Pipeline.Gave_up g ->
      Alcotest.fail
        ("reconstruction gave up: " ^ Er_core.Outcome.give_up_to_string g)
  | Er_core.Pipeline.Reproduced { testcase; _ } ->
      let failing_er = Er_core.Testcase.to_inputs testcase in
      let original, _ = spec.Er_corpus.Bug.failing_workload ~occurrence:1 in
      let top inputs =
        match
          (Er_invariants.Localize.localize ~prog ~passing ~failing:inputs)
            .Er_invariants.Localize.ranked_functions
        with
        | (f, _) :: _ -> f
        | [] -> "(none)"
      in
      Alcotest.(check string) "same top candidate" (top original)
        (top failing_er)

let suites =
  [
    ( "invariants",
      [
        Alcotest.test_case "constant" `Quick test_infer_constant;
        Alcotest.test_case "range + nonzero" `Quick test_infer_range_and_nonzero;
        Alcotest.test_case "modulus" `Quick test_infer_modulus;
        Alcotest.test_case "pairwise" `Quick test_infer_pairs;
        Alcotest.test_case "violation detection" `Quick test_check_flags_violation;
        Alcotest.test_case "od localization (direct)" `Quick
          test_od_localization_direct;
        Alcotest.test_case "ER and direct localization agree" `Slow
          test_er_and_direct_agree;
      ] );
  ]
