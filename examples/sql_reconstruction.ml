(* Input recovery is not input identity: as in section 5.2, the inputs ER
   generates may differ from the production inputs while following the
   identical control flow to the identical failure (the paper's example:
   sEleCT instead of SELECT).

   We reconstruct the SQLite-7be932d failure and compare the generated
   command stream with the production one byte for byte.

   Run with:  dune exec examples/sql_reconstruction.exe
   Exits 1 if the reconstruction gives up or fails verification. *)

let () =
  match Er_corpus.Registry.find "sqlite-7be932d" with
  | None ->
      prerr_endline "corpus entry missing";
      exit 1
  | Some spec ->
      let r =
        Er_core.Pipeline.run ~config:spec.Er_corpus.Bug.config
          ~base_prog:spec.Er_corpus.Bug.program
          ~workload:spec.Er_corpus.Bug.failing_workload ()
      in
      (match r.Er_core.Pipeline.status with
       | Er_core.Pipeline.Gave_up g ->
           Printf.printf "gave up: %s\n" (Er_core.Outcome.give_up_to_string g);
           exit 1
       | Er_core.Pipeline.Reproduced { testcase; verified; _ } ->
           let original, _ =
             spec.Er_corpus.Bug.failing_workload
               ~occurrence:r.Er_core.Pipeline.occurrences
           in
           let orig_vals = Er_vm.Inputs.stream_values original "cli" in
           let gen_vals =
             Option.value ~default:[]
               (List.assoc_opt "cli" testcase.Er_core.Testcase.streams)
           in
           Printf.printf "production command stream: %s\n"
             (String.concat " " (List.map Int64.to_string orig_vals));
           Printf.printf "generated command stream:  %s\n"
             (String.concat " " (List.map Int64.to_string gen_vals));
           let differs =
             List.exists2 (fun a b -> not (Int64.equal a b))
               (List.filteri (fun i _ -> i < List.length gen_vals) orig_vals)
               gen_vals
           in
           Printf.printf
             "streams %s — yet the replay follows the same control flow and \
              crashes identically:\n"
             (if differs then "differ" else "coincide");
           (match verified with
            | Some v ->
                Printf.printf "  same failure: %b\n  same control flow: %b\n"
                  v.Er_core.Verify.same_failure
                  v.Er_core.Verify.same_control_flow;
                if not v.Er_core.Verify.ok then exit 1
            | None -> ());
           Printf.printf "occurrences needed: %d\n"
             r.Er_core.Pipeline.occurrences)
