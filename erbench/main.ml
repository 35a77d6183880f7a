(* The benchmark command:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload, checks every output it produces, and prints as its
   last line one JSON object: the end-to-end metrics with --trace 0, the
   per-layer metrics with --trace 1.  A traced run also writes its spans
   as Chrome trace-event JSON to .erbench/spans-NAME-N.json.
   Exit status 1 when a correctness check failed, 2 on a usage error. *)

let workloads =
  [ ("corpus-cold", W_corpus.run); ("record", W_record.run);
    ("longtrace", W_longtrace.run); ("serve-warm", W_serve.run) ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the workload's orders");
      ("--seconds", Arg.Set_int seconds, "S length of the timed region");
      ("--trace", Arg.Set_int trace, "0|1 record spans, print per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some run ->
      let trace = !trace <> 0 in
      let r =
        run { Ctx.seed = !seed; seconds = float_of_int !seconds; trace }
      in
      if trace then begin
        (try Sys.mkdir ".erbench" 0o755 with Sys_error _ -> ());
        let path = Printf.sprintf ".erbench/spans-%s-%d.json" !workload !seed in
        Erbench_lib.Spans.write_chrome path (Erbench_lib.Spans.all ());
        Printf.printf "spans: %s\n" path
      end;
      if r.Report.failed > 0 then
        Printf.printf "FAILED: %d of %d operations failed a check\n"
          r.Report.failed r.Report.attempted;
      print_endline (Report.json ~trace r);
      exit (if r.Report.failed = 0 then 0 else 1)
