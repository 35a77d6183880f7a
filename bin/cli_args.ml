(* Flag parsing and run plumbing shared across er_cli subcommands.

   [reproduce], [fleet], [serve] and [loadgen] all need the same spec
   lookup, events-sink wiring, metrics-registry toggling and flight-
   recorder drain; this module is the single copy.  Anything with a
   per-command doc string stays in er_cli.ml — only genuinely shared
   behavior lives here. *)

open Cmdliner

(* -- corpus lookup ------------------------------------------------- *)

let find_spec name =
  match Er_corpus.Registry.find_any name with
  | Some s -> Ok s
  | None ->
      Error
        (`Msg (Printf.sprintf "unknown bug %s (try: er_cli list)" name))

let bug_conv =
  Arg.conv
    ( (fun s -> find_spec s),
      fun ppf (s : Er_corpus.Bug.spec) -> Fmt.string ppf s.Er_corpus.Bug.name )

let spec_arg =
  Arg.(required & pos 0 (some bug_conv) None & info [] ~docv:"BUG")

(* The daemon's bug-name resolver: corpus name -> job source + the
   bug's committed pipeline config, flattened to a Job.Config the wire
   protocol can override field-by-field. *)
let resolver name : (Er_core.Job.source * Er_core.Job.Config.t) option =
  Option.map
    (fun (s : Er_corpus.Bug.spec) ->
       ( { Er_core.Job.src_name = s.Er_corpus.Bug.name;
           src_prog = s.Er_corpus.Bug.program;
           src_workload = s.Er_corpus.Bug.failing_workload },
         Er_core.Job.Config.of_pipeline s.Er_corpus.Bug.config ))
    (Er_corpus.Registry.find_any name)

(* -- events sinks -------------------------------------------------- *)

(* Run [f] with the channel for an events FILE ("-" for stdout), or
   [None] without one.  Fleet writes its own tagged lines to it. *)
let with_events_channel events_file f =
  match events_file with
  | None -> f None
  | Some "-" ->
      let r = f (Some stdout) in
      flush stdout;
      r
  | Some path ->
      let oc =
        try open_out path
        with Sys_error msg ->
          Printf.eprintf "er_cli: cannot open events file: %s\n" msg;
          exit 1
      in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f (Some oc))

(* Run [f] with a JSONL events sink on FILE, or the null sink. *)
let with_events_sink events_file f =
  with_events_channel events_file (function
    | None -> f Er_core.Events.null
    | Some oc -> f (Er_core.Events.jsonl oc))

(* A fleet JSONL log is shared by every bug, so each line is tagged
   with a ["job"] field naming the bug that emitted it — that's what
   lets [er_cli report] split the log back into per-bug streams.
   [Events.of_json] ignores unknown fields, so tagged lines still
   round-trip as plain events.  One mutex serializes all workers'
   writes; each line is flushed as soon as it is written so a worker
   crash cannot lose the buffered tail of the log. *)
let tagged_jsonl_sink mutex oc job_name : Er_core.Events.sink =
  let module J = Er_core.Json in
  fun e ->
    let line =
      match Er_core.Events.to_json_value e with
      | J.Obj fields -> J.to_string (J.Obj (("job", J.Str job_name) :: fields))
      | j -> J.to_string j
    in
    Mutex.lock mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mutex)
      (fun () ->
         output_string oc (line ^ "\n");
         flush oc)

(* -- pipeline invocation ------------------------------------------- *)

(* The job config of one corpus bug under the CLI's flags: the bug's
   committed pipeline config with --no-incremental, --portfolio and
   --cache-dir applied.  [reproduce] and [fleet] both build their runs
   from it, so each knob is set in one place. *)
let job_config ~incremental ~portfolio ~cache_dir (spec : Er_corpus.Bug.spec)
    =
  let c = Er_core.Job.Config.of_pipeline spec.Er_corpus.Bug.config in
  { c with
    Er_core.Job.Config.incremental =
      c.Er_core.Job.Config.incremental && incremental;
    portfolio;
    cache_dir }

(* [reproduce] runs its one job on the calling domain through
   {!Er_core.Job.execute}: a fresh interning space, the persistent
   solver store when the config names a cache directory, and a
   [bug:<id>] metrics span around the whole reconstruction. *)
let run_job config (spec : Er_corpus.Bug.spec) events =
  let h =
    Er_core.Job.create ~events
      {
        Er_core.Job.tenant = "cli";
        work =
          Er_core.Job.Reconstruct
            {
              Er_core.Job.src_name = spec.Er_corpus.Bug.name;
              src_prog = spec.Er_corpus.Bug.program;
              src_workload = spec.Er_corpus.Bug.failing_workload;
            };
        config;
      }
  in
  Er_core.Job.execute h;
  match Er_core.Job.poll h with
  | Some (Er_core.Job.Finished r) | Some (Er_core.Job.Cancelled (Some r)) -> r
  | Some (Er_core.Job.Crashed { exn; backtrace }) ->
      Printf.eprintf "er_cli: reconstruction crashed: %s\n%s\n" exn backtrace;
      exit 1
  | Some (Er_core.Job.Cancelled None) | None -> assert false

(* -- shared flags -------------------------------------------------- *)

(* Escape hatch shared by [reproduce] and [fleet]: trace every production
   run from scratch instead of resuming from checkpoints.  Both modes
   produce identical occurrence streams, solver costs and iteration
   trajectories; the flag exists for differential benchmarking and as a
   belt-and-braces fallback. *)
let no_incremental_flag =
  Arg.(
    value & flag
    & info [ "no-incremental" ]
        ~doc:"Disable checkpoint/resume: trace every production run from \
              scratch.  The reconstruction result is identical either way; \
              only tracing wall clock differs.")

let metrics_fmt : [ `Table | `Json | `Prometheus ] Arg.conv =
  Arg.enum [ ("table", `Table); ("json", `Json); ("prometheus", `Prometheus) ]

(* Flight recorder plumbing shared by [reproduce --trace-out] and
   [fleet --trace-out]: the recorder keeps timestamped begin/end span
   records (per-domain rings) on top of the aggregate cells; after the
   run they drain as Chrome trace-event JSON — loadable in Perfetto or
   chrome://tracing, one track per worker domain, pipeline stages nested
   within each track. *)
let trace_out_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Arm the span flight recorder and write the run's timeline as \
              Chrome trace-event JSON (Perfetto-loadable) to $(docv) (use \
              - for stdout): one track per worker domain, pipeline stages \
              nested per track.")

(* Persistent solver knowledge, shared by [reproduce], [fleet] and
   [serve]: point repeated runs of the same job at one directory and
   each run replays the previous run's solver answers instead of
   re-searching.  Warm starts change cost only, never trajectories. *)
let cache_dir_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Persist solver knowledge (result journal, learned-clause \
              summaries) under $(docv) and warm-start from it on the next \
              run of the same job.  Stores are versioned, fingerprinted \
              against the job config and checksummed; any mismatch falls \
              back to a cold start.")

let portfolio_flag =
  Arg.(
    value & opt int 0
    & info [ "portfolio" ] ~docv:"K"
        ~doc:"When a solver query exhausts its budget, race $(docv) \
              alternative CDCL configurations (restart schedule, phase \
              policy, VSIDS decay) over the stalled query and adopt the \
              deterministic winner.  0 (default) disables the portfolio.")

let socket_flag ~doc =
  Arg.(
    value
    & opt string "er-serve.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc)

let json_flag ~doc = Arg.(value & flag & info [ "json" ] ~doc)

let jobs_flag ~doc =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* -- metrics registry plumbing ------------------------------------- *)

(* The default registry is off unless a command asks for it, so
   instrumented hot paths cost one branch. *)
let with_metrics ?(recorder = false) enabled f =
  if not enabled then f ()
  else begin
    Er_metrics.reset Er_metrics.default;
    Er_metrics.set_enabled Er_metrics.default true;
    if recorder then Er_metrics.set_recorder true;
    Fun.protect
      ~finally:(fun () ->
        Er_metrics.set_enabled Er_metrics.default false;
        if recorder then Er_metrics.set_recorder false)
      f
  end

let write_trace_out path =
  let s = Er_metrics.trace_json () in
  let dropped = Er_metrics.recorder_dropped () in
  if dropped > 0 then
    Printf.eprintf
      "er_cli: flight recorder ring wrapped, %d oldest span(s) dropped\n"
      dropped;
  match path with
  | "-" ->
      print_string s;
      print_newline ()
  | path -> (
      match open_out path with
      | oc ->
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
               output_string oc s;
               output_char oc '\n')
      | exception Sys_error msg ->
          Printf.eprintf "er_cli: cannot open trace file: %s\n" msg;
          exit 1)

let render_metrics fmt oc =
  let snap = Er_metrics.snapshot () in
  match fmt with
  | `Table -> output_string oc (Er_metrics.Snapshot.to_table snap)
  | `Json ->
      output_string oc (Er_metrics.Snapshot.to_json snap);
      output_char oc '\n'
  | `Prometheus -> output_string oc (Er_metrics.Snapshot.to_prometheus snap)

(* -- committed baseline lookup ------------------------------------- *)

(* The committed bench trajectory's sequential fleet wall clock: the
   jobs=1 trial of the newest BENCH_*.json in the working directory.
   Absent file or section (running outside the repo root, say) simply
   disables the comparison. *)
let baseline_sequential_wall () =
  let module J = Er_core.Json in
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let wall_of path =
    if not (Sys.file_exists path) then None
    else
      Option.bind (J.parse (read_file path)) (fun doc ->
          Option.bind (J.member "fleet" doc) (fun f ->
              Option.bind (J.member "trials" f) (fun t ->
                  Option.bind (J.to_list t) (fun trials ->
                      List.find_map
                        (fun trial ->
                           match
                             Option.bind (J.member "jobs" trial) J.to_int
                           with
                           | Some 1 ->
                               Option.bind
                                 (Option.bind (J.member "wall" trial)
                                    J.to_float)
                                 (fun w -> Some (path, w))
                           | Some _ | None -> None)
                        trials))))
  in
  List.find_map wall_of
    [ "BENCH_13.json"; "BENCH_10.json"; "BENCH_9.json"; "BENCH_8.json";
      "BENCH_6.json"; "BENCH_5.json"; "BENCH_4.json" ]
