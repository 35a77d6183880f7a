(* serve-warm: an in-process [Server] with 2 workers and a solver store
   that starts empty.  One generator thread drives 2 closed-loop
   connections (each caller waits for its reconstruction); in every
   round each connection walks the corpus in its own seeded order.
   Each round starts the server afresh on the same store: round 1 writes
   the .ercache journals and later rounds replay them.  After each
   round, one record pass over the corpus supplies the recording
   metrics.

   The resolver is the benchmark's: a submit names "BUG#TOKEN", and the
   source's workload marks the first call for TOKEN — the moment the
   job's execution started. *)

open Erbench_lib
module Json = Er_core.Json
module Wire = Er_core.Wire

let connections = 2
let workers = 2

type request = {
  token : int;
  bug : Setup.bug;
  submitted : float;
  mutable received : float;
  mutable started : float;   (* first workload call; 0 if never *)
  mutable payload : Json.t option;
  mutable ok : bool;
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let dir_bytes path =
  Array.fold_left
    (fun a f -> a + (Unix.stat (Filename.concat path f)).Unix.st_size)
    0
    (try Sys.readdir path with Sys_error _ -> [||])

let int_field k j = Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int)

(* Field [k] summed over a served payload's iterations. *)
let iterations_sum k payload =
  List.fold_left
    (fun a it -> a + int_field k it)
    0
    (Option.value ~default:[]
       (Option.bind (Json.member "iterations" payload) Json.to_list))

(* The solver accounting a served payload carries. *)
let tally_solver payload =
  Tally.addi "smt.queries" (iterations_sum "solver_calls" payload);
  Tally.addi "smt.cost" (iterations_sum "solver_cost" payload);
  Tally.addi "smt.cache_hits" (iterations_sum "cache_hits" payload);
  Tally.addi "smt.cache_misses" (iterations_sum "cache_misses" payload)

let verified_ok payload =
  let status = Json.member "status" payload in
  Option.bind status (Json.member "kind") = Some (Json.Str "reproduced")
  && Option.bind (Option.bind status (Json.member "verified"))
       (Json.member "ok")
     = Some (Json.Bool true)

(* [Loadgen.deterministic]'s rule, applied to a served payload and the
   batch reference: byte-identical once the three fields persistence
   may change are masked. *)
let same_trajectory ~bug ~reference served =
  Er_core.Loadgen.deterministic
    { Er_core.Loadgen.lg_clients = 1; lg_jobs = 2; lg_failed = 0;
      lg_rejected = 0; lg_errors = 0; lg_wall = 0.; lg_latencies = [];
      lg_results = [ (bug, reference); (bug, served) ] }

type round = {
  t0 : float;           (* first submit *)
  t1 : float;           (* last result *)
  held : float;         (* share of t0..t1 the work held its CPUs *)
  walks : float list;   (* per connection: t0 to its last result *)
  mine : request list;
}

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : string;
  mutable todo : Setup.bug list;     (* rest of this round's walk *)
  mutable current : request option;  (* the one outstanding request *)
  mutable walk_done : float;
}

let send fd frame =
  let s = Wire.client_to_line frame in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let run (c : Ctx.t) =
  let setup = Setup.run ~reps:3 Er_corpus.Registry.table1 in
  let rng = Random.State.make [| c.Ctx.seed |] in
  (try Sys.mkdir ".erbench" 0o755 with Sys_error _ -> ());
  let store = Printf.sprintf ".erbench/store-%d" (Unix.getpid ()) in
  let socket = Printf.sprintf ".erbench/serve-%d.sock" (Unix.getpid ()) in
  rm_rf store;
  Sys.mkdir store 0o755;
  let lock = Mutex.create () in
  let started : (int, float) Hashtbl.t = Hashtbl.create 256 in
  let find name =
    List.find_opt
      (fun (b : Setup.bug) -> b.Setup.spec.Er_corpus.Bug.name = name)
      setup.Setup.bugs
  in
  let resolver key =
    match String.index_opt key '#' with
    | None -> None
    | Some k -> (
        let token = int_of_string (String.sub key (k + 1) (String.length key - k - 1)) in
        match find (String.sub key 0 k) with
        | None -> None
        | Some b ->
            let spec = b.Setup.spec in
            let workload ~occurrence =
              Mutex.lock lock;
              if not (Hashtbl.mem started token) then
                Hashtbl.replace started token (Clock.now ());
              Mutex.unlock lock;
              spec.Er_corpus.Bug.failing_workload ~occurrence
            in
            Some
              ( { Er_core.Job.src_name = spec.Er_corpus.Bug.name;
                  src_prog = spec.Er_corpus.Bug.program;
                  src_workload = workload },
                Er_core.Job.Config.of_pipeline spec.Er_corpus.Bug.config ))
  in
  let next_token = ref 0 and rejected = ref 0 and failed = ref 0 in
  let requests = ref [] and rounds = ref [] in
  let submit conn =
    match conn.todo with
    | [] ->
        conn.current <- None;
        conn.walk_done <- Clock.now ()
    | b :: rest ->
        conn.todo <- rest;
        let token = !next_token in
        incr next_token;
        let r =
          { token; bug = b; submitted = Clock.now (); received = 0.;
            started = 0.; payload = None; ok = false }
        in
        conn.current <- Some r;
        requests := r :: !requests;
        send conn.fd
          (Wire.Submit
             { id = string_of_int token; tenant = "erbench";
               bug = Printf.sprintf "%s#%d" b.Setup.spec.Er_corpus.Bug.name token;
               config = None })
  in
  let finish conn (r : request) payload =
    r.received <- Clock.now ();
    r.payload <- payload;
    (match payload with
     | Some p ->
         tally_solver p;
         r.ok <-
           verified_ok p
           && same_trajectory ~bug:r.bug.Setup.spec.Er_corpus.Bug.name
                ~reference:r.bug.Setup.payload (Json.to_string p)
     | None -> ());
    if not r.ok then incr failed;
    submit conn
  in
  let handle conn line =
    match (Wire.server_of_line line, conn.current) with
    | Some (Wire.Job_result { result; _ }), Some r -> finish conn r (Some result)
    | Some (Wire.Rejected _), Some r ->
        (* closed loop: retry the same request after a short backoff *)
        incr rejected;
        Unix.sleepf 0.01;
        send conn.fd
          (Wire.Submit
             { id = string_of_int r.token; tenant = "erbench";
               bug = Printf.sprintf "%s#%d" r.bug.Setup.spec.Er_corpus.Bug.name r.token;
               config = None })
    | Some (Wire.Job_failed _ | Wire.Job_cancelled _ | Wire.Error _), Some r ->
        finish conn r None
    | _ -> ()
  in
  let buf = Bytes.create 65536 in
  (* One round against a freshly started server; the store carries
     over, so only the first round solves cold. *)
  let serve_round () =
    let server =
      Er_core.Server.start
        ~config:
          { Er_core.Server.default_config with
            Er_core.Server.socket_path = socket; workers;
            cache_dir = Some store }
        ~resolver ()
    in
    let conns =
      List.init connections (fun _ ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX socket);
          { fd; inbuf = ""; todo = Ctx.shuffle rng setup.Setup.bugs;
            current = None; walk_done = 0. })
    in
    let s0 = Clock.steal () in
    let t0 = Clock.now () in
    List.iter submit conns;
    while List.exists (fun conn -> conn.current <> None) conns do
      let fds = List.map (fun conn -> conn.fd) conns in
      let readable, _, _ =
        try Unix.select fds [] [] (-1.0)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun conn ->
           if List.mem conn.fd readable then begin
             let n = Unix.read conn.fd buf 0 (Bytes.length buf) in
             if n = 0 then failwith "serve-warm: the server closed a connection";
             let lines, tail =
               Wire.split_lines (conn.inbuf ^ Bytes.sub_string buf 0 n)
             in
             conn.inbuf <- tail;
             List.iter (handle conn) lines
           end)
        conns
    done;
    let t1 = Clock.now () in
    List.iter (fun conn -> Unix.close conn.fd) conns;
    Er_core.Server.stop server;
    Er_core.Server.wait server;
    let held =
      Clock.held ~wall:(t1 -. t0) ~steal:(Clock.steal () -. s0)
    in
    let walks = List.map (fun conn -> conn.walk_done -. t0) conns in
    (t0, t1, held, walks)
  in
  let records = ref [] in
  let { Ctx.rounds = n_rounds; rss_mb; gc0; gc1 } =
    Ctx.loop c ~min:10 (fun _ ->
        let before = List.length !requests in
        let t0, t1, held, walks = serve_round () in
        let mine =
          List.filteri (fun k _ -> k < List.length !requests - before) !requests
        in
        rounds := { t0; t1; held; walks; mine } :: !rounds;
        (* with the server's domains gone: an idle domain still takes
           part in every stop-the-world minor collection *)
        records := Record.probe setup.Setup.bugs rng :: !records)
  in
  (try Sys.remove socket with Sys_error _ -> ());
  let journal_bytes = dir_bytes store in
  rm_rf store;
  (* first workload calls, and the spans of every request *)
  List.iter
    (fun r ->
       r.started <- Option.value (Hashtbl.find_opt started r.token) ~default:0.)
    !requests;
  let rounds = List.rev !rounds in
  if c.Ctx.trace then
    List.iter
      (fun rd ->
         let round = Spans.record "round" ~start:rd.t0 ~stop:rd.t1 in
         List.iter
           (fun r ->
              let req =
                Spans.record ~parent:round ~job:r.token "request"
                  ~start:r.submitted ~stop:r.received
              in
              if r.started > 0. then begin
                ignore
                  (Spans.record ~parent:req ~job:r.token "server.queue"
                     ~start:r.submitted ~stop:r.started);
                ignore
                  (Spans.record ~parent:req ~job:r.token "server.exec"
                     ~start:r.started ~stop:r.received)
              end)
           rd.mine)
      rounds;
  let reqs = List.rev !requests in
  let good = List.filter (fun r -> r.ok) reqs in
  (* end-to-end times are the time the work held its CPUs *)
  let latencies =
    List.concat_map
      (fun rd -> List.map (fun r -> (r.received -. r.submitted) *. rd.held) rd.mine)
      rounds
  in
  let waits =
    List.filter_map
      (fun r -> if r.started > 0. then Some (r.started -. r.submitted) else None)
      reqs
  in
  let sum_good f = List.fold_left (fun a r -> a + f r) 0 good in
  let payload_sum f r = Option.fold ~none:0 ~some:f r.payload in
  let occurrences = sum_good (payload_sum (int_field "occurrences")) in
  let served_cost = sum_good (payload_sum (iterations_sum "solver_cost")) in
  let reference_cost = sum_good (fun r -> r.bug.Setup.cost) in
  let round_walls = List.map (fun rd -> (rd.t1 -. rd.t0) *. rd.held) rounds in
  let exec r = if r.started > 0. then r.received -. r.started else 0. in
  let busy rd = Stats.sum (List.map exec rd.mine) in
  let p50 = Stats.percentile 50. latencies and p90 = Stats.percentile 90. latencies in
  Printf.printf
    "latency: p50 %.4fs p90 %.4fs over %d requests (%d beyond p90), %d rounds\n"
    p50.Stats.value p90.Stats.value p90.Stats.samples
    (Stats.beyond 90. latencies) n_rounds;
  let n = float_of_int (List.length reqs) in
  let per v = Stats.ratio v (float_of_int n_rounds) in
  let wait_p50 = (Stats.percentile 50. waits).Stats.value in
  { Report.attempted = List.length reqs + Record.attempted !records;
    failed = !failed + Record.failed !records;
    values =
      [ ("setup_s", setup.Setup.setup_s); ("ir.lower_s", setup.Setup.lower_s);
        ( "corpus_wall_j1_s",
          Stats.median
            (List.concat_map
               (fun rd -> List.map (fun w -> w *. rd.held) rd.walks)
               rounds) );
        ("corpus_wall_j2_s", Stats.median round_walls);
        ("reconstructions_per_s", Stats.ratio n (Stats.sum round_walls));
        ("latency_p50_s", p50.Stats.value);
        ("latency_p90_s", p90.Stats.value);
        ("reproduced_frac", Stats.ratio (float_of_int (List.length good)) n);
        ( "occurrences_per_reproduction",
          Stats.ratio (float_of_int occurrences) (float_of_int (List.length good)) );
        ("peak_rss_mb", rss_mb);
        ("server.queue_wait_p50_s", wait_p50);
        ("scheduler.queue_wait_p50_s", wait_p50);
        ("server.rejected", per (float_of_int !rejected));
        ( "persist.replay_ratio",
          1. -. Stats.ratio (float_of_int served_cost) (float_of_int reference_cost) );
        ("persist.journal_bytes", float_of_int journal_bytes);
        ("scheduler.busy_s", per (Stats.sum (List.map busy rounds)));
        ( "scheduler.parallel_efficiency",
          Stats.median
            (List.map
               (fun rd ->
                  Stats.parallel_efficiency ~busy:(busy rd) ~workers
                    ~wall:(rd.t1 -. rd.t0))
               rounds) );
        ( "scheduler.long_pole_s",
          Stats.median
            (List.map
               (fun rd -> List.fold_left (fun a r -> Float.max a (exec r)) 0. rd.mine)
               rounds) ) ]
      @ Record.metrics !records
      @ Report.layer_common ~rounds:n_rounds ~traced_rounds:n_rounds
          ~spans:(Spans.all ()) ~gc0 ~gc1 }
