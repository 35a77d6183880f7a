(* In-memory span recorder.  Spans are opened only from the benchmark's
   own code, around calls into public functions of each layer; nothing
   inside the program is instrumented.  Recording is off unless
   [set_enabled true]; when off, [with_span] is a plain call.  Spans
   from every domain land in one mutex-protected buffer and are written
   out once, at exit, as Chrome trace-event JSON. *)

type span = {
  id : int;
  name : string;
  start : float;      (* Clock.now seconds *)
  stop : float;
  parent : int;       (* id of the enclosing span; -1 for a root *)
  job : int;          (* request identifier shared by a job's spans *)
  domain : int;
}

let enabled = Atomic.make false
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled
let next_id = Atomic.make 0
let lock = Mutex.create ()
let recorded : span list ref = ref []

(* The innermost open span of the calling domain, and its job. *)
let current : (int * int) Domain.DLS.key = Domain.DLS.new_key (fun () -> (-1, -1))

let reset () =
  Mutex.lock lock;
  recorded := [];
  Mutex.unlock lock

let add s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

(* Id of the calling domain's innermost open span (-1 outside any). *)
let current_id () = fst (Domain.DLS.get current)

(* [parent] and [job] default to the enclosing span's, so stage spans
   inherit the request identifier of the job that runs them; a job
   started on a worker domain names its parent explicitly. *)
let with_span ?parent ?job name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let ((pid, pjob) as saved) = Domain.DLS.get current in
    let parent = Option.value parent ~default:pid in
    let job = Option.value job ~default:pjob in
    let id = Atomic.fetch_and_add next_id 1 in
    Domain.DLS.set current (id, job);
    let start = Clock.now () in
    let finish () =
      add { id; name; start; stop = Clock.now (); parent; job;
            domain = (Domain.self () :> int) };
      Domain.DLS.set current saved
    in
    Fun.protect ~finally:finish f
  end

(* Record a span measured elsewhere — e.g. a queue wait, whose start
   happened on another domain — and return its id.  Unlike [with_span]
   this records whatever [enabled] says: callers decide after the fact
   which intervals belong to a traced round. *)
let record ?(parent = -1) ?(job = -1) name ~start ~stop =
  let id = Atomic.fetch_and_add next_id 1 in
  add { id; name; start; stop; parent; job; domain = (Domain.self () :> int) };
  id

let all () =
  Mutex.lock lock;
  let l = !recorded in
  Mutex.unlock lock;
  List.rev l

let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]: children on
   different domains may overlap each other. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
         let a = Float.max a lo and b = Float.min b hi in
         if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
         match last with
         | None -> (total, Some (a, b))
         | Some (la, lb) ->
             if a <= lb then (total, Some (la, Float.max lb b))
             else (total +. (lb -. la), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of it that its
   children cover.  Returned as (span, self seconds). *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
       if s.parent >= 0 then
         Hashtbl.replace children s.parent
           ((s.start, s.stop)
            :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
       let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
       (s, duration s -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Summed self time per span name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
       Hashtbl.replace tbl s.name
         (self +. Option.value (Hashtbl.find_opt tbl s.name) ~default:0.))
    (self_times spans);
  tbl

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | c when Char.code c < 0x20 ->
           Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON ("X" complete events, microseconds relative
   to the earliest span), one track per domain. *)
let write_chrome path spans =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
       if i > 0 then output_string oc ",\n";
       Printf.fprintf oc
         "{\"name\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\
          \"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"job\":%d}}"
         (json_string s.name)
         ((s.start -. t0) *. 1e6)
         (duration s *. 1e6)
         s.domain s.id s.parent s.job)
    spans;
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
