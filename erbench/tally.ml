(* Named per-layer counters, summed across every domain of the run.
   Counts are cheap enough to keep in both modes; only spans (and so
   the per-layer seconds) are gated on tracing. *)

let lock = Mutex.create ()
let tbl : (string, float) Hashtbl.t = Hashtbl.create 64

(* While suspended, additions are dropped.  Set only by a domain that
   runs a probe while no other domain is counting. *)
let suspended = Atomic.make false

let suspend f =
  Atomic.set suspended true;
  Fun.protect ~finally:(fun () -> Atomic.set suspended false) f

let add name v =
  if not (Atomic.get suspended) then begin
    Mutex.lock lock;
    Hashtbl.replace tbl name
      (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.);
    Mutex.unlock lock
  end

let incr name = add name 1.
let addi name n = add name (float_of_int n)

let get name =
  Mutex.lock lock;
  let v = Option.value (Hashtbl.find_opt tbl name) ~default:0. in
  Mutex.unlock lock;
  v

let reset () =
  Mutex.lock lock;
  Hashtbl.reset tbl;
  Mutex.unlock lock
