(* What every workload receives from the command line. *)

type t = {
  seed : int;
  seconds : float;  (* length of the timed region *)
  trace : bool;     (* record spans; report per-layer metrics *)
}

(* Seeded Fisher-Yates: the seed decides orders, never the inputs the
   programs see, which come from the corpus. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Rounds alternate spans on and off in pairs, so a traced run measures
   its own tracing overhead against the rounds it left untraced. *)
let spans_on t round = t.trace && round / 2 mod 2 = 0

(* Peak resident set of the process so far (VmHWM), in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Unmeasured rounds: the first passes of a process pay for growing its
   heap.  Warm-up rounds count from 0, so they cover the same
   alternation as the measured ones. *)
let warm n body =
  for i = 0 to n - 1 do
    Gc.full_major ();
    body i
  done

type rounds = {
  rounds : int;
  rss_mb : float;  (* peak RSS once the first [min] rounds ran *)
  gc0 : Gc.stat;   (* around the rounds *)
  gc1 : Gc.stat;
}

(* Run rounds until the clock runs out, but never fewer than [min]:
   every group a metric is a median of needs samples.  Counters and
   spans start from zero, so the per-layer figures cover these rounds
   only.  Each round starts from a collected heap, so the garbage one
   round leaves behind is not paid for by the next.  Peak RSS is read
   after a fixed amount of work, so that it does not grow with the
   number of rounds a faster machine fits in. *)
let loop t ~min body =
  Tally.reset ();
  Erbench_lib.Spans.reset ();
  let gc0 = Gc.quick_stat () in
  let t_end = Erbench_lib.Clock.now () +. t.seconds in
  let rss = ref 0. in
  let rec go i =
    if i = min then rss := peak_rss_mb ();
    if i < min || Erbench_lib.Clock.now () < t_end then begin
      Gc.full_major ();
      Erbench_lib.Spans.set_enabled (spans_on t i);
      body i;
      go (i + 1)
    end
    else begin
      Erbench_lib.Spans.set_enabled false;
      i
    end
  in
  let rounds = go 0 in
  { rounds; rss_mb = !rss; gc0; gc1 = Gc.quick_stat () }
