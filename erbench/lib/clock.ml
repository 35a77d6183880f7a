(* The one clock every benchmark timing reads: CLOCK_MONOTONIC through
   bechamel's stub.  Unlike [Sys.time] it is wall time, not CPU summed
   over domains; unlike [Unix.gettimeofday] it never steps backwards. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU seconds the hypervisor gave to other guests while this one's
   CPUs wanted to run: the steal column of /proc/stat (USER_HZ = 100
   ticks), summed over CPUs.  0 where the file is missing. *)
let steal () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          try
            Scanf.sscanf (input_line ic) "cpu %f %f %f %f %f %f %f %f"
              (fun _ _ _ _ _ _ _ st -> st /. 100.)
          with End_of_file | Scanf.Scan_failure _ | Failure _ -> 0.)

(* Share of an interval of [wall] seconds in which the measured work
   held its CPUs, given the [steal] seconds that accrued in it on any
   CPU.  Time stolen from any CPU stalls the work: a lone domain
   migrates between CPUs, and two domains wait for each other at every
   stop-the-world minor collection.  On a shared host, wall time alone
   swings by 2x with the neighbours' load; wall x held is the time the
   work took on the CPUs it was given. *)
let held ~wall ~steal =
  if wall <= 0. then 1. else Float.max 0. (1. -. (steal /. wall))

(* [f ()] with its wall seconds and the share [held] of them. *)
let measure f =
  let s0 = steal () and t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  (r, wall, held ~wall ~steal:(steal () -. s0))
