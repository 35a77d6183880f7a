(* The benchmark's own arithmetic: order statistics and ratios.  Every
   function is total: an empty sample yields 0, never an exception, so
   a workload that measured nothing reports zeros instead of dying. *)

(* A percentile is only as good as the samples behind it, so it always
   travels with its sample count. *)
type percentile = { value : float; samples : int }

(* Nearest-rank percentile: the smallest sample such that at least [p]
   percent of the samples are at or below it. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then { value = 0.; samples = 0 }
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    { value = a.(max 0 (min (n - 1) (rank - 1))); samples = n }

(* Samples strictly above the percentile's value: the guide for whether
   a tail percentile has enough evidence behind it. *)
let beyond p xs =
  let { value; _ } = percentile p xs in
  List.length (List.filter (fun x -> x > value) xs)

(* Median as the mean of the two middle samples for even counts — the
   convention of Python's statistics.median, which checks the runs. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs
let ratio num den = if den > 0. then num /. den else 0.

(* Busy worker-seconds over available worker-seconds. *)
let parallel_efficiency ~busy ~workers ~wall =
  ratio busy (float_of_int workers *. wall)

(* 100 x (traced / untraced - 1), over totals: per-sample ratios of
   sub-millisecond runs are dominated by clock noise. *)
let overhead_pct ~traced ~untraced =
  if untraced > 0. then 100. *. ((traced /. untraced) -. 1.) else 0.
