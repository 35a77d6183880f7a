(* A from-scratch CDCL SAT solver in the MiniSat lineage: two watched
   literals, first-UIP clause learning, VSIDS decision heuristic with an
   indexed binary heap, phase saving, and Luby restarts.

   The solver is budgeted: [solve ~budget] counts propagated literals and
   gives up deterministically once the budget is exhausted.  This budget is
   ER's stand-in for the paper's 30-second constraint-solver timeout — it
   makes "symbolic execution stalls" a reproducible event rather than a
   wall-clock race. *)

type result = Sat | Unsat | Unknown

(* Literal encoding: variable [v] (0-based) has positive literal [2v] and
   negative literal [2v+1].  External clauses use DIMACS conventions
   (non-zero ints, sign = polarity, 1-based). *)

let lit_of_dimacs l =
  if l = 0 then invalid_arg "Sat.lit_of_dimacs: zero literal"
  else if l > 0 then 2 * (l - 1)
  else (2 * (-l - 1)) + 1

let lit_neg l = l lxor 1
let lit_var l = l lsr 1

(* --- growable int vectors ------------------------------------------- *)

module Veci = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 16 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let len v = v.len
  let clear v = v.len <- 0
  let shrink v n = v.len <- n
end

(* --- indexed max-heap on variable activity --------------------------- *)

module Heap = struct
  type t = {
    mutable heap : int array;       (* heap of variables *)
    mutable index : int array;      (* var -> position, -1 if absent *)
    mutable size : int;
    act : float array ref;          (* shared activity array *)
  }

  let create act = { heap = Array.make 16 0; index = Array.make 16 (-1); size = 0; act }

  let ensure t n =
    if n > Array.length t.index then begin
      let cap = max n (2 * Array.length t.index) in
      let index = Array.make cap (-1) in
      Array.blit t.index 0 index 0 (Array.length t.index);
      t.index <- index;
      let heap = Array.make cap 0 in
      Array.blit t.heap 0 heap 0 t.size;
      t.heap <- heap
    end

  let lt t a b = !(t.act).(a) > !(t.act).(b)

  let rec sift_up t i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if lt t t.heap.(i) t.heap.(p) then begin
        let vi = t.heap.(i) and vp = t.heap.(p) in
        t.heap.(i) <- vp; t.heap.(p) <- vi;
        t.index.(vp) <- i; t.index.(vi) <- p;
        sift_up t p
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let best = ref i in
    if l < t.size && lt t t.heap.(l) t.heap.(!best) then best := l;
    if r < t.size && lt t t.heap.(r) t.heap.(!best) then best := r;
    if !best <> i then begin
      let vi = t.heap.(i) and vb = t.heap.(!best) in
      t.heap.(i) <- vb; t.heap.(!best) <- vi;
      t.index.(vb) <- i; t.index.(vi) <- !best;
      sift_down t !best
    end

  let mem t v = v < Array.length t.index && t.index.(v) >= 0

  let insert t v =
    ensure t (v + 1);
    if not (mem t v) then begin
      t.heap.(t.size) <- v;
      t.index.(v) <- t.size;
      t.size <- t.size + 1;
      sift_up t (t.size - 1)
    end

  let decrease t v = if mem t v then sift_up t t.index.(v)

  let pop t =
    let v = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      let last = t.heap.(t.size) in
      t.heap.(0) <- last;
      t.index.(last) <- 0;
      sift_down t 0
    end;
    t.index.(v) <- -1;
    v

  let is_empty t = t.size = 0
end

(* --- solver ---------------------------------------------------------- *)

(* Search-heuristic knobs.  [default_config] reproduces the historical
   hard-coded behavior bit for bit (VSIDS decay 0.95, Luby restarts with
   base 64, phase saving on, initial phase false) — every default-config
   trajectory in the committed bench baselines depends on that.  The
   portfolio attack on stalls races variations of these knobs. *)
type config = {
  var_decay : float;      (* activity divisor per conflict, in (0,1] *)
  restart : [ `Luby of int | `Geometric of int * float ];
  phase_saving : bool;    (* remember last polarity per variable *)
  default_phase : bool;   (* polarity before any save (or always, if
                             phase saving is off) *)
}

let default_config =
  { var_decay = 0.95; restart = `Luby 64; phase_saving = true;
    default_phase = false }

type t = {
  config : config;
  mutable nvars : int;
  mutable clauses : int array array;      (* clause arena *)
  mutable nclauses : int;
  mutable watches : Veci.t array;         (* literal -> clause ids *)
  mutable assigns : int array;            (* var -> 0 undef | 1 | -1 *)
  mutable level : int array;
  mutable reason : int array;             (* var -> clause id or -1 *)
  mutable phase : bool array;             (* saved polarity *)
  trail : Veci.t;
  trail_lim : Veci.t;
  mutable qhead : int;
  mutable activity : float array ref;
  heap : Heap.t;
  mutable var_inc : float;
  mutable ok : bool;                      (* false once UNSAT at level 0 *)
  mutable propagations : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable restarts : int;
  seen : Veci.t;                          (* scratch for analyze *)
  mutable seen_flags : bool array;
}

let create ?(config = default_config) () =
  let activity = ref (Array.make 16 0.0) in
  {
    config;
    nvars = 0;
    clauses = Array.make 64 [||];
    nclauses = 0;
    watches = Array.init 32 (fun _ -> Veci.create ());
    assigns = Array.make 16 0;
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    phase = Array.make 16 config.default_phase;
    trail = Veci.create ();
    trail_lim = Veci.create ();
    qhead = 0;
    activity;
    heap = Heap.create activity;
    var_inc = 1.0;
    ok = true;
    propagations = 0;
    conflicts = 0;
    decisions = 0;
    restarts = 0;
    seen = Veci.create ();
    seen_flags = Array.make 16 false;
  }

let grow_arrays s n =
  let cap a fill =
    if n <= Array.length a then a
    else begin
      let c = max n (2 * Array.length a) in
      let a' = Array.make c fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    end
  in
  s.assigns <- cap s.assigns 0;
  s.level <- cap s.level 0;
  s.reason <- cap s.reason (-1);
  s.phase <- cap s.phase s.config.default_phase;
  s.seen_flags <- cap s.seen_flags false;
  (if 2 * n > Array.length s.watches then begin
     let c = max (2 * n) (2 * Array.length s.watches) in
     let w = Array.init c (fun i ->
         if i < Array.length s.watches then s.watches.(i) else Veci.create ())
     in
     s.watches <- w
   end);
  if n > Array.length !(s.activity) then begin
    let c = max n (2 * Array.length !(s.activity)) in
    let a = Array.make c 0.0 in
    Array.blit !(s.activity) 0 a 0 (Array.length !(s.activity));
    s.activity := a
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  grow_arrays s s.nvars;
  Heap.insert s.heap v;
  v + 1  (* external, 1-based *)

let value_lit s l =
  let a = s.assigns.(lit_var l) in
  if a = 0 then 0 else if l land 1 = 0 then a else -a

let enqueue s l reason =
  let v = lit_var l in
  s.assigns.(v) <- (if l land 1 = 0 then 1 else -1);
  s.level.(v) <- Veci.len s.trail_lim;
  s.reason.(v) <- reason;
  if s.config.phase_saving then s.phase.(v) <- l land 1 = 0;
  Veci.push s.trail l

let add_clause_arena s lits =
  if s.nclauses = Array.length s.clauses then begin
    let c = Array.make (2 * s.nclauses) [||] in
    Array.blit s.clauses 0 c 0 s.nclauses;
    s.clauses <- c
  end;
  let id = s.nclauses in
  s.clauses.(id) <- lits;
  s.nclauses <- id + 1;
  Veci.push s.watches.(lit_neg lits.(0)) id;
  Veci.push s.watches.(lit_neg lits.(1)) id;
  id

(* Add an external clause (DIMACS literals).  Must be called before or
   between solves; handles unit and empty clauses at level 0. *)
let add_clause s dimacs =
  if s.ok then begin
    (* dedup and check for tautology *)
    let lits = List.sort_uniq compare (List.map lit_of_dimacs dimacs) in
    let tauto =
      List.exists (fun l -> List.mem (lit_neg l) lits) lits
    in
    if not tauto then begin
      (* drop literals already false at level 0; detect satisfied clause *)
      let lits =
        List.filter
          (fun l -> not (value_lit s l = -1 && s.level.(lit_var l) = 0))
          lits
      in
      let sat_already =
        List.exists (fun l -> value_lit s l = 1 && s.level.(lit_var l) = 0) lits
      in
      if not sat_already then
        match lits with
        | [] -> s.ok <- false
        | [ l ] ->
            if value_lit s l = -1 then s.ok <- false
            else if value_lit s l = 0 then enqueue s l (-1)
        | l0 :: l1 :: _ ->
            let arr = Array.of_list lits in
            (* ensure the two watched positions are the first two *)
            arr.(0) <- l0; arr.(1) <- l1;
            let rec fill i = function
              | [] -> ()
              | x :: rest -> arr.(i) <- x; fill (i + 1) rest
            in
            fill 0 lits;
            ignore (add_clause_arena s arr)
    end
  end

exception Conflict of int

(* Propagate all enqueued literals; returns conflicting clause id or -1. *)
let propagate s =
  try
    while s.qhead < Veci.len s.trail do
      let l = Veci.get s.trail s.qhead in
      s.qhead <- s.qhead + 1;
      s.propagations <- s.propagations + 1;
      let ws = s.watches.(l) in
      let n = Veci.len ws in
      let j = ref 0 in
      (try
         for i = 0 to n - 1 do
           let cid = Veci.get ws i in
           let c = s.clauses.(cid) in
           (* make sure the false literal is at position 1 *)
           let falsel = lit_neg l in
           if c.(0) = falsel then begin
             c.(0) <- c.(1); c.(1) <- falsel
           end;
           if value_lit s c.(0) = 1 then begin
             (* clause satisfied; keep watch *)
             Veci.set ws !j cid; incr j
           end else begin
             (* look for a new literal to watch *)
             let len = Array.length c in
             let found = ref false in
             let k = ref 2 in
             while (not !found) && !k < len do
               if value_lit s c.(!k) <> -1 then begin
                 c.(1) <- c.(!k);
                 c.(!k) <- falsel;
                 Veci.push s.watches.(lit_neg c.(1)) cid;
                 found := true
               end;
               incr k
             done;
             if !found then ()
             else begin
               (* unit or conflicting *)
               Veci.set ws !j cid; incr j;
               if value_lit s c.(0) = -1 then begin
                 (* copy remaining watches before raising *)
                 for m = i + 1 to n - 1 do
                   Veci.set ws !j (Veci.get ws m); incr j
                 done;
                 Veci.shrink ws !j;
                 raise (Conflict cid)
               end else enqueue s c.(0) cid
             end
           end
         done;
         Veci.shrink ws !j
       with Conflict _ as e -> raise e)
    done;
    -1
  with Conflict cid -> cid

let var_bump s v =
  let act = !(s.activity) in
  act.(v) <- act.(v) +. s.var_inc;
  if act.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      act.(i) <- act.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  Heap.decrease s.heap v

let var_decay s = s.var_inc <- s.var_inc /. s.config.var_decay

(* First-UIP conflict analysis.  Returns (learned clause, backjump level);
   learned.(0) is the asserting literal. *)
let analyze s confl =
  let learned = Veci.create () in
  Veci.push learned 0;                    (* slot for asserting literal *)
  let path = ref 0 in
  let p = ref (-1) in
  let cid = ref confl in
  let idx = ref (Veci.len s.trail - 1) in
  let continue = ref true in
  while !continue do
    let c = s.clauses.(!cid) in
    let start = if !p = -1 then 0 else 1 in
    for i = start to Array.length c - 1 do
      let q = c.(i) in
      let v = lit_var q in
      if (not s.seen_flags.(v)) && s.level.(v) > 0 then begin
        s.seen_flags.(v) <- true;
        Veci.push s.seen v;
        var_bump s v;
        if s.level.(v) = Veci.len s.trail_lim then incr path
        else Veci.push learned q
      end
    done;
    (* pick next literal to expand from the trail *)
    let rec next () =
      let l = Veci.get s.trail !idx in
      decr idx;
      if s.seen_flags.(lit_var l) then l else next ()
    in
    let l = next () in
    s.seen_flags.(lit_var l) <- false;
    decr path;
    if !path = 0 then begin
      Veci.set learned 0 (lit_neg l);
      continue := false
    end else begin
      p := l;
      cid := s.reason.(lit_var l)
    end
  done;
  (* clear remaining seen flags *)
  for i = 0 to Veci.len s.seen - 1 do
    s.seen_flags.(Veci.get s.seen i) <- false
  done;
  Veci.clear s.seen;
  let arr = Array.init (Veci.len learned) (Veci.get learned) in
  (* backjump level = max level among arr.(1..) *)
  let blevel = ref 0 in
  let pos = ref 1 in
  for i = 1 to Array.length arr - 1 do
    let lv = s.level.(lit_var arr.(i)) in
    if lv > !blevel then begin blevel := lv; pos := i end
  done;
  if Array.length arr > 1 then begin
    let tmp = arr.(1) in
    arr.(1) <- arr.(!pos);
    arr.(!pos) <- tmp
  end;
  (arr, !blevel)

let cancel_until s lvl =
  if Veci.len s.trail_lim > lvl then begin
    let bound = Veci.get s.trail_lim lvl in
    for i = Veci.len s.trail - 1 downto bound do
      let v = lit_var (Veci.get s.trail i) in
      s.assigns.(v) <- 0;
      s.reason.(v) <- -1;
      Heap.insert s.heap v
    done;
    Veci.shrink s.trail bound;
    s.qhead <- bound;
    Veci.shrink s.trail_lim lvl
  end

let decide s =
  let rec pick () =
    if Heap.is_empty s.heap then -1
    else
      let v = Heap.pop s.heap in
      if s.assigns.(v) = 0 then v else pick ()
  in
  let v = pick () in
  if v = -1 then -1
  else begin
    s.decisions <- s.decisions + 1;
    Veci.push s.trail_lim (Veci.len s.trail);
    let l = if s.phase.(v) then 2 * v else (2 * v) + 1 in
    enqueue s l (-1);
    l
  end

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let rec pow2 k = if k = 0 then 1 else 2 * pow2 (k - 1) in
  let rec find k = if pow2 (k + 1) - 1 <= i then find (k + 1) else k in
  let k = find 0 in
  if i = pow2 (k + 1) - 2 then pow2 k else luby (i - pow2 k + 1)

(* [solve ?budget ?assumptions s].

   Assumptions are DIMACS literals assumed before any VSIDS decision: the
   k-th pending assumption is decided at decision level k (an assumption
   that is already true gets a dummy level so the level<->assumption
   correspondence stays intact; MiniSat does the same).  A conflict that
   forces an assumption false yields [Unsat] *under the assumptions* —
   the solver itself stays usable ([s.ok] is untouched), which is what
   lets an incremental session pop that assumption and continue.

   The budget is relative to the work counters at entry, so that a
   session issuing many [solve] calls on one solver gives each call the
   same deterministic allowance a fresh solver would get. *)
let solve ?(budget = max_int) ?(assumptions = []) s =
  if not s.ok then Unsat
  else begin
    let assum = Array.of_list (List.map lit_of_dimacs assumptions) in
    let nassum = Array.length assum in
    let p0 = s.propagations and c0 = s.conflicts in
    let budget_left () =
      s.propagations - p0 + (100 * (s.conflicts - c0)) < budget
    in
    (* 0 = progressed, 1 = all vars assigned (Sat), 2 = assumption
       contradicted (Unsat under assumptions). *)
    let decide_step () =
      let dl = Veci.len s.trail_lim in
      if dl < nassum then begin
        let l = assum.(dl) in
        match value_lit s l with
        | 1 ->
            Veci.push s.trail_lim (Veci.len s.trail);
            0
        | -1 -> 2
        | _ ->
            s.decisions <- s.decisions + 1;
            Veci.push s.trail_lim (Veci.len s.trail);
            enqueue s l (-1);
            0
      end
      else if decide s = -1 then 1
      else 0
    in
    let restart_n = ref 0 in
    let result = ref None in
    (* Normalize to root: a previous [Sat] answer leaves the trail in
       place for [value] reads, so an incremental re-solve must not start
       from those stale decisions. *)
    cancel_until s 0;
    (match propagate s with
     | -1 -> ()
     | _ ->
         s.ok <- false;
         result := Some Unsat);
    while !result = None do
      if not (budget_left ()) then begin
        cancel_until s 0;
        result := Some Unknown
      end
      else begin
        let conflict_budget =
          match s.config.restart with
          | `Luby base -> base * luby !restart_n
          | `Geometric (base, mult) ->
              int_of_float (float_of_int base *. (mult ** float_of_int !restart_n))
        in
        incr restart_n;
        let conflicts_here = ref 0 in
        let break = ref false in
        while (not !break) && !result = None do
          let confl = propagate s in
          if confl >= 0 then begin
            s.conflicts <- s.conflicts + 1;
            incr conflicts_here;
            if Veci.len s.trail_lim = 0 then begin
              s.ok <- false;
              result := Some Unsat
            end
            else if Veci.len s.trail_lim <= nassum then begin
              (* Conflict while only assumption levels are open: the
                 assumption set is contradicted. *)
              result := Some Unsat
            end
            else begin
              let learned, blevel = analyze s confl in
              cancel_until s blevel;
              (match Array.length learned with
               | 1 ->
                   (* A unit learned clause always backjumps to root and
                      is implied by the clause database alone, so it is
                      sound to keep across assumption changes. *)
                   enqueue s learned.(0) (-1)
               | _ ->
                   let cid = add_clause_arena s learned in
                   enqueue s learned.(0) cid);
              var_decay s
            end
          end
          else if !conflicts_here >= conflict_budget then begin
            s.restarts <- s.restarts + 1;
            (* Restart clears search decisions but keeps assumption
               levels assigned — re-propagating the whole assertion set
               after every restart would charge the budget for work a
               unit-clause (one-shot) encoding does exactly once. *)
            cancel_until s nassum;
            break := true
          end
          else if not (budget_left ()) then begin
            cancel_until s 0;
            result := Some Unknown
          end
          else begin
            match decide_step () with
            | 1 -> result := Some Sat
            | 2 -> result := Some Unsat
            | _ -> ()
          end
        done
      end
    done;
    (match !result with
     | Some Sat -> ()
     | _ -> cancel_until s 0);
    match !result with Some r -> r | None -> assert false
  end

(* Undo all decision levels, restoring the solver to its root state so
   that new clauses can be added.  After a [Sat] answer the trail is left
   in place for [value] reads; an incremental caller must backtrack
   before growing the formula. *)
let backtrack_root s = cancel_until s 0

(* Model value of an external (1-based) variable after [Sat]. *)
let value s extvar =
  let v = extvar - 1 in
  if v < 0 || v >= s.nvars then invalid_arg "Sat.value";
  s.assigns.(v) = 1

let stats s = (s.propagations, s.conflicts, s.nclauses)
let decisions s = s.decisions
let restarts s = s.restarts
let num_vars s = s.nvars

(* The k most active variables (external 1-based indices) with their
   VSIDS activities, highest first, ties by variable index — the
   deterministic "what the search cared about" summary the persistent
   store keeps alongside each solved entry. *)
let top_activity ?(k = 8) s =
  let act = !(s.activity) in
  let all = List.init s.nvars (fun v -> (v + 1, act.(v))) in
  let sorted =
    List.sort
      (fun (va, aa) (vb, ab) ->
        match Float.compare ab aa with 0 -> Int.compare va vb | c -> c)
      all
  in
  List.filteri (fun i _ -> i < k) sorted
