(* Cross-layer metrics and profiling registry.

   ER's argument is quantitative — overhead, trace bytes, recording
   bandwidth and solver cost must stay within budget — so every layer
   of the reproduction (vm, trace, smt, symex, select) reports into
   this registry: labelled counters, gauges, fixed-bucket histograms
   and hierarchical timing spans.

   Hot-path discipline:
     - handles are pre-registered once ([counter] / [gauge] /
       [histogram] at module-init time); the instrumented code holds
       the handle, never a name;
     - recording into a handle is a single mutable-cell update with no
       allocation — int cells for counters, one-element [float array]s
       for gauges/histogram sums so the float stays unboxed;
     - when the owning registry is disabled every record operation is
       one load + one branch.

   The registry clock is injectable ([set_clock]) so span timings and
   histogram observations are deterministic under test.  The process
   default registry starts *disabled*: an uninstrumented run pays only
   the branch.

   Domain safety (fleet mode runs bugs on concurrent domains, all
   reporting into the default registry):
     - counters are [Atomic.t] ints — increments from any domain are
       exact, never lost or torn;
     - gauges stay plain unboxed float cells: [set] is a single
       word-sized store (no tearing on 64-bit), last writer wins, which
       is the right semantics for a level;
     - histograms take a per-histogram mutex per [observe] (observations
       are orders of magnitude rarer than counter bumps);
     - span trees are per-domain — each domain nests its own stack and
       accumulates into its own cells — and snapshots merge the
       per-domain trees by path, so concurrent bugs never corrupt each
       other's nesting;
     - registration and the per-domain span-state table are guarded by
       the registry mutex (cold paths).

   Naming convention (see DESIGN.md "Observability"):
   [er_<layer>_<thing>_total] for counters, [er_<layer>_<thing>] for
   gauges, histogram base names like [er_smt_query_seconds]. *)

type labels = (string * string) list

type registry = {
  mutable r_enabled : bool;
  mutable r_clock : unit -> float;
  (* flight recorder: per-domain ring capacity for timestamped span
     events; 0 = recording off (the default — aggregate cells only) *)
  mutable r_recorder : int;
  (* registration order, for deterministic snapshots *)
  mutable r_rev : metric list;
  r_index : (string, metric) Hashtbl.t;
  r_mutex : Mutex.t; (* guards r_rev/r_index/r_domains (cold paths) *)
  (* one span state per domain that ever opened a span here *)
  mutable r_domains : (int * domain_spans) list;
}

and metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Top of top

and counter = {
  c_name : string;
  c_help : string;
  c_labels : labels;
  c_value : int Atomic.t;
  c_reg : registry;
}

and gauge = {
  g_name : string;
  g_help : string;
  g_labels : labels;
  g_cell : float array; (* length 1: unboxed float without a boxed record field *)
  g_reg : registry;
}

and histogram = {
  h_name : string;
  h_help : string;
  h_labels : labels;
  h_bounds : float array; (* strictly increasing finite upper bounds *)
  h_counts : int array; (* length = Array.length h_bounds + 1 (+Inf) *)
  h_sum : float array; (* length 1 *)
  h_mutex : Mutex.t;
  h_reg : registry;
}

(* Bounded top-K attribution table: the K most expensive keys seen so
   far (cost descending, key ascending on ties), one row per key with
   the maximum cost observed for it.  Merge semantics are commutative,
   so concurrent observers from several domains converge to the same
   table regardless of interleaving. *)
and top = {
  t_name : string;
  t_help : string;
  t_k : int;
  t_mutex : Mutex.t;
  mutable t_rows : top_row list; (* sorted, length <= t_k *)
  t_reg : registry;
}

and top_row = { tr_key : string; tr_cost : int; tr_labels : labels }
and span_cell = { mutable s_calls : int; mutable s_seconds : float }

(* Span nesting and accumulation for one domain.  Only the owning domain
   ever writes; snapshots from other domains read the cells racily,
   which can observe a slightly stale call count — acceptable for a
   monitoring read, and exact once the domain has quiesced (fleet
   snapshots after joining its workers see everything). *)
and domain_spans = {
  ds_spans : (string, span_cell) Hashtbl.t;
  mutable ds_stack : string list; (* full paths, innermost first *)
  (* flight-recorder ring of completed spans, owner-domain writes only;
     [||] until the recorder is armed *)
  mutable ds_ring : span_event array;
  mutable ds_next : int; (* next write slot *)
  mutable ds_count : int; (* events ever recorded on this domain *)
}

and span_event = { sp_path : string; sp_begin : float; sp_end : float }

(* The one clock of the system: monotonic wall seconds (CLOCK_MONOTONIC).
   Unlike [Unix.gettimeofday] it never steps backwards; unlike [Sys.time]
   it does not sum CPU over every domain of the process.  Pipeline stage
   timings, job and fleet walls and loadgen latencies all read it. *)
let default_clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create ?(enabled = true) ?(clock = default_clock) () =
  {
    r_enabled = enabled;
    r_clock = clock;
    r_recorder = 0;
    r_rev = [];
    r_index = Hashtbl.create 64;
    r_mutex = Mutex.create ();
    r_domains = [];
  }

(* The process-wide registry.  Disabled until someone opts in
   ([er_cli --metrics], bench, tests): library instrumentation must be
   free for callers that never asked for metrics. *)
let default = create ~enabled:false ()

let enabled r = r.r_enabled
let set_enabled r b = r.r_enabled <- b
let set_clock r clock = r.r_clock <- clock
let now r = r.r_clock ()

let reset r =
  List.iter
    (function
      | Counter c -> Atomic.set c.c_value 0
      | Gauge g -> g.g_cell.(0) <- 0.
      | Histogram h ->
          Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
          h.h_sum.(0) <- 0.
      | Top t ->
          Mutex.lock t.t_mutex;
          t.t_rows <- [];
          Mutex.unlock t.t_mutex)
    r.r_rev;
  Mutex.lock r.r_mutex;
  r.r_domains <- [];
  Mutex.unlock r.r_mutex

(* --- registration (cold path) -------------------------------------- *)

let canonical_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let key name labels =
  name
  ^ String.concat ""
      (List.map (fun (k, v) -> "\x00" ^ k ^ "\x01" ^ v) labels)

(* Registration is idempotent per (name, labels); the double-checked
   shape keeps the common find on the uncontended fast path while making
   concurrent first-registrations race-free. *)
let registered r k make cast err =
  let get m = match cast m with Some v -> v | None -> err () in
  match Hashtbl.find_opt r.r_index k with
  | Some m -> get m
  | None ->
      Mutex.lock r.r_mutex;
      let m =
        match Hashtbl.find_opt r.r_index k with
        | Some m -> m
        | None -> (
            match make () with
            | m ->
                r.r_rev <- m :: r.r_rev;
                Hashtbl.replace r.r_index k m;
                m
            | exception e ->
                Mutex.unlock r.r_mutex;
                raise e)
      in
      Mutex.unlock r.r_mutex;
      get m

let counter ?(registry = default) ?(labels = []) ~help name =
  let labels = canonical_labels labels in
  let k = key name labels in
  registered registry k
    (fun () ->
       Counter
         { c_name = name; c_help = help; c_labels = labels;
           c_value = Atomic.make 0; c_reg = registry })
    (function Counter c -> Some c | _ -> None)
    (fun () ->
       invalid_arg ("Er_metrics.counter: " ^ name ^ " is not a counter"))

let gauge ?(registry = default) ?(labels = []) ~help name =
  let labels = canonical_labels labels in
  let k = key name labels in
  registered registry k
    (fun () ->
       Gauge
         { g_name = name; g_help = help; g_labels = labels;
           g_cell = [| 0. |]; g_reg = registry })
    (function Gauge g -> Some g | _ -> None)
    (fun () -> invalid_arg ("Er_metrics.gauge: " ^ name ^ " is not a gauge"))

let histogram ?(registry = default) ?(labels = []) ~help ~buckets name =
  let labels = canonical_labels labels in
  let k = key name labels in
  let make () =
    let bounds = Array.of_list buckets in
    let ok = ref (Array.length bounds > 0) in
    Array.iteri
      (fun i b ->
         if not (Float.is_finite b) then ok := false;
         if i > 0 && b <= bounds.(i - 1) then ok := false)
      bounds;
    if not !ok then
      invalid_arg
        ("Er_metrics.histogram: " ^ name
         ^ ": buckets must be non-empty, finite, strictly increasing");
    Histogram
      { h_name = name; h_help = help; h_labels = labels; h_bounds = bounds;
        h_counts = Array.make (Array.length bounds + 1) 0;
        h_sum = [| 0. |]; h_mutex = Mutex.create (); h_reg = registry }
  in
  registered registry k make
    (function Histogram h -> Some h | _ -> None)
    (fun () ->
       invalid_arg ("Er_metrics.histogram: " ^ name ^ " is not a histogram"))

let top ?(registry = default) ~help ~k name =
  if k <= 0 then invalid_arg ("Er_metrics.top: " ^ name ^ ": k must be > 0");
  registered registry (key name [])
    (fun () ->
       Top
         { t_name = name; t_help = help; t_k = k;
           t_mutex = Mutex.create (); t_rows = []; t_reg = registry })
    (function Top t -> Some t | _ -> None)
    (fun () -> invalid_arg ("Er_metrics.top: " ^ name ^ " is not a top table"))

(* --- recording (hot path) ------------------------------------------ *)

let inc c = if c.c_reg.r_enabled then Atomic.incr c.c_value
let add c n = if c.c_reg.r_enabled then ignore (Atomic.fetch_and_add c.c_value n)
let counter_value c = Atomic.get c.c_value
let set g v = if g.g_reg.r_enabled then g.g_cell.(0) <- v
let gauge_value g = g.g_cell.(0)

(* Insert [key] with [cost] into the bounded table, keeping the per-key
   maximum and the K most expensive keys overall.  Called once per rare
   event (solver query, run retirement), never inside the hot loop. *)
let top_observe t ~key:k ?(labels = []) cost =
  if t.t_reg.r_enabled then begin
    Mutex.lock t.t_mutex;
    let prev = List.find_opt (fun r -> r.tr_key = k) t.t_rows in
    (match prev with
     | Some r when r.tr_cost >= cost -> ()
     | _ ->
         let rows = List.filter (fun r -> r.tr_key <> k) t.t_rows in
         let rows =
           { tr_key = k; tr_cost = cost; tr_labels = canonical_labels labels }
           :: rows
         in
         let rows =
           List.sort
             (fun a b ->
                match compare b.tr_cost a.tr_cost with
                | 0 -> compare a.tr_key b.tr_key
                | c -> c)
             rows
         in
         let rec take n = function
           | [] -> []
           | _ when n = 0 -> []
           | x :: tl -> x :: take (n - 1) tl
         in
         t.t_rows <- take t.t_k rows);
    Mutex.unlock t.t_mutex
  end

let observe h v =
  if h.h_reg.r_enabled then begin
    let n = Array.length h.h_bounds in
    (* buckets are few (<= ~16); a linear scan beats binary search here *)
    let i = ref 0 in
    while !i < n && v > h.h_bounds.(!i) do
      incr i
    done;
    Mutex.lock h.h_mutex;
    h.h_counts.(!i) <- h.h_counts.(!i) + 1;
    h.h_sum.(0) <- h.h_sum.(0) +. v;
    Mutex.unlock h.h_mutex
  end

(* --- hierarchical timing spans ------------------------------------- *)

(* The current domain's span state; created on first use.  Only the
   owning domain reads/writes ds_stack, so no lock is needed past the
   lookup. *)
let domain_spans r =
  let did = (Domain.self () :> int) in
  match List.assq_opt did r.r_domains with
  | Some ds -> ds
  | None ->
      Mutex.lock r.r_mutex;
      let ds =
        match List.assq_opt did r.r_domains with
        | Some ds -> ds
        | None ->
            let ds =
              { ds_spans = Hashtbl.create 16; ds_stack = []; ds_ring = [||];
                ds_next = 0; ds_count = 0 }
            in
            r.r_domains <- (did, ds) :: r.r_domains;
            ds
      in
      Mutex.unlock r.r_mutex;
      ds

let span_cell ds path =
  match Hashtbl.find_opt ds.ds_spans path with
  | Some c -> c
  | None ->
      let c = { s_calls = 0; s_seconds = 0. } in
      Hashtbl.add ds.ds_spans path c;
      c

let with_span ?(registry = default) name f =
  if not registry.r_enabled then f ()
  else begin
    let ds = domain_spans registry in
    let path =
      match ds.ds_stack with
      | [] -> name
      | parent :: _ -> parent ^ "/" ^ name
    in
    ds.ds_stack <- path :: ds.ds_stack;
    let t0 = registry.r_clock () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = registry.r_clock () in
        let dt = t1 -. t0 in
        (match ds.ds_stack with
         | p :: rest when p == path -> ds.ds_stack <- rest
         | stack ->
             (* an inner span leaked (exception skipped its finally);
                drop frames down to ours rather than corrupt the tree *)
             let rec unwind = function
               | p :: rest when p == path -> rest
               | _ :: rest -> unwind rest
               | [] -> []
             in
             ds.ds_stack <- unwind stack);
        let c = span_cell ds path in
        c.s_calls <- c.s_calls + 1;
        c.s_seconds <- c.s_seconds +. dt;
        let cap = registry.r_recorder in
        if cap > 0 then begin
          if Array.length ds.ds_ring <> cap then begin
            ds.ds_ring <-
              Array.make cap { sp_path = ""; sp_begin = 0.; sp_end = 0. };
            ds.ds_next <- 0;
            ds.ds_count <- 0
          end;
          ds.ds_ring.(ds.ds_next) <-
            { sp_path = path; sp_begin = t0; sp_end = t1 };
          ds.ds_next <- (ds.ds_next + 1) mod cap;
          ds.ds_count <- ds.ds_count + 1
        end)
      f
  end

(* --- flight recorder ------------------------------------------------ *)

(* Timestamped begin/end records for every completed span, kept in a
   bounded per-domain ring (oldest overwritten).  Off by default: the
   aggregate cells above are always maintained when the registry is
   enabled, the recorder additionally keeps the timeline.  Drained as
   Chrome trace-event JSON (Perfetto-loadable): one track (tid) per
   domain — in fleet mode, per worker — with pipeline-stage spans
   nesting inside each track by time containment. *)

type trace_event = {
  te_domain : int;
  te_path : string;
  te_begin : float;
  te_end : float;
}

let set_recorder ?(registry = default) ?(capacity = 65536) on =
  registry.r_recorder <- (if on then max 1 capacity else 0)

let recorder_enabled ?(registry = default) () = registry.r_recorder > 0

(* All surviving events across domains, oldest first within a domain,
   globally sorted by (begin time, domain, path) so the drain is
   deterministic under a scripted clock. *)
let recorded_events ?(registry = default) () =
  Mutex.lock registry.r_mutex;
  let domains = registry.r_domains in
  Mutex.unlock registry.r_mutex;
  let evs =
    List.concat_map
      (fun (did, ds) ->
         let cap = Array.length ds.ds_ring in
         if cap = 0 then []
         else begin
           let n = min ds.ds_count cap in
           let start = (ds.ds_next - n + cap) mod cap in
           List.init n (fun i ->
               let e = ds.ds_ring.((start + i) mod cap) in
               { te_domain = did; te_path = e.sp_path;
                 te_begin = e.sp_begin; te_end = e.sp_end })
         end)
      domains
  in
  List.sort
    (fun a b ->
       match compare a.te_begin b.te_begin with
       | 0 -> (
           match compare a.te_domain b.te_domain with
           | 0 -> compare a.te_path b.te_path
           | c -> c)
       | c -> c)
    evs

(* Events overwritten because a domain's ring wrapped. *)
let recorder_dropped ?(registry = default) () =
  Mutex.lock registry.r_mutex;
  let domains = registry.r_domains in
  Mutex.unlock registry.r_mutex;
  List.fold_left
    (fun acc (_, ds) ->
       let cap = Array.length ds.ds_ring in
       if cap = 0 then acc else acc + max 0 (ds.ds_count - cap))
    0 domains

(* Chrome trace-event format: {"traceEvents": [...]} with "X" (complete)
   slices, ts/dur in microseconds relative to the earliest recorded
   begin, pid 0, tid = domain id, plus "M" metadata naming each track.
   Loads directly in Perfetto / chrome://tracing. *)
let trace_json_value ?(registry = default) () =
  let module J = Er_json in
  let evs = recorded_events ~registry () in
  let epoch =
    List.fold_left (fun a e -> Float.min a e.te_begin) infinity evs
  in
  let epoch = if Float.is_finite epoch then epoch else 0. in
  let leaf path =
    match String.rindex_opt path '/' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  let cat path =
    match String.index_opt path '/' with
    | Some i -> String.sub path 0 i
    | None -> path
  in
  let doms = List.sort_uniq compare (List.map (fun e -> e.te_domain) evs) in
  let meta =
    J.Obj
      [ ("name", J.Str "process_name"); ("ph", J.Str "M"); ("pid", J.Int 0);
        ("args", J.Obj [ ("name", J.Str "er") ]) ]
    :: List.map
         (fun d ->
            J.Obj
              [ ("name", J.Str "thread_name"); ("ph", J.Str "M");
                ("pid", J.Int 0); ("tid", J.Int d);
                ("args",
                 J.Obj
                   [ ("name", J.Str (Printf.sprintf "worker domain %d" d)) ])
              ])
         doms
  in
  let slices =
    List.map
      (fun e ->
         J.Obj
           [ ("name", J.Str (leaf e.te_path)); ("cat", J.Str (cat e.te_path));
             ("ph", J.Str "X");
             ("ts", J.Float ((e.te_begin -. epoch) *. 1e6));
             ("dur", J.Float ((e.te_end -. e.te_begin) *. 1e6));
             ("pid", J.Int 0); ("tid", J.Int e.te_domain);
             ("args", J.Obj [ ("path", J.Str e.te_path) ]) ])
      evs
  in
  J.Obj
    [ ("traceEvents", J.List (meta @ slices));
      ("displayTimeUnit", J.Str "ms") ]

let trace_json ?(registry = default) () =
  Er_json.to_string (trace_json_value ~registry ())

(* ==================================================================== *)
(* Snapshots: an immutable copy of the registry state, with the three
   renderers (human table / JSON / Prometheus text exposition). *)
(* ==================================================================== *)

module Snapshot = struct
  type sample =
    | Counter of {
        name : string;
        help : string;
        labels : labels;
        value : int;
      }
    | Gauge of { name : string; help : string; labels : labels; value : float }
    | Histogram of {
        name : string;
        help : string;
        labels : labels;
        bounds : float array;
        counts : int array; (* per-bucket, not cumulative *)
        sum : float;
      }
    | Top of {
        name : string;
        help : string;
        k : int;
        rows : (string * int * labels) list; (* key, cost, row labels *)
      }

  type span = { path : string; calls : int; seconds : float }
  type t = { samples : sample list; spans : span list }

  let sample_name = function
    | Counter { name; _ }
    | Gauge { name; _ }
    | Histogram { name; _ }
    | Top { name; _ } ->
        name

  let sample_labels = function
    | Counter { labels; _ } | Gauge { labels; _ } | Histogram { labels; _ } ->
        labels
    | Top _ -> []

  let take registry =
    let samples =
      List.rev_map
        (function
          | (Counter c : metric) ->
              Counter
                { name = c.c_name; help = c.c_help; labels = c.c_labels;
                  value = Atomic.get c.c_value }
          | Gauge g ->
              Gauge
                { name = g.g_name; help = g.g_help; labels = g.g_labels;
                  value = g.g_cell.(0) }
          | Histogram h ->
              Mutex.lock h.h_mutex;
              let counts = Array.copy h.h_counts and sum = h.h_sum.(0) in
              Mutex.unlock h.h_mutex;
              Histogram
                { name = h.h_name; help = h.h_help; labels = h.h_labels;
                  bounds = Array.copy h.h_bounds; counts; sum }
          | Top t ->
              Mutex.lock t.t_mutex;
              let rows =
                List.map
                  (fun r -> (r.tr_key, r.tr_cost, r.tr_labels))
                  t.t_rows
              in
              Mutex.unlock t.t_mutex;
              Top { name = t.t_name; help = t.t_help; k = t.t_k; rows })
        registry.r_rev
    in
    (* merge the per-domain span trees by path: same path on several
       domains sums its calls and seconds, which is what the combined
       tree would have shown had everything run on one domain *)
    let spans =
      Mutex.lock registry.r_mutex;
      let domains = registry.r_domains in
      Mutex.unlock registry.r_mutex;
      let merged : (string, span_cell) Hashtbl.t = Hashtbl.create 32 in
      List.iter
        (fun (_, ds) ->
           Hashtbl.iter
             (fun path (c : span_cell) ->
                match Hashtbl.find_opt merged path with
                | Some m ->
                    m.s_calls <- m.s_calls + c.s_calls;
                    m.s_seconds <- m.s_seconds +. c.s_seconds
                | None ->
                    Hashtbl.add merged path
                      { s_calls = c.s_calls; s_seconds = c.s_seconds })
             ds.ds_spans)
        domains;
      Hashtbl.fold
        (fun path (c : span_cell) acc ->
           { path; calls = c.s_calls; seconds = c.s_seconds } :: acc)
        merged []
      |> List.sort (fun a b -> compare a.path b.path)
    in
    { samples; spans }

  (* --- aggregate lookups (tests, fleet columns) -------------------- *)

  let counter_total t name =
    List.fold_left
      (fun acc s ->
         match s with
         | Counter { name = n; value; _ } when n = name -> acc + value
         | _ -> acc)
      0 t.samples

  let gauge_value t ?(labels = []) name =
    let labels = canonical_labels labels in
    List.find_map
      (function
        | Gauge { name = n; labels = l; value; _ }
          when n = name && l = labels -> Some value
        | _ -> None)
      t.samples

  let histogram_count t name =
    List.fold_left
      (fun acc s ->
         match s with
         | Histogram { name = n; counts; _ } when n = name ->
             Array.fold_left ( + ) acc counts
         | _ -> acc)
      0 t.samples

  (* Quantile estimate from one histogram sample: find the bucket
     holding rank [q * total] and interpolate linearly inside it.  The
     first bucket interpolates from 0 (all our observations are
     non-negative); the +Inf bucket reports the last finite bound. *)
  let quantile_of ~bounds ~counts q =
    let total = Array.fold_left ( + ) 0 counts in
    if total = 0 then None
    else begin
      let rank = q *. float_of_int total in
      let nb = Array.length bounds in
      let rec go i cum =
        if i > nb then Some bounds.(nb - 1)
        else
          let cum' = cum + counts.(i) in
          if float_of_int cum' >= rank && counts.(i) > 0 then
            if i = nb then Some bounds.(nb - 1)
            else
              let lo = if i = 0 then 0. else bounds.(i - 1) in
              let hi = bounds.(i) in
              let frac =
                (rank -. float_of_int cum) /. float_of_int counts.(i)
              in
              Some (lo +. ((hi -. lo) *. Float.max 0. (Float.min 1. frac)))
          else go (i + 1) cum'
      in
      go 0 0
    end

  let quantile t name q =
    List.find_map
      (function
        | Histogram { name = n; bounds; counts; _ } when n = name ->
            quantile_of ~bounds ~counts q
        | _ -> None)
      t.samples

  (* --- JSON --------------------------------------------------------- *)

  module J = Er_json

  let labels_to_json labels =
    J.Obj (List.map (fun (k, v) -> (k, J.Str v)) labels)

  let labels_of_json = function
    | J.Obj fields ->
        let ok =
          List.for_all (function _, J.Str _ -> true | _ -> false) fields
        in
        if ok then
          Some
            (List.map
               (function
                 | k, J.Str v -> (k, v)
                 | _ -> assert false)
               fields)
        else None
    | _ -> None

  let sample_to_json = function
    | Counter { name; help; labels; value } ->
        J.Obj
          [ ("kind", J.Str "counter"); ("name", J.Str name);
            ("help", J.Str help); ("labels", labels_to_json labels);
            ("value", J.Int value) ]
    | Gauge { name; help; labels; value } ->
        J.Obj
          [ ("kind", J.Str "gauge"); ("name", J.Str name);
            ("help", J.Str help); ("labels", labels_to_json labels);
            ("value", J.Float value) ]
    | Histogram { name; help; labels; bounds; counts; sum } ->
        J.Obj
          [ ("kind", J.Str "histogram"); ("name", J.Str name);
            ("help", J.Str help); ("labels", labels_to_json labels);
            ("bounds",
             J.List (Array.to_list (Array.map (fun b -> J.Float b) bounds)));
            ("counts",
             J.List (Array.to_list (Array.map (fun c -> J.Int c) counts)));
            ("sum", J.Float sum) ]
    | Top { name; help; k; rows } ->
        J.Obj
          [ ("kind", J.Str "top"); ("name", J.Str name); ("help", J.Str help);
            ("labels", labels_to_json []); ("k", J.Int k);
            ("rows",
             J.List
               (List.map
                  (fun (key, cost, labels) ->
                     J.Obj
                       [ ("key", J.Str key); ("cost", J.Int cost);
                         ("labels", labels_to_json labels) ])
                  rows)) ]

  let to_json_value t =
    J.Obj
      [ ("samples", J.List (List.map sample_to_json t.samples));
        ("spans",
         J.List
           (List.map
              (fun s ->
                 J.Obj
                   [ ("path", J.Str s.path); ("calls", J.Int s.calls);
                     ("seconds", J.Float s.seconds) ])
              t.spans)) ]

  let to_json t = J.to_string (to_json_value t)

  let ( let* ) = Option.bind

  let sample_of_json j =
    let* kind = Option.bind (J.member "kind" j) J.to_str in
    let* name = Option.bind (J.member "name" j) J.to_str in
    let* help = Option.bind (J.member "help" j) J.to_str in
    let* labels = Option.bind (J.member "labels" j) labels_of_json in
    match kind with
    | "counter" ->
        let* value = Option.bind (J.member "value" j) J.to_int in
        Some (Counter { name; help; labels; value })
    | "gauge" ->
        let* value = Option.bind (J.member "value" j) J.to_float in
        Some (Gauge { name; help; labels; value })
    | "histogram" ->
        let* bounds = Option.bind (J.member "bounds" j) J.to_list in
        let* counts = Option.bind (J.member "counts" j) J.to_list in
        let* sum = Option.bind (J.member "sum" j) J.to_float in
        let* bounds =
          List.fold_left
            (fun acc b ->
               let* acc = acc in
               let* b = J.to_float b in
               Some (b :: acc))
            (Some []) bounds
        in
        let* counts =
          List.fold_left
            (fun acc c ->
               let* acc = acc in
               let* c = J.to_int c in
               Some (c :: acc))
            (Some []) counts
        in
        Some
          (Histogram
             { name; help; labels;
               bounds = Array.of_list (List.rev bounds);
               counts = Array.of_list (List.rev counts); sum })
    | "top" ->
        let* k = Option.bind (J.member "k" j) J.to_int in
        let* rows = Option.bind (J.member "rows" j) J.to_list in
        let* rows =
          List.fold_left
            (fun acc r ->
               let* acc = acc in
               let* key = Option.bind (J.member "key" r) J.to_str in
               let* cost = Option.bind (J.member "cost" r) J.to_int in
               let* labels = Option.bind (J.member "labels" r) labels_of_json in
               Some ((key, cost, labels) :: acc))
            (Some []) rows
        in
        Some (Top { name; help; k; rows = List.rev rows })
    | _ -> None

  let of_json_value j =
    let* samples = Option.bind (J.member "samples" j) J.to_list in
    let* spans = Option.bind (J.member "spans" j) J.to_list in
    let* samples =
      List.fold_left
        (fun acc s ->
           let* acc = acc in
           let* s = sample_of_json s in
           Some (s :: acc))
        (Some []) samples
    in
    let* spans =
      List.fold_left
        (fun acc s ->
           let* acc = acc in
           let* path = Option.bind (J.member "path" s) J.to_str in
           let* calls = Option.bind (J.member "calls" s) J.to_int in
           let* seconds = Option.bind (J.member "seconds" s) J.to_float in
           Some ({ path; calls; seconds } :: acc))
        (Some []) spans
    in
    Some { samples = List.rev samples; spans = List.rev spans }

  let of_json s = Option.bind (J.parse s) of_json_value

  (* --- Prometheus text exposition ---------------------------------- *)

  (* Prometheus values: integral floats render bare, others with enough
     digits to round-trip; the exposition format has no exponent
     restrictions so %.9g is fine. *)
  let prom_float f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.9g" f

  let prom_label_value v =
    let buf = Buffer.create (String.length v + 4) in
    String.iter
      (fun c ->
         match c with
         | '\\' -> Buffer.add_string buf "\\\\"
         | '"' -> Buffer.add_string buf "\\\""
         | '\n' -> Buffer.add_string buf "\\n"
         | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf

  let prom_labels = function
    | [] -> ""
    | labels ->
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) ->
                  Printf.sprintf "%s=\"%s\"" k (prom_label_value v))
               labels)
        ^ "}"

  (* labels plus one extra pair already rendered (for histogram [le]) *)
  let prom_labels_with labels extra =
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_label_value v))
           labels
         @ [ extra ])
    ^ "}"

  let to_prometheus t =
    let buf = Buffer.create 1024 in
    (* group samples into families preserving first-appearance order *)
    let seen = Hashtbl.create 16 in
    let families =
      List.filter_map
        (fun s ->
           let n = sample_name s in
           if Hashtbl.mem seen n then None
           else begin
             Hashtbl.add seen n ();
             Some n
           end)
        t.samples
    in
    List.iter
      (fun fam ->
         let members = List.filter (fun s -> sample_name s = fam) t.samples in
         (match members with
          | [] -> ()
          | first :: _ ->
              let help, ty =
                match first with
                | Counter { help; _ } -> (help, "counter")
                | Gauge { help; _ } -> (help, "gauge")
                | Histogram { help; _ } -> (help, "histogram")
                (* top tables expose rows as a gauge family keyed by
                   a [key] label *)
                | Top { help; _ } -> (help, "gauge")
              in
              Buffer.add_string buf
                (Printf.sprintf "# HELP %s %s\n# TYPE %s %s\n" fam help fam ty));
         List.iter
           (fun s ->
              match s with
              | Counter { name; labels; value; _ } ->
                  Buffer.add_string buf
                    (Printf.sprintf "%s%s %d\n" name (prom_labels labels)
                       value)
              | Gauge { name; labels; value; _ } ->
                  Buffer.add_string buf
                    (Printf.sprintf "%s%s %s\n" name (prom_labels labels)
                       (prom_float value))
              | Histogram { name; labels; bounds; counts; sum; _ } ->
                  let cum = ref 0 in
                  Array.iteri
                    (fun i b ->
                       cum := !cum + counts.(i);
                       Buffer.add_string buf
                         (Printf.sprintf "%s_bucket%s %d\n" name
                            (prom_labels_with labels
                               (Printf.sprintf "le=\"%s\"" (prom_float b)))
                            !cum))
                    bounds;
                  cum := !cum + counts.(Array.length counts - 1);
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s %d\n" name
                       (prom_labels_with labels "le=\"+Inf\"")
                       !cum);
                  Buffer.add_string buf
                    (Printf.sprintf "%s_sum%s %s\n" name (prom_labels labels)
                       (prom_float sum));
                  Buffer.add_string buf
                    (Printf.sprintf "%s_count%s %d\n" name
                       (prom_labels labels) !cum)
              | Top { name; rows; _ } ->
                  List.iter
                    (fun (key, cost, labels) ->
                       Buffer.add_string buf
                         (Printf.sprintf "%s%s %d\n" name
                            (prom_labels_with labels
                               (Printf.sprintf "key=\"%s\""
                                  (prom_label_value key)))
                            cost))
                    rows)
           members)
      families;
    if t.spans <> [] then begin
      Buffer.add_string buf
        "# HELP er_span_seconds_total Cumulative wall time per span path.\n\
         # TYPE er_span_seconds_total counter\n";
      List.iter
        (fun s ->
           Buffer.add_string buf
             (Printf.sprintf "er_span_seconds_total{span=\"%s\"} %s\n"
                (prom_label_value s.path)
                (prom_float s.seconds)))
        t.spans;
      Buffer.add_string buf
        "# HELP er_span_calls_total Calls per span path.\n\
         # TYPE er_span_calls_total counter\n";
      List.iter
        (fun s ->
           Buffer.add_string buf
             (Printf.sprintf "er_span_calls_total{span=\"%s\"} %d\n"
                (prom_label_value s.path) s.calls))
        t.spans
    end;
    Buffer.contents buf

  (* --- human table --------------------------------------------------- *)

  let to_table t =
    let buf = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    let labelled name labels =
      name
      ^
      match labels with
      | [] -> ""
      | l ->
          "{"
          ^ String.concat ","
              (List.map (fun (k, v) -> k ^ "=" ^ v) l)
          ^ "}"
    in
    let metrics =
      List.filter
        (function
          | Counter { value = 0; _ } -> false
          | Histogram { counts; _ } -> Array.exists (fun c -> c > 0) counts
          | Top { rows = []; _ } -> false
          | _ -> true)
        t.samples
    in
    if metrics <> [] then begin
      line "%-58s %16s" "metric" "value";
      List.iter
        (fun s ->
           match s with
           | Counter { name; labels; value; _ } ->
               line "%-58s %16d" (labelled name labels) value
           | Gauge { name; labels; value; _ } ->
               line "%-58s %16s" (labelled name labels) (prom_float value)
           | Histogram { name; labels; bounds; counts; sum; _ } ->
               let n = Array.fold_left ( + ) 0 counts in
               let q p =
                 match quantile_of ~bounds ~counts p with
                 | Some v -> prom_float v
                 | None -> "-"
               in
               line "%-58s %16s"
                 (labelled name labels)
                 (Printf.sprintf "n=%d sum=%s p50=%s p90=%s p99=%s" n
                    (prom_float sum) (q 0.5) (q 0.9) (q 0.99))
           | Top { name; rows; _ } ->
               List.iter
                 (fun (key, cost, labels) ->
                    line "%-58s %16d"
                      (labelled name (("key", key) :: labels))
                      cost)
                 rows)
        metrics
    end;
    if t.spans <> [] then begin
      if metrics <> [] then line "";
      line "%-58s %7s %10s" "span" "calls" "seconds";
      List.iter
        (fun s -> line "%-58s %7d %10.4f" s.path s.calls s.seconds)
        t.spans
    end;
    Buffer.contents buf
end

let snapshot ?(registry = default) () = Snapshot.take registry
