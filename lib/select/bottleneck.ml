(* The bottleneck set (section 3.3.2).

   ER searches the constraint graph for the two patterns that dominate
   constraint-solving complexity: the longest chain of symbolic writes,
   and the write chain updating the largest symbolic memory object.  The
   bottleneck set is every symbolic value read or written by the
   operations in those chains — the index and value terms of each
   symbolic write.

   When a stall occurs without any symbolic write chain (pure arithmetic
   complexity), the fall-back bottleneck is the set of symbolic register
   values appearing directly in the path constraints.

   Selection is purely structural, as in the paper: it reads the symbolic
   memory and the constraint graph and never queries the solver.
   {!Recording} then cuts the set down to the values worth recording. *)

module Expr = Er_smt.Expr
module Symmem = Er_symex.Symmem
module Cgraph = Er_symex.Cgraph
module M = Er_metrics

let m_selections =
  M.counter ~help:"Key-data-value selection rounds run."
    "er_select_selections_total"

let m_candidates =
  M.counter ~help:"Bottleneck-set candidate terms across all rounds."
    "er_select_candidates_total"

let m_graph_nodes =
  M.gauge ~help:"Constraint-graph nodes at the last selection round."
    "er_select_graph_nodes"

let m_graph_edges =
  M.gauge ~help:"Constraint-graph edges at the last selection round."
    "er_select_graph_edges"

type t = {
  elements : Expr.t list;          (* deduplicated symbolic terms *)
  longest_chain : int;
  largest_object_bytes : int;
  chain_objects : int list;        (* object ids of the two chosen chains *)
}

let dedup exprs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun e ->
       if Hashtbl.mem seen (Expr.id e) then false
       else begin
         Hashtbl.add seen (Expr.id e) ();
         true
       end)
    exprs

let chain_elements o =
  List.concat_map
    (fun (idx, value) ->
       let keep e = if Expr.is_const e then [] else [ e ] in
       keep idx @ keep value)
    (Symmem.sym_chain_writes o)

(* Fall back to the symbolic terms with provenance that feed the path
   constraints most directly: operands of the assertion roots. *)
let fallback_elements (graph : Cgraph.t) =
  let with_prov = Hashtbl.create 16 in
  List.iter
    (fun root ->
       Expr.iter_subterms
         (fun e ->
            if
              (not (Expr.is_const e))
              && Option.is_some (Cgraph.provenance graph e)
              && not (Hashtbl.mem with_prov (Expr.id e))
            then Hashtbl.add with_prov (Expr.id e) e)
         [ root ])
    graph.Cgraph.assertions;
  Hashtbl.fold (fun _ e acc -> e :: acc) with_prov []
  |> List.sort (fun a b -> Int.compare (Expr.id a) (Expr.id b))

let compute (graph : Cgraph.t) (mem : Symmem.t) : t =
  let finish (t : t) =
    if M.enabled M.default then begin
      M.inc m_selections;
      M.add m_candidates (List.length t.elements);
      M.set m_graph_nodes (float_of_int (Cgraph.node_count graph));
      M.set m_graph_edges (float_of_int (Cgraph.edge_count graph))
    end;
    t
  in
  let objs =
    List.filter (fun o -> Symmem.sym_chain_length o > 0) (Symmem.objects mem)
  in
  match objs with
  | [] ->
      finish
        {
          elements = dedup (fallback_elements graph);
          longest_chain = 0;
          largest_object_bytes = 0;
          chain_objects = [];
        }
  | _ ->
      let by_chain =
        List.fold_left
          (fun best o ->
             if Symmem.sym_chain_length o > Symmem.sym_chain_length best then o
             else best)
          (List.hd objs) objs
      in
      let by_size =
        List.fold_left
          (fun best o ->
             if Symmem.size_bytes o > Symmem.size_bytes best then o else best)
          (List.hd objs) objs
      in
      let chosen =
        if by_chain.Symmem.s_id = by_size.Symmem.s_id then [ by_chain ]
        else [ by_chain; by_size ]
      in
      finish
        {
          elements = dedup (List.concat_map chain_elements chosen);
          longest_chain = Symmem.sym_chain_length by_chain;
          largest_object_bytes = Symmem.size_bytes by_size;
          chain_objects = List.map (fun o -> o.Symmem.s_id) chosen;
        }
