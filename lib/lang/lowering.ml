module Schema = Gopt_graph.Schema
module Value = Gopt_graph.Value
module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint
module Expr = Gopt_pattern.Expr
module Logical = Gopt_gir.Logical
open Cypher_ast

exception Lowering_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Lowering_error m)) fmt

let resolve_vcon schema labels =
  match labels with
  | [] -> Tc.All
  | _ ->
    let ids =
      List.map
        (fun l ->
          match Schema.find_vtype schema l with
          | Some i -> i
          | None -> fail "unknown vertex label %S" l)
        labels
    in
    (match Tc.of_list ~universe:(Schema.n_vtypes schema) ids with
    | Some c -> c
    | None ->
      invalid_arg
        (Printf.sprintf
           "Lowering.resolve_vcon: labels [%s] resolved to no representable constraint \
            over %d vertex types"
           (String.concat "; " labels) (Schema.n_vtypes schema)))

let resolve_econ schema types =
  match types with
  | [] -> Tc.All
  | _ ->
    let ids =
      List.map
        (fun l ->
          match Schema.find_etype schema l with
          | Some i -> i
          | None -> fail "unknown edge type %S" l)
        types
    in
    (match Tc.of_list ~universe:(Schema.n_etypes schema) ids with
    | Some c -> c
    | None ->
      invalid_arg
        (Printf.sprintf
           "Lowering.resolve_econ: edge types [%s] resolved to no representable \
            constraint over %d edge types"
           (String.concat "; " types) (Schema.n_etypes schema)))

let props_pred alias props =
  Expr.conj
    (List.map (fun (k, v) -> Expr.Binop (Expr.Eq, Expr.Prop (alias, k), Expr.Const v)) props)

let conj_opt a b =
  match a, b with
  | None, x | x, None -> x
  | Some p, Some q -> Some (Expr.Binop (Expr.And, p, q))

let build_pattern schema ~fresh paths =
  let vuniv = Schema.n_vtypes schema in
  let index : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let vertices = Gopt_util.Vec.create () in
  let edges = Gopt_util.Vec.create () in
  let identities = ref [] in
  let add_node (n : node_pat) =
    let name = match n.n_name with Some s -> s | None -> fresh "v" in
    let con = resolve_vcon schema n.n_labels in
    let pred = props_pred name n.n_props in
    match Hashtbl.find_opt index name with
    | Some i ->
      (* node reuse: intersect constraints, conjoin predicates *)
      let v = Gopt_util.Vec.get vertices i in
      let con' =
        match Tc.inter ~universe:vuniv v.Pattern.v_con con with
        | Some c -> c
        | None -> fail "contradictory labels on %S" name
      in
      Gopt_util.Vec.set vertices i
        { v with Pattern.v_con = con'; v_pred = conj_opt v.Pattern.v_pred pred };
      i
    | None ->
      let i = Gopt_util.Vec.length vertices in
      Hashtbl.add index name i;
      Gopt_util.Vec.push vertices (Pattern.mk_vertex ?pred ~alias:name con);
      i
  in
  List.iter
    (fun path ->
      let prev = ref (add_node path.head) in
      List.iter
        (fun (rel, node) ->
          let cur = add_node node in
          let alias = match rel.r_name with Some s -> s | None -> fresh "e" in
          let con = resolve_econ schema rel.r_types in
          let pred = props_pred alias rel.r_props in
          let src, dst, directed =
            match rel.r_dir with
            | R_out -> (!prev, cur, true)
            | R_in -> (cur, !prev, true)
            | R_both -> (!prev, cur, false)
          in
          (* A pattern holds no self-loop: the relationship ends at a hidden
             copy of its node instead, equated with the node by a filter. A
             single hop is made directed, so that an undirected self-loop
             matches each graph self-loop once. *)
          let dst, directed =
            if src <> dst then (dst, directed)
            else begin
              let v = Gopt_util.Vec.get vertices src in
              let copy = fresh "loop" in
              identities :=
                Expr.Binop (Expr.Eq, Expr.Var v.Pattern.v_alias, Expr.Var copy) :: !identities;
              Gopt_util.Vec.push vertices (Pattern.mk_vertex ~alias:copy v.Pattern.v_con);
              (Gopt_util.Vec.length vertices - 1, directed || rel.r_hops = None)
            end
          in
          (* Cypher variable-length semantics: no repeated edge inside the
             path (Trail) *)
          let path_sem = if rel.r_hops = None then Pattern.Arbitrary else Pattern.Trail in
          Gopt_util.Vec.push edges
            (Pattern.mk_edge ?pred ~directed ?hops:rel.r_hops ~path:path_sem ~alias ~src ~dst
               con);
          prev := cur)
        path.tail)
    paths;
  ( Pattern.create (Gopt_util.Vec.to_array vertices) (Gopt_util.Vec.to_array edges),
    Expr.conj (List.rev !identities) )

let match_of (p, identities) =
  match identities with
  | None -> Logical.Match p
  | Some e -> Logical.Select (Logical.Match p, e)

let default_alias = function
  | Scalar (Expr.Var x) -> x
  | Scalar (Expr.Prop (t, k)) -> t ^ "." ^ k
  | Scalar e -> Expr.to_string e
  | Agg (Logical.Count, _, None) -> "count(*)"
  | Agg (fn, _, arg) ->
    let name =
      match fn with
      | Logical.Count -> "count"
      | Logical.Count_distinct -> "count_distinct"
      | Logical.Sum -> "sum"
      | Logical.Avg -> "avg"
      | Logical.Min -> "min"
      | Logical.Max -> "max"
      | Logical.Collect -> "collect"
    in
    Printf.sprintf "%s(%s)" name (match arg with Some e -> Expr.to_string e | None -> "*")

let lower_projection plan (proj : projection) =
  let has_agg = List.exists (fun it -> match it.item with Agg _ -> true | Scalar _ -> false) proj.items in
  let alias_of it = match it.alias with Some a -> a | None -> default_alias it.item in
  let plan =
    if has_agg then begin
      let keys =
        List.filter_map
          (fun it ->
            match it.item with Scalar e -> Some (e, alias_of it) | Agg _ -> None)
          proj.items
      in
      let aggs =
        List.filter_map
          (fun it ->
            match it.item with
            | Agg (fn, _, arg) ->
              Some { Logical.agg_fn = fn; agg_arg = arg; agg_alias = alias_of it }
            | Scalar _ -> None)
          proj.items
      in
      Logical.Group (plan, keys, aggs)
    end
    else
      Logical.Project (plan, List.map (fun it ->
          match it.item with
          | Scalar e -> (e, alias_of it)
          | Agg _ ->
            (* unreachable: this branch only runs when no item is an Agg *)
            invalid_arg
              (Printf.sprintf
                 "Lowering: aggregate %S in a non-aggregating projection (the checker \
                  types Group outputs, not bare Project items)"
                 (alias_of it)))
          proj.items)
  in
  let plan = if proj.distinct then Logical.Dedup (plan, []) else plan in
  let plan = match proj.where with Some e -> Logical.Select (plan, e) | None -> plan in
  let plan =
    if proj.order_by <> [] then Logical.Order (plan, proj.order_by, None) else plan
  in
  let plan = match proj.skip with Some n -> Logical.Skip (plan, n) | None -> plan in
  match proj.limit with Some n -> Logical.Limit (plan, n) | None -> plan

let shared_fields a b =
  let fb = Logical.output_fields b in
  List.filter (fun f -> List.mem f fb) (Logical.output_fields a)

let cypher ?(edge_distinct = true) schema (q : query) =
  let counter = ref 0 in
  let fresh prefix =
    incr counter;
    Printf.sprintf "@%s%d" prefix !counter
  in
  let lower_single clauses =
    let plan = ref None in
    let match_plan paths =
      let ((p, _) as built) = build_pattern schema ~fresh paths in
      let base = match_of built in
      if edge_distinct && Pattern.n_edges p >= 2 then
        let tags =
          Array.to_list (Pattern.edges p) |> List.map (fun e -> e.Pattern.e_alias)
        in
        Logical.All_distinct (base, tags)
      else base
    in
    let combine kind new_plan =
      match !plan with
      | None -> new_plan
      | Some prev ->
        let keys = shared_fields prev new_plan in
        Logical.Join { left = prev; right = new_plan; keys; kind }
    in
    List.iter
      (fun clause ->
        match clause with
        | C_match { optional; paths; where } ->
          let base = match_plan paths in
          let kind = if optional then Logical.Left_outer else Logical.Inner in
          let joined = combine kind base in
          let with_where =
            List.fold_left
              (fun acc conj ->
                match conj with
                | Wc_expr e -> Logical.Select (acc, e)
                | Wc_pattern (positive, pats) ->
                  let sub = match_of (build_pattern schema ~fresh pats) in
                  let keys = shared_fields acc sub in
                  if keys = [] then
                    fail "pattern predicate shares no variables with the query";
                  Logical.Join
                    {
                      left = acc;
                      right = sub;
                      keys;
                      kind = (if positive then Logical.Semi else Logical.Anti);
                    })
              joined where
          in
          plan := Some with_where
        | C_unwind (e, name) -> begin
          match !plan with
          | Some p -> plan := Some (Logical.Unwind (p, e, name))
          | None -> fail "UNWIND before any MATCH is not supported"
        end
        | C_with proj | C_return proj ->
          let cur =
            match !plan with
            | Some p -> p
            | None -> fail "WITH/RETURN before any MATCH"
          in
          plan := Some (lower_projection cur proj))
      clauses;
    match !plan with Some p -> p | None -> fail "empty query"
  in
  match List.map lower_single q.parts with
  | [] -> fail "empty query"
  | [ single ] -> single
  | first :: rest ->
    let unioned = List.fold_left (fun acc p -> Logical.Union (acc, p)) first rest in
    if q.union_all then unioned else Logical.Dedup (unioned, [])
