module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint
module Expr = Gopt_pattern.Expr
module Logical = Gopt_gir.Logical

type edge_step = {
  s_edge : Pattern.edge;
  s_from : string;
  s_to : string;
  s_forward : bool;
  s_to_con : Tc.t;
  s_to_pred : Expr.t option;
}

type t =
  | Scan of { alias : string; con : Tc.t; pred : Expr.t option }
  | Expand_all of t * edge_step
  | Expand_into of t * edge_step
  | Expand_intersect of t * edge_step list
  | Path_expand of t * edge_step
  | Hash_join of { left : t; right : t; keys : string list; kind : Logical.join_kind }
  | Select of t * Expr.t
  | Project of t * (Expr.t * string) list
  | Group of t * (Expr.t * string) list * Logical.agg list
  | Order of t * (Expr.t * Logical.sort_dir) list * int option
  | Limit of t * int
  | Skip of t * int
  | Unfold of t * Expr.t * string
  | Dedup of t * string list
  | Union of t * t
  | All_distinct of t * string list
  | With_common of { common : t; left : t; right : t; combine : Logical.combine }
  | Common_ref of string list
  | Empty of string list

(* field lists are short: a list scan beats building a table per call *)
let dedup_keep_order l =
  let rec go seen = function
    | [] -> []
    | x :: rest -> if List.mem x seen then go seen rest else x :: go (x :: seen) rest
  in
  go [] l

let children = function
  | Scan _ | Common_ref _ | Empty _ -> []
  | Expand_all (x, _) | Expand_into (x, _) | Expand_intersect (x, _) | Path_expand (x, _)
  | Select (x, _) | Project (x, _) | Group (x, _, _) | Order (x, _, _) | Limit (x, _)
  | Skip (x, _) | Unfold (x, _, _) | Dedup (x, _) | All_distinct (x, _) -> [ x ]
  | Hash_join { left; right; _ } | Union (left, right) -> [ left; right ]
  | With_common { common; left; right; _ } -> [ common; left; right ]

let with_children node kids =
  match node, kids with
  | (Scan _ | Common_ref _ | Empty _), [] -> node
  | Expand_all (_, s), [ x ] -> Expand_all (x, s)
  | Expand_into (_, s), [ x ] -> Expand_into (x, s)
  | Expand_intersect (_, ss), [ x ] -> Expand_intersect (x, ss)
  | Path_expand (_, s), [ x ] -> Path_expand (x, s)
  | Select (_, e), [ x ] -> Select (x, e)
  | Project (_, ps), [ x ] -> Project (x, ps)
  | Group (_, ks, aggs), [ x ] -> Group (x, ks, aggs)
  | Order (_, ks, lim), [ x ] -> Order (x, ks, lim)
  | Limit (_, n), [ x ] -> Limit (x, n)
  | Skip (_, n), [ x ] -> Skip (x, n)
  | Unfold (_, e, a), [ x ] -> Unfold (x, e, a)
  | Dedup (_, tags), [ x ] -> Dedup (x, tags)
  | All_distinct (_, tags), [ x ] -> All_distinct (x, tags)
  | Hash_join j, [ left; right ] -> Hash_join { j with left; right }
  | Union _, [ a; b ] -> Union (a, b)
  | With_common w, [ common; left; right ] -> With_common { w with common; left; right }
  | _ -> invalid_arg "Physical.with_children: wrong number of children"

let node_fields node kids =
  match node, kids with
  | Scan { alias; _ }, _ -> [ alias ]
  | (Expand_all (_, s) | Path_expand (_, s)), [ x ] ->
    dedup_keep_order (x @ [ s.s_edge.Pattern.e_alias; s.s_to ])
  | Expand_into (_, s), [ x ] -> dedup_keep_order (x @ [ s.s_edge.Pattern.e_alias ])
  | Expand_intersect (_, steps), [ x ] ->
    dedup_keep_order
      (x
      @ List.map (fun s -> s.s_edge.Pattern.e_alias) steps
      @ match steps with [] -> [] | s :: _ -> [ s.s_to ])
  | Hash_join { kind = Logical.Semi | Logical.Anti; _ }, [ l; _ ] -> l
  | Hash_join _, [ l; r ] -> dedup_keep_order (l @ r)
  | (Select _ | Limit _ | Skip _ | Dedup _ | All_distinct _ | Order _), [ x ] -> x
  | Unfold (_, _, alias), [ x ] -> dedup_keep_order (x @ [ alias ])
  | Project (_, ps), _ -> List.map snd ps
  | Group (_, ks, aggs), _ -> List.map snd ks @ List.map (fun a -> a.Logical.agg_alias) aggs
  | Union _, a :: _ -> a
  | With_common { combine = Logical.C_union | Logical.C_join (_, (Logical.Semi | Logical.Anti)); _ },
    [ _; l; _ ] ->
    l
  | With_common _, [ _; l; r ] -> dedup_keep_order (l @ r)
  | (Common_ref fields | Empty fields), _ -> fields
  | _ -> invalid_arg "Physical.node_fields: wrong number of children"

let rec output_fields node = node_fields node (List.map output_fields (children node))

let rec operator_count node =
  List.fold_left (fun n x -> n + operator_count x) 1 (children node)

let rec uses_intersect = function
  | Expand_intersect _ -> true
  | node -> List.exists uses_intersect (children node)

(* --- expression positions (query parameters) ------------------------------ *)

let map_step f s =
  {
    s with
    s_edge = { s.s_edge with Pattern.e_pred = Option.map f s.s_edge.Pattern.e_pred };
    s_to_pred = Option.map f s.s_to_pred;
  }

let rec map_exprs f = function
  | Scan { alias; con; pred } -> Scan { alias; con; pred = Option.map f pred }
  | Expand_all (x, s) -> Expand_all (map_exprs f x, map_step f s)
  | Expand_into (x, s) -> Expand_into (map_exprs f x, map_step f s)
  | Expand_intersect (x, steps) ->
    Expand_intersect (map_exprs f x, List.map (map_step f) steps)
  | Path_expand (x, s) -> Path_expand (map_exprs f x, map_step f s)
  | Hash_join { left; right; keys; kind } ->
    Hash_join { left = map_exprs f left; right = map_exprs f right; keys; kind }
  | Select (x, e) -> Select (map_exprs f x, f e)
  | Project (x, ps) -> Project (map_exprs f x, List.map (fun (e, a) -> (f e, a)) ps)
  | Group (x, ks, aggs) ->
    Group
      ( map_exprs f x,
        List.map (fun (e, a) -> (f e, a)) ks,
        List.map
          (fun a -> { a with Logical.agg_arg = Option.map f a.Logical.agg_arg })
          aggs )
  | Order (x, ks, lim) ->
    Order (map_exprs f x, List.map (fun (e, d) -> (f e, d)) ks, lim)
  | Limit (x, n) -> Limit (map_exprs f x, n)
  | Skip (x, n) -> Skip (map_exprs f x, n)
  | Unfold (x, e, alias) -> Unfold (map_exprs f x, f e, alias)
  | Dedup (x, tags) -> Dedup (map_exprs f x, tags)
  | Union (a, b) -> Union (map_exprs f a, map_exprs f b)
  | All_distinct (x, tags) -> All_distinct (map_exprs f x, tags)
  | With_common { common; left; right; combine } ->
    With_common
      {
        common = map_exprs f common;
        left = map_exprs f left;
        right = map_exprs f right;
        combine;
      }
  | (Common_ref _ | Empty _) as p -> p

let params plan =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let note e =
    List.iter
      (fun name ->
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.add seen name ();
          acc := name :: !acc
        end)
      (Expr.params e);
    e
  in
  ignore (map_exprs note plan);
  List.rev !acc

let bind_params bindings plan =
  let supplied () =
    match List.map fst bindings with
    | [] -> "none"
    | names -> String.concat ", " (List.map (fun n -> "$" ^ n) names)
  in
  let resolve name =
    match List.assoc_opt name bindings with
    | Some [ v ] -> Some v
    | Some vs ->
      invalid_arg
        (Printf.sprintf
           "parameter $%s binds %d values but is used as a scalar placeholder" name
           (List.length vs))
    | None ->
      invalid_arg
        (Printf.sprintf "undefined parameter $%s (supplied: %s)" name (supplied ()))
  in
  map_exprs (Expr.bind_params resolve) plan

(* --- pipeline classification (push-based engine support) ------------------ *)

type pipeline_role =
  | Streaming  (** Emits as input arrives; holds no unbounded state. *)
  | Stateful
      (** Emits eagerly but accumulates state proportional to distinct
          input (e.g. Dedup's seen-set). *)
  | Breaker
      (** Must materialize (part of) its input before emitting: Group,
          Order, the Hash_join build side, the With_common common
          sub-plan. *)

let pipeline_role = function
  | Group _ | Order _ | Hash_join _ | With_common _ -> Breaker
  | Dedup _ -> Stateful
  | Scan _ | Expand_all _ | Expand_into _ | Expand_intersect _ | Path_expand _
  | Select _ | Project _ | Limit _ | Skip _ | Unfold _ | Union _ | All_distinct _
  | Common_ref _ | Empty _ ->
    Streaming

let is_pipeline_breaker plan = pipeline_role plan = Breaker

let rec breaker_count plan =
  List.fold_left
    (fun n x -> n + breaker_count x)
    (if is_pipeline_breaker plan then 1 else 0)
    (children plan)

(* --- rendering ------------------------------------------------------------ *)

let node_label ?schema plan =
  let ename =
    match schema with
    | Some s -> fun i -> Gopt_graph.Schema.etype_name s i
    | None -> string_of_int
  in
  let vname =
    match schema with
    | Some s -> fun i -> Gopt_graph.Schema.vtype_name s i
    | None -> string_of_int
  in
  let step_str s =
    let hops =
      match s.s_edge.Pattern.e_hops with
      | None -> ""
      | Some (lo, hi) when lo = hi -> Printf.sprintf "*%d" lo
      | Some (lo, hi) -> Printf.sprintf "*%d..%d" lo hi
    in
    Format.asprintf "%s-[%s:%a%s]%s>%s:%a" s.s_from s.s_edge.Pattern.e_alias
      (Tc.pp ~names:ename) s.s_edge.Pattern.e_con hops
      (if s.s_forward then "-" else "<-")
      s.s_to (Tc.pp ~names:vname) s.s_to_con
  in
  match plan with
  | Scan { alias; con; pred } ->
    Format.asprintf "Scan(%s:%a)%s" alias (Tc.pp ~names:vname) con
      (match pred with None -> "" | Some p -> " WHERE " ^ Expr.to_string p)
  | Expand_all (_, s) -> Printf.sprintf "ExpandAll(%s)" (step_str s)
  | Expand_into (_, s) -> Printf.sprintf "ExpandInto(%s)" (step_str s)
  | Expand_intersect (_, steps) ->
    Printf.sprintf "ExpandIntersect(%s)" (String.concat " & " (List.map step_str steps))
  | Path_expand (_, s) -> Printf.sprintf "PathExpand(%s)" (step_str s)
  | Hash_join { keys; kind; _ } ->
    Printf.sprintf "HashJoin[%s](%s)"
      (match kind with
      | Logical.Inner -> "INNER"
      | Logical.Left_outer -> "LEFT"
      | Logical.Semi -> "SEMI"
      | Logical.Anti -> "ANTI")
      (String.concat ", " keys)
  | Select (_, e) -> Printf.sprintf "Select(%s)" (Expr.to_string e)
  | Project (_, ps) ->
    Printf.sprintf "Project(%s)"
      (String.concat ", "
         (List.map (fun (e, a) -> Printf.sprintf "%s AS %s" (Expr.to_string e) a) ps))
  | Group (_, ks, aggs) ->
    Printf.sprintf "Group(keys=%d, aggs=%d)" (List.length ks) (List.length aggs)
  | Order (_, ks, lim) ->
    Printf.sprintf "Order(keys=%d%s)" (List.length ks)
      (match lim with None -> "" | Some n -> Printf.sprintf ", topk=%d" n)
  | Limit (_, n) -> Printf.sprintf "Limit(%d)" n
  | Skip (_, n) -> Printf.sprintf "Skip(%d)" n
  | Unfold (_, e, a) -> Printf.sprintf "Unfold(%s AS %s)" (Expr.to_string e) a
  | Dedup (_, tags) -> Printf.sprintf "Dedup(%s)" (String.concat ", " tags)
  | Union _ -> "Union"
  | All_distinct (_, tags) -> Printf.sprintf "AllDistinct(%s)" (String.concat ", " tags)
  | With_common _ -> "WithCommon"
  | Common_ref _ -> "CommonRef"
  | Empty fields -> Printf.sprintf "Empty(%s)" (String.concat ", " fields)

let pp ?schema ppf plan =
  let rec go indent plan =
    Format.fprintf ppf "%s%s@," (String.make (2 * indent) ' ') (node_label ?schema plan);
    List.iter (go (indent + 1)) (children plan)
  in
  Format.fprintf ppf "@[<v>";
  go 0 plan;
  Format.fprintf ppf "@]"


let to_string ?schema plan = Format.asprintf "%a" (pp ?schema) plan
