module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint
module Expr = Gopt_pattern.Expr
module Schema = Gopt_graph.Schema
module Logical = Gopt_gir.Logical
module SS = Set.Make (String)

(* --- edge-distinctness components ----------------------------------------- *)

(* The schema triples an edge can bind, as a mask over [Schema.triples]. *)
let edge_triples schema triples p (e : Pattern.edge) =
  let vu = Schema.n_vtypes schema and eu = Schema.n_etypes schema in
  let con i = (Pattern.vertex p i).Pattern.v_con in
  let sc = con e.Pattern.e_src and dc = con e.Pattern.e_dst in
  Array.map
    (fun (s, et, d) ->
      Tc.mem ~universe:eu e.Pattern.e_con et
      && (e.Pattern.e_hops <> None
         || (Tc.mem ~universe:vu sc s && Tc.mem ~universe:vu dc d)
         || ((not e.Pattern.e_directed) && Tc.mem ~universe:vu dc s && Tc.mem ~universe:vu sc d)))
    triples

let distinct_components schema patterns tags =
  let triples = Schema.triples schema in
  let masks = Hashtbl.create 16 and paths = Hashtbl.create 4 in
  List.iter
    (fun p ->
      Array.iter
        (fun (e : Pattern.edge) ->
          let a = e.Pattern.e_alias in
          let m = edge_triples schema triples p e in
          (match Hashtbl.find_opt masks a with
          | Some m0 -> Hashtbl.replace masks a (Array.map2 ( || ) m0 m)
          | None -> Hashtbl.add masks a m);
          if e.Pattern.e_hops <> None then Hashtbl.replace paths a ())
        (Pattern.edges p))
    patterns;
  let tags = Array.of_list tags in
  let n = Array.length tags in
  (* a tag no pattern binds may be any edge *)
  let mask t =
    match Hashtbl.find_opt masks t with
    | Some m -> m
    | None -> Array.make (Array.length triples) true
  in
  let ms = Array.map mask tags in
  let parent = Array.init n Fun.id in
  let rec root i = if parent.(i) = i then i else root parent.(i) in
  (* a component's root is its first tag *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = root i and b = root j in
      if a <> b && Array.exists2 ( && ) ms.(i) ms.(j) then parent.(max a b) <- min a b
    done
  done;
  (* a lone edge is always distinct from the others, but a var-length path
     keeps its check on its own edges *)
  let all = List.init n Fun.id in
  List.filter_map
    (fun i ->
      if root i <> i then None
      else
        match List.filter (fun j -> root j = i) all with
        | [ j ] when not (Hashtbl.mem paths tags.(j)) -> None
        | members -> Some (List.map (Array.get tags) members))
    all

(* --- plans annotated with their fields -------------------------------------- *)

(* Each node's output fields, computed once, bottom-up. *)
type node = { op : Physical.t; fields : string list; kids : node list }

let rec annotate op =
  let kids = List.map annotate (Physical.children op) in
  { op; fields = Physical.node_fields op (List.map (fun k -> k.fields) kids); kids }

let rec rebuild n = Physical.with_children n.op (List.map rebuild n.kids)

(* --- AllDistinct placement ------------------------------------------------- *)

let covers tags n = List.for_all (fun t -> List.mem t n.fields) tags

let unfiltered (s : Physical.edge_step) =
  s.Physical.s_edge.Pattern.e_pred = None && s.Physical.s_to_pred = None

(* Move [check] (an AllDistinct) down to [n]'s lowest descendant that binds
   all of [tags], through inner-join sides and unfiltered expansions. A
   filtered expansion stops it, and so does an ExpandInto, which closes a
   cycle and is itself a filter: below either, the check would run on rows
   the step throws away. *)
let rec place check tags n =
  let down kids = { n with kids } in
  match n.op, n.kids with
  | Physical.Hash_join { kind = Logical.Inner; _ }, [ l; r ] when covers tags l ->
    down [ place check tags l; r ]
  | Physical.Hash_join { kind = Logical.Inner; _ }, [ l; r ] when covers tags r ->
    down [ l; place check tags r ]
  | (Physical.Expand_all (_, s) | Physical.Path_expand (_, s)), [ x ]
    when unfiltered s && covers tags x ->
    down [ place check tags x ]
  | Physical.Expand_intersect (_, steps), [ x ]
    when List.for_all unfiltered steps && covers tags x ->
    down [ place check tags x ]
  | _ -> { check with fields = n.fields; kids = [ n ] }

let rec sink n =
  let n = { n with kids = List.map sink n.kids } in
  match n.op, n.kids with
  | Physical.All_distinct (_, tags), [ x ] -> place n tags x
  | _ -> n

(* --- join-input trimming --------------------------------------------------- *)

let expr_tags e = SS.of_list (Expr.free_tags e)
let opt_tags = function None -> SS.empty | Some e -> expr_tags e
let exprs_tags es = List.fold_left (fun acc e -> SS.union acc (expr_tags e)) SS.empty es

let step_reads (s : Physical.edge_step) =
  SS.add s.Physical.s_from
    (SS.union (opt_tags s.Physical.s_edge.Pattern.e_pred) (opt_tags s.Physical.s_to_pred))

(* The fields each child of [n] must deliver when [n]'s consumers read
   [need]. *)
let child_needs n need =
  let all k = SS.of_list k.fields in
  let edge (s : Physical.edge_step) = s.Physical.s_edge.Pattern.e_alias in
  match n.op, n.kids with
  | Physical.Expand_all (_, s), _ ->
    [ SS.diff (SS.union need (step_reads s)) (SS.of_list [ edge s; s.Physical.s_to ]) ]
  | (Physical.Expand_into (_, s) | Physical.Path_expand (_, s)), _ ->
    (* the target is read when it is already bound *)
    [ SS.add s.Physical.s_to (SS.remove (edge s) (SS.union need (step_reads s))) ]
  | Physical.Expand_intersect (_, steps), _ ->
    let reads = List.fold_left (fun acc s -> SS.union acc (step_reads s)) need steps in
    let bound = List.concat_map (fun s -> [ edge s; s.Physical.s_to ]) steps in
    [ SS.diff reads (SS.of_list bound) ]
  | Physical.Hash_join { keys; kind; _ }, [ l; r ] ->
    let base = SS.union (SS.of_list keys) (SS.inter (all l) (all r)) in
    let left = SS.union need base in
    begin
      match kind with
      | Logical.Semi | Logical.Anti -> [ left; SS.of_list keys ]
      | Logical.Inner | Logical.Left_outer -> [ left; left ]
    end
  | Physical.Select (_, e), _ -> [ SS.union need (expr_tags e) ]
  | Physical.Project (_, ps), _ -> [ exprs_tags (List.map fst ps) ]
  | Physical.Group (_, ks, aggs), _ ->
    [ exprs_tags (List.map fst ks @ List.filter_map (fun a -> a.Logical.agg_arg) aggs) ]
  | Physical.Order (_, ks, _), _ -> [ SS.union need (exprs_tags (List.map fst ks)) ]
  | Physical.Unfold (_, e, alias), _ -> [ SS.union (SS.remove alias need) (expr_tags e) ]
  | (Physical.Dedup (_, tags) | Physical.All_distinct (_, tags)), _ when tags <> [] ->
    [ SS.union need (SS.of_list tags) ]
  | (Physical.Dedup _ | Physical.Union _ | Physical.With_common _), kids -> List.map all kids
  | _, kids -> List.map (fun _ -> need) kids

(* Rebuild [n] so that every hash-join input delivers only what is read
   above it, through an all-[Var] Project (a column swap). *)
let rec trim need n =
  let input k need =
    let k' = trim need k in
    match n.op, List.filter (fun f -> SS.mem f need) k.fields with
    | Physical.Hash_join _, kept when List.compare_lengths kept k.fields < 0 ->
      (* a row keeps one column even when nothing is read *)
      let kept = if kept = [] then [ List.hd k.fields ] else kept in
      Physical.Project (k', List.map (fun f -> (Expr.Var f, f)) kept)
    | _ -> k'
  in
  Physical.with_children n.op (List.map2 input n.kids (child_needs n need))

let narrow ~sink:do_sink ~trim:do_trim plan =
  if not (do_sink || do_trim) then plan
  else
    let n = annotate plan in
    let n = if do_sink then sink n else n in
    if do_trim then trim (SS.of_list n.fields) n else rebuild n
