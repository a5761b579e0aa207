module Logical = Gopt_gir.Logical
module Pattern = Gopt_pattern.Pattern
module Expr = Gopt_pattern.Expr
module Ti = Gopt_typeinf.Type_inference
module D = Diagnostic
module Et = Expr_type
module SS = Set.Make (String)

(* --- typed field environments --------------------------------------------- *)

(* [open_world] models a plan fragment boundary (a Common_ref whose
   With_common ancestor is outside the checked fragment): every name
   resolves, with unknown type. *)
type env = { fields : (string * Et.ty) list; open_world : bool }

let closed fields = { fields; open_world = false }

let lookup env x =
  match List.assoc_opt x env.fields with
  | Some t -> Some t
  | None -> if env.open_world then Some Et.Any else None

let mem env x = lookup env x <> None

let union_env a b =
  {
    fields = a.fields @ List.filter (fun (f, _) -> not (List.mem_assoc f a.fields)) b.fields;
    open_world = a.open_world || b.open_world;
  }

let field_names env = List.map fst env.fields

(* --- node naming / paths --------------------------------------------------- *)

let node_name = function
  | Logical.Match _ -> "Match"
  | Logical.Pattern_cont _ -> "PatternCont"
  | Logical.Common_ref -> "CommonRef"
  | Logical.With_common _ -> "WithCommon"
  | Logical.Select _ -> "Select"
  | Logical.Project _ -> "Project"
  | Logical.Join _ -> "Join"
  | Logical.Group _ -> "Group"
  | Logical.Order _ -> "Order"
  | Logical.Limit _ -> "Limit"
  | Logical.Skip _ -> "Skip"
  | Logical.Unwind _ -> "Unwind"
  | Logical.Dedup _ -> "Dedup"
  | Logical.Union _ -> "Union"
  | Logical.All_distinct _ -> "AllDistinct"

let child_path path ?side child =
  path ^ "/" ^ (match side with None -> "" | Some s -> s ^ ":") ^ node_name child

(* --- pattern connectivity -------------------------------------------------- *)

let pattern_components p =
  let nv = Pattern.n_vertices p in
  let comp = Array.make nv (-1) in
  let next = ref 0 in
  for v = 0 to nv - 1 do
    if comp.(v) < 0 then begin
      let id = !next in
      incr next;
      let rec dfs x =
        if comp.(x) < 0 then begin
          comp.(x) <- id;
          List.iter (fun (_, y) -> dfs y) (Pattern.neighbors p x)
        end
      in
      dfs v
    end
  done;
  List.init !next (fun c ->
      List.filter (fun v -> comp.(v) = c) (List.init nv Fun.id))

(* --- aggregate naming ------------------------------------------------------ *)

let agg_name = function
  | Logical.Count -> "COUNT"
  | Logical.Count_distinct -> "COUNT_DISTINCT"
  | Logical.Sum -> "SUM"
  | Logical.Avg -> "AVG"
  | Logical.Min -> "MIN"
  | Logical.Max -> "MAX"
  | Logical.Collect -> "COLLECT"

(* --- the checker ----------------------------------------------------------- *)

let run ?schema ~partial plan =
  let diags = ref [] in
  let err ~path fmt = Printf.ksprintf (fun m -> diags := D.error ~path m :: !diags) fmt in
  let warn ~path fmt = Printf.ksprintf (fun m -> diags := D.warning ~path m :: !diags) fmt in
  (* unused-binding lint state: alias -> (declaring path, structurally_used).
     Structurally used = appears in more than one pattern (patterns meet on
     it) or is a junction vertex (degree >= 2). *)
  let declared : (string, string * bool) Hashtbl.t = Hashtbl.create 16 in
  let used = ref SS.empty in
  let use tag = used := SS.add tag !used in
  let use_expr e = List.iter use (Expr.free_tags e) in
  let anonymous a = String.length a > 0 && a.[0] = '@' in
  let declare ~path alias ~structural =
    if not (anonymous alias) then
      match Hashtbl.find_opt declared alias with
      | Some (p0, _) -> Hashtbl.replace declared alias (p0, true)
      | None -> Hashtbl.add declared alias (path, structural)
  in
  let infer_expr ~path env e =
    let t, ds = Et.infer ?schema ~lookup:(lookup env) ~path e in
    diags := List.rev_append ds !diags;
    use_expr e;
    t
  in
  let check_bool_pred ~path ~what env e =
    let t = infer_expr ~path env e in
    if not (Et.compatible t Et.Bool) then
      err ~path "%s has type %s (expected bool)" what (Et.to_string t)
  in
  (* Narrow a pattern's constraints through schema type inference. *)
  let narrow ~path p =
    match schema with
    | None -> p
    | Some s -> begin
      match Ti.infer s p with
      | Ti.Inferred (p', _) -> p'
      | Ti.Invalid ->
        warn ~path "pattern admits no valid type assignment under the schema (matches nothing)";
        p
    end
  in
  let pattern_env p =
    let fields = ref [] in
    Array.iter
      (fun (v : Pattern.vertex) ->
        fields := (v.Pattern.v_alias, Et.Node (Some v.Pattern.v_con)) :: !fields)
      (Pattern.vertices p);
    Array.iter
      (fun (e : Pattern.edge) ->
        let ty =
          if e.Pattern.e_hops <> None then Et.Path else Et.Edge (Some e.Pattern.e_con)
        in
        fields := (e.Pattern.e_alias, ty) :: !fields)
      (Pattern.edges p);
    closed (List.rev !fields)
  in
  let check_pattern ~path ~input p =
    Array.iteri
      (fun i (v : Pattern.vertex) ->
        declare ~path v.Pattern.v_alias ~structural:(Pattern.degree p i >= 2))
      (Pattern.vertices p);
    Array.iter
      (fun (e : Pattern.edge) -> declare ~path e.Pattern.e_alias ~structural:false)
      (Pattern.edges p);
    (* vertex and edge aliases land in the same row namespace *)
    let valiases =
      Array.fold_left
        (fun s (v : Pattern.vertex) -> SS.add v.Pattern.v_alias s)
        SS.empty (Pattern.vertices p)
    in
    Array.iter
      (fun (e : Pattern.edge) ->
        if SS.mem e.Pattern.e_alias valiases then
          err ~path "alias %S names both a vertex and an edge of the pattern"
            e.Pattern.e_alias)
      (Pattern.edges p);
    (* element predicates must type as booleans over pattern + input fields *)
    let penv = union_env (pattern_env p) input in
    Array.iter
      (fun (v : Pattern.vertex) ->
        match v.Pattern.v_pred with
        | Some e ->
          check_bool_pred ~path
            ~what:(Printf.sprintf "predicate on pattern vertex %S" v.Pattern.v_alias)
            penv e
        | None -> ())
      (Pattern.vertices p);
    Array.iter
      (fun (e : Pattern.edge) ->
        match e.Pattern.e_pred with
        | Some pred ->
          check_bool_pred ~path
            ~what:(Printf.sprintf "predicate on pattern edge %S" e.Pattern.e_alias)
            penv pred
        | None -> ())
      (Pattern.edges p)
  in
  let check_join_keys ~path ~keys lenv renv =
    List.iter
      (fun k ->
        let lt = lookup lenv k and rt = lookup renv k in
        (match lt with
        | None -> err ~path "join key %S is not a field of the left input" k
        | Some _ -> ());
        (match rt with
        | None -> err ~path "join key %S is not a field of the right input" k
        | Some _ -> ());
        use k;
        match (lt, rt) with
        | Some l, Some r when not (Et.compatible l r) ->
          err ~path "join key %S has type %s on the left but %s on the right" k
            (Et.to_string l) (Et.to_string r)
        | _ -> ())
      keys
  in
  let check_union_fields ~path ~what lenv renv =
    if not (lenv.open_world || renv.open_world) then begin
      let lf = field_names lenv and rf = field_names renv in
      if not (SS.equal (SS.of_list lf) (SS.of_list rf)) then
        err ~path "%s branches produce different fields: [%s] vs [%s]" what
          (String.concat ", " lf) (String.concat ", " rf)
      else if lf <> rf then
        warn ~path "%s branches produce the same fields in a different order: [%s] vs [%s]"
          what (String.concat ", " lf) (String.concat ", " rf)
    end
  in
  let rec go ~path ~common node =
    match node with
    | Logical.Match p ->
      let p = narrow ~path p in
      check_pattern ~path ~input:(closed []) p;
      if Pattern.n_vertices p > 1 && not (Pattern.is_connected p) then
        warn ~path "disconnected pattern: the planner will form a cartesian product";
      pattern_env p
    | Logical.Pattern_cont (x, p) ->
      let env_x = go ~path:(child_path path x) ~common x in
      let p = narrow ~path p in
      check_pattern ~path ~input:env_x p;
      if not env_x.open_world then
        List.iter
          (fun component ->
            let bound =
              List.exists
                (fun v -> mem env_x (Pattern.vertex p v).Pattern.v_alias)
                component
            in
            if not bound then
              err ~path
                "pattern continuation component {%s} shares no vertex with its bound input \
                 (fields: %s)"
                (String.concat ", "
                   (List.map (fun v -> (Pattern.vertex p v).Pattern.v_alias) component))
                (String.concat ", " (field_names env_x)))
          (pattern_components p);
      union_env env_x (pattern_env p)
    | Logical.Common_ref -> begin
      match common with
      | Some cenv -> cenv
      | None ->
        if not partial then
          err ~path "COMMON_REF outside the scope of a WITH_COMMON operator";
        { fields = []; open_world = true }
    end
    | Logical.With_common { common = c; left; right; combine } ->
      let cenv = go ~path:(child_path path ~side:"common" c) ~common c in
      let lenv = go ~path:(child_path path ~side:"left" left) ~common:(Some cenv) left in
      let renv = go ~path:(child_path path ~side:"right" right) ~common:(Some cenv) right in
      begin
        match combine with
        | Logical.C_union ->
          check_union_fields ~path ~what:"WITH_COMMON(UNION)" lenv renv;
          lenv
        | Logical.C_join (keys, kind) -> begin
          check_join_keys ~path ~keys lenv renv;
          match kind with
          | Logical.Semi | Logical.Anti -> lenv
          | Logical.Inner | Logical.Left_outer -> union_env lenv renv
        end
      end
    | Logical.Select (x, e) ->
      let env = go ~path:(child_path path x) ~common x in
      check_bool_pred ~path ~what:"filter predicate" env e;
      env
    | Logical.Project (x, ps) ->
      let env = go ~path:(child_path path x) ~common x in
      let seen = Hashtbl.create 8 in
      let fields =
        List.map
          (fun (e, a) ->
            if Hashtbl.mem seen a then err ~path "duplicate projection alias %S" a;
            Hashtbl.replace seen a ();
            (a, infer_expr ~path env e))
          ps
      in
      closed fields
    | Logical.Join { left; right; keys; kind } -> begin
      let lenv = go ~path:(child_path path ~side:"left" left) ~common left in
      let renv = go ~path:(child_path path ~side:"right" right) ~common right in
      check_join_keys ~path ~keys lenv renv;
      match kind with
      | Logical.Semi | Logical.Anti -> lenv
      | Logical.Inner | Logical.Left_outer -> union_env lenv renv
    end
    | Logical.Group (x, ks, aggs) ->
      let env = go ~path:(child_path path x) ~common x in
      let seen = Hashtbl.create 8 in
      let out_alias a =
        if Hashtbl.mem seen a then err ~path "duplicate GROUP output alias %S" a;
        Hashtbl.replace seen a ()
      in
      let key_fields =
        List.map
          (fun (e, a) ->
            out_alias a;
            (a, infer_expr ~path env e))
          ks
      in
      let agg_fields =
        List.map
          (fun (a : Logical.agg) ->
            out_alias a.Logical.agg_alias;
            let arg_ty =
              match a.Logical.agg_arg with
              | Some e -> Some (infer_expr ~path env e)
              | None ->
                (match a.Logical.agg_fn with
                | Logical.Count -> ()
                | fn ->
                  err ~path "%s aggregate %S requires an argument" (agg_name fn)
                    a.Logical.agg_alias);
                None
            in
            let numeric_arg () =
              match arg_ty with
              | Some t when not (Et.is_numeric t) ->
                err ~path "%s aggregate %S over a %s argument"
                  (agg_name a.Logical.agg_fn) a.Logical.agg_alias (Et.to_string t)
              | _ -> ()
            in
            let ty =
              match a.Logical.agg_fn with
              | Logical.Count | Logical.Count_distinct -> Et.Int
              | Logical.Avg ->
                numeric_arg ();
                Et.Float
              | Logical.Sum -> begin
                numeric_arg ();
                match arg_ty with
                | Some (Et.Int as t) | Some (Et.Float as t) -> t
                | _ -> Et.Any
              end
              | Logical.Min | Logical.Max ->
                (match arg_ty with Some t -> t | None -> Et.Any)
              | Logical.Collect -> Et.List (match arg_ty with Some t -> t | None -> Et.Any)
            in
            (a.Logical.agg_alias, ty))
          aggs
      in
      closed (key_fields @ agg_fields)
    | Logical.Order (x, ks, lim) ->
      let env = go ~path:(child_path path x) ~common x in
      List.iter
        (fun (e, _) ->
          let t = infer_expr ~path env e in
          match t with
          | Et.List _ | Et.Path ->
            err ~path "ORDER BY on a %s value has no meaningful order (compares by length)"
              (Et.to_string t)
          | _ -> ())
        ks;
      (match lim with
      | Some n when n < 0 -> err ~path "negative ORDER top-k %d" n
      | _ -> ());
      env
    | Logical.Limit (x, n) ->
      let env = go ~path:(child_path path x) ~common x in
      if n < 0 then err ~path "negative LIMIT %d" n;
      env
    | Logical.Skip (x, n) ->
      let env = go ~path:(child_path path x) ~common x in
      if n < 0 then err ~path "negative SKIP %d" n;
      env
    | Logical.Unwind (x, e, alias) ->
      let env = go ~path:(child_path path x) ~common x in
      let t = infer_expr ~path env e in
      (match t with
      | Et.List _ | Et.Any -> ()
      | t -> err ~path "UNWIND over a %s value (expected a list)" (Et.to_string t));
      if mem env alias then warn ~path "UNWIND alias %S shadows an existing field" alias;
      let elem = match t with Et.List t' -> t' | _ -> Et.Any in
      union_env env (closed [ (alias, elem) ])
    | Logical.Dedup (x, tags) ->
      let env = go ~path:(child_path path x) ~common x in
      List.iter
        (fun tag ->
          use tag;
          if not (mem env tag) then err ~path "DEDUP tag %S is not a field of its input" tag)
        tags;
      env
    | Logical.Union (a, b) ->
      let lenv = go ~path:(child_path path ~side:"left" a) ~common a in
      let renv = go ~path:(child_path path ~side:"right" b) ~common b in
      check_union_fields ~path ~what:"UNION" lenv renv;
      lenv
    | Logical.All_distinct (x, tags) ->
      let env = go ~path:(child_path path x) ~common x in
      (* [tags = []] means "all edge fields below" (resolved by the planner) *)
      if tags = [] then
        Logical.fold
          (fun () node ->
            match node with
            | Logical.Match p | Logical.Pattern_cont (_, p) ->
              Array.iter (fun (e : Pattern.edge) -> use e.Pattern.e_alias) (Pattern.edges p)
            | _ -> ())
          () x;
      List.iter
        (fun tag ->
          use tag;
          match lookup env tag with
          | None -> err ~path "ALL_DISTINCT tag %S is not a field of its input" tag
          | Some (Et.Edge _ | Et.Path | Et.Any | Et.List _) -> ()
          | Some t ->
            err ~path "ALL_DISTINCT tag %S has type %s (expected an edge or path field)" tag
              (Et.to_string t))
        tags;
      env
  in
  let root_env = go ~path:(node_name plan) ~common:None plan in
  (* unused-binding lint: user-named pattern elements never referenced by any
     expression, key or tag, not junction vertices, and absent from the
     plan's output *)
  if not partial then begin
    let outputs = SS.of_list (field_names root_env) in
    Hashtbl.iter
      (fun alias (path, structural) ->
        if (not structural) && (not (SS.mem alias !used)) && not (SS.mem alias outputs)
        then warn ~path "binding %S is never used" alias)
      declared
  end;
  (List.rev !diags, root_env)

let check ?schema ?(partial = false) plan = fst (run ?schema ~partial plan)

let first_error ds = List.find_opt D.is_error ds

