module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint
module Expr = Gopt_pattern.Expr
module Logical = Gopt_gir.Logical
module Glogue = Gopt_glogue.Glogue
module Gq = Gopt_glogue.Glogue_query
module Rule = Gopt_opt.Rule
module Rp = Gopt_opt.Rules_pattern
module Rr = Gopt_opt.Rules_relational
module Cbo = Gopt_opt.Cbo
module Physical = Gopt_opt.Physical
module Spec = Gopt_opt.Physical_spec
module Planner = Gopt_opt.Planner
module Path_planner = Gopt_opt.Path_planner
module Baselines = Gopt_opt.Baselines
module Value = Gopt_graph.Value
open Fixtures

let gq = Gq.create (Glogue.build graph)

let name_pred tag v = Expr.Binop (Expr.Eq, Expr.Prop (tag, "name"), Expr.Const (Value.Str v))

let test_filter_into_pattern () =
  let plan = Logical.Select (Logical.Match p_knows, name_pred "a" "p0") in
  match Rp.filter_into_pattern.Rule.apply plan with
  | Some (Logical.Match p) ->
    Alcotest.(check bool) "pred pushed" true ((Pattern.vertex p 0).Pattern.v_pred <> None)
  | _ -> Alcotest.fail "rule did not fire as expected"

let test_filter_into_pattern_partial () =
  (* one pushable conjunct + one cross-element conjunct stays *)
  let cross = Expr.Binop (Expr.Lt, Expr.Prop ("a", "age"), Expr.Prop ("b", "age")) in
  let plan =
    Logical.Select (Logical.Match p_knows, Expr.Binop (Expr.And, name_pred "a" "p0", cross))
  in
  match Rp.filter_into_pattern.Rule.apply plan with
  | Some (Logical.Select (Logical.Match p, rest)) ->
    Alcotest.(check bool) "pred pushed" true ((Pattern.vertex p 0).Pattern.v_pred <> None);
    Alcotest.(check bool) "cross stays" true (Expr.equal rest cross)
  | _ -> Alcotest.fail "expected partial push"

let test_join_to_pattern () =
  let p1 =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person) |]
      [| pe "e1" 0 1 (Tc.Basic knows) |]
  in
  let p2 =
    Pattern.create
      [| pv "b" (Tc.Basic person); pv "c" (Tc.Basic city) |]
      [| pe "e2" 0 1 (Tc.Basic lives_in) |]
  in
  let plan =
    Logical.Join { left = Logical.Match p1; right = Logical.Match p2; keys = [ "b" ]; kind = Logical.Inner }
  in
  match Rp.join_to_pattern.Rule.apply plan with
  | Some (Logical.Match m) ->
    Alcotest.(check int) "merged vertices" 3 (Pattern.n_vertices m);
    Alcotest.(check int) "merged edges" 2 (Pattern.n_edges m)
  | _ -> Alcotest.fail "join_to_pattern did not fire"

let test_join_to_pattern_blocked () =
  (* join keys not covering all shared aliases: must not fire *)
  let p1 =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person) |]
      [| pe "e1" 0 1 (Tc.Basic knows) |]
  in
  let p2 =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person) |]
      [| pe "e2" 0 1 (Tc.Basic knows) |]
  in
  let plan =
    Logical.Join { left = Logical.Match p1; right = Logical.Match p2; keys = [ "a" ]; kind = Logical.Inner }
  in
  Alcotest.(check bool) "blocked" true (Rp.join_to_pattern.Rule.apply plan = None)

let test_com_sub_pattern () =
  let p1 =
    Pattern.create
      [| pv "v1" (Tc.Basic person); pv "v2" (Tc.Basic person); pv "@x1" (Tc.Basic city) |]
      [| pe "@e1" 0 1 (Tc.Basic knows); pe "@e2" 1 2 (Tc.Basic lives_in) |]
  in
  let p2 =
    Pattern.create
      [| pv "v1" (Tc.Basic person); pv "v2" (Tc.Basic person); pv "@x2" (Tc.Basic product) |]
      [| pe "@e3" 0 1 (Tc.Basic knows); pe "@e4" 1 2 (Tc.Basic purchased) |]
  in
  let proj m = Logical.Project (m, [ (Expr.Var "v1", "v1"); (Expr.Var "v2", "v2") ]) in
  let plan = Logical.Union (proj (Logical.Match p1), proj (Logical.Match p2)) in
  match Rp.com_sub_pattern.Rule.apply plan with
  | Some (Logical.With_common { common = Logical.Match c; _ }) ->
    Alcotest.(check int) "common is the KNOWS edge" 1 (Pattern.n_edges c)
  | _ -> Alcotest.fail "com_sub_pattern did not fire"

let test_field_trim () =
  let wide =
    Logical.Join
      {
        left = Logical.Match p_knows;
        right = Logical.Match p_to_city;
        keys = [];
        kind = Logical.Inner;
      }
  in
  let plan =
    Logical.Group
      ( wide,
        [],
        [ { Logical.agg_fn = Logical.Count; agg_arg = Some (Expr.Var "b"); agg_alias = "c" } ] )
  in
  let trimmed = Rp.field_trim plan in
  (* a trimming Project must appear below the join on the KNOWS side *)
  let has_trim =
    Logical.fold
      (fun acc n -> acc || match n with Logical.Project (Logical.Match _, _) -> true | _ -> false)
      false trimmed
  in
  Alcotest.(check bool) "trim inserted" true has_trim

let test_select_pushdown_join () =
  let join =
    Logical.Join
      { left = Logical.Match p_knows; right = Logical.Match p_to_city; keys = []; kind = Logical.Inner }
  in
  let plan = Logical.Select (join, name_pred "a" "p0") in
  match Rr.select_pushdown.Rule.apply plan with
  | Some (Logical.Join { left = Logical.Select (Logical.Match _, _); _ }) -> ()
  | _ -> Alcotest.fail "select not pushed to left input"

let test_select_pushdown_project () =
  let proj = Logical.Project (Logical.Match p_knows, [ (Expr.Var "a", "x") ]) in
  let plan = Logical.Select (proj, name_pred "x" "p0") in
  match Rr.select_pushdown.Rule.apply plan with
  | Some (Logical.Project (Logical.Select (_, pred), _)) ->
    Alcotest.(check (list string)) "substituted" [ "a" ] (Expr.free_tags pred)
  | _ -> Alcotest.fail "select not pushed through project"

let test_limit_pushdown () =
  let plan = Logical.Limit (Logical.Order (Logical.Match p_knows, [ (Expr.Var "a", Logical.Asc) ], None), 3) in
  match Rr.limit_pushdown.Rule.apply plan with
  | Some (Logical.Order (_, _, Some 3)) -> ()
  | _ -> Alcotest.fail "limit not fused into order"

let test_aggregate_pushdown () =
  let plan =
    Logical.Group
      ( Logical.Join
          { left = Logical.Match p_knows; right = Logical.Match p_to_city; keys = []; kind = Logical.Inner },
        [ (Expr.Var "a", "a") ],
        [ { Logical.agg_fn = Logical.Count; agg_arg = Some (Expr.Var "b"); agg_alias = "c" } ] )
  in
  (* count arg reads the right side (field "b" of p_to_city)?? "b" is in both;
     use the city-side alias to be unambiguous *)
  let plan =
    match plan with
    | Logical.Group (j, ks, _) ->
      Logical.Group
        (j, ks, [ { Logical.agg_fn = Logical.Count; agg_arg = Some (Expr.Var "e"); agg_alias = "c" } ])
    | _ -> assert false
  in
  match Rr.aggregate_pushdown.Rule.apply plan with
  | Some (Logical.Group (Logical.Join { right = Logical.Group _; _ }, _, final)) ->
    (match final with
    | [ { Logical.agg_fn = Logical.Sum; _ } ] -> ()
    | _ -> Alcotest.fail "final agg should be SUM of partials")
  | _ -> Alcotest.fail "aggregate_pushdown did not fire"

let test_fixpoint_terminates () =
  let plan =
    Logical.Select
      ( Logical.Select (Logical.Match p_knows, name_pred "a" "p0"),
        Expr.Binop (Expr.Gt, Expr.Prop ("b", "age"), Expr.Const (Value.Int 20)) )
  in
  let rewritten, applied = Rule.fixpoint ~check:true ~schema (Rp.all @ Rr.all) plan in
  Alcotest.(check bool) "some rules fired" true (applied <> []);
  match rewritten with
  | Logical.Match p ->
    Alcotest.(check bool) "all preds inside" true
      ((Pattern.vertex p 0).Pattern.v_pred <> None && (Pattern.vertex p 1).Pattern.v_pred <> None)
  | other -> Alcotest.failf "unexpected result:\n%s" (Gopt_gir.Plan_printer.to_string other)

(* --- CBO ---------------------------------------------------------------- *)

let test_cbo_triangle () =
  let plan, stats = Cbo.optimize gq Spec.graphscope p_triangle in
  Alcotest.(check bool) "cost positive" true (plan.Cbo.cost > 0.0);
  Alcotest.(check bool) "searched something" true (stats.Cbo.nodes_searched > 0);
  Alcotest.(check int) "order binds 3 vertices" 3 (List.length (Cbo.plan_order plan));
  let phys = Cbo.to_physical Spec.graphscope plan in
  Alcotest.(check bool) "all aliases bound" true
    (List.for_all
       (fun a -> List.mem a (Physical.output_fields phys))
       [ "a"; "b"; "c"; "e1"; "e2"; "e3" ])

let test_cbo_spec_operator_choice () =
  let plan, _ = Cbo.optimize gq Spec.graphscope p_triangle in
  let phys_gs = Cbo.to_physical Spec.graphscope plan in
  let phys_neo = Cbo.to_physical Spec.neo4j plan in
  Alcotest.(check bool) "graphscope uses intersect" true (Physical.uses_intersect phys_gs);
  Alcotest.(check bool) "neo4j never intersects" false (Physical.uses_intersect phys_neo)

let test_cbo_pruning_preserves_plan () =
  List.iter
    (fun pat ->
      let options = Cbo.default_options in
      let on, _ = Cbo.optimize ~options gq Spec.graphscope pat in
      let off, stats_off =
        Cbo.optimize
          ~options:{ options with Cbo.use_pruning = false; use_greedy_init = false }
          gq Spec.graphscope pat
      in
      Alcotest.(check (float 1e-6)) "same optimal cost" off.Cbo.cost on.Cbo.cost;
      Alcotest.(check int) "no pruning when disabled" 0 stats_off.Cbo.candidates_pruned)
    [ p_triangle; p_knows ]

let test_cbo_greedy_bound () =
  let greedy = Cbo.greedy gq Spec.graphscope p_triangle in
  let opt, _ = Cbo.optimize gq Spec.graphscope p_triangle in
  Alcotest.(check bool) "optimal <= greedy" true (opt.Cbo.cost <= greedy.Cbo.cost +. 1e-9)

let test_random_plan_valid () =
  let rng = Gopt_util.Prng.create 11 in
  for _ = 1 to 5 do
    let phys, order = Baselines.random_plan rng Spec.graphscope p_triangle in
    Alcotest.(check int) "order covers vertices" 3 (List.length order);
    Alcotest.(check bool) "fields bound" true
      (List.for_all (fun a -> List.mem a (Physical.output_fields phys)) [ "a"; "b"; "c" ])
  done

let test_planner_pipeline () =
  let plan =
    Logical.Select (Logical.Match p_to_city, name_pred "b" "c0")
  in
  let config = Planner.default_config () in
  let phys, report = Planner.plan config gq plan in
  Alcotest.(check bool) "rules applied" true (report.Planner.rules_applied <> []);
  Alcotest.(check bool) "physical nonempty" true (Physical.operator_count phys > 0)

let test_planner_invalid_pattern () =
  (* (a:City)-[]->(b): City has no outgoing edges -> Empty after inference *)
  let p =
    Pattern.create [| pv "a" (Tc.Basic city); pv "b" Tc.All |] [| pe "e" 0 1 Tc.All |]
  in
  let config = Planner.default_config () in
  let phys, report = Planner.plan config gq (Logical.Match p) in
  Alcotest.(check int) "one invalid" 1 report.Planner.invalid_patterns;
  match phys with
  | Physical.Empty _ -> ()
  | _ -> Alcotest.fail "expected Empty plan"

let test_path_planner_splits () =
  let p =
    Pattern.create
      [| pv "s" (Tc.Basic person); pv "t" (Tc.Basic person) |]
      [| pe ~hops:(4, 4) "p" 0 1 (Tc.Basic knows) |]
  in
  let result = Path_planner.optimize gq Spec.graphscope p in
  Alcotest.(check int) "alternatives = unsplit + 3 splits" 4 (List.length result.Path_planner.alternatives);
  Alcotest.(check bool) "cost finite" true (Float.is_finite result.Path_planner.cost)

let test_user_order_compile () =
  let phys = Planner.compile_user_order Spec.graphscope p_triangle in
  Alcotest.(check bool) "binds everything" true
    (List.for_all (fun a -> List.mem a (Physical.output_fields phys)) [ "a"; "b"; "c" ])

(* property: CBO plans on random connected patterns always bind all aliases *)
let prop_cbo_complete =
  QCheck.Test.make ~name:"cbo binds all pattern aliases" ~count:60 QCheck.small_int
    (fun seed ->
      let rng = Gopt_util.Prng.create seed in
      let nv = 2 + Gopt_util.Prng.int rng 3 in
      let vs =
        Array.init nv (fun i ->
            pv (Printf.sprintf "v%d" i) (if Gopt_util.Prng.bool rng then Tc.Basic person else Tc.All))
      in
      let es = ref [] in
      for i = 1 to nv - 1 do
        let j = Gopt_util.Prng.int rng i in
        es := pe (Printf.sprintf "e%d" i) j i (if Gopt_util.Prng.bool rng then Tc.Basic knows else Tc.All) :: !es
      done;
      let p = Pattern.create vs (Array.of_list !es) in
      let plan, _ = Cbo.optimize gq Spec.graphscope p in
      let phys = Cbo.to_physical Spec.graphscope plan in
      let fields = Physical.output_fields phys in
      Array.for_all (fun v -> List.mem v.Pattern.v_alias fields) (Pattern.vertices p))

(* --- narrowing passes (Plan_narrow) --------------------------------------- *)

module Narrow = Gopt_opt.Plan_narrow
module Queries = Gopt_workloads.Queries

let workload_session =
  lazy (Gopt.Session.create (Gopt_workloads.Ldbc.generate ~persons:1200 ()))

let plan_text ?config src = Gopt.plan_cypher ?config (Lazy.force workload_session) src
let workload_text name = (Queries.find (Queries.qr @ Queries.qc) name).Queries.cypher
let workload_plan ?config name = fst (plan_text ?config (workload_text name))

(* every node of a plan, pre-order *)
let rec nodes plan = plan :: List.concat_map nodes (Physical.children plan)

let checks plan =
  List.filter_map
    (function Physical.All_distinct (x, tags) -> Some (x, tags) | _ -> None)
    (nodes plan)

let is_join keys = function
  | Physical.Hash_join { keys = k; _ } -> k = keys
  | _ -> false

let test_qc3b_check_placement () =
  let plan = workload_plan "QC3b" in
  match checks plan with
  | [ (below, tags) ] ->
    Alcotest.(check (list string)) "only the KNOWS pair" [ "@e1"; "@e2" ] tags;
    Alcotest.(check bool) "directly above HashJoin(p2)" true (is_join [ "p2" ] below);
    let top = List.find (is_join [ "p3" ]) (nodes plan) in
    Alcotest.(check int) "none above the top join" 1 (List.length (checks top))
  | cs -> Alcotest.failf "expected one AllDistinct, got %d" (List.length cs)

let test_qc4a_no_has_tag_pair () =
  let plan = workload_plan "QC4a" in
  let cs = checks plan in
  Alcotest.(check bool) "a KNOWS check remains" true (cs <> []);
  List.iter
    (fun (_, tags) ->
      Alcotest.(check bool)
        "Forum HAS_TAG (@e6) never paired with Post HAS_TAG (@e8)" false
        (List.mem "@e6" tags && List.mem "@e8" tags);
      Alcotest.(check (list string)) "the three KNOWS edges" [ "@e1"; "@e2"; "@e3" ] tags)
    cs

let test_qr8_check_above_filtered_step () =
  (* the shared form's continuations exist with the CBO off only *)
  let config = { (Planner.default_config ()) with Planner.enable_cbo = false } in
  let plan = workload_plan ~config "QR8" in
  let cs = checks plan in
  Alcotest.(check int) "one check per branch" 2 (List.length cs);
  List.iter
    (fun (below, _) ->
      match below with
      | Physical.Expand_all (_, s) ->
        Alcotest.(check bool) "above the predicated WORK_AT/STUDY_AT step" true
          (s.Physical.s_to_pred <> None)
      | p -> Alcotest.failf "check sits above %s" (Physical.node_label p))
    cs

let test_var_length_keeps_check () =
  let s = Gopt.Session.create graph in
  let plan, _ =
    Gopt.plan_cypher s
      "MATCH (a:Person)-[k:KNOWS*1..3]->(b:Person)-[l:LIVES_IN]->(c:City) RETURN count(*) AS n"
  in
  Alcotest.(check (list (list string))) "the path is checked alone" [ [ "k" ] ]
    (List.map snd (checks plan))

let test_components () =
  (* two KNOWS edges overlap; LIVES_IN overlaps neither; an untyped edge
     overlaps everything *)
  let p =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person); pv "c" (Tc.Basic person);
         pv "d" (Tc.Basic city) |]
      [| pe "e1" 0 1 (Tc.Basic knows); pe "e2" 1 2 (Tc.Basic knows);
         pe "e3" 2 3 (Tc.Basic lives_in) |]
  in
  let comps tags = Narrow.distinct_components schema [ p ] tags in
  Alcotest.(check (list (list string))) "KNOWS pair only" [ [ "e1"; "e2" ] ]
    (comps [ "e1"; "e2"; "e3" ]);
  Alcotest.(check (list (list string))) "lone LIVES_IN dropped" [] (comps [ "e1"; "e3" ]);
  Alcotest.(check (list (list string))) "an unknown tag joins all" [ [ "e1"; "e3"; "x" ] ]
    (comps [ "e1"; "e3"; "x" ])

let knows_step alias from to_ =
  {
    Physical.s_edge = pe alias 0 1 (Tc.Basic knows);
    s_from = from;
    s_to = to_;
    s_forward = true;
    s_to_con = Tc.Basic person;
    s_to_pred = None;
  }

(* a-[e1:KNOWS]->b joined on b with b-[e2:KNOWS]->c *)
let join_ab_bc kind =
  let step = knows_step in
  let scan a = Physical.Scan { alias = a; con = Tc.Basic person; pred = None } in
  Physical.Hash_join
    {
      left = Physical.Expand_all (scan "a", step "e1" "a" "b");
      right = Physical.Expand_all (scan "b", step "e2" "b" "c");
      keys = [ "b" ];
      kind;
    }

(* a check on {e1, e2} over a-[e1]->b-[e2]->c and a third step [last]
   from c: it sinks through an ExpandAll to c-[e3]->d, and stays above an
   ExpandInto closing c-[e3]->a, which drops rows itself *)
let test_check_stops_at_expand_into () =
  let step = knows_step in
  let chain =
    Physical.Expand_all
      (Physical.Expand_all (Physical.Scan { alias = "a"; con = Tc.Basic person; pred = None }, step "e1" "a" "b"),
       step "e2" "b" "c")
  in
  let placed last =
    match checks (Narrow.narrow ~sink:true ~trim:false (Physical.All_distinct (last, [ "e1"; "e2" ]))) with
    | [ (below, _) ] -> Physical.node_label below
    | cs -> Alcotest.failf "expected one AllDistinct, got %d" (List.length cs)
  in
  Alcotest.(check string) "through an ExpandAll" (Physical.node_label chain)
    (placed (Physical.Expand_all (chain, step "e3" "c" "d")));
  let into = Physical.Expand_into (chain, step "e3" "c" "a") in
  Alcotest.(check string) "above an ExpandInto" (Physical.node_label into) (placed into)

(* the fields kept by a Project directly below a join, left before right *)
let projects plan =
  List.concat_map
    (function
      | Physical.Hash_join { left; right; _ } ->
        List.filter_map
          (function Physical.Project (_, ps) -> Some (List.map snd ps) | _ -> None)
          [ left; right ]
      | _ -> [])
    (nodes plan)

let trim = Narrow.narrow ~sink:false ~trim:true

let count_star x =
  Physical.Group
    (x, [], [ { Logical.agg_fn = Logical.Count; agg_arg = None; agg_alias = "n" } ])

let test_trim_rules () =
  Alcotest.(check (list (list string))) "count(*) keeps only the keys"
    [ [ "b" ]; [ "b" ] ]
    (projects (trim (count_star (join_ab_bc Logical.Inner))));
  Alcotest.(check (list (list string))) "read fields survive"
    [ [ "b" ]; [ "b"; "c" ] ]
    (projects
       (trim (Physical.Project (join_ab_bc Logical.Inner, [ (Expr.Prop ("c", "name"), "n") ]))));
  Alcotest.(check (list (list string))) "Dedup() keeps every field" []
    (projects (trim (Physical.Dedup (join_ab_bc Logical.Inner, []))));
  Alcotest.(check (list (list string))) "Union keeps every field" []
    (projects (trim (Physical.Union (join_ab_bc Logical.Inner, join_ab_bc Logical.Inner))));
  Alcotest.(check (list (list string))) "semi join: the right side keeps its keys"
    [ [ "a"; "b" ]; [ "b" ] ]
    (projects
       (trim (Physical.Project (join_ab_bc Logical.Semi, [ (Expr.Var "a", "a") ]))))

(* --- ComSubPattern and the CBO ------------------------------------------- *)

let rec has_with_common p =
  match p with
  | Physical.With_common _ -> true
  | _ -> List.exists has_with_common (Physical.children p)

let logical_with_common plan =
  Logical.fold
    (fun found node -> found || match node with Logical.With_common _ -> true | _ -> false)
    false plan

let test_union_branch_local () =
  (* with the CBO on, ComSubPattern is left out: each branch is planned
     whole, and the optimized logical plan (what --explain prints) says so *)
  List.iter
    (fun name ->
      let plan, report = plan_text (workload_text name) in
      Alcotest.(check bool) (name ^ ": no WithCommon") false (has_with_common plan);
      Alcotest.(check bool)
        (name ^ ": no logical WithCommon")
        false
        (logical_with_common report.Planner.logical_optimized);
      Alcotest.(check bool)
        (name ^ ": ComSubPattern not applied")
        false
        (List.mem "ComSubPattern" report.Planner.rules_applied))
    [ "QR7"; "QR8" ]

let test_union_shared_without_cbo () =
  (* Fig 8(a)'s setup: the rule's shared form *)
  let config =
    { (Planner.default_config ()) with Planner.enable_cbo = false; enable_type_inference = false }
  in
  List.iter
    (fun name ->
      let plan, report = plan_text ~config (workload_text name) in
      Alcotest.(check bool) (name ^ ": WithCommon") true (has_with_common plan);
      Alcotest.(check bool)
        (name ^ ": ComSubPattern applied")
        true
        (List.mem "ComSubPattern" report.Planner.rules_applied))
    [ "QR7"; "QR8" ]

let () =
  Alcotest.run "opt"
    [
      ( "rbo",
        [
          Alcotest.test_case "filter into pattern" `Quick test_filter_into_pattern;
          Alcotest.test_case "filter partial push" `Quick test_filter_into_pattern_partial;
          Alcotest.test_case "join to pattern" `Quick test_join_to_pattern;
          Alcotest.test_case "join to pattern blocked" `Quick test_join_to_pattern_blocked;
          Alcotest.test_case "com sub pattern" `Quick test_com_sub_pattern;
          Alcotest.test_case "field trim" `Quick test_field_trim;
          Alcotest.test_case "select pushdown join" `Quick test_select_pushdown_join;
          Alcotest.test_case "select pushdown project" `Quick test_select_pushdown_project;
          Alcotest.test_case "limit pushdown" `Quick test_limit_pushdown;
          Alcotest.test_case "aggregate pushdown" `Quick test_aggregate_pushdown;
          Alcotest.test_case "fixpoint terminates" `Quick test_fixpoint_terminates;
        ] );
      ( "cbo",
        [
          Alcotest.test_case "triangle plan" `Quick test_cbo_triangle;
          Alcotest.test_case "spec operator choice" `Quick test_cbo_spec_operator_choice;
          Alcotest.test_case "pruning preserves optimum" `Quick test_cbo_pruning_preserves_plan;
          Alcotest.test_case "greedy is an upper bound" `Quick test_cbo_greedy_bound;
          Alcotest.test_case "random plans valid" `Quick test_random_plan_valid;
        ] );
      ( "planner",
        [
          Alcotest.test_case "pipeline" `Quick test_planner_pipeline;
          Alcotest.test_case "invalid pattern" `Quick test_planner_invalid_pattern;
          Alcotest.test_case "path planner splits" `Quick test_path_planner_splits;
          Alcotest.test_case "user order compile" `Quick test_user_order_compile;
          Alcotest.test_case "QR7/QR8 plan branch-local" `Quick test_union_branch_local;
          Alcotest.test_case "QR7/QR8 shared with the CBO off" `Quick
            test_union_shared_without_cbo;
        ] );
      ( "narrow",
        [
          Alcotest.test_case "distinctness components" `Quick test_components;
          Alcotest.test_case "QC3b check above HashJoin(p2)" `Quick test_qc3b_check_placement;
          Alcotest.test_case "check stops above ExpandInto" `Quick test_check_stops_at_expand_into;
          Alcotest.test_case "QC4a pairs no HAS_TAG edges" `Quick test_qc4a_no_has_tag_pair;
          Alcotest.test_case "QR8 check above filtered steps" `Quick
            test_qr8_check_above_filtered_step;
          Alcotest.test_case "var-length path keeps its check" `Quick test_var_length_keeps_check;
          Alcotest.test_case "join-input trim rules" `Quick test_trim_rules;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_cbo_complete ]);
    ]
