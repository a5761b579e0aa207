(* PlanCheck: the static plan-invariant verifier and expression typechecker.
   Three angles: (1) every workload query is check-clean at every optimizer
   stage; (2) hand-built ill-formed plans produce the expected diagnostics;
   (3) an unsound rule is caught and blamed by the checked rewriter. *)

module Diag = Gopt_check.Diagnostic
module Et = Gopt_check.Expr_type
module Pc = Gopt_check.Plan_check
module Physical = Gopt_opt.Physical
module Phc = Gopt_opt.Physical_check
module Rule = Gopt_opt.Rule
module Rp = Gopt_opt.Rules_pattern
module Rr = Gopt_opt.Rules_relational
module Planner = Gopt_opt.Planner
module Logical = Gopt_gir.Logical
module Expr = Gopt_pattern.Expr
module Value = Gopt_graph.Value
module Graph_io = Gopt_graph.Graph_io
module Queries = Gopt_workloads.Queries
module Ldbc = Gopt_workloads.Ldbc
open Fixtures

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let has_error ds sub =
  List.exists (fun d -> Diag.is_error d && contains d.Diag.message sub) ds

let has_warning ds sub =
  List.exists (fun d -> (not (Diag.is_error d)) && contains d.Diag.message sub) ds

let check_clean name ds =
  if not (Diag.is_clean ds) then
    Alcotest.failf "%s: expected no errors, got:\n%s" name (Diag.render ds)

let expect_error name sub ds =
  if not (has_error ds sub) then
    Alcotest.failf "%s: expected an error mentioning %S, got:\n%s" name sub
      (Diag.render ds)

(* --- expression typechecker ------------------------------------------------ *)

let lookup_of env x = List.assoc_opt x env

let test_expr_types () =
  let env = [ ("a", Et.Node (Some (Tc.Basic person))); ("n", Et.Int) ] in
  let infer e = Et.infer ~schema ~lookup:(lookup_of env) ~path:"t" e in
  (* a.age + 1 : int, clean *)
  let t, ds =
    infer (Expr.Binop (Expr.Add, Expr.Prop ("a", "age"), Expr.Const (Value.Int 1)))
  in
  check_clean "int arithmetic" ds;
  Alcotest.(check string) "int" "int" (Et.to_string t);
  (* a.name + 1 : string operand in arithmetic *)
  let _, ds =
    infer (Expr.Binop (Expr.Add, Expr.Prop ("a", "name"), Expr.Const (Value.Int 1)))
  in
  expect_error "string arithmetic" "arithmetic" ds;
  (* unbound variable *)
  let _, ds = infer (Expr.Var "ghost") in
  expect_error "unbound" "unbound variable" ds;
  (* undeclared property is a warning, not an error *)
  let _, ds = infer (Expr.Prop ("a", "salary")) in
  check_clean "undeclared prop" ds;
  Alcotest.(check bool) "warned" true (has_warning ds "not declared");
  (* property access on a scalar *)
  let _, ds = infer (Expr.Prop ("n", "age")) in
  expect_error "prop on scalar" "property access" ds;
  (* cross-kind comparison warns *)
  let _, ds =
    infer (Expr.Binop (Expr.Eq, Expr.Prop ("a", "age"), Expr.Const (Value.Str "x")))
  in
  check_clean "cross-kind comparison" ds;
  Alcotest.(check bool) "warned" true (has_warning ds "incompatible")

(* --- well-formed plans are clean ------------------------------------------- *)

let test_clean_plans () =
  let plans =
    [
      ("match", Logical.Match p_knows);
      ( "select",
        Logical.Select
          ( Logical.Match p_knows,
            Expr.Binop (Expr.Gt, Expr.Prop ("a", "age"), Expr.Const (Value.Int 20)) ) );
      ( "group",
        Logical.Group
          ( Logical.Match p_knows,
            [ (Expr.Var "a", "a") ],
            [ { Logical.agg_fn = Logical.Count; agg_arg = None; agg_alias = "n" } ] ) );
      ("triangle", Logical.All_distinct (Logical.Match p_triangle, []));
    ]
  in
  List.iter (fun (name, p) -> check_clean name (Pc.check ~schema p)) plans

(* --- ill-formed plans produce the expected diagnostic ---------------------- *)

let test_unbound_variable () =
  let plan =
    Logical.Select
      ( Logical.Match p_knows,
        Expr.Binop (Expr.Eq, Expr.Prop ("z", "name"), Expr.Const (Value.Str "p0")) )
  in
  expect_error "unbound tag" "unbound variable \"z\"" (Pc.check ~schema plan)

let test_bad_join_key () =
  let plan =
    Logical.Join
      {
        left = Logical.Match p_knows;
        right = Logical.Match p_to_city;
        keys = [ "nope" ];
        kind = Logical.Inner;
      }
  in
  let ds = Pc.check ~schema plan in
  expect_error "left" "not a field of the left input" ds;
  expect_error "right" "not a field of the right input" ds

let test_stray_common_ref () =
  let plan = Logical.Select (Logical.Common_ref, Expr.Const (Value.Bool true)) in
  expect_error "stray" "COMMON_REF" (Pc.check plan);
  (* in partial (fragment) mode the orphan reference is fine *)
  check_clean "partial mode" (Pc.check ~partial:true plan)

let test_non_bool_predicate () =
  let plan = Logical.Select (Logical.Match p_knows, Expr.Prop ("a", "age")) in
  expect_error "non-bool" "expected bool" (Pc.check ~schema plan)

let test_order_by_list () =
  let plan =
    Logical.Order
      ( Logical.Group
          ( Logical.Match p_knows,
            [ (Expr.Var "a", "a") ],
            [
              {
                Logical.agg_fn = Logical.Collect;
                agg_arg = Some (Expr.Prop ("b", "name"));
                agg_alias = "names";
              };
            ] ),
        [ (Expr.Var "names", Logical.Asc) ],
        None )
  in
  expect_error "order by list" "ORDER BY" (Pc.check ~schema plan)

let test_all_distinct_non_edge () =
  let plan = Logical.All_distinct (Logical.Match p_knows, [ "a" ]) in
  expect_error "vertex tag" "expected an edge or path field" (Pc.check ~schema plan);
  let plan = Logical.All_distinct (Logical.Match p_knows, [ "zz" ]) in
  expect_error "ghost tag" "not a field" (Pc.check ~schema plan)

let test_duplicate_aliases () =
  let plan =
    Logical.Project
      (Logical.Match p_knows, [ (Expr.Var "a", "x"); (Expr.Var "b", "x") ])
  in
  expect_error "project" "duplicate projection alias" (Pc.check ~schema plan);
  (* an edge alias colliding with a vertex alias (legal per-namespace for
     Pattern.create, ill-formed as a row) *)
  let p =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person) |]
      [| pe "a" 0 1 (Tc.Basic knows) |]
  in
  expect_error "namespace" "names both a vertex and an edge"
    (Pc.check ~schema (Logical.Match p))

let test_missing_agg_arg () =
  let plan =
    Logical.Group
      ( Logical.Match p_knows,
        [],
        [ { Logical.agg_fn = Logical.Count_distinct; agg_arg = None; agg_alias = "n" } ]
      )
  in
  expect_error "count distinct" "requires an argument" (Pc.check ~schema plan)

let test_connectivity () =
  (* disconnected Match: cartesian product, warning only *)
  let disc =
    Pattern.create [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic city) |] [||]
  in
  let ds = Pc.check ~schema (Logical.Match disc) in
  check_clean "match warning only" ds;
  Alcotest.(check bool) "warned" true (has_warning ds "disconnected");
  (* a continuation sharing no vertex with its input is an error *)
  let cont =
    Logical.Pattern_cont
      ( Logical.Match p_knows,
        Pattern.create
          [| pv "x" (Tc.Basic product); pv "y" (Tc.Basic city) |]
          [| pe "pe1" 0 1 (Tc.Basic produced_in) |] )
  in
  expect_error "continuation" "shares no vertex" (Pc.check ~schema cont)

let test_unused_binding () =
  let plan = Logical.Project (Logical.Match p_knows, [ (Expr.Var "a", "a") ]) in
  let ds = Pc.check ~schema plan in
  check_clean "warnings only" ds;
  Alcotest.(check bool) "b unused" true (has_warning ds "\"b\" is never used");
  (* partial mode skips the lint *)
  Alcotest.(check bool) "partial skips" false
    (has_warning (Pc.check ~schema ~partial:true plan) "never used")

(* --- physical-plan checker ------------------------------------------------- *)

let test_physical_check () =
  let e = Pattern.edge p_knows 0 in
  let step =
    {
      Physical.s_edge = e;
      s_from = "a";
      s_to = "b";
      s_forward = true;
      s_to_con = Tc.Basic person;
      s_to_pred = None;
    }
  in
  let scan_a = Physical.Scan { alias = "a"; con = Tc.Basic person; pred = None } in
  check_clean "expand ok" (Phc.check ~schema (Physical.Expand_all (scan_a, step)));
  (* expand from an unbound source *)
  let scan_z = Physical.Scan { alias = "z"; con = Tc.Basic person; pred = None } in
  expect_error "unbound source" "not bound"
    (Phc.check ~schema (Physical.Expand_all (scan_z, step)));
  (* ExpandInto needs the target already bound *)
  expect_error "into unbound" "ExpandInto target"
    (Phc.check ~schema (Physical.Expand_into (scan_a, step)));
  (* CommonRef outside WithCommon *)
  expect_error "stray common" "CommonRef"
    (Phc.check ~schema (Physical.Common_ref [ "a" ]))

(* --- every workload query is clean at every stage -------------------------- *)

let session = Gopt.Session.create (Ldbc.generate ~seed:7 ~persons:60 ())

let checked_config = { (Planner.default_config ()) with Planner.check_plans = true }

let test_workloads_clean () =
  List.iter
    (fun (q : Queries.query) ->
      let name = q.Queries.name in
      (* frontend: parse + lower + Plan_check *)
      let front = Gopt.check_cypher session q.Queries.cypher in
      check_clean (name ^ " (frontend)") front;
      (* checked planning: every rule firing verified, every stage re-checked *)
      let _, report = Gopt.plan_cypher ~config:checked_config session q.Queries.cypher in
      Alcotest.(check bool)
        (name ^ ": all four stages checked")
        true
        (List.map fst report.Planner.diagnostics
        = [ "logical"; "rbo"; "optimized"; "physical" ]);
      List.iter
        (fun (stage, ds) -> check_clean (Printf.sprintf "%s (%s)" name stage) ds)
        report.Planner.diagnostics)
    (Queries.comprehensive @ Queries.qr @ Queries.qt @ Queries.qc)

(* --- front-door errors ------------------------------------------------------ *)

(* each way the frontend rejects a query is one error diagnostic, the same
   one check_cypher reports, whether it is raised on the cached run path or
   by the Gremlin parser; any other exception is not a front-door error *)
let test_front_door_error () =
  let diag_of name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected an exception" name
    | exception e -> (
      match Gopt.front_door_error e with
      | Some d -> d
      | None -> Alcotest.failf "%s: %s is not a front-door error" name (Printexc.to_string e))
  in
  List.iter
    (fun (src, path, sub) ->
      let d = diag_of src (fun () -> Gopt.run_cypher session src) in
      Alcotest.(check string) (src ^ ": path") path d.Diag.path;
      expect_error src sub [ d ];
      Alcotest.(check string)
        (src ^ ": as check_cypher reports it")
        (Diag.render (Gopt.check_cypher session src))
        (Diag.render [ d ]))
    [
      ("MATCH (a:Person) RETURN a LIMIT -1", "parse", "LIMIT");
      ("MATCH (a:Person) WHERE a.firstName = 'abc RETURN a", "parse", "unterminated string");
      ("MATCH (a:Nope) RETURN a", "lower", "Nope");
      ("MATCH (a:Person) WHERE a.id = $x RETURN a", "parse", "$x");
    ];
  let d = diag_of "gremlin" (fun () -> Gopt.gremlin_to_gir session "g.V(.count()") in
  Alcotest.(check string) "gremlin: path" "parse" d.Diag.path;
  List.iter
    (fun e ->
      Alcotest.(check bool) (Printexc.to_string e ^ " is not") true
        (Gopt.front_door_error e = None))
    [ Invalid_argument "x"; Not_found; Failure "x" ]

(* --- an unsound rule is caught and blamed ---------------------------------- *)

let bad_rule =
  Rule.make "BadRule" (fun node ->
      match node with
      | Logical.Select (x, e) when not (Expr.equal e (Expr.Var "ghost")) ->
        Some (Logical.Select (x, Expr.Var "ghost"))
      | _ -> None)

let test_bad_rule_blamed () =
  let plan =
    Logical.Select
      ( Logical.Match p_knows,
        Expr.Binop (Expr.Gt, Expr.Prop ("a", "age"), Expr.Const (Value.Int 20)) )
  in
  (* unchecked: the broken rewrite sails through *)
  let _, applied = Rule.fixpoint [ bad_rule ] plan in
  Alcotest.(check bool) "fires unchecked" true (List.mem "BadRule" applied);
  (* checked: the firing is caught and attributed *)
  match Rule.fixpoint ~check:true ~schema [ bad_rule ] plan with
  | exception Rule.Check_failed { rule; diag } ->
    Alcotest.(check string) "blamed" "BadRule" rule;
    Alcotest.(check bool) "diagnosis" true
      (contains diag.Diag.message "unbound variable")
  | _ -> Alcotest.fail "expected Check_failed"

let test_sound_rules_pass () =
  (* the shipped rule set never trips the checker on a realistic plan *)
  let plan =
    Logical.Limit
      ( Logical.Select
          ( Logical.Select
              ( Logical.Match p_triangle,
                Expr.Binop (Expr.Gt, Expr.Prop ("a", "age"), Expr.Const (Value.Int 20)) ),
            Expr.Binop (Expr.Eq, Expr.Prop ("b", "name"), Expr.Const (Value.Str "p1")) ),
        5 )
  in
  let _, applied = Rule.fixpoint ~check:true ~schema (Rp.all @ Rr.all) plan in
  Alcotest.(check bool) "rules fired" true (applied <> [])

(* --- planner front-door rejection ------------------------------------------ *)

let test_planner_rejects_ill_formed () =
  let gq = Gopt.Session.estimator session in
  let bad =
    Logical.Select (Logical.Match p_knows, Expr.Var "ghost")
  in
  match Planner.plan checked_config gq bad with
  | exception Invalid_argument m ->
    Alcotest.(check bool) "names the invariant" true (contains m "unbound variable")
  | _ -> Alcotest.fail "expected Invalid_argument before the CBO"

(* --- graph_io parse failures carry line numbers ---------------------------- *)

let expect_failure_at text sub line =
  match Graph_io.of_string text with
  | exception Failure m ->
    let want = Printf.sprintf "line %d" line in
    if not (contains m want && contains m sub) then
      Alcotest.failf "expected %S at %s, got: %s" sub want m
  | _ -> Alcotest.failf "expected a parse failure for %S" text

let test_graph_io_line_numbers () =
  expect_failure_at "gopt-graph v1\nvtype\tT\tname:strin" "unknown property kind" 2;
  expect_failure_at "gopt-graph v1\nvtype\tT\tname" "malformed property declaration" 2;
  (* entity-line failures report the original line number, not the position
     within the deferred second pass *)
  expect_failure_at "gopt-graph v1\nvtype\tT\tname:string\nv\tT\tname=x:abc"
    "unknown value tag" 3;
  expect_failure_at "gopt-graph v1\nvtype\tT\tname:string\nv\tT\nv\tT\tname=s:ok\nv\tU"
    "unknown vertex type" 5;
  expect_failure_at
    "gopt-graph v1\nvtype\tT\nvtype\tU\netype\tE\ntriple\tT\tE\tU\nv\tT\nv\tU\ne\tx\t1\tE"
    "malformed source id" 8;
  expect_failure_at "gopt-graph v1\nvtype\tT\nv\tT\tname=i:12b" "malformed int" 3

let () =
  Alcotest.run "check"
    [
      ( "expr_type",
        [ Alcotest.test_case "expression typing" `Quick test_expr_types ] );
      ( "plan_check",
        [
          Alcotest.test_case "clean plans stay clean" `Quick test_clean_plans;
          Alcotest.test_case "unbound variable" `Quick test_unbound_variable;
          Alcotest.test_case "bad join key" `Quick test_bad_join_key;
          Alcotest.test_case "stray Common_ref" `Quick test_stray_common_ref;
          Alcotest.test_case "non-bool predicate" `Quick test_non_bool_predicate;
          Alcotest.test_case "ORDER BY a list" `Quick test_order_by_list;
          Alcotest.test_case "All_distinct tags" `Quick test_all_distinct_non_edge;
          Alcotest.test_case "duplicate aliases" `Quick test_duplicate_aliases;
          Alcotest.test_case "missing aggregate argument" `Quick test_missing_agg_arg;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "unused bindings" `Quick test_unused_binding;
        ] );
      ( "physical_check",
        [ Alcotest.test_case "physical invariants" `Quick test_physical_check ] );
      ( "stages",
        [
          Alcotest.test_case "all workload queries clean" `Slow test_workloads_clean;
          Alcotest.test_case "planner rejects ill-formed plans" `Quick
            test_planner_rejects_ill_formed;
        ] );
      ( "checked_rewriter",
        [
          Alcotest.test_case "unsound rule blamed by name" `Quick test_bad_rule_blamed;
          Alcotest.test_case "shipped rules pass" `Quick test_sound_rules_pass;
        ] );
      ( "front_door",
        [ Alcotest.test_case "one diagnostic per frontend error" `Quick test_front_door_error ]
      );
      ( "graph_io",
        [ Alcotest.test_case "failures carry line numbers" `Quick test_graph_io_line_numbers ]
      );
    ]
