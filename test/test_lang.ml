module L = Gopt_lang.Lexer
module Cp = Gopt_lang.Cypher_parser
module Gp = Gopt_lang.Gremlin_parser
module Lowering = Gopt_lang.Lowering
module Logical = Gopt_gir.Logical
module Ir = Gopt_gir.Ir_builder
module Pattern = Gopt_pattern.Pattern
module Expr = Gopt_pattern.Expr
module Value = Gopt_graph.Value
open Fixtures

let lower ?params src = Lowering.cypher schema (Cp.parse ?params src)

let check_ok plan =
  match Ir.check plan with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "plan check failed: %s" msg

let test_lexer () =
  let toks = L.tokenize "MATCH (a:Person)-[r:KNOWS*1..3]->(b) WHERE a.id <> 3 // c" in
  Alcotest.(check bool) "ends with eof" true (toks.(Array.length toks - 1) = L.Eof);
  let toks2 = L.tokenize "g.V().has('name', \"x\\\"y\")" in
  Alcotest.(check bool) "string escape" true
    (Array.exists (function L.Str_lit "x\"y" -> true | _ -> false) toks2);
  (match L.tokenize "1.5 1..3" with
  | [| L.Float_lit 1.5; L.Int_lit 1; L.Dotdot; L.Int_lit 3; L.Eof |] -> ()
  | _ -> Alcotest.fail "float vs range lexing");
  try
    ignore (L.tokenize "a ? b");
    Alcotest.fail "expected lex error"
  with L.Lex_error _ -> ()

(* an integer literal beyond max_int is a positioned lex error, including
   through the facade, never a raw [Failure] *)
let test_int_overflow () =
  let src = "MATCH (a:Person) WHERE a.age = 99999999999999999999 RETURN a" in
  let expect_lex_error f =
    match f () with
    | _ -> Alcotest.fail "expected lex error"
    | exception L.Lex_error (msg, pos) ->
      Alcotest.(check string) "message" "integer literal out of range" msg;
      Alcotest.(check int) "offset" 31 pos
  in
  expect_lex_error (fun () -> ignore (L.tokenize src));
  let session = Gopt.Session.create graph in
  expect_lex_error (fun () -> ignore (Gopt.run_cypher session src));
  Alcotest.(check bool) "max_int still lexes" true
    (L.tokenize (string_of_int max_int) = [| L.Int_lit max_int; L.Eof |])

let test_parse_simple_match () =
  let plan = lower "MATCH (a:Person)-[k:KNOWS]->(b:Person) RETURN a.name AS n" in
  check_ok plan;
  match plan with
  | Logical.Project (Logical.Match p, [ (Expr.Prop ("a", "name"), "n") ]) ->
    Alcotest.(check int) "nv" 2 (Pattern.n_vertices p);
    Alcotest.(check int) "ne" 1 (Pattern.n_edges p);
    Alcotest.(check bool) "edge alias" true (Pattern.edge_of_alias p "k" = Some 0)
  | _ -> Alcotest.failf "unexpected plan shape:\n%s" (Gopt_gir.Plan_printer.to_string plan)

let test_parse_where_and_props () =
  let plan = lower "MATCH (a:Person {age: 21})-[:KNOWS]->(b) WHERE b.age > 20 RETURN b" in
  check_ok plan;
  (* property map becomes a vertex predicate; WHERE becomes a Select *)
  match plan with
  | Logical.Project (Logical.Select (Logical.Match p, _), _) ->
    let v = Pattern.vertex p 0 in
    Alcotest.(check bool) "prop map pred" true (v.Pattern.v_pred <> None)
  | _ -> Alcotest.failf "unexpected plan:\n%s" (Gopt_gir.Plan_printer.to_string plan)

let test_parse_union_types () =
  let plan = lower "MATCH (a:Person|Product)-[]->(b:City) RETURN count(*) AS c" in
  check_ok plan;
  let p =
    match plan with
    | Logical.Group (Logical.Match p, [], _) -> p
    | _ -> Alcotest.fail "expected group over match"
  in
  match (Pattern.vertex p 0).Pattern.v_con with
  | Gopt_pattern.Type_constraint.Union _ -> ()
  | _ -> Alcotest.fail "expected UnionType"

let test_parse_var_length () =
  let plan = lower "MATCH (a:Person)-[:KNOWS*2..3]-(b:Person) RETURN count(*) AS c" in
  check_ok plan;
  let p =
    match plan with
    | Logical.Group (Logical.Match p, [], _) -> p
    | _ -> Alcotest.fail "expected group over match"
  in
  let e = Pattern.edge p 0 in
  Alcotest.(check bool) "hops" true (e.Pattern.e_hops = Some (2, 3));
  Alcotest.(check bool) "undirected" true (not e.Pattern.e_directed);
  Alcotest.(check bool) "trail semantics" true (e.Pattern.e_path = Pattern.Trail)

let test_parse_multi_match_join () =
  let plan =
    lower "MATCH (a:Person)-[:KNOWS]->(b:Person) MATCH (b)-[:LIVES_IN]->(c:City) RETURN count(*) AS n"
  in
  check_ok plan;
  match plan with
  | Logical.Group (Logical.Join { keys = [ "b" ]; kind = Logical.Inner; _ }, [], _) -> ()
  | _ -> Alcotest.failf "expected join on b:\n%s" (Gopt_gir.Plan_printer.to_string plan)

let test_parse_optional_match () =
  let plan =
    lower "MATCH (a:Person) OPTIONAL MATCH (a)-[:KNOWS]->(b:Person) RETURN a, b"
  in
  check_ok plan;
  match plan with
  | Logical.Project (Logical.Join { kind = Logical.Left_outer; _ }, _) -> ()
  | _ -> Alcotest.fail "expected left outer join"

let test_parse_anti_pattern () =
  let plan =
    lower
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE NOT (b)-[:KNOWS]->(a) RETURN count(*) AS n"
  in
  check_ok plan;
  let has_anti =
    Logical.fold
      (fun acc n ->
        acc || match n with Logical.Join { kind = Logical.Anti; _ } -> true | _ -> false)
      false plan
  in
  Alcotest.(check bool) "anti join present" true has_anti

let test_parse_aggregates () =
  let plan =
    lower
      "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a.name AS n, count(b) AS c, sum(b.age) AS s \
       ORDER BY c DESC LIMIT 5"
  in
  check_ok plan;
  match plan with
  | Logical.Limit (Logical.Order (Logical.Group (_, [ _ ], aggs), _, _), 5) ->
    Alcotest.(check int) "two aggs" 2 (List.length aggs)
  | _ -> Alcotest.failf "unexpected:\n%s" (Gopt_gir.Plan_printer.to_string plan)

let test_parse_union () =
  let plan =
    lower
      "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN a.name AS n UNION MATCH (a:Person)-[:PURCHASED]->(g:Product) RETURN a.name AS n"
  in
  check_ok plan;
  match plan with
  | Logical.Dedup (Logical.Union _, []) -> ()
  | _ -> Alcotest.fail "expected dedup over union"

let test_parse_params () =
  let plan =
    lower ~params:[ ("ids", [ Value.Int 1; Value.Int 2 ]) ]
      "MATCH (a:Person) WHERE a.id IN $ids RETURN a"
  in
  check_ok plan;
  let has_inlist =
    Logical.fold
      (fun acc n ->
        acc
        ||
        match n with
        | Logical.Select (_, Expr.In_list (_, [ Value.Int 1; Value.Int 2 ])) -> true
        | _ -> false)
      false plan
  in
  Alcotest.(check bool) "param list inlined" true has_inlist

let test_parse_errors () =
  let bad = [ "MATCH (a RETURN a"; "RETURN"; "MATCH (a:Nope) RETURN a"; "MATCH (a)->(b) RETURN a" ] in
  List.iter
    (fun src ->
      match lower src with
      | exception Cp.Parse_error _ -> ()
      | exception Lowering.Lowering_error _ -> ()
      | exception L.Lex_error _ -> ()
      | _ -> Alcotest.failf "expected failure for %s" src)
    bad

let test_cycle_closure () =
  (* triangle via alias reuse *)
  let plan =
    lower "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)-[:KNOWS]->(a) RETURN count(*) AS n"
  in
  check_ok plan;
  let p =
    match plan with
    | Logical.Group (Logical.All_distinct (Logical.Match p, _), [], _) -> p
    | _ -> Alcotest.failf "unexpected:\n%s" (Gopt_gir.Plan_printer.to_string plan)
  in
  Alcotest.(check int) "3 vertices" 3 (Pattern.n_vertices p);
  Alcotest.(check int) "3 edges" 3 (Pattern.n_edges p)

(* A relationship from a node to itself lowers to an edge to a hidden copy
   of the node, equated with it. Counted by hand on a graph with real
   self-loops: KNOWS p0->p0, p1->p1, p0->p1, p1->p0, p1->p2. *)
let test_self_loop () =
  let module G = Gopt_graph.Property_graph in
  let b = G.Builder.create schema in
  let p =
    Array.init 3 (fun i ->
        G.Builder.add_vertex b ~vtype:person [ ("name", Value.Str (Printf.sprintf "p%d" i)) ])
  in
  let c0 = G.Builder.add_vertex b ~vtype:city [ ("name", Value.Str "c0") ] in
  let e s d t = ignore (G.Builder.add_edge b ~src:s ~dst:d ~etype:t []) in
  List.iter (fun (s, d) -> e p.(s) p.(d) knows) [ (0, 0); (1, 1); (0, 1); (1, 0); (1, 2) ];
  e p.(0) c0 lives_in;
  let session = Gopt.Session.create (G.Builder.freeze b) in
  let rows src =
    let o = Gopt.run_cypher session src in
    let out = ref [] in
    Gopt_exec.Batch.iter
      (fun row ->
        out :=
          String.concat ","
            (Array.to_list
               (Array.map
                  (fun v -> Value.to_string (Gopt_exec.Rval.to_value (Gopt.Session.graph session) v))
                  row))
          :: !out)
      o.Gopt.result;
    List.sort compare !out
  in
  List.iter
    (fun (src, want) -> Alcotest.(check (list string)) src want (rows src))
    [
      ("MATCH (a:Person)-[:KNOWS]->(a) RETURN count(*) AS n", [ "2" ]);
      (* an undirected self-loop is one match, not one per direction *)
      ("MATCH (a:Person)-[:KNOWS]-(a) RETURN count(*) AS n", [ "2" ]);
      ("MATCH (a:Person)<-[:KNOWS]-(a) RETURN a.name AS n", [ "\"p0\""; "\"p1\"" ]);
      (* the loop and the next edge are distinct edges: p0 has p0->p1, p1
         has p1->p0 and p1->p2 *)
      ("MATCH (a:Person)-[:KNOWS]->(a)-[:KNOWS]->(b:Person) RETURN count(*) AS n", [ "3" ]);
      (* the two loops, and the trails p0->p1->p0 and p1->p0->p1 *)
      ("MATCH (a:Person)-[:KNOWS*1..2]->(a) RETURN count(*) AS n", [ "4" ]);
      ("MATCH (a:Person) WHERE (a)-[:KNOWS]->(a) RETURN count(*) AS n", [ "2" ]);
      ("MATCH (c:City)<-[:LIVES_IN]-(c) RETURN count(*) AS n", [ "0" ]);
    ]

let test_gremlin_basic () =
  let plan = Gp.parse schema "g.V().hasLabel('Person').as('a').out('KNOWS').hasLabel('Person').as('b').count()" in
  check_ok plan;
  match plan with
  | Logical.Group (Logical.Match p, [], _) ->
    Alcotest.(check int) "nv" 2 (Pattern.n_vertices p)
  | _ -> Alcotest.fail "unexpected gremlin plan"

let test_gremlin_cycle () =
  let plan =
    Gp.parse schema
      "g.V().hasLabel('Person').as('a').out('KNOWS').hasLabel('Person').as('b').out('KNOWS').as('c').select('a').out('KNOWS').where(eq('c')).count()"
  in
  check_ok plan;
  let p =
    Logical.fold
      (fun acc n -> match n with Logical.Match p -> Some p | _ -> acc)
      None plan
  in
  match p with
  | Some p ->
    Alcotest.(check int) "3 vertices" 3 (Pattern.n_vertices p);
    Alcotest.(check int) "3 edges" 3 (Pattern.n_edges p)
  | None -> Alcotest.fail "no match node"

let test_gremlin_union () =
  let plan =
    Gp.parse schema
      "g.V().hasLabel('Person').as('a').out('KNOWS').hasLabel('Person').as('b').union(__.out('LIVES_IN').hasLabel('City'), __.out('PURCHASED').hasLabel('Product')).count()"
  in
  check_ok plan;
  let unions =
    Logical.fold
      (fun acc n -> match n with Logical.Union _ -> acc + 1 | _ -> acc)
      0 plan
  in
  Alcotest.(check int) "one union" 1 unions

let test_gremlin_repeat () =
  let plan =
    Gp.parse schema "g.V().hasLabel('Person').as('a').repeat(__.out('KNOWS')).times(3).hasLabel('Person').count()"
  in
  check_ok plan;
  let p =
    Logical.fold
      (fun acc n -> match n with Logical.Match p -> Some p | _ -> acc)
      None plan
  in
  match p with
  | Some p -> Alcotest.(check bool) "hops 3" true ((Pattern.edge p 0).Pattern.e_hops = Some (3, 3))
  | None -> Alcotest.fail "no match"

let test_gremlin_has_predicates () =
  let plan =
    Gp.parse schema "g.V().hasLabel('Person').has('age', P.gt(25)).has('name', within('p1', 'p2')).count()"
  in
  check_ok plan;
  let p =
    Logical.fold
      (fun acc n -> match n with Logical.Match p -> Some p | _ -> acc)
      None plan
  in
  match p with
  | Some p -> Alcotest.(check bool) "pred attached" true ((Pattern.vertex p 0).Pattern.v_pred <> None)
  | None -> Alcotest.fail "no match"

let test_ir_builder_roundtrip () =
  (* the paper's GraphIrBuilder snippet, adapted to the fixture schema *)
  let b = Ir.create schema in
  let ctx = Ir.pattern_start b in
  let ctx, v1 = Ir.get_v ctx ~alias:"v1" () in
  let ctx, _e1 = Ir.expand_e ctx ~from:v1 ~alias:"e1" ~dir:Ir.Out () in
  let ctx, v2 = Ir.get_v_from ctx ~edge:"e1" ~alias:"v2" () in
  let ctx, _e2 = Ir.expand_e ctx ~from:v2 ~alias:"e2" ~dir:Ir.Out () in
  let ctx, _v3 = Ir.get_v_from ctx ~edge:"e2" ~alias:"v3" ~types:[ "City" ] () in
  let p = Ir.pattern_end ctx in
  Alcotest.(check int) "3 vertices" 3 (Pattern.n_vertices p);
  Alcotest.(check int) "2 edges" 2 (Pattern.n_edges p);
  let plan =
    Ir.match_pattern p
    |> (fun m -> Ir.select m (Expr.Binop (Expr.Eq, Expr.Prop ("v3", "name"), Expr.Const (Value.Str "c0"))))
    |> Ir.group
         ~keys:[ (Expr.Var "v2", "v2") ]
         ~aggs:[ Ir.agg ~alias:"cnt" Logical.Count ]
    |> Ir.order ~keys:[ (Expr.Var "cnt", Logical.Asc) ] ~limit:10
  in
  check_ok plan


let test_gremlin_group () =
  let plan =
    Gp.parse schema
      "g.V().hasLabel('Person').out('LIVES_IN').hasLabel('City').as('c').groupCount().by('name')"
  in
  check_ok plan;
  (match plan with
  | Logical.Group (_, [ (Expr.Prop ("c", "name"), "key") ], [ agg ]) ->
    Alcotest.(check bool) "count agg" true (agg.Logical.agg_fn = Logical.Count)
  | _ -> Alcotest.fail "expected keyed groupCount");
  let plan2 =
    Gp.parse schema
      "g.V().hasLabel('Person').as('p').group().by('name').by(count)"
  in
  check_ok plan2;
  match plan2 with
  | Logical.Group (_, [ (Expr.Prop ("p", "name"), "key") ], [ agg ]) ->
    Alcotest.(check bool) "by(count) rewrites collect" true (agg.Logical.agg_fn = Logical.Count)
  | _ -> Alcotest.fail "expected group().by().by(count)"

let test_skip_parses () =
  let plan = lower "MATCH (a:Person) RETURN a.name AS n ORDER BY n ASC SKIP 2 LIMIT 3" in
  check_ok plan;
  match plan with
  | Logical.Limit (Logical.Skip (Logical.Order _, 2), 3) -> ()
  | _ -> Alcotest.failf "unexpected:\n%s" (Gopt_gir.Plan_printer.to_string plan)

let test_cross_language_same_gir () =
  (* the same logical query in both languages produces the same result shape *)
  let c = lower "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN count(*) AS c" in
  let g = Gp.parse schema "g.V().hasLabel('Person').out('KNOWS').hasLabel('Person').count()" in
  check_ok c;
  check_ok g;
  (* both are a count over a single-edge Person-KNOWS-Person pattern *)
  let pat plan =
    Logical.fold (fun acc n -> match n with Logical.Match p -> Some p | _ -> acc) None plan
  in
  match pat c, pat g with
  | Some pc, Some pg ->
    Alcotest.(check string) "iso patterns"
      (Gopt_pattern.Canonical.iso_code pc)
      (Gopt_pattern.Canonical.iso_code pg)
  | _ -> Alcotest.fail "missing patterns"

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer;
          Alcotest.test_case "integer overflow" `Quick test_int_overflow;
        ] );
      ( "cypher",
        [
          Alcotest.test_case "simple match" `Quick test_parse_simple_match;
          Alcotest.test_case "where and props" `Quick test_parse_where_and_props;
          Alcotest.test_case "union types" `Quick test_parse_union_types;
          Alcotest.test_case "var length" `Quick test_parse_var_length;
          Alcotest.test_case "multi match join" `Quick test_parse_multi_match_join;
          Alcotest.test_case "optional match" `Quick test_parse_optional_match;
          Alcotest.test_case "anti pattern" `Quick test_parse_anti_pattern;
          Alcotest.test_case "aggregates" `Quick test_parse_aggregates;
          Alcotest.test_case "union" `Quick test_parse_union;
          Alcotest.test_case "params" `Quick test_parse_params;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "cycle closure" `Quick test_cycle_closure;
          Alcotest.test_case "self-loop relationship" `Quick test_self_loop;
        ] );
      ( "gremlin",
        [
          Alcotest.test_case "basic" `Quick test_gremlin_basic;
          Alcotest.test_case "cycle" `Quick test_gremlin_cycle;
          Alcotest.test_case "union" `Quick test_gremlin_union;
          Alcotest.test_case "repeat/times" `Quick test_gremlin_repeat;
          Alcotest.test_case "has predicates" `Quick test_gremlin_has_predicates;
          Alcotest.test_case "group steps" `Quick test_gremlin_group;
          Alcotest.test_case "skip parses" `Quick test_skip_parses;
        ] );
      ( "ir_builder",
        [
          Alcotest.test_case "paper snippet roundtrip" `Quick test_ir_builder_roundtrip;
          Alcotest.test_case "cross language gir" `Quick test_cross_language_same_gir;
        ] );
    ]
