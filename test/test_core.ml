module Session = Gopt.Session
module Planner = Gopt_opt.Planner
module Baselines = Gopt_opt.Baselines
module Spec = Gopt_opt.Physical_spec
module Engine = Gopt_exec.Engine
module Batch = Gopt_exec.Batch
module Rval = Gopt_exec.Rval
module Queries = Gopt_workloads.Queries
module Ldbc = Gopt_workloads.Ldbc
module Value = Gopt_graph.Value

let fixture_session = Session.create Fixtures.graph

(* a tiny LDBC graph shared by the workload tests *)
let ldbc_graph = Ldbc.generate ~seed:1 ~persons:120 ()
let ldbc_session = Session.create ldbc_graph

(* canonical, order-insensitive view of a result batch *)
let row_set batch =
  let g = Fixtures.graph in
  ignore g;
  let rows = ref [] in
  Batch.iter
    (fun row ->
      rows :=
        String.concat "|"
          (List.sort String.compare
             (List.map2
                (fun f v -> f ^ "=" ^ Format.asprintf "%a" (Rval.pp ldbc_graph) v)
                (Batch.fields batch) (Array.to_list row)))
        :: !rows)
    batch;
  List.sort String.compare !rows

let single_int batch =
  match Batch.n_rows batch with
  | 1 -> begin
    match (Batch.row batch 0).(0) with
    | Rval.Rval (Value.Int n) -> n
    | v -> Alcotest.failf "expected int, got %s" (Format.asprintf "%a" (Rval.pp ldbc_graph) v)
  end
  | n -> Alcotest.failf "expected one row, got %d" n

let test_quickstart () =
  let out = Gopt.run_cypher fixture_session "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN count(*) AS c" in
  Alcotest.(check int) "knows count" 5 (single_int out.Gopt.result)

let test_cross_language () =
  let c =
    Gopt.run_cypher fixture_session
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:LIVES_IN]->(c:City) RETURN count(*) AS c"
  in
  let g =
    Gopt.run_gremlin fixture_session
      "g.V().hasLabel('Person').out('KNOWS').hasLabel('Person').out('LIVES_IN').hasLabel('City').count()"
  in
  Alcotest.(check int) "same count" (single_int c.Gopt.result) (single_int g.Gopt.result)

let test_explain () =
  let s =
    Gopt.explain_cypher fixture_session
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE b.name = 'p2' RETURN a.name AS n"
  in
  Alcotest.(check bool) "mentions physical" true
    (String.length s > 0
    &&
    let contains sub =
      let n = String.length sub and m = String.length s in
      let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    contains "physical" && contains "MATCH_PATTERN")

(* The central correctness property of the whole system: every optimizer
   configuration yields identical results. *)
let configs =
  [
    ("gopt-gs", Baselines.gopt_config Spec.graphscope);
    ("gopt-neo", Baselines.gopt_config Spec.neo4j);
    ("cypher-planner", Baselines.cypher_planner_config);
    ("gs-rbo", Baselines.gs_rbo_config);
    ("no-rbo", { (Planner.default_config ()) with Planner.enable_rbo = false; enable_field_trim = false });
    ("no-inference", { (Planner.default_config ()) with Planner.enable_type_inference = false });
    ("no-cbo", { (Planner.default_config ()) with Planner.enable_cbo = false });
  ]

let check_all_configs_agree session query =
  let reference = ref None in
  List.iter
    (fun (name, config) ->
      let out = Gopt.run_cypher ~config ~budget:30.0 session query in
      let rows = row_set out.Gopt.result in
      match !reference with
      | None -> reference := Some rows
      | Some expected ->
        Alcotest.(check (list string)) (Printf.sprintf "%s on %s" name query) expected rows)
    configs

let fixture_queries =
  [
    "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN count(*) AS c";
    "MATCH (a:Person)-[k:KNOWS]->(b:Person)-[:LIVES_IN]->(c:City) WHERE c.name = 'c0' RETURN a.name AS n, b.name AS m";
    "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person), (a)-[:KNOWS]->(c) RETURN count(*) AS c";
    "MATCH (a)-[]->(b:City) RETURN count(*) AS c";
    "MATCH (a:Person)-[:KNOWS*1..2]-(b:Person) RETURN count(*) AS c";
    "MATCH (a:Person) OPTIONAL MATCH (a)-[:PURCHASED]->(g:Product) RETURN a.name AS n, count(g) AS c";
    "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE NOT (b)-[:KNOWS]->(a) RETURN count(*) AS c";
    "MATCH (a:Person)-[:LIVES_IN]->(c:City) RETURN c.name AS n, count(a) AS cnt ORDER BY cnt DESC, n ASC";
    "MATCH (v1:Person)-[:KNOWS]->(v2:Person)-[:LIVES_IN]->(c:City) RETURN v1.name AS a, v2.name AS b \
     UNION MATCH (v1:Person)-[:KNOWS]->(v2:Person)-[:PURCHASED]->(g:Product) RETURN v1.name AS a, v2.name AS b";
    (* the path's last edge and [k] can be the same edge, so AllDistinct
       drops rows on the edge ids of a path cell *)
    "MATCH (a:Person)-[:KNOWS*1..2]-(b:Person)-[k:KNOWS]-(c:Person) RETURN a.name AS x, c.name AS y";
  ]

let test_config_equivalence_fixture () =
  List.iter (check_all_configs_agree fixture_session) fixture_queries

(* the same queries agree with the materialized reference engine *)
let test_fixture_oracle () =
  List.iter
    (fun query ->
      let physical, _ = Gopt.plan_cypher fixture_session query in
      let out = Gopt.run_cypher fixture_session query in
      let oracle, _ = Engine.run_materialized Fixtures.graph physical in
      Alcotest.(check (list string)) query (row_set oracle) (row_set out.Gopt.result))
    fixture_queries

let test_config_equivalence_ldbc () =
  List.iter (check_all_configs_agree ldbc_session)
    [
      "MATCH (p:Person {id: 10})-[:KNOWS]-(f:Person) RETURN f.id AS fid ORDER BY fid ASC";
      "MATCH (p:Person)-[:IS_LOCATED_IN]->(c:City) WHERE c.name = 'city_3' RETURN count(*) AS c";
      "MATCH (p1:Person)-[:KNOWS]->(p2:Person), (p1)-[:LIKES]->(m:Post), (m)-[:HAS_CREATOR]->(p2) RETURN count(*) AS c";
      "MATCH (a)-[]->(b)-[:IS_PART_OF]->(c:Country {name: 'country_0'}) RETURN count(*) AS c";
    ]

let test_all_workload_queries_run () =
  (* every IC/BI/QR/QT/QC query parses, plans and executes under the default
     pipeline on the tiny graph *)
  List.iter
    (fun (q : Queries.query) ->
      match Gopt.run_cypher ~budget:60.0 ldbc_session q.Queries.cypher with
      | out ->
        Alcotest.(check bool)
          (q.Queries.name ^ " produced a result")
          true
          (Batch.n_rows out.Gopt.result >= 0)
      | exception exn ->
        Alcotest.failf "%s failed: %s" q.Queries.name (Printexc.to_string exn))
    (Queries.comprehensive @ Queries.qr @ Queries.qt @ Queries.qc)

let test_gremlin_twins_agree () =
  List.iter
    (fun (q : Queries.query) ->
      match q.Queries.gremlin with
      | None -> ()
      | Some gsrc ->
        (* compare total match counts: all twins end in count() *)
        let cy = Gopt.run_cypher ~budget:60.0 ldbc_session q.Queries.cypher in
        let gr = Gopt.run_gremlin ~budget:60.0 ldbc_session gsrc in
        let count_of out =
          if Batch.n_rows out.Gopt.result = 1 && Batch.n_fields out.Gopt.result = 1 then
            match (Batch.row out.Gopt.result 0).(0) with
            | Rval.Rval (Value.Int n) -> Some n
            | _ -> None
          else None
        in
        (match count_of cy, count_of gr with
        | Some a, Some b ->
          (* Cypher MATCH uses no-repeated-edge semantics, Gremlin is
             homomorphic: Gremlin count can only be larger *)
          Alcotest.(check bool) (q.Queries.name ^ " gremlin >= cypher") true (b >= a)
        | _ -> ()))
    Queries.qc

let test_qt_inference_equivalence () =
  List.iter
    (fun (q : Queries.query) ->
      let on = Gopt.run_cypher ~budget:60.0 ldbc_session q.Queries.cypher in
      let config = { (Planner.default_config ()) with Planner.enable_type_inference = false } in
      let off = Gopt.run_cypher ~config ~budget:60.0 ldbc_session q.Queries.cypher in
      Alcotest.(check (list string)) (q.Queries.name ^ " same results") (row_set off.Gopt.result)
        (row_set on.Gopt.result);
      (* and inference must not be slower in terms of rows materialized *)
      Alcotest.(check bool)
        (q.Queries.name ^ " fewer-or-equal intermediates")
        true
        (on.Gopt.exec_stats.Engine.intermediate_rows
        <= off.Gopt.exec_stats.Engine.intermediate_rows))
    Queries.qt

let test_dataset_shape () =
  let open Gopt_graph.Property_graph in
  Alcotest.(check bool) "vertices scale" true (n_vertices ldbc_graph > 800);
  Alcotest.(check bool) "edges scale" true (n_edges ldbc_graph > 4000);
  (* determinism *)
  let again = Ldbc.generate ~seed:1 ~persons:120 () in
  Alcotest.(check int) "deterministic vertices" (n_vertices ldbc_graph) (n_vertices again);
  Alcotest.(check int) "deterministic edges" (n_edges ldbc_graph) (n_edges again)

let test_transfer_graph_st () =
  let module Tg = Gopt_workloads.Transfer_graph in
  let module Pattern = Gopt_pattern.Pattern in
  let module Tc = Gopt_pattern.Type_constraint in
  let module Expr = Gopt_pattern.Expr in
  let module Pp = Gopt_opt.Path_planner in
  let g = Tg.generate ~accounts:800 () in
  let session = Session.create g in
  let gq = Session.estimator session in
  let srcs, dsts = Tg.pick_endpoints g ~seed:3 ~n_src:2 ~n_dst:40 in
  let account = Gopt_graph.Schema.vtype_id Tg.schema "Account" in
  let transfer = Gopt_graph.Schema.etype_id Tg.schema "TRANSFER" in
  let in_list tag ids = Expr.In_list (Expr.Prop (tag, "id"), List.map (fun i -> Value.Int i) ids) in
  let p =
    Pattern.create
      [|
        Pattern.mk_vertex ~pred:(in_list "s" srcs) ~alias:"s" (Tc.Basic account);
        Pattern.mk_vertex ~pred:(in_list "t" dsts) ~alias:"t" (Tc.Basic account);
      |]
      [| Pattern.mk_edge ~hops:(4, 4) ~alias:"p" ~src:0 ~dst:1 (Tc.Basic transfer) |]
  in
  let result = Pp.optimize gq Spec.graphscope p in
  Alcotest.(check int) "4 alternatives" 4 (List.length result.Pp.alternatives);
  (* all split positions produce the same number of s-t walks *)
  let count phys =
    let batch, _ = Engine.run ~budget:60.0 g phys in
    Batch.n_rows batch
  in
  let unsplit, _ = Pp.forced_split gq Spec.graphscope p ~at:0 in
  let expected = count unsplit in
  List.iter
    (fun at ->
      let phys, _ = Pp.forced_split gq Spec.graphscope p ~at in
      Alcotest.(check int) (Printf.sprintf "split at %d" at) expected (count phys))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "core"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "quickstart" `Quick test_quickstart;
          Alcotest.test_case "cross language" `Quick test_cross_language;
          Alcotest.test_case "explain" `Quick test_explain;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "configs agree (fixture)" `Quick test_config_equivalence_fixture;
          Alcotest.test_case "fixture vs materialized oracle" `Quick test_fixture_oracle;
          Alcotest.test_case "configs agree (ldbc)" `Quick test_config_equivalence_ldbc;
          Alcotest.test_case "qt inference equivalence" `Quick test_qt_inference_equivalence;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "all queries run" `Slow test_all_workload_queries_run;
          Alcotest.test_case "gremlin twins" `Slow test_gremlin_twins_agree;
          Alcotest.test_case "dataset shape" `Quick test_dataset_shape;
          Alcotest.test_case "transfer graph s-t" `Quick test_transfer_graph_st;
        ] );
    ]
