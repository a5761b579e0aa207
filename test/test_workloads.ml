(* Static validation of the benchmark workloads: every query parses, lowers
   to a well-formed GIR plan, and exercises what it claims to exercise. *)

module Queries = Gopt_workloads.Queries
module Ldbc = Gopt_workloads.Ldbc
module Tg = Gopt_workloads.Transfer_graph
module Ir = Gopt_gir.Ir_builder
module Logical = Gopt_gir.Logical
module Pattern = Gopt_pattern.Pattern
module Rule = Gopt_opt.Rule
module Rp = Gopt_opt.Rules_pattern
module Rr = Gopt_opt.Rules_relational

let schema = Ldbc.schema

let lower (q : Queries.query) =
  Gopt_lang.Lowering.cypher schema (Gopt_lang.Cypher_parser.parse q.Queries.cypher)

let test_counts () =
  Alcotest.(check int) "12 IC queries" 12 (List.length Queries.ic);
  Alcotest.(check int) "17 BI queries" 17 (List.length Queries.bi);
  Alcotest.(check int) "29 comprehensive" 29 (List.length Queries.comprehensive);
  Alcotest.(check int) "8 QR" 8 (List.length Queries.qr);
  Alcotest.(check int) "5 QT" 5 (List.length Queries.qt);
  Alcotest.(check int) "8 QC (a/b)" 8 (List.length Queries.qc)

let test_all_queries_lower_and_check () =
  List.iter
    (fun (q : Queries.query) ->
      match lower q with
      | plan -> begin
        match Ir.check plan with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s: ill-formed plan: %s" q.Queries.name msg
      end
      | exception exn ->
        Alcotest.failf "%s does not lower: %s" q.Queries.name (Printexc.to_string exn))
    (Queries.comprehensive @ Queries.qr @ Queries.qt @ Queries.qc)

let test_gremlin_twins_lower () =
  List.iter
    (fun (q : Queries.query) ->
      match q.Queries.gremlin with
      | None -> ()
      | Some src -> begin
        match Gopt_lang.Gremlin_parser.parse schema src with
        | plan -> begin
          match Ir.check plan with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s gremlin: ill-formed: %s" q.Queries.name msg
        end
        | exception exn ->
          Alcotest.failf "%s gremlin does not parse: %s" q.Queries.name
            (Printexc.to_string exn)
      end)
    (Queries.qr @ Queries.qc)

let test_qt_queries_are_underspecified () =
  (* every QT query must contain at least one All-typed vertex, otherwise it
     does not test type inference *)
  List.iter
    (fun (q : Queries.query) ->
      let p = Queries.pattern_of_cypher schema q.Queries.cypher in
      let has_all =
        Array.exists
          (fun v -> v.Pattern.v_con = Gopt_pattern.Type_constraint.All)
          (Pattern.vertices p)
      in
      Alcotest.(check bool) (q.Queries.name ^ " has untyped vertex") true has_all)
    Queries.qt

let test_qr_rules_fire () =
  (* the rule each QR query advertises actually fires on it *)
  List.iter
    (fun (q : Queries.query) ->
      let rule = Option.get q.Queries.rule in
      if rule = "FieldTrim" then begin
        (* FieldTrim is a pass, not a named rule: check it changes the plan *)
        let plan = lower q in
        let trimmed = Rp.field_trim plan in
        Alcotest.(check bool) (q.Queries.name ^ ": trim changes plan") false
          (Logical.equal plan trimmed)
      end
      else begin
        let plan = lower q in
        let _, applied = Rule.fixpoint ~check:true ~schema (Rp.all @ Rr.all) plan in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s fires" q.Queries.name rule)
          true (List.mem rule applied)
      end)
    Queries.qr

let test_qc_variants_differ_only_in_types () =
  List.iter
    (fun base ->
      let qa = Queries.find Queries.qc (base ^ "a") in
      let qb = Queries.find Queries.qc (base ^ "b") in
      let pa = Queries.pattern_of_cypher schema qa.Queries.cypher in
      let pb = Queries.pattern_of_cypher schema qb.Queries.cypher in
      Alcotest.(check int) (base ^ " same vertices") (Pattern.n_vertices pa)
        (Pattern.n_vertices pb);
      Alcotest.(check int) (base ^ " same edges") (Pattern.n_edges pa) (Pattern.n_edges pb);
      (* the b variant must contain a UnionType *)
      let has_union p =
        Array.exists
          (fun v ->
            match v.Pattern.v_con with
            | Gopt_pattern.Type_constraint.Union _ -> true
            | _ -> false)
          (Pattern.vertices p)
      in
      Alcotest.(check bool) (base ^ "b has union") true (has_union pb);
      Alcotest.(check bool) (base ^ "a has no union") false (has_union pa))
    [ "QC1"; "QC2"; "QC3"; "QC4" ]

let test_qc_shapes () =
  let shape name nv ne =
    let q = Queries.find Queries.qc name in
    let p = Queries.pattern_of_cypher schema q.Queries.cypher in
    Alcotest.(check int) (name ^ " vertices") nv (Pattern.n_vertices p);
    Alcotest.(check int) (name ^ " edges") ne (Pattern.n_edges p)
  in
  shape "QC1a" 3 3;
  (* triangle *)
  shape "QC2a" 4 4;
  (* square *)
  shape "QC3a" 5 4;
  (* 5-path *)
  shape "QC4a" 7 8 (* the complex pattern of the paper *)

let test_transfer_endpoints_disjoint () =
  let g = Tg.generate ~accounts:500 () in
  let srcs, dsts = Tg.pick_endpoints g ~seed:5 ~n_src:20 ~n_dst:30 in
  Alcotest.(check int) "src count" 20 (List.length srcs);
  Alcotest.(check int) "dst count" 30 (List.length dsts);
  List.iter
    (fun s -> Alcotest.(check bool) "disjoint" false (List.mem s dsts))
    srcs

let test_ladder_monotone () =
  let sizes =
    List.map
      (fun (_, persons) ->
        let g = Ldbc.generate ~persons () in
        Gopt_graph.Property_graph.n_edges g)
      Ldbc.scale_ladder
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "scales increase" true (increasing sizes)

(* Every small scale generates, including those below 60 persons, where a
   local KNOWS offset can exceed the population. *)
let test_small_scales () =
  for persons = 1 to 60 do
    match Ldbc.generate ~persons () with
    | g ->
      Alcotest.(check int)
        (Printf.sprintf "%d persons" persons)
        persons
        (Gopt_graph.Property_graph.count_vtype g (Gopt_graph.Schema.vtype_id schema "Person"))
    | exception e -> Alcotest.failf "%d persons: %s" persons (Printexc.to_string e)
  done

(* The wrap-around leaves every index that was already in range alone, so
   the scales that always generated keep their graphs. *)
let test_scale_counts_unchanged () =
  List.iter
    (fun (persons, vertices, edges) ->
      let g = Ldbc.generate ~persons () in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%d persons: |V|, |E|" persons)
        (vertices, edges)
        (Gopt_graph.Property_graph.n_vertices g, Gopt_graph.Property_graph.n_edges g))
    [ (60, 662, 3145); (1200, 8870, 59568) ]

let () =
  Alcotest.run "workloads"
    [
      ( "queries",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "all lower and check" `Quick test_all_queries_lower_and_check;
          Alcotest.test_case "gremlin twins lower" `Quick test_gremlin_twins_lower;
          Alcotest.test_case "qt underspecified" `Quick test_qt_queries_are_underspecified;
          Alcotest.test_case "qr rules fire" `Quick test_qr_rules_fire;
          Alcotest.test_case "qc variants" `Quick test_qc_variants_differ_only_in_types;
          Alcotest.test_case "qc shapes" `Quick test_qc_shapes;
        ] );
      ( "generators",
        [
          Alcotest.test_case "transfer endpoints" `Quick test_transfer_endpoints_disjoint;
          Alcotest.test_case "scale ladder" `Quick test_ladder_monotone;
          Alcotest.test_case "scales 1 to 60 generate" `Quick test_small_scales;
          Alcotest.test_case "counts at 60 and 1200 persons" `Quick
            test_scale_counts_unchanged;
        ] );
    ]
