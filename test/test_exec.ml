module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint
module Expr = Gopt_pattern.Expr
module Logical = Gopt_gir.Logical
module Physical = Gopt_opt.Physical
module Spec = Gopt_opt.Physical_spec
module Cbo = Gopt_opt.Cbo
module Planner = Gopt_opt.Planner
module Engine = Gopt_exec.Engine
module Batch = Gopt_exec.Batch
module Rval = Gopt_exec.Rval
module Mc = Gopt_glogue.Motif_counter
module Glogue = Gopt_glogue.Glogue
module Gq = Gopt_glogue.Glogue_query
module Value = Gopt_graph.Value
module Prng = Gopt_util.Prng
open Fixtures

let gq = Gq.create (Glogue.build graph)

let count_rows phys =
  let batch, _ = Engine.run graph phys in
  Batch.n_rows batch

let match_count ?(spec = Spec.graphscope) p =
  let plan, _ = Cbo.optimize gq spec p in
  count_rows (Cbo.to_physical spec plan)

let test_scan () =
  let phys = Physical.Scan { alias = "a"; con = Tc.Basic person; pred = None } in
  Alcotest.(check int) "persons" 4 (count_rows phys);
  let pred = Expr.Binop (Expr.Eq, Expr.Prop ("a", "name"), Expr.Const (Value.Str "p0")) in
  let phys = Physical.Scan { alias = "a"; con = Tc.Basic person; pred = Some pred } in
  Alcotest.(check int) "filtered scan" 1 (count_rows phys)

let test_pattern_counts_match_oracle () =
  List.iter
    (fun p ->
      let expected = int_of_float (Mc.count_homomorphisms graph p) in
      Alcotest.(check int) (Pattern.to_string p) expected (match_count p);
      Alcotest.(check int) ("neo4j " ^ Pattern.to_string p) expected
        (match_count ~spec:Spec.neo4j p))
    [ p_knows; p_triangle; p_to_city ]

let test_undirected () =
  let p =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person) |]
      [| pe ~directed:false "e" 0 1 (Tc.Basic knows) |]
  in
  Alcotest.(check int) "undirected knows" 10 (match_count p)

let test_all_distinct () =
  (* out-fork: 7 homomorphisms, 2 with distinct edges *)
  let fork =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person); pv "c" (Tc.Basic person) |]
      [| pe "e1" 0 1 (Tc.Basic knows); pe "e2" 0 2 (Tc.Basic knows) |]
  in
  let plan, _ = Cbo.optimize gq Spec.graphscope fork in
  let phys = Cbo.to_physical Spec.graphscope plan in
  Alcotest.(check int) "hom count" 7 (count_rows phys);
  Alcotest.(check int) "edge distinct" 2 (count_rows (Physical.All_distinct (phys, [ "e1"; "e2" ])))

let test_path_expand_free () =
  (* 2-hop KNOWS walks from p0: p0->p1->p2 and p0->p2->p3 *)
  let pred = Expr.Binop (Expr.Eq, Expr.Prop ("s", "name"), Expr.Const (Value.Str "p0")) in
  let scan = Physical.Scan { alias = "s"; con = Tc.Basic person; pred = Some pred } in
  let edge = pe ~hops:(2, 2) "p" 0 1 (Tc.Basic knows) in
  let step =
    {
      Physical.s_edge = edge;
      s_from = "s";
      s_to = "t";
      s_forward = true;
      s_to_con = Tc.Basic person;
      s_to_pred = None;
    }
  in
  Alcotest.(check int) "2-hop walks" 2 (count_rows (Physical.Path_expand (scan, step)))

let test_path_expand_bound () =
  (* p0 to p3 in exactly 2 hops: p0->p2->p3 *)
  let preds name v = Expr.Binop (Expr.Eq, Expr.Prop (name, "name"), Expr.Const (Value.Str v)) in
  let scan_s = Physical.Scan { alias = "s"; con = Tc.Basic person; pred = Some (preds "s" "p0") } in
  let scan_t = Physical.Scan { alias = "t"; con = Tc.Basic person; pred = Some (preds "t" "p3") } in
  let cross = Physical.Hash_join { left = scan_s; right = scan_t; keys = []; kind = Logical.Inner } in
  let edge = pe ~hops:(2, 2) "p" 0 1 (Tc.Basic knows) in
  let step =
    {
      Physical.s_edge = edge;
      s_from = "s";
      s_to = "t";
      s_forward = true;
      s_to_con = Tc.Basic person;
      s_to_pred = None;
    }
  in
  Alcotest.(check int) "bound endpoint" 1 (count_rows (Physical.Path_expand (cross, step)))

let test_path_semantics () =
  (* add Simple vs Arbitrary distinction: cycle p0->p1? graph has cycle
     p0->p2->p3->p0: 3-hop arbitrary walk from p0 returns to p0; simple
     excludes it *)
  let pred = Expr.Binop (Expr.Eq, Expr.Prop ("s", "name"), Expr.Const (Value.Str "p0")) in
  let scan = Physical.Scan { alias = "s"; con = Tc.Basic person; pred = Some pred } in
  let mk sem =
    let edge = Pattern.mk_edge ~hops:(3, 3) ~path:sem ~alias:"p" ~src:0 ~dst:1 (Tc.Basic knows) in
    let step =
      {
        Physical.s_edge = edge;
        s_from = "s";
        s_to = "t";
        s_forward = true;
        s_to_con = Tc.Basic person;
        s_to_pred = None;
      }
    in
    count_rows (Physical.Path_expand (scan, step))
  in
  let arb = mk Pattern.Arbitrary and simple = mk Pattern.Simple in
  Alcotest.(check bool) "simple <= arbitrary" true (simple <= arb);
  (* p0->p2->p3->p0 is arbitrary-only (revisits p0) *)
  Alcotest.(check bool) "cycle excluded by simple" true (simple < arb)

let test_hash_join_kinds () =
  let scan_a = Physical.Scan { alias = "a"; con = Tc.Basic person; pred = None } in
  let knows_b =
    Physical.Expand_all
      ( Physical.Scan { alias = "a"; con = Tc.Basic person; pred = None },
        {
          Physical.s_edge = pe "e" 0 1 (Tc.Basic knows);
          s_from = "a";
          s_to = "b";
          s_forward = true;
          s_to_con = Tc.Basic person;
          s_to_pred = None;
        } )
  in
  (* semi: persons with at least one outgoing KNOWS = p0,p1,p2,p3 all have out
     edges? p0:2, p1:1, p2:1, p3:1 -> 4. anti: 0 *)
  let semi =
    Physical.Hash_join { left = scan_a; right = knows_b; keys = [ "a" ]; kind = Logical.Semi }
  in
  let anti =
    Physical.Hash_join { left = scan_a; right = knows_b; keys = [ "a" ]; kind = Logical.Anti }
  in
  Alcotest.(check int) "semi" 4 (count_rows semi);
  Alcotest.(check int) "anti" 0 (count_rows anti);
  (* left outer with an empty right side keeps left rows *)
  let empty = Physical.Empty [ "a"; "x" ] in
  let louter =
    Physical.Hash_join { left = scan_a; right = empty; keys = [ "a" ]; kind = Logical.Left_outer }
  in
  Alcotest.(check int) "left outer" 4 (count_rows louter)

let test_group_order_limit () =
  (* per-person outgoing KNOWS counts, descending *)
  let knows =
    Physical.Expand_all
      ( Physical.Scan { alias = "a"; con = Tc.Basic person; pred = None },
        {
          Physical.s_edge = pe "e" 0 1 (Tc.Basic knows);
          s_from = "a";
          s_to = "b";
          s_forward = true;
          s_to_con = Tc.Basic person;
          s_to_pred = None;
        } )
  in
  let grouped =
    Physical.Group
      ( knows,
        [ (Expr.Var "a", "a") ],
        [ { Logical.agg_fn = Logical.Count; agg_arg = None; agg_alias = "c" } ] )
  in
  let ordered = Physical.Order (grouped, [ (Expr.Var "c", Logical.Desc) ], Some 1) in
  let batch, _ = Engine.run graph ordered in
  Alcotest.(check int) "top-1" 1 (Batch.n_rows batch);
  let row = Batch.row batch 0 in
  (match row.(Batch.pos batch "c") with
  | Rval.Rval (Value.Int 2) -> ()
  | v -> Alcotest.failf "expected count 2, got %s" (Format.asprintf "%a" (Rval.pp graph) v));
  match row.(Batch.pos batch "a") with
  | Rval.Rvertex 0 -> ()
  | _ -> Alcotest.fail "expected p0 on top"

let test_aggregates () =
  let scan = Physical.Scan { alias = "a"; con = Tc.Basic person; pred = None } in
  let aggs =
    [
      { Logical.agg_fn = Logical.Count; agg_arg = None; agg_alias = "cnt" };
      { Logical.agg_fn = Logical.Sum; agg_arg = Some (Expr.Prop ("a", "age")); agg_alias = "s" };
      { Logical.agg_fn = Logical.Avg; agg_arg = Some (Expr.Prop ("a", "age")); agg_alias = "av" };
      { Logical.agg_fn = Logical.Min; agg_arg = Some (Expr.Prop ("a", "age")); agg_alias = "mn" };
      { Logical.agg_fn = Logical.Max; agg_arg = Some (Expr.Prop ("a", "age")); agg_alias = "mx" };
      { Logical.agg_fn = Logical.Count_distinct; agg_arg = Some (Expr.Prop ("a", "name")); agg_alias = "cd" };
      { Logical.agg_fn = Logical.Collect; agg_arg = Some (Expr.Prop ("a", "age")); agg_alias = "col" };
    ]
  in
  let batch, _ = Engine.run graph (Physical.Group (scan, [], aggs)) in
  Alcotest.(check int) "one row" 1 (Batch.n_rows batch);
  let row = Batch.row batch 0 in
  let get name = row.(Batch.pos batch name) in
  Alcotest.(check bool) "cnt" true (get "cnt" = Rval.Rval (Value.Int 4));
  Alcotest.(check bool) "sum 20+21+22+23" true (get "s" = Rval.Rval (Value.Int 86));
  (match get "av" with
  | Rval.Rval (Value.Float f) -> Alcotest.(check (float 1e-9)) "avg" 21.5 f
  | _ -> Alcotest.fail "avg kind");
  Alcotest.(check bool) "min" true (get "mn" = Rval.Rval (Value.Int 20));
  Alcotest.(check bool) "max" true (get "mx" = Rval.Rval (Value.Int 23));
  Alcotest.(check bool) "count distinct" true (get "cd" = Rval.Rval (Value.Int 4));
  match get "col" with
  | Rval.Rlist l -> Alcotest.(check int) "collect size" 4 (List.length l)
  | _ -> Alcotest.fail "collect kind"

let test_group_empty_input () =
  let empty = Physical.Empty [ "a" ] in
  let aggs = [ { Logical.agg_fn = Logical.Count; agg_arg = None; agg_alias = "c" } ] in
  let batch, _ = Engine.run graph (Physical.Group (empty, [], aggs)) in
  Alcotest.(check int) "count over empty = one row" 1 (Batch.n_rows batch);
  Alcotest.(check bool) "zero" true ((Batch.row batch 0).(0) = Rval.Rval (Value.Int 0))

let test_union_dedup_project () =
  let scan = Physical.Scan { alias = "a"; con = Tc.Basic person; pred = None } in
  let u = Physical.Union (scan, scan) in
  Alcotest.(check int) "union doubles" 8 (count_rows u);
  Alcotest.(check int) "dedup halves" 4 (count_rows (Physical.Dedup (u, [])));
  let proj = Physical.Project (u, [ (Expr.Prop ("a", "name"), "n") ]) in
  Alcotest.(check int) "project keeps rows" 8 (count_rows proj);
  Alcotest.(check int) "limit" 3 (count_rows (Physical.Limit (u, 3)))

let test_with_common () =
  (* common = KNOWS edge; both branches expand differently *)
  let common = Physical.Scan { alias = "a"; con = Tc.Basic person; pred = None } in
  let expand etype target alias =
    Physical.Expand_all
      ( Physical.Common_ref [ "a" ],
        {
          Physical.s_edge = pe "ee" 0 1 (Tc.Basic etype);
          s_from = "a";
          s_to = alias;
          s_forward = true;
          s_to_con = Tc.Basic target;
          s_to_pred = None;
        } )
  in
  let left = Physical.Project (expand lives_in city "c", [ (Expr.Var "a", "a") ]) in
  let right = Physical.Project (expand purchased product "g", [ (Expr.Var "a", "a") ]) in
  let plan =
    Physical.With_common { common; left; right; combine = Logical.C_union }
  in
  (* LIVES_IN has 4 edges, PURCHASED has 3 *)
  Alcotest.(check int) "factored union" 7 (count_rows plan)

let test_stats_recorded () =
  let phys = Physical.Scan { alias = "a"; con = Tc.Basic person; pred = None } in
  let _, stats = Engine.run ~profile:Engine.graphscope_profile graph phys in
  Alcotest.(check bool) "rows recorded" true (stats.Engine.intermediate_rows = 4);
  Alcotest.(check bool) "comm counted" true (stats.Engine.comm_rows = 4);
  let _, stats2 = Engine.run ~profile:Engine.neo4j_profile graph phys in
  Alcotest.(check int) "no comm on neo4j profile" 0 stats2.Engine.comm_rows;
  (* a column swap counts its rows but ships nothing, in both engines *)
  let swap = Physical.Project (phys, [ (Expr.Var "a", "b") ]) in
  List.iter
    (fun (engine, (_, st)) ->
      Alcotest.(check (pair int int)) (engine ^ ": swap rows, no comm") (8, 4)
        (st.Engine.intermediate_rows, st.Engine.comm_rows))
    [
      ("pipelined", Engine.run ~profile:Engine.graphscope_profile graph swap);
      ("materialized", Engine.run_materialized ~profile:Engine.graphscope_profile graph swap);
    ]

let test_batch_pos_error () =
  let b = Batch.create [ "a"; "b" ] in
  Alcotest.(check (option int)) "pos_opt hit" (Some 1) (Batch.pos_opt b "b");
  Alcotest.(check (option int)) "pos_opt miss" None (Batch.pos_opt b "zz");
  match Batch.pos b "zz" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the field" true
      (String.length msg > 0
      && (let contains sub s =
            let n = String.length sub and m = String.length s in
            let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
            go 0
          in
          contains "zz" msg && contains "a" msg && contains "b" msg))

(* differential: every workload query and every vectorized-scan query
   (VS1-VS6, whose predicates the oracle evaluates row by row) through the
   pipelined engine and the materialized reference path must produce the
   same rows, and the pipelined run must never hold more rows live *)

module Queries = Gopt_workloads.Queries

let canon_rows b =
  let rows = ref [] in
  Batch.iter (fun row -> rows := Array.to_list row :: !rows) b;
  List.sort (List.compare Rval.compare) !rows

let test_differential_workloads () =
  let g = Gopt_workloads.Ldbc.generate ~persons:60 () in
  let session = Gopt.Session.create g in
  List.iter
    (fun (q : Queries.query) ->
      let physical, _ = Gopt.plan_cypher session q.Queries.cypher in
      let b_pipe, s_pipe = Engine.run g physical in
      let b_mat, s_mat = Engine.run_materialized g physical in
      Alcotest.(check (list string))
        (q.Queries.name ^ ": fields")
        (Batch.fields b_mat) (Batch.fields b_pipe);
      Alcotest.(check bool)
        (q.Queries.name ^ ": same rows")
        true
        (List.equal (List.equal Rval.equal) (canon_rows b_pipe) (canon_rows b_mat));
      Alcotest.(check bool)
        (Printf.sprintf "%s: pipelined peak %d <= materialized peak %d" q.Queries.name
           s_pipe.Engine.peak_rows s_mat.Engine.peak_rows)
        true
        (s_pipe.Engine.peak_rows <= s_mat.Engine.peak_rows);
      Alcotest.(check bool)
        (q.Queries.name ^ ": trace present")
        true (s_pipe.Engine.op_trace <> None);
      Alcotest.(check bool)
        (q.Queries.name ^ ": reference has no trace")
        true (s_mat.Engine.op_trace = None))
    (Queries.comprehensive @ Queries.qr @ Queries.qt @ Queries.qc @ Queries.vs)

(* chunk_size is behaviour-neutral: the full workload suite at pathological
   batch granularities (1 and 7) must return exactly the default's rows.
   Plans that cut on possibly-tied boundaries (LIMIT / top-k) may keep a
   different-but-equally-valid subset of tied rows, so those compare by
   cardinality. *)
let test_chunk_size_neutral () =
  let g = Gopt_workloads.Ldbc.generate ~persons:60 () in
  let session = Gopt.Session.create g in
  List.iter
    (fun (q : Queries.query) ->
      let physical, _ = Gopt.plan_cypher session q.Queries.cypher in
      let b_ref, _ = Engine.run g physical in
      List.iter
        (fun cs ->
          let b, _ = Engine.run ~chunk_size:cs g physical in
          let name = Printf.sprintf "%s @ chunk_size=%d" q.Queries.name cs in
          Alcotest.(check (list string))
            (name ^ ": fields") (Batch.fields b_ref) (Batch.fields b);
          if plan_has_tie_cut physical then
            Alcotest.(check int) (name ^ ": rows") (Batch.n_rows b_ref) (Batch.n_rows b)
          else
            Alcotest.(check bool)
              (name ^ ": same rows")
              true
              (List.equal (List.equal Rval.equal) (canon_rows b_ref) (canon_rows b)))
        [ 1; 7; 1024 ])
    (Queries.comprehensive @ Queries.qr @ Queries.qt @ Queries.qc)

let test_limit_short_circuit () =
  (* big enough that the full expansion dwarfs one 1024-row chunk — the
     stop signal's granularity *)
  let g = Gopt_workloads.Ldbc.generate ~persons:2000 () in
  let schema = Gopt_graph.Property_graph.schema g in
  let person_t = Gopt_graph.Schema.vtype_id schema "Person" in
  let knows_t = Gopt_graph.Schema.etype_id schema "KNOWS" in
  let expand =
    Physical.Expand_all
      ( Physical.Scan { alias = "a"; con = Tc.Basic person_t; pred = None },
        {
          Physical.s_edge = pe "e" 0 1 (Tc.Basic knows_t);
          s_from = "a";
          s_to = "b";
          s_forward = true;
          s_to_con = Tc.Basic person_t;
          s_to_pred = None;
        } )
  in
  let limited = Physical.Limit (expand, 5) in
  let b_pipe, s_pipe = Engine.run g limited in
  let b_mat, s_mat = Engine.run_materialized g limited in
  Alcotest.(check int) "both return 5 rows" (Batch.n_rows b_mat) (Batch.n_rows b_pipe);
  Alcotest.(check int) "5 rows" 5 (Batch.n_rows b_pipe);
  (* the stop signal reaches the expansion: far fewer adjacency entries are
     visited than the materialized path's full expansion *)
  Alcotest.(check bool)
    (Printf.sprintf "edges touched: pipelined %d << materialized %d" s_pipe.Engine.edges_touched
       s_mat.Engine.edges_touched)
    true
    (s_pipe.Engine.edges_touched * 4 < s_mat.Engine.edges_touched);
  Alcotest.(check bool)
    (Printf.sprintf "intermediate rows: pipelined %d << materialized %d"
       s_pipe.Engine.intermediate_rows s_mat.Engine.intermediate_rows)
    true
    (s_pipe.Engine.intermediate_rows * 4 < s_mat.Engine.intermediate_rows)

let test_pipeline_classification () =
  let scan = Physical.Scan { alias = "a"; con = Tc.Basic person; pred = None } in
  Alcotest.(check bool) "scan streams" true (Physical.pipeline_role scan = Physical.Streaming);
  Alcotest.(check bool) "dedup is stateful" true
    (Physical.pipeline_role (Physical.Dedup (scan, [])) = Physical.Stateful);
  let order = Physical.Order (scan, [], None) in
  Alcotest.(check bool) "order breaks" true (Physical.is_pipeline_breaker order);
  let aggs = [ { Logical.agg_fn = Logical.Count; agg_arg = None; agg_alias = "c" } ] in
  let grouped = Physical.Group (order, [], aggs) in
  Alcotest.(check int) "two breakers" 2 (Physical.breaker_count grouped);
  Alcotest.(check int) "limit adds none" 2
    (Physical.breaker_count (Physical.Limit (grouped, 1)))

let test_trace_totals () =
  (* the root trace's totals are consistent with the engine stats *)
  let scan = Physical.Scan { alias = "a"; con = Tc.Basic person; pred = None } in
  let proj = Physical.Project (scan, [ (Expr.Prop ("a", "name"), "n") ]) in
  let _, st = Engine.run graph proj in
  match st.Engine.op_trace with
  | None -> Alcotest.fail "pipelined run must record a trace"
  | Some tr ->
    Alcotest.(check string) "root is the plan root" (Physical.node_label proj) tr.Gopt_exec.Op_trace.name;
    Alcotest.(check int) "root rows out" 4 tr.Gopt_exec.Op_trace.rows_out;
    let rec sum tr =
      tr.Gopt_exec.Op_trace.rows_out
      + List.fold_left (fun acc c -> acc + sum c) 0 tr.Gopt_exec.Op_trace.children
    in
    Alcotest.(check int) "sum of rows_out = intermediate_rows" st.Engine.intermediate_rows
      (sum tr)

(* the allocation-free CONTAINS scan, including the cases the naive
   quadratic version got right only by accident *)
let test_contains () =
  let module Eval = Gopt_exec.Eval in
  Alcotest.(check bool) "empty needle in empty" true (Eval.contains ~sub:"" "");
  Alcotest.(check bool) "empty needle" true (Eval.contains ~sub:"" "abc");
  Alcotest.(check bool) "needle longer than haystack" false (Eval.contains ~sub:"abc" "ab");
  Alcotest.(check bool) "overlapping needle" true (Eval.contains ~sub:"aa" "aaa");
  Alcotest.(check bool) "overlap across near-miss" true (Eval.contains ~sub:"aab" "aaab");
  Alcotest.(check bool) "at the start" true (Eval.contains ~sub:"ab" "abc");
  Alcotest.(check bool) "at the end" true (Eval.contains ~sub:"bc" "abc");
  Alcotest.(check bool) "absent" false (Eval.contains ~sub:"ac" "abc");
  (* differential vs. the obvious spec on random short strings *)
  let spec ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let rng = Prng.create 7 in
  for _ = 1 to 2000 do
    let mk len = String.init (Prng.int rng len) (fun _ -> Char.chr (97 + Prng.int rng 3)) in
    let s = mk 9 and sub = mk 5 in
    Alcotest.(check bool)
      (Printf.sprintf "contains %S %S" sub s)
      (spec ~sub s) (Eval.contains ~sub s)
  done

(* Int and integral Float hash identically (they compare equal), without
   the old tuple round-trip *)
let test_value_hash_agreement () =
  let check_agree a b =
    Alcotest.(check bool)
      (Printf.sprintf "hash %s = hash %s" (Value.to_string a) (Value.to_string b))
      true
      (Value.hash a = Value.hash b)
  in
  check_agree (Value.Int 5) (Value.Float 5.);
  check_agree (Value.Int 0) (Value.Float 0.);
  check_agree (Value.Int 0) (Value.Float (-0.));
  check_agree (Value.Int (-3)) (Value.Float (-3.));
  check_agree (Value.Int max_int) (Value.Float (float_of_int max_int));
  let rng = Prng.create 11 in
  for _ = 1 to 1000 do
    let n = Prng.int rng 1000000 - 500000 in
    check_agree (Value.Int n) (Value.Float (float_of_int n))
  done;
  (* sanity: hashing still distinguishes enough values to be useful *)
  Alcotest.(check bool) "0 <> 1" true (Value.hash (Value.Int 0) <> Value.hash (Value.Int 1))

(* kernel-level trace counters: a vectorized scan predicate reports the
   rows its kernel selected; a predicate without a column loop falls back to
   the row interpreter and reports none *)
let test_kernel_trace_counters () =
  let scan_rows_selected pred =
    let phys = Physical.Scan { alias = "a"; con = Tc.Basic person; pred = Some pred } in
    let _, st = Engine.run graph phys in
    match st.Engine.op_trace with
    | None -> Alcotest.fail "no trace"
    | Some tr -> tr.Gopt_exec.Op_trace.rows_selected
  in
  let age = Expr.Prop ("a", "age") and c20 = Expr.Const (Value.Int 20) in
  Alcotest.(check int) "rows_selected = surviving rows" 3
    (scan_rows_selected (Expr.Binop (Expr.Gt, age, c20)));
  Alcotest.(check int) "row fallback reports no kernel rows" 0
    (scan_rows_selected
       (Expr.Binop (Expr.Gt, Expr.Binop (Expr.Add, age, Expr.Const (Value.Int 0)), c20)))

(* property: all planners agree with the brute-force oracle on random
   connected patterns *)
let prop_planners_agree =
  QCheck.Test.make ~name:"all plans agree with oracle" ~count:40 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let nv = 2 + Prng.int rng 3 in
      let vs =
        Array.init nv (fun i ->
            pv (Printf.sprintf "v%d" i) (if Prng.bool rng then Tc.Basic person else Tc.All))
      in
      let es = ref [] in
      for i = 1 to nv - 1 do
        let j = Prng.int rng i in
        let src, dst = if Prng.bool rng then (i, j) else (j, i) in
        es :=
          pe ~directed:(Prng.bool rng) (Printf.sprintf "e%d" i) src dst
            (if Prng.bool rng then Tc.Basic knows else Tc.All)
          :: !es
      done;
      (* sometimes add a closing edge *)
      if nv >= 3 && Prng.bool rng then
        es := pe "extra" 0 (nv - 1) Tc.All :: !es;
      let p = Pattern.create vs (Array.of_list !es) in
      let expected = int_of_float (Mc.count_homomorphisms graph p) in
      let via_cbo spec =
        let plan, _ = Cbo.optimize gq spec p in
        count_rows (Cbo.to_physical spec plan)
      in
      let via_user spec = count_rows (Planner.compile_user_order spec p) in
      via_cbo Spec.graphscope = expected
      && via_cbo Spec.neo4j = expected
      && via_user Spec.graphscope = expected
      && via_user Spec.neo4j = expected)

(* property: merging sorted runs equals one stable sort of their
   concatenation, truncated to the limit — ties go to the earlier run *)
let prop_sorted_run_merge =
  QCheck.Test.make ~name:"sorted runs: heap merge = stable sort" ~count:200 QCheck.small_int
    (fun seed ->
      let module Breaker = Gopt_exec.Breaker in
      let rng = Prng.create seed in
      let keys = [ (Expr.Var "a", Logical.Asc); (Expr.Var "b", Logical.Desc) ] in
      let cmp (ka, _) (kb, _) = Breaker.compare_keys keys ka kb in
      (* small key domains, so most keys are tied; a row names its run and
         its position there, so a tie resolved the wrong way shows *)
      let runs =
        Array.init (1 + Prng.int rng 300) (fun r ->
            List.init (Prng.int rng 6) (fun i ->
                ( [ Value.Int (Prng.int rng 3); Value.Int (Prng.int rng 2) ],
                  [| Rval.Rval (Value.Int r); Rval.Rval (Value.Int i) |] ))
            |> List.stable_sort cmp |> Array.of_list)
      in
      let total = Array.fold_left (fun n run -> n + Array.length run) 0 runs in
      let limit = if Prng.bool rng then None else Some (Prng.int rng (total + 3)) in
      let merged = ref [] in
      Breaker.Sorted_run.merge keys limit runs (fun row -> merged := row :: !merged);
      let expected =
        List.stable_sort cmp (List.concat_map Array.to_list (Array.to_list runs))
        |> List.filteri (fun i _ -> i < Option.value limit ~default:total)
        |> List.map snd
      in
      List.rev !merged = expected)

(* property: the column hash-join table equals a nested loop that returns
   each probe row's matches in reverse build-arrival order. Key columns are
   chosen per chunk, and so mixed across the two sides: dense vertex or
   edge ids, the same promoted to boxed by an Rnull, vertices and edges of
   one id range in one column (which never match), Ints and equal Floats
   (which do), or Rval Null and Rnull. Build chunks are sometimes selection
   views; 1-3 partial build states merge in order. *)
let prop_join_table =
  QCheck.Test.make ~name:"join table = nested loop, reverse build order" ~count:300
    QCheck.small_int (fun seed ->
      let module Join = Gopt_exec.Breaker.Join in
      let rng = Prng.create seed in
      let nkeys = Prng.int rng 3 in
      let keys = List.init nkeys (Printf.sprintf "k%d") in
      let kind =
        [| Logical.Inner; Logical.Left_outer; Logical.Semi; Logical.Anti |].(Prng.int rng 4)
      in
      let cs = [| 1; 7; 1024 |].(Prng.int rng 3) in
      (* one chunk's rows: [payload] fills the non-key columns of row [i] *)
      let chunk fields payload =
        let mode = Prng.int rng 8 in
        let cell () =
          let k = Prng.int rng 3 in
          let either a b = if Prng.bool rng then a else b in
          match mode with
          | 0 -> Rval.Rvertex k
          | 1 -> Rval.Redge k
          | 2 -> Rval.Rval (Value.Int k)
          | 3 -> if Prng.int rng 4 = 0 then Rval.Rnull else Rval.Rvertex k
          | 4 -> if Prng.int rng 4 = 0 then Rval.Rnull else Rval.Redge k
          | 5 -> either (Rval.Rvertex k) (Rval.Redge k)
          | 6 -> either (Rval.Rval (Value.Int k)) (Rval.Rval (Value.Float (float_of_int k)))
          | _ -> either (Rval.Rval Value.Null) Rval.Rnull
        in
        let rows =
          List.init (1 + Prng.int rng 12) (fun i ->
              Array.of_list (List.map (fun _ -> cell ()) keys @ payload i))
        in
        let b = Batch.of_rows fields rows in
        if Prng.bool rng then b
        else
          (* a selection view over a shuffled subset *)
          let idx = Array.init (Batch.n_rows b) Fun.id in
          Prng.shuffle rng idx;
          Batch.select b (Array.sub idx 0 (1 + Prng.int rng (Array.length idx)))
      in
      let right_fields = keys @ [ "r"; "re" ] in
      let left_fields = keys @ [ "l" ] in
      let next_id = ref 0 in
      let build_chunk () =
        chunk right_fields (fun _ ->
            incr next_id;
            [ Rval.Rval (Value.Int !next_id); Rval.Redge !next_id ])
      in
      let partials =
        List.init (1 + Prng.int rng 3) (fun _ ->
            let jc = Join.create ~left_fields ~right_fields ~keys ~kind in
            let chunks = List.init (Prng.int rng 4) (fun _ -> build_chunk ()) in
            List.iter (Join.add jc) chunks;
            (jc, chunks))
      in
      let jc = fst (List.hd partials) in
      List.iter (fun (p, _) -> Join.merge jc p) (List.tl partials);
      let table = Join.index jc in
      let build_rows =
        List.concat_map
          (fun (_, chunks) ->
            List.concat_map
              (fun b -> List.init (Batch.n_rows b) (Batch.row b))
              chunks)
          partials
      in
      let probe_batches =
        List.init (1 + Prng.int rng 3) (fun _ ->
            chunk left_fields (fun i -> [ Rval.Rval (Value.Int (1000 + i)) ]))
      in
      (* the table's output, probing in chunks of [cs] rows *)
      let buf = Join.buffer ~chunk_size:cs in
      let out = ref [] and oversized = ref false in
      List.iter
        (fun b ->
          let n = Batch.n_rows b in
          let at = ref 0 in
          while !at < n do
            let len = min cs (n - !at) in
            Join.probe table buf (Batch.sub b ~pos:!at ~len) (fun o ->
                if Batch.n_rows o > cs then oversized := true;
                Batch.iter (fun row -> out := Array.to_list row :: !out) o);
            at := !at + len
          done)
        probe_batches;
      (* the nested loop *)
      let expected = ref [] in
      let emit row = expected := row :: !expected in
      let key_of row = List.filteri (fun i _ -> i < nkeys) (Array.to_list row) in
      List.iter
        (fun b ->
          Batch.iter
            (fun lrow ->
              let matches =
                List.rev
                  (List.filter
                     (fun rrow -> List.equal Rval.equal (key_of lrow) (key_of rrow))
                     build_rows)
              in
              let extra rrow = [ rrow.(nkeys); rrow.(nkeys + 1) ] in
              let l = Array.to_list lrow in
              match kind, matches with
              | (Logical.Inner | Logical.Left_outer), _ :: _ ->
                List.iter (fun r -> emit (l @ extra r)) matches
              | Logical.Left_outer, [] -> emit (l @ [ Rval.Rnull; Rval.Rnull ])
              | Logical.Semi, _ :: _ | Logical.Anti, [] -> emit l
              | Logical.Inner, [] | Logical.Semi, [] | Logical.Anti, _ :: _ -> ())
            b)
        probe_batches;
      Join.out_fields table
      = (match kind with
        | Logical.Semi | Logical.Anti -> left_fields
        | Logical.Inner | Logical.Left_outer -> left_fields @ [ "r"; "re" ])
      && (not !oversized)
      && List.equal (List.equal Rval.equal) (List.rev !expected) (List.rev !out))

(* --- column expansion ------------------------------------------------------ *)

module Operator = Gopt_exec.Operator
module Op_trace = Gopt_exec.Op_trace

(* persons p0..p44 (vertex i is p<i>); KNOWS p0 -> p1..p40 and p41 ->
   p5..p44, [since] 1990 + dst mod 5: adjacency long enough to span several
   small chunks and to give the intersection long neighbour lists *)
let hub_graph =
  let b = G.Builder.create schema in
  let p =
    Array.init 45 (fun i ->
        G.Builder.add_vertex b ~vtype:person
          [ ("name", Value.Str (Printf.sprintf "p%d" i)); ("age", Value.Int (20 + (i mod 7))) ])
  in
  let knows_edge s d =
    ignore
      (G.Builder.add_edge b ~src:p.(s) ~dst:p.(d) ~etype:knows
         [ ("since", Value.Int (1990 + (d mod 5))) ])
  in
  for d = 1 to 40 do
    knows_edge 0 d
  done;
  for d = 5 to 44 do
    knows_edge 41 d
  done;
  G.Builder.freeze b

let person_scan alias = Physical.Scan { alias; con = Tc.Basic person; pred = None }

let knows_step ?e_pred ?to_pred ?(directed = true) ~from ~to_ alias =
  {
    Physical.s_edge =
      Pattern.mk_edge ?pred:e_pred ~directed ~alias ~src:0 ~dst:1 (Tc.Basic knows);
    s_from = from;
    s_to = to_;
    s_forward = true;
    s_to_con = Tc.Basic person;
    s_to_pred = to_pred;
  }

(* the chunks a fragment of streaming operators [ops] (bottom-up) emits for
   one [input] source *)
let fragment_chunks ?(chunk_size = 1024) g ops input =
  let chunks = ref [] in
  let consumer =
    {
      Operator.k_consume = (fun b -> chunks := b :: !chunks);
      k_close = ignore;
      k_alive = (fun () -> true);
    }
  in
  let ctx =
    {
      Operator.g;
      profile = Engine.graphscope_profile;
      chunk_size;
      stats = Op_trace.fresh_stats ();
      clock = Op_trace.clock ();
      check = ignore;
      ticks = 0;
    }
  in
  let steps = List.map (fun op -> (Operator.Op op, Op_trace.make (Physical.node_label op) [])) ops in
  Operator.compile ctx { Operator.leaf = None; steps } consumer (Operator.Rows input);
  List.rev !chunks

let rows_of chunks =
  List.concat_map (fun b -> List.init (Batch.n_rows b) (fun i -> Array.to_list (Batch.row b i))) chunks

let same_rows = List.equal (List.equal Rval.equal)

let check_rows msg expected actual =
  Alcotest.(check int) (msg ^ ": row count") (List.length expected) (List.length actual);
  Alcotest.(check bool) (msg ^ ": same rows in the same order") true (same_rows expected actual)

let expand_from_a = Physical.Expand_all (person_scan "a", knows_step ~from:"a" ~to_:"b" "e")
let p0_source = Batch.of_vertex_ids "a" [| 0 |] ~pos:0 ~len:1

(* one vertex whose expansion is larger than the chunk: the output is cut
   into chunks of at most [chunk_size] rows, never empty, and in the same
   row order as one big chunk *)
let test_expand_chunking () =
  let small = fragment_chunks ~chunk_size:3 hub_graph [ expand_from_a ] p0_source in
  let big = fragment_chunks hub_graph [ expand_from_a ] p0_source in
  List.iter
    (fun b ->
      let n = Batch.n_rows b in
      Alcotest.(check bool) (Printf.sprintf "chunk of %d rows within 1..3" n) true (n >= 1 && n <= 3))
    small;
  Alcotest.(check int) "one chunk at 1024" 1 (List.length big);
  check_rows "chunk_size 3 vs 1024" (rows_of big) (rows_of small);
  Alcotest.(check int) "p0's 40 KNOWS edges" 40 (List.length (rows_of small));
  (* a second expansion fed 3-row chunks carries its partial output over to
     the next input chunk: every chunk but the last is full *)
  let chain = [ expand_from_a; Physical.Expand_all (expand_from_a, knows_step ~directed:false ~from:"b" ~to_:"c" "f") ] in
  let small = fragment_chunks ~chunk_size:3 hub_graph chain p0_source in
  let big = fragment_chunks hub_graph chain p0_source in
  check_rows "chained expansions, chunk_size 3 vs 1024" (rows_of big) (rows_of small);
  List.iteri
    (fun i b ->
      if i < List.length small - 1 then
        Alcotest.(check int) (Printf.sprintf "chunk %d is full" i) 3 (Batch.n_rows b))
    small

(* LIMIT over an expansion far larger than it stops after one chunk *)
let test_expand_limit () =
  let limited = Physical.Limit (expand_from_a, 5) in
  let b_pipe, s_pipe = Engine.run ~chunk_size:8 hub_graph limited in
  let b_mat, s_mat = Engine.run_materialized hub_graph limited in
  check_rows "first five rows" (rows_of [ b_mat ]) (rows_of [ b_pipe ]);
  Alcotest.(check int) "5 rows" 5 (Batch.n_rows b_pipe);
  Alcotest.(check int) "materialized expands all 80 edges" 80 s_mat.Engine.edges_touched;
  Alcotest.(check bool)
    (Printf.sprintf "stopped after one 8-row chunk (%d edges touched)" s_pipe.Engine.edges_touched)
    true
    (s_pipe.Engine.edges_touched <= 8)

let check_differential msg g plan expected =
  let b_pipe, _ = Engine.run g plan in
  let b_small, _ = Engine.run ~chunk_size:3 g plan in
  let b_mat, _ = Engine.run_materialized g plan in
  Alcotest.(check int) (msg ^ ": rows") expected (Batch.n_rows b_pipe);
  check_rows (msg ^ ": chunk_size 3") (rows_of [ b_pipe ]) (rows_of [ b_small ]);
  Alcotest.(check bool) (msg ^ ": materialized agrees") true
    (List.equal (List.equal Rval.equal) (canon_rows b_pipe) (canon_rows b_mat));
  b_pipe

(* parallel edges: ExpandInto and ExpandIntersect give one row per edge
   combination, the first step's edges outermost *)
let test_expand_parallel_edges () =
  (* the parallel-edges graph: two KNOWS edges p0 -> p1 (edge ids 0, 1) *)
  let b = G.Builder.create schema in
  let p0 = G.Builder.add_vertex b ~vtype:person [] in
  let p1 = G.Builder.add_vertex b ~vtype:person [] in
  ignore (G.Builder.add_edge b ~src:p0 ~dst:p1 ~etype:knows []);
  ignore (G.Builder.add_edge b ~src:p0 ~dst:p1 ~etype:knows []);
  let g2 = G.Builder.freeze b in
  let pairs =
    Physical.Hash_join
      { left = person_scan "a"; right = person_scan "b"; keys = []; kind = Logical.Inner }
  in
  ignore
    (check_differential "ExpandInto" g2
       (Physical.Expand_into (pairs, knows_step ~from:"a" ~to_:"b" "e"))
       2);
  (* a = b = p0 is the one row whose two steps both reach c = p1 *)
  let intersect =
    Physical.Expand_intersect
      (pairs, [ knows_step ~from:"a" ~to_:"c" "e1"; knows_step ~from:"b" ~to_:"c" "e2" ])
  in
  let out = check_differential "ExpandIntersect" g2 intersect 4 in
  let edges f =
    List.init (Batch.n_rows out) (fun i ->
        match Batch.get out i (Batch.pos out f) with Rval.Redge e -> e | _ -> -1)
  in
  Alcotest.(check (list int)) "e1 outermost" [ 0; 0; 1; 1 ] (edges "e1");
  Alcotest.(check (list int)) "e2 innermost" [ 0; 1; 0; 1 ] (edges "e2")

(* long neighbour lists: p0 and p41 share p5..p40 *)
let test_expand_intersect_long_lists () =
  let pairs =
    Physical.Hash_join
      { left = person_scan "a"; right = person_scan "b"; keys = []; kind = Logical.Inner }
  in
  let intersect =
    Physical.Expand_intersect
      (pairs, [ knows_step ~from:"a" ~to_:"c" "e1"; knows_step ~from:"b" ~to_:"c" "e2" ])
  in
  (* (p0,p0) and (p41,p41): 40 each; (p0,p41) and (p41,p0): 36 each *)
  ignore (check_differential "long lists" hub_graph intersect 152)

(* an undirected KNOWS chain can walk one edge back: the distinctness check
   removes those rows, and the narrowed plan removes exactly the rows the
   unnarrowed one does *)
let test_undirected_distinct_oracle () =
  let s = Gopt.Session.create hub_graph in
  let count q =
    match Batch.get (Gopt.run_cypher s q).Gopt.result 0 0 with
    | Rval.Rval (Value.Int n) -> n
    | v -> Alcotest.failf "expected a count, got %s" (Format.asprintf "%a" (Rval.pp hub_graph) v)
  in
  let q = "MATCH (a:Person)-[:KNOWS]-(b:Person)-[:KNOWS]-(c:Person) RETURN count(*) AS n" in
  let distinct = count q in
  let walks =
    count "MATCH (a:Person)-[:KNOWS]-(b:Person) MATCH (b)-[:KNOWS]-(c:Person) RETURN count(*) AS n"
  in
  Alcotest.(check bool) "the check removes rows" true (distinct < walks);
  Alcotest.(check (option string)) "narrowed = unnarrowed" None (optimizer_oracle s q)

(* one step with both an edge and a target predicate, run before gathering;
   and a target predicate that reads an input column, run on the gathered
   chunk *)
let test_expand_predicates () =
  let since = Expr.Binop (Expr.Geq, Expr.Prop ("e", "since"), Expr.Const (Value.Int 1993)) in
  let age = Expr.Binop (Expr.Gt, Expr.Prop ("b", "age"), Expr.Const (Value.Int 22)) in
  let both = Physical.Expand_all (person_scan "a", knows_step ~e_pred:since ~to_pred:age ~from:"a" ~to_:"b" "e") in
  let keep d = d mod 5 >= 3 && d mod 7 >= 3 in
  let count lo hi = List.length (List.filter keep (List.init (hi - lo + 1) (fun i -> lo + i))) in
  ignore (check_differential "edge and target predicates" hub_graph both (count 1 40 + count 5 44));
  let older = Expr.Binop (Expr.Gt, Expr.Prop ("b", "age"), Expr.Prop ("a", "age")) in
  let cross = Physical.Expand_all (person_scan "a", knows_step ~to_pred:older ~from:"a" ~to_:"b" "e") in
  (* p0 is 20, p41 is 26 *)
  let older_than age lo hi =
    List.length (List.filter (fun d -> 20 + (d mod 7) > age) (List.init (hi - lo + 1) (fun i -> lo + i)))
  in
  ignore (check_differential "predicate over an input column" hub_graph cross (older_than 20 1 40 + older_than 26 5 44))

(* a source column promoted to boxed (an Rnull written first) expands like
   the dense one; its null row is rejected when expanded *)
let test_expand_boxed_source () =
  let boxed = Batch.create [ "a" ] in
  Batch.add boxed [| Rval.Rnull |];
  Batch.add boxed [| Rval.Rvertex 0 |];
  (match Batch.col boxed 0 with
  | Batch.D_boxed _ -> ()
  | _ -> Alcotest.fail "the column should be boxed");
  check_rows "boxed source vs dense"
    (rows_of (fragment_chunks hub_graph [ expand_from_a ] p0_source))
    (rows_of (fragment_chunks hub_graph [ expand_from_a ] (Batch.sub boxed ~pos:1 ~len:1)));
  match fragment_chunks hub_graph [ expand_from_a ] boxed with
  | _ -> Alcotest.fail "a null source row expanded"
  | exception Invalid_argument _ -> ()

(* a chunk size below 1 is rejected up front, naming the value *)
let test_chunk_size_checked () =
  let scan = Physical.Scan { alias = "a"; con = Tc.Basic person; pred = None } in
  List.iter
    (fun cs ->
      match Engine.run ~chunk_size:cs graph scan with
      | _ -> Alcotest.failf "chunk_size %d accepted" cs
      | exception Invalid_argument msg ->
        let contains sub =
          let n = String.length sub and m = String.length msg in
          let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "message %S names chunk_size %d" msg cs)
          true
          (contains "chunk_size" && contains (string_of_int cs)))
    [ 0; -2 ];
  let session = Gopt.Session.create graph in
  match Gopt.run_cypher ~chunk_size:0 session "MATCH (a:Person) RETURN count(*) AS c" with
  | _ -> Alcotest.fail "Gopt.run_cypher accepted chunk_size 0"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "exec"
    [
      ( "operators",
        [
          Alcotest.test_case "scan" `Quick test_scan;
          Alcotest.test_case "pattern counts vs oracle" `Quick test_pattern_counts_match_oracle;
          Alcotest.test_case "undirected" `Quick test_undirected;
          Alcotest.test_case "all distinct" `Quick test_all_distinct;
          Alcotest.test_case "path expand free" `Quick test_path_expand_free;
          Alcotest.test_case "path expand bound" `Quick test_path_expand_bound;
          Alcotest.test_case "path semantics" `Quick test_path_semantics;
          Alcotest.test_case "hash join kinds" `Quick test_hash_join_kinds;
          Alcotest.test_case "group order limit" `Quick test_group_order_limit;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "group over empty" `Quick test_group_empty_input;
          Alcotest.test_case "union dedup project" `Quick test_union_dedup_project;
          Alcotest.test_case "with common" `Quick test_with_common;
          Alcotest.test_case "stats" `Quick test_stats_recorded;
          Alcotest.test_case "batch pos error" `Quick test_batch_pos_error;
          Alcotest.test_case "pipeline classification" `Quick test_pipeline_classification;
          Alcotest.test_case "trace totals" `Quick test_trace_totals;
          Alcotest.test_case "contains scan" `Quick test_contains;
          Alcotest.test_case "value hash int/float" `Quick test_value_hash_agreement;
          Alcotest.test_case "kernel trace counters" `Quick test_kernel_trace_counters;
          Alcotest.test_case "chunk_size checked" `Quick test_chunk_size_checked;
        ] );
      ( "pipelined-vs-materialized",
        [
          Alcotest.test_case "workload differential" `Quick test_differential_workloads;
          Alcotest.test_case "chunk-size neutrality" `Quick test_chunk_size_neutral;
          Alcotest.test_case "limit short-circuit" `Quick test_limit_short_circuit;
        ] );
      ( "column expansion",
        [
          Alcotest.test_case "chunks at most chunk_size" `Quick test_expand_chunking;
          Alcotest.test_case "limit stops early" `Quick test_expand_limit;
          Alcotest.test_case "parallel edges" `Quick test_expand_parallel_edges;
          Alcotest.test_case "intersect long lists" `Quick test_expand_intersect_long_lists;
          Alcotest.test_case "undirected chain vs oracle" `Quick test_undirected_distinct_oracle;
          Alcotest.test_case "edge and target predicates" `Quick test_expand_predicates;
          Alcotest.test_case "boxed source column" `Quick test_expand_boxed_source;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_planners_agree;
          QCheck_alcotest.to_alcotest prop_sorted_run_merge;
          QCheck_alcotest.to_alcotest prop_join_table;
        ] );
    ]
