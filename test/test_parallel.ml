(* Differential and determinism tests for the morsel-driven parallel engine
   (Gopt_exec.Parallel, reached through [Engine.run ~workers]).

   The core claims under test:

   1. One output order — for any plan, the sequential [run],
      [run ~workers:1] and [run ~workers:4] produce BYTE-IDENTICAL output
      (same rows, same order): every breaker has one implementation shared
      by both engines, morsel partitioning depends only on (plan, graph,
      chunk_size), and every merge point folds partials in morsel-index
      order. Between worker counts this includes float bit patterns; the
      sequential engine matches them here because every property summed is
      an integer, so float sums are exact.

   2. Agreement with the oracle — the result is the same bag of rows as
      [Engine.run_materialized]. Plans that cut at possibly-tied
      boundaries (LIMIT / SKIP / fused top-k) may keep a different subset
      of tied rows in the oracle, whose joins build on either side, so
      those queries compare by cardinality instead.

   Claims are exercised on ~220 randomly generated Cypher queries
   (see [Gen_query]; failures print the seed and the query so runs can be
   replayed), on the full LDBC workload suite, and on a repeated-run
   determinism check cycling through worker counts. *)

module Engine = Gopt_exec.Engine
module Batch = Gopt_exec.Batch
module Rval = Gopt_exec.Rval
module Op_trace = Gopt_exec.Op_trace
module G = Gopt_graph.Property_graph
module Value = Gopt_graph.Value
module Prng = Gopt_util.Prng
module Physical = Gopt_opt.Physical
module Tc = Gopt_pattern.Type_constraint
open Fixtures

(* A larger instance of the Fixtures schema, sized so that chunk size 16
   splits every scan into several morsels (90 persons -> 6 morsels).
   Property values reuse the Fixtures naming scheme ('p0'..'p7', ...) so the
   constants produced by [Gen_query] select non-trivial subsets, and the
   mod-8 names create genuine duplicate keys for DISTINCT / group-by. *)
let big_graph =
  let rng = Prng.create 7 in
  let b = G.Builder.create schema in
  let persons =
    Array.init 90 (fun i ->
        G.Builder.add_vertex b ~vtype:person
          [
            ("name", Value.Str (Printf.sprintf "p%d" (i mod 8)));
            ("age", Value.Int (Prng.int_in rng 18 60));
          ])
  in
  let cities =
    Array.init 6 (fun i ->
        G.Builder.add_vertex b ~vtype:city
          [ ("name", Value.Str (Printf.sprintf "c%d" i)) ])
  in
  let products =
    Array.init 12 (fun i ->
        G.Builder.add_vertex b ~vtype:product
          [ ("name", Value.Str (Printf.sprintf "g%d" (i mod 8))) ])
  in
  let pick a = a.(Prng.int rng (Array.length a)) in
  Array.iter
    (fun p ->
      for _ = 1 to Prng.int rng 4 do
        ignore
          (G.Builder.add_edge b ~src:p ~dst:(pick persons) ~etype:knows
             [ ("since", Value.Int (Prng.int_in rng 2000 2024)) ])
      done;
      ignore (G.Builder.add_edge b ~src:p ~dst:(pick cities) ~etype:lives_in []);
      for _ = 1 to Prng.int rng 3 do
        ignore (G.Builder.add_edge b ~src:p ~dst:(pick products) ~etype:purchased [])
      done)
    persons;
  Array.iter
    (fun g ->
      ignore (G.Builder.add_edge b ~src:g ~dst:(pick cities) ~etype:produced_in []))
    products;
  G.Builder.freeze b

let session = lazy (Gopt.Session.create big_graph)

(* Full textual render of a batch — fields, then every row in order. Two
   batches render equal iff they are byte-identical (order included). *)
let render g b =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (String.concat "|" (Batch.fields b));
  Batch.iter
    (fun row ->
      Buffer.add_char buf '\n';
      Array.iter
        (fun v ->
          Buffer.add_string buf (Format.asprintf "%a" (Rval.pp g) v);
          Buffer.add_char buf '|')
        row)
    b;
  Buffer.contents buf

let canon_rows b =
  let rows = ref [] in
  Batch.iter (fun row -> rows := Array.to_list row :: !rows) b;
  List.sort (List.compare Rval.compare) !rows

(* The one-worker engine at the default chunk size, and the morsel engine
   at 1 and 4 workers at the given chunk size, render byte-identically;
   returns the 4-worker run. *)
let check_same_order ~chunk_size ~name ~g physical =
  let b_seq, _ = Engine.run g physical in
  let b1, _ = Engine.run ~chunk_size ~workers:1 g physical in
  let b4, s4 = Engine.run ~chunk_size ~workers:4 g physical in
  Alcotest.(check string)
    (name ^ ": default chunk = workers 1")
    (render g b_seq) (render g b1);
  Alcotest.(check string) (name ^ ": workers 1 = workers 4") (render g b1) (render g b4);
  Alcotest.(check bool) (name ^ ": parallel trace present") true (s4.Engine.op_trace <> None);
  b4

(* One differential check: sequential, workers:1 and workers:4
   byte-identical, then against the materialized oracle (bag equality, or
   cardinality when the plan cuts on possibly-tied boundaries). *)
let check_one ~chunk_size ~name ~g physical =
  let b4 = check_same_order ~chunk_size ~name ~g physical in
  let b_mat, _ = Engine.run_materialized g physical in
  Alcotest.(check (list string))
    (name ^ ": fields vs oracle") (Batch.fields b_mat) (Batch.fields b4);
  if plan_has_tie_cut physical then
    Alcotest.(check int) (name ^ ": rows vs oracle") (Batch.n_rows b_mat) (Batch.n_rows b4)
  else
    Alcotest.(check bool)
      (name ^ ": same bag as oracle")
      true
      (List.equal (List.equal Rval.equal) (canon_rows b_mat) (canon_rows b4))

(* ~220 random queries through the full pipeline *)
let n_random = 220

let test_random_differential () =
  let s = Lazy.force session in
  (* cycle the chunk size, which is also the morsel size, across seeds:
     1 and 7 are pathological, and 16 still cuts every scan of [big_graph]
     into several morsels *)
  let chunk_sizes = [| 1; 7; 16 |] in
  for seed = 0 to n_random - 1 do
    let q = Gen_query.generate seed in
    let chunk_size = chunk_sizes.(seed mod 3) in
    match Gopt.plan_cypher s q with
    | physical, _ -> (
      try
        check_one ~chunk_size
          ~name:(Printf.sprintf "seed %d (chunk=%d)" seed chunk_size)
          ~g:big_graph physical
      with e ->
        (* attach the reproduction recipe: the seed and the exact query *)
        Alcotest.failf "seed %d: %s\nquery:\n  %s" seed (Printexc.to_string e) q)
    | exception e ->
      Alcotest.failf "seed %d failed to plan (%s); query:\n  %s" seed
        (Printexc.to_string e) q
  done

(* a second family of random queries, on seeds of their own, whose plans
   hold Left_outer, Semi and Anti hash joins ([Gen_query.generate_joins]) *)
let join_seeds = List.init 120 (fun i -> 10_000 + i)

let test_random_join_differential () =
  let s = Lazy.force session in
  let chunk_sizes = [| 1; 7; 16 |] in
  List.iter
    (fun seed ->
      let q = Gen_query.generate_joins seed in
      let chunk_size = chunk_sizes.(seed mod 3) in
      match Gopt.plan_cypher s q with
      | physical, _ -> (
        try
          check_one ~chunk_size
            ~name:(Printf.sprintf "join seed %d (chunk=%d)" seed chunk_size)
            ~g:big_graph physical
        with e -> Alcotest.failf "join seed %d: %s\nquery:\n  %s" seed (Printexc.to_string e) q)
      | exception e ->
        Alcotest.failf "join seed %d failed to plan (%s); query:\n  %s" seed
          (Printexc.to_string e) q)
    join_seeds

(* every join kind occurs among those seeds' plans *)
let test_join_kinds_covered () =
  let s = Lazy.force session in
  let rec kinds (p : Physical.t) =
    (match p with
    | Physical.Hash_join { kind; _ } -> [ kind ]
    | Physical.With_common { combine = Gopt_gir.Logical.C_join (_, k); _ } -> [ k ]
    | _ -> [])
    @ List.concat_map kinds (Physical.children p)
  in
  let seen =
    List.concat_map (fun seed -> kinds (fst (Gopt.plan_cypher s (Gen_query.generate_joins seed))))
      join_seeds
  in
  List.iter
    (fun (name, k) -> Alcotest.(check bool) (name ^ " join planned") true (List.mem k seen))
    Gopt_gir.Logical.[ ("left outer", Left_outer); ("semi", Semi); ("anti", Anti) ]

(* the full LDBC workload suite and the vectorized-scan queries: the
   default-size run, workers=1 and workers=4 match exactly at chunk sizes
   1, 7 and 32, and the oracle up to tie cuts *)
module Queries = Gopt_workloads.Queries

let test_workload_differential () =
  let g = Gopt_workloads.Ldbc.generate ~persons:60 () in
  let s = Gopt.Session.create g in
  List.iter
    (fun (q : Queries.query) ->
      let physical, _ = Gopt.plan_cypher s q.Queries.cypher in
      let b_mat, _ = Engine.run_materialized g physical in
      List.iter
        (fun chunk_size ->
          let name = Printf.sprintf "%s (chunk=%d)" q.Queries.name chunk_size in
          let b4 = check_same_order ~chunk_size ~name ~g physical in
          Alcotest.(check (list string))
            (name ^ ": fields vs oracle")
            (Batch.fields b_mat) (Batch.fields b4);
          if plan_has_tie_cut physical then
            Alcotest.(check int)
              (name ^ ": rows vs oracle")
              (Batch.n_rows b_mat) (Batch.n_rows b4)
          else
            Alcotest.(check bool)
              (name ^ ": same bag as oracle")
              true
              (List.equal (List.equal Rval.equal) (canon_rows b_mat) (canon_rows b4)))
        [ 1; 7; 32 ])
    (Queries.comprehensive @ Queries.qr @ Queries.qt @ Queries.qc @ Queries.vs)

(* repeated runs with different worker counts are byte-identical —
   including LIMIT + ORDER BY (tie-cutting top-k) and top-level aggregation
   (float-summing merge), the two places nondeterminism would show first *)
let determinism_queries =
  [
    "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN q.name AS n, count(*) AS c \
     ORDER BY c DESC, n ASC LIMIT 8";
    "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN count(*) AS c, sum(p.age) AS s, \
     avg(q.age) AS a";
    "MATCH (p:Person) RETURN p.age AS a, collect(p.name) AS ns ORDER BY a ASC LIMIT 5";
  ]

let test_determinism () =
  let s = Lazy.force session in
  List.iter
    (fun q ->
      let physical, _ = Gopt.plan_cypher s q in
      let reference =
        render big_graph (fst (Engine.run ~workers:1 ~chunk_size:16 big_graph physical))
      in
      List.iteri
        (fun i w ->
          let out =
            render big_graph
              (fst (Engine.run ~workers:w ~chunk_size:16 big_graph physical))
          in
          Alcotest.(check string) (Printf.sprintf "%s: run %d (workers=%d)" q i w)
            reference out)
        [ 1; 2; 3; 4; 8; 2; 4; 8; 3; 1 ])
    determinism_queries

(* exchange accounting: workers_used is recorded, exchange rows are counted,
   and they feed comm_rows only under a parallel profile *)
let test_parallel_accounting () =
  let s = Lazy.force session in
  let physical, _ =
    Gopt.plan_cypher s "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN count(*) AS c"
  in
  let _, gs =
    Engine.run ~profile:Engine.graphscope_profile ~workers:3 ~chunk_size:16 big_graph
      physical
  in
  Alcotest.(check int) "workers_used" 3 gs.Engine.workers_used;
  Alcotest.(check bool) "exchange rows counted" true (gs.Engine.exchange_rows > 0);
  Alcotest.(check bool)
    (Printf.sprintf "exchange (%d rows) charged to comm (%d rows)"
       gs.Engine.exchange_rows gs.Engine.comm_rows)
    true
    (gs.Engine.comm_rows >= gs.Engine.exchange_rows);
  (match gs.Engine.op_trace with
  | None -> Alcotest.fail "no trace on parallel run"
  | Some tr ->
    let txt = Op_trace.to_string tr in
    let contains needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "trace has exchange node" true (contains "exchange[" txt);
    Alcotest.(check bool) "trace has worker rollups" true (contains "worker " txt));
  let _, n4 =
    Engine.run ~profile:Engine.neo4j_profile ~workers:3 ~chunk_size:16 big_graph
      physical
  in
  Alcotest.(check bool) "neo4j profile still records exchange" true
    (n4.Engine.exchange_rows > 0);
  Alcotest.(check int) "neo4j profile charges no comm" 0 n4.Engine.comm_rows

(* joins stream: the build side becomes one table that every probe-side
   morsel probes inside its own fragment, so a join's output is never
   materialized — fewer rows are ever live at once than a fan-out HashJoin
   emits *)
let test_join_output_streams () =
  (* count the p-f-g-h KNOWS paths, joined on f and then on g: each
     join multiplies its probe rows by a degree *)
  let expand from alias =
    Physical.Expand_all
      ( Physical.Scan { alias = from; con = Tc.Basic person; pred = None },
        {
          Physical.s_edge = pe ~directed:false ("e" ^ alias) 0 1 (Tc.Basic knows);
          s_from = from;
          s_to = alias;
          s_forward = true;
          s_to_con = Tc.Basic person;
          s_to_pred = None;
        } )
  in
  let join left right key =
    Physical.Hash_join { left; right; keys = [ key ]; kind = Gopt_gir.Logical.Inner }
  in
  let physical =
    Physical.Group
      ( join (join (expand "p" "f") (expand "f" "g") "f") (expand "g" "h") "g",
        [],
        [ { Gopt_gir.Logical.agg_fn = Gopt_gir.Logical.Count; agg_arg = None; agg_alias = "c" } ] )
  in
  List.iter
    (fun workers ->
      let _, st = Engine.run ~workers ~chunk_size:16 big_graph physical in
      let rec joins (tr : Op_trace.t) =
        (if String.starts_with ~prefix:"HashJoin" tr.Op_trace.name then [ tr ] else [])
        @ List.concat_map joins tr.Op_trace.children
      in
      let js = match st.Engine.op_trace with Some tr -> joins tr | None -> [] in
      Alcotest.(check int) (Printf.sprintf "workers %d: two hash joins" workers) 2
        (List.length js);
      List.iter
        (fun (j : Op_trace.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "workers %d: peak %d live rows < %s's %d rows out" workers
               st.Engine.peak_rows j.Op_trace.name j.Op_trace.rows_out)
            true
            (st.Engine.peak_rows < j.Op_trace.rows_out))
        js)
    [ 1; 4 ]

(* ---- the probe aggregate ----------------------------------------------

   A keyless Group of count( * ) and count(DISTINCT v) over AllDistincts
   over an inner HashJoin folds into the join's probe. Hand-built plans
   over [big_graph] cover both sides of the pair, dense and boxed columns,
   path cells and the shapes that keep the general path; every one must
   give the oracle's bag at every worker count and chunk size, and the
   folded run must charge the join and the AllDistincts the rows they
   pass on when their subplan runs alone. *)
module Logical = Gopt_gir.Logical
module Expr = Gopt_pattern.Expr

let scan_person a = Physical.Scan { alias = a; con = Tc.Basic person; pred = None }

let knows_step ?hops ?e from alias =
  {
    Physical.s_edge =
      pe ~directed:false ?hops (Option.value e ~default:("e" ^ alias)) 0 1 (Tc.Basic knows);
    s_from = from;
    s_to = alias;
    s_forward = true;
    s_to_con = Tc.Basic person;
    s_to_pred = None;
  }

(* from-[e]-alias over KNOWS, one hop or a path of 1..2 hops *)
let hop ?e from alias = Physical.Expand_all (scan_person from, knows_step ?e from alias)
let path from alias = Physical.Path_expand (scan_person from, knows_step ~hops:(1, 2) from alias)

let older_than tag age x =
  Physical.Select (x, Expr.Binop (Expr.Gt, Expr.Prop (tag, "age"), Expr.Const (Value.Int age)))

let join ?(kind = Logical.Inner) keys left right = Physical.Hash_join { left; right; keys; kind }
let ad fields x = Physical.All_distinct (x, fields)
let count = { Logical.agg_fn = Logical.Count; agg_arg = None; agg_alias = "c" }

let count_distinct v =
  { Logical.agg_fn = Logical.Count_distinct; agg_arg = Some (Expr.Var v); agg_alias = "d_" ^ v }

let two_hop = join [ "f" ] (hop "p" "f") (hop "f" "g")
let three_hop = join [ "g" ] two_hop (hop "g" "h")

(* p, ef, f with f and ef padded to Rnull for persons without a friend
   over 45: the columns are promoted to boxed *)
let outer =
  join ~kind:Logical.Left_outer [ "p" ] (scan_person "p") (older_than "f" 45 (hop "p" "f"))

(* (name, input, aggregates, whether the Group folds into the probe) *)
let probe_agg_cases =
  [
    ("count, no AllDistinct", two_hop, [ count ], true);
    ( "DISTINCT build side, one AllDistinct",
      ad [ "ef"; "eg" ] two_hop,
      [ count; count_distinct "g" ],
      true );
    ( "DISTINCT probe side, two AllDistincts",
      ad [ "eg"; "eh" ] (ad [ "ef"; "eg" ] three_hop),
      [ count_distinct "p"; count ],
      true );
    ( "DISTINCT of a build-side edge",
      ad [ "ef"; "eg"; "eh" ] three_hop,
      [ count_distinct "eh" ],
      true );
    ( "promoted key on the probe side",
      join [ "f" ] outer (hop "f" "g"),
      [ count; count_distinct "f"; count_distinct "ef" ],
      true );
    ( "promoted key and cells on the build side",
      ad [ "eg"; "ef" ] (join [ "f" ] (hop "f" "g") outer),
      [ count; count_distinct "ef"; count_distinct "p" ],
      true );
    ( "path cell on the probe side",
      ad [ "ef"; "eg" ] (join [ "f" ] (path "p" "f") (hop "f" "g")),
      [ count; count_distinct "g" ],
      true );
    ( "path cell on the build side",
      ad [ "eg"; "ef" ] (join [ "f" ] (hop ~e:"eg" "g" "f") (path "p" "f")),
      [ count; count_distinct "p" ],
      true );
    ( "Left_outer join",
      join ~kind:Logical.Left_outer [ "f" ] (hop "p" "f") (older_than "g" 45 (hop "f" "g")),
      [ count; count_distinct "g" ],
      false );
    ( "Semi join",
      join ~kind:Logical.Semi [ "f" ] (hop "p" "f") (older_than "g" 45 (hop "f" "g")),
      [ count ],
      false );
    ( "Anti join",
      join ~kind:Logical.Anti [ "f" ] (hop "p" "f") (older_than "g" 45 (hop "f" "g")),
      [ count; count_distinct "p" ],
      false );
    ( "count of a variable",
      ad [ "ef"; "eg" ] two_hop,
      [ { Logical.agg_fn = Logical.Count; agg_arg = Some (Expr.Var "g"); agg_alias = "n" } ],
      false );
  ]

let test_probe_agg_oracle () =
  let check name physical =
    let want = canon_rows (fst (Engine.run_materialized big_graph physical)) in
    let first = ref None in
    List.iter
      (fun chunk_size ->
        List.iter
          (fun workers ->
            let b, _ = Engine.run ~workers ~chunk_size big_graph physical in
            let label = Printf.sprintf "%s (workers %d, chunk %d)" name workers chunk_size in
            Alcotest.(check bool)
              (label ^ ": same bag as oracle")
              true
              (List.equal (List.equal Rval.equal) want (canon_rows b));
            match !first with
            | None -> first := Some (render big_graph b)
            | Some r ->
              Alcotest.(check string) (label ^ ": same rows and order") r (render big_graph b))
          [ 1; 2; 3; 4 ])
      [ 1; 3; 1024 ]
  in
  List.iter
    (fun (name, input, aggs, folds) ->
      Alcotest.(check bool)
        (name ^ ": folds into the probe")
        folds
        (Option.is_some (Gopt_exec.Parallel.probe_agg [] aggs input));
      check name (Physical.Group (input, [], aggs));
      (* a keyed Group over the same input takes the general path *)
      check (name ^ ", keyed") (Physical.Group (input, [ (Expr.Var "f", "k") ], aggs)))
    probe_agg_cases

(* each operator's rows in and out, preorder *)
let rec trace_rows (tr : Op_trace.t) =
  (tr.Op_trace.name, tr.Op_trace.rows_in, tr.Op_trace.rows_out)
  :: List.concat_map trace_rows tr.Op_trace.children

let test_probe_agg_accounting () =
  List.iter
    (fun (name, input, aggs, folds) ->
      if folds then
        List.iter
          (fun chunk_size ->
            let trace st = trace_rows (Option.get st.Engine.op_trace) in
            let _, alone = Engine.run ~chunk_size big_graph input in
            let _, grouped = Engine.run ~chunk_size big_graph (Physical.Group (input, [], aggs)) in
            let label = Printf.sprintf "%s (chunk %d)" name chunk_size in
            let _, _, rows_out = List.hd (trace alone) in
            (match trace grouped with
            | (_, group_in, 1) :: below ->
              Alcotest.(check int) (label ^ ": Group rows in") rows_out group_in;
              Alcotest.(check (list (triple string int int)))
                (label ^ ": rows below the Group")
                (trace alone) below
            | _ -> Alcotest.failf "%s: no Group on top of the trace" label);
            let n_aggs = List.length aggs in
            Alcotest.(check int) (label ^ ": intermediate rows")
              (alone.Engine.intermediate_rows + 1) grouped.Engine.intermediate_rows;
            Alcotest.(check int) (label ^ ": comm cells")
              (alone.Engine.comm_cells + n_aggs) grouped.Engine.comm_cells;
            Alcotest.(check int) (label ^ ": edges touched") alone.Engine.edges_touched
              grouped.Engine.edges_touched)
          [ 1; 3; 1024 ])
    probe_agg_cases

(* ---- the column key table ---------------------------------------------

   Keyed Group, Dedup and count(DISTINCT) key on column cells through
   [Breaker.Keys]. Without a join in the plan the oracle's row order is the
   engine's, so first-sighting order is checked exactly. *)
module Breaker = Gopt_exec.Breaker

let test_key_order () =
  let hop_pf = hop "p" "f" in
  let plans =
    [
      ( "group by a property",
        Physical.Group
          (hop_pf, [ (Expr.Prop ("f", "name"), "n") ], [ count; count_distinct "p" ]) );
      ( "group by a vertex and a property",
        Physical.Group
          (hop_pf, [ (Expr.Var "f", "f"); (Expr.Prop ("p", "age"), "a") ], [ count ]) );
      ( "dedup of computed columns",
        Physical.Dedup
          ( Physical.Project
              (hop_pf, [ (Expr.Prop ("p", "name"), "a"); (Expr.Prop ("f", "name"), "b") ]),
            [] ) );
      ("dedup on a vertex", Physical.Dedup (hop_pf, [ "f" ]));
      ("dedup over promoted columns", Physical.Dedup (outer, [ "f" ]));
    ]
  in
  List.iter
    (fun (name, physical) ->
      let want = render big_graph (fst (Engine.run_materialized big_graph physical)) in
      List.iter
        (fun chunk_size ->
          List.iter
            (fun workers ->
              Alcotest.(check string)
                (Printf.sprintf "%s (workers %d, chunk %d)" name workers chunk_size)
                want
                (render big_graph (fst (Engine.run ~workers ~chunk_size big_graph physical))))
            [ 1; 2; 3; 4 ])
        [ 1; 3; 16 ])
    plans

(* A computed Project fills its columns from the graph's property columns:
   the cells equal the row interpreter's, over dense and promoted columns,
   and an absent property or a property of an [Rnull] cell is [Rval Null],
   never [Rnull]. *)
let test_project_columns () =
  let items =
    [
      (Expr.Var "f", "f");
      (Expr.Prop ("f", "age"), "a");
      (Expr.Prop ("ef", "since"), "s");
      (Expr.Prop ("p", "no_such_key"), "z");
      (Expr.Binop (Expr.Add, Expr.Prop ("p", "age"), Expr.Const (Value.Int 1)), "b");
    ]
  in
  List.iter
    (fun (name, input) ->
      let physical = Physical.Project (input, items) in
      let want = canon_rows (fst (Engine.run_materialized big_graph physical)) in
      List.iter
        (fun (workers, chunk_size) ->
          let b, _ = Engine.run ~workers ~chunk_size big_graph physical in
          Alcotest.(check bool)
            (Printf.sprintf "%s (workers %d, chunk %d)" name workers chunk_size)
            true
            (List.equal (List.equal Rval.equal) want (canon_rows b));
          Batch.iter
            (fun row ->
              if row.(3) <> Rval.Rval Value.Null then
                Alcotest.failf "%s: absent property is not Rval Null" name)
            b)
        [ (1, 1); (2, 3); (4, 1024) ])
    [ ("dense columns", hop "p" "f"); ("promoted columns", outer) ]

(* which cells are one key: a boxed vertex and the dense id, an Int and the
   equal Float; not Rnull and Rval Null. Each key is also looked up in
   place: under its number from the cell's own column and from the key's
   cell boxed, at -1 when absent, and without adding a key. *)
let test_key_cells () =
  let key cells =
    let t = Breaker.Keys.create 1 in
    let ks =
      List.map
        (fun (d, p) ->
          Breaker.Keys.load t 0 d p;
          Breaker.Keys.intern t)
        cells
    in
    let n = Breaker.Keys.length t in
    let lookup d p = Breaker.Keys.lookup t [| d |] [| 0 |] p in
    List.iter2
      (fun (d, p) k ->
        Alcotest.(check int) "found in its column" k (lookup d p);
        Alcotest.(check int) "found boxed" k
          (lookup (Batch.D_boxed [| Breaker.Keys.cell t k 0 |]) 0))
      cells ks;
    Alcotest.(check int) "absent id" (-1) (lookup (Batch.D_edge [| 99 |]) 0);
    Alcotest.(check int) "absent value" (-1)
      (lookup (Batch.D_boxed [| Rval.Rval (Value.Str "absent") |]) 0);
    Alcotest.(check int) "lookups add no key" n (Breaker.Keys.length t);
    ks
  in
  let boxed vs = Batch.D_boxed (Array.of_list vs) in
  Alcotest.(check (list int)) "Rvertex x = dense x" [ 0; 1; 0 ]
    (key
       [
         (Batch.D_vertex [| 5; 6 |], 0);
         (Batch.D_vertex [| 5; 6 |], 1);
         (boxed [ Rval.Rvertex 5 ], 0);
       ]);
  Alcotest.(check (list int)) "a vertex is not the edge of the same id" [ 0; 1 ]
    (key [ (Batch.D_vertex [| 5 |], 0); (Batch.D_edge [| 5 |], 0) ]);
  Alcotest.(check (list int)) "Int 1 = Float 1.0" [ 0; 0; 1 ]
    (key
       [
         (boxed [ Rval.Rval (Value.Int 1) ], 0);
         (boxed [ Rval.Rval (Value.Float 1.0) ], 0);
         (boxed [ Rval.Rval (Value.Float 1.5) ], 0);
       ]);
  Alcotest.(check (list int)) "Rnull <> Rval Null" [ 0; 1; 0 ]
    (key
       [
         (boxed [ Rval.Rnull ], 0); (boxed [ Rval.Rval Value.Null ], 0); (boxed [ Rval.Rnull ], 0);
       ]);
  (* Dedup over chunks of each kind keeps each chunk's first sightings *)
  let d = Breaker.Dedup.create ~fields:[ "x" ] [] in
  let chunk vs = Batch.of_rows [ "x" ] (List.map (fun v -> [| v |]) vs) in
  let kept =
    List.map (Breaker.Dedup.add_chunk d)
      [
        chunk [ Rval.Rvertex 1; Rval.Rvertex 2 ];
        chunk [ Rval.Rvertex 2; Rval.Rnull ];
        chunk
          [
            Rval.Rval (Value.Int 1); Rval.Rval (Value.Float 1.0); Rval.Rval Value.Null; Rval.Rnull;
          ];
      ]
  in
  Alcotest.(check (list int)) "survivors per chunk" [ 2; 1; 2 ] kept;
  Alcotest.(check (list string)) "survivors in order"
    [ "(Person#1)"; "(Person#2)"; "null"; "1"; "null" ]
    (List.concat_map
       (fun b ->
         List.init (Batch.n_rows b) (fun i ->
             Format.asprintf "%a" (Rval.pp big_graph) (Batch.get b i 0)))
       (Breaker.Dedup.parts d));
  (* count(DISTINCT) over the same cells *)
  let grp = Breaker.Group.create big_graph ~fields:[ "x" ] [] [ count_distinct "x" ] in
  List.iter
    (fun b -> ignore (Breaker.Group.add_chunk grp b))
    [
      chunk [ Rval.Rvertex 1; Rval.Rvertex 2 ];
      chunk [ Rval.Rvertex 2; Rval.Rnull ];
      chunk [ Rval.Rval (Value.Int 1); Rval.Rval (Value.Float 1.0); Rval.Rval Value.Null ];
    ];
  let out = ref [] in
  Breaker.Group.finish grp (fun row -> out := row :: !out);
  Alcotest.(check (list string)) "count(DISTINCT) skips only Rnull" [ "4" ]
    (List.map (fun row -> Format.asprintf "%a" (Rval.pp big_graph) row.(0)) !out)

(* a chunk none of whose rows survive is not kept alive by the Dedup *)
let[@inline never] feed_duplicates d =
  let dup = Batch.of_rows [ "x" ] [ [| Rval.Rvertex 1 |]; [| Rval.Rval (Value.Str "s") |] ] in
  (* the chunk's column storage: a view of the chunk would share it *)
  let w = Weak.create 1 in
  (match Batch.col dup 0 with Batch.D_boxed cells -> Weak.set w 0 (Some cells) | _ -> ());
  Alcotest.(check int) "no survivors" 0 (Breaker.Dedup.add_chunk d dup);
  w

let test_dedup_releases () =
  let d = Breaker.Dedup.create ~fields:[ "x" ] [] in
  ignore
    (Breaker.Dedup.add_chunk d
       (Batch.of_rows [ "x" ] [ [| Rval.Rvertex 1 |]; [| Rval.Rval (Value.Str "s") |] ]));
  let w = feed_duplicates d in
  Gc.full_major ();
  Alcotest.(check bool) "duplicate chunk's column collected" false (Weak.check w 0);
  Alcotest.(check int) "kept rows" 2 (Breaker.Dedup.length d)

(* The optimizer oracle: random branching and cyclic patterns, planned with
   and without the type- and field-narrowing passes, give the same bag on
   the materialized engine — over the Fixtures schema and over a slice of
   the LDBC schema, where HAS_TAG leaves both Forums and Posts. *)
let ldbc_session = lazy (Gopt.Session.create (Gopt_workloads.Ldbc.generate ~persons:20 ()))

let test_optimizer_oracle () =
  let check ~ldbc session seed =
    let q = Gen_query.generate_pattern ~ldbc seed in
    let schema = if ldbc then "ldbc" else "fixture" in
    match optimizer_oracle session q with
    | None -> ()
    | Some diff -> Alcotest.failf "%s seed %d: %s\nquery:\n  %s" schema seed diff q
    | exception e ->
      Alcotest.failf "%s seed %d: %s\nquery:\n  %s" schema seed (Printexc.to_string e) q
  in
  for seed = 0 to 99 do
    check ~ldbc:false (Lazy.force session) seed
  done;
  for seed = 0 to 99 do
    check ~ldbc:true (Lazy.force ldbc_session) seed
  done

(* The UNION family: halves that share a chain under different anchors. Each
   is planned in ComSubPattern's shared form with the CBO off (as Fig 8(a)
   runs it) and branch-local with the CBO on, and both must give the naive
   plan's bag. QR7 and QR8 run too, on a small LDBC graph. *)
let test_union_oracle () =
  let shared_config = { (Gopt_opt.Planner.default_config ()) with enable_cbo = false } in
  let rec with_common = function
    | Physical.With_common _ -> true
    | p -> List.exists with_common (Physical.children p)
  in
  let shared = ref 0 in
  let check name session q =
    let run config =
      let phys, _ = Gopt.plan_cypher ~config session q in
      (phys, bag (fst (Engine.run_materialized (Gopt.Session.graph session) phys)))
    in
    let _, want = run naive_config in
    List.iter
      (fun (form, config) ->
        let phys, got = run config in
        if with_common phys then incr shared;
        if not (List.equal (List.equal Rval.equal) got want) then
          Alcotest.failf "%s, %s: %d rows, naive plan: %d rows\nquery:\n  %s" name form
            (List.length got) (List.length want) q)
      [ ("shared form, CBO off", shared_config);
        ("branch-local, CBO on", Gopt_opt.Planner.default_config ()) ]
  in
  for seed = 0 to 99 do
    check (Printf.sprintf "seed %d" seed) (Lazy.force session) (Gen_query.generate_union seed)
  done;
  let qs = Gopt_workloads.Queries.qr in
  List.iter
    (fun name ->
      check name (Lazy.force ldbc_session)
        (Gopt_workloads.Queries.find qs name).Gopt_workloads.Queries.cypher)
    [ "QR7"; "QR8" ];
  (* ComSubPattern fires on the family with the CBO off *)
  Alcotest.(check bool) "shared forms planned" true (!shared > 50)

(* the generator itself: deterministic in the seed, and every query it emits
   is clean under the static checker *)
let test_generator_deterministic () =
  for seed = 0 to 49 do
    Alcotest.(check string)
      (Printf.sprintf "seed %d stable" seed)
      (Gen_query.generate seed) (Gen_query.generate seed)
  done

let test_generator_clean () =
  let s = Lazy.force session in
  let queries =
    List.init n_random (fun seed -> (seed, Gen_query.generate seed))
    @ List.map (fun seed -> (seed, Gen_query.generate_joins seed)) join_seeds
    @ List.init 100 (fun seed -> (seed, Gen_query.generate_pattern ~ldbc:false seed))
    @ List.init 100 (fun seed -> (seed, Gen_query.generate_union seed))
  in
  List.iter
    (fun (seed, q) ->
      (* unused-binding warnings are expected — random projections rarely
         touch every pattern variable — but any static ERROR means the
         generator emitted an ill-formed query *)
      match Gopt_check.Diagnostic.errors (Gopt.check_cypher s q) with
      | [] -> ()
      | errs ->
        Alcotest.failf "seed %d: generator emitted an erroneous query:\n  %s\n%s" seed q
          (Gopt.render_diagnostics errs))
    queries

let () =
  Alcotest.run "parallel"
    [
      ( "differential",
        [
          Alcotest.test_case "random queries (220 seeds)" `Quick test_random_differential;
          Alcotest.test_case "random join queries (120 seeds)" `Quick
            test_random_join_differential;
          Alcotest.test_case "random join kinds covered" `Quick test_join_kinds_covered;
          Alcotest.test_case "workload suite" `Quick test_workload_differential;
          Alcotest.test_case "optimizer oracle (200 seeds)" `Quick test_optimizer_oracle;
          Alcotest.test_case "optimizer oracle: shared-chain unions" `Quick test_union_oracle;
        ] );
      ( "probe agg",
        [
          Alcotest.test_case "against the oracle" `Quick test_probe_agg_oracle;
          Alcotest.test_case "rows charged as unfolded" `Quick test_probe_agg_accounting;
        ] );
      ( "key table",
        [
          Alcotest.test_case "first-sighting order" `Quick test_key_order;
          Alcotest.test_case "which cells are one key" `Quick test_key_cells;
          Alcotest.test_case "projection columns" `Quick test_project_columns;
          Alcotest.test_case "dedup keeps only survivors" `Quick test_dedup_releases;
        ] );
      ( "determinism",
        [ Alcotest.test_case "10 runs, varying workers" `Quick test_determinism ] );
      ( "accounting",
        [
          Alcotest.test_case "exchange stats and trace" `Quick test_parallel_accounting;
          Alcotest.test_case "join output streams" `Quick test_join_output_streams;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "statically clean" `Quick test_generator_clean;
        ] );
    ]
