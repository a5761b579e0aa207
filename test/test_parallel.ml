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
