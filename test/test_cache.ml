(* Tests for the plan-cache subsystem (gopt_cache + the Gopt façade glue):

   - Plan_cache: LRU behaviour, counters, disabled mode, and a multi-domain
     hammering smoke test for the mutex-guarded critical sections.
   - Fingerprint: whitespace-insensitivity, literal- and epoch-sensitivity.
   - Parameter errors: the descriptive undefined-$param message at parse
     time and through [Gopt.run_cypher ~params].
   - Plan_codec: qcheck roundtrip stability over every workload query's
     CBO output, including plans carrying Param placeholders.
   - Differential: cached execution is byte-identical to the cold path
     (parse-time substitution, no cache, [Engine.run]) on the full workload
     suite and on 50 generated random queries, across 5 distinct parameter
     bindings, across workers 1 and 4, and after a forced stats-epoch
     invalidation. *)

module Plan_cache = Gopt_cache.Plan_cache
module Fingerprint = Gopt_cache.Fingerprint
module Cp = Gopt_lang.Cypher_parser
module Expr = Gopt_pattern.Expr
module Expr_type = Gopt_check.Expr_type
module Physical = Gopt_opt.Physical
module Planner = Gopt_opt.Planner
module Plan_codec = Gopt_opt.Plan_codec
module Engine = Gopt_exec.Engine
module Batch = Gopt_exec.Batch
module Rval = Gopt_exec.Rval
module G = Gopt_graph.Property_graph
module Value = Gopt_graph.Value
module Queries = Gopt_workloads.Queries
module Prng = Gopt_util.Prng

(* --- LRU cache ----------------------------------------------------------- *)

let test_lru_basic () =
  let c = Plan_cache.create ~capacity:3 () in
  Plan_cache.add c "a" 1;
  Plan_cache.add c "b" 2;
  Plan_cache.add c "c" 3;
  Alcotest.(check int) "3 entries" 3 (Plan_cache.length c);
  Alcotest.(check (option int)) "a hit" (Some 1) (Plan_cache.find c "a");
  (* a was just promoted, so adding d evicts b (the least recently used) *)
  Plan_cache.add c "d" 4;
  Alcotest.(check (option int)) "b evicted" None (Plan_cache.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Plan_cache.find c "a");
  Alcotest.(check (option int)) "c survives" (Some 3) (Plan_cache.find c "c");
  Alcotest.(check (option int)) "d present" (Some 4) (Plan_cache.find c "d");
  let st = Plan_cache.stats c in
  Alcotest.(check int) "hits" 4 st.Plan_cache.hits;
  Alcotest.(check int) "misses" 1 st.Plan_cache.misses;
  Alcotest.(check int) "evictions" 1 st.Plan_cache.evictions;
  Alcotest.(check int) "capacity" 3 st.Plan_cache.capacity

let test_lru_overwrite () =
  let c = Plan_cache.create ~capacity:2 () in
  Plan_cache.add c "k" 1;
  Plan_cache.add c "k" 2;
  Alcotest.(check int) "still one entry" 1 (Plan_cache.length c);
  Alcotest.(check (option int)) "new value" (Some 2) (Plan_cache.find c "k");
  Alcotest.(check int) "no eviction" 0 (Plan_cache.stats c).Plan_cache.evictions

let test_lru_disabled () =
  let c = Plan_cache.create ~capacity:0 () in
  Plan_cache.add c "k" 1;
  Alcotest.(check int) "stores nothing" 0 (Plan_cache.length c);
  Alcotest.(check (option int)) "always misses" None (Plan_cache.find c "k")

let test_lru_invalidate () =
  let c = Plan_cache.create ~capacity:8 () in
  Plan_cache.add c "a" 1;
  Plan_cache.add c "b" 2;
  Alcotest.(check int) "2 dropped" 2 (Plan_cache.invalidate_all c);
  Alcotest.(check int) "empty" 0 (Plan_cache.length c);
  let st = Plan_cache.stats c in
  Alcotest.(check int) "invalidations" 2 st.Plan_cache.invalidations;
  Alcotest.(check int) "not evictions" 0 st.Plan_cache.evictions;
  Alcotest.(check int) "none dropped on empty" 0 (Plan_cache.invalidate_all c)

(* Exhaustive eviction order check: fill, touch in a known order, then
   overflow one by one and verify the LRU victim each time. *)
let test_lru_order () =
  let c = Plan_cache.create ~capacity:3 () in
  Plan_cache.add c "a" 1;
  Plan_cache.add c "b" 2;
  Plan_cache.add c "c" 3;
  ignore (Plan_cache.find c "b");
  ignore (Plan_cache.find c "a");
  (* recency: a > b > c *)
  Plan_cache.add c "d" 4;
  Alcotest.(check (option int)) "c was LRU" None (Plan_cache.find c "c");
  Plan_cache.add c "e" 5;
  (* after c's eviction and d/e inserts: recency e > d > a > b, b evicted *)
  Alcotest.(check (option int)) "b next" None (Plan_cache.find c "b");
  Alcotest.(check (option int)) "a still in" (Some 1) (Plan_cache.find c "a")

let test_lru_domains () =
  let c = Plan_cache.create ~capacity:16 () in
  let worker id () =
    let rng = Prng.create (1000 + id) in
    for i = 0 to 999 do
      let key = Printf.sprintf "k%d" (Prng.int rng 40) in
      if i mod 3 = 0 then Plan_cache.add c key (id * 10000 + i)
      else ignore (Plan_cache.find c key);
      if i mod 250 = 0 then ignore (Plan_cache.invalidate_all c)
    done
  in
  let domains = List.init 4 (fun id -> Domain.spawn (worker id)) in
  List.iter Domain.join domains;
  Alcotest.(check bool) "within capacity" true (Plan_cache.length c <= 16);
  let st = Plan_cache.stats c in
  Alcotest.(check bool) "counters accumulated" true
    (st.Plan_cache.hits + st.Plan_cache.misses > 0)

(* --- fingerprints -------------------------------------------------------- *)

let digest ?(config = "cfg") ?(epoch = 0) src =
  Fingerprint.digest ~config ~epoch (Cp.parse src)

let test_fp_whitespace () =
  Alcotest.(check string) "formatting does not matter"
    (digest "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.age > 30 RETURN b.name AS n")
    (digest
       "MATCH   (a:Person)-[:KNOWS]->(b:Person)\n\
       \   WHERE a.age > 30\n\
       \   RETURN b.name AS n")

let test_fp_sensitivity () =
  let base = "MATCH (a:Person) WHERE a.age > 30 RETURN a.name AS n" in
  Alcotest.(check bool) "literal changes the key" true
    (digest base <> digest "MATCH (a:Person) WHERE a.age > 31 RETURN a.name AS n");
  Alcotest.(check bool) "config changes the key" true
    (digest ~config:"A" base <> digest ~config:"B" base);
  Alcotest.(check bool) "epoch changes the key" true
    (digest ~epoch:0 base <> digest ~epoch:1 base);
  Alcotest.(check bool) "query shape changes the key" true
    (digest base <> digest "MATCH (a:Person) WHERE a.age > 30 RETURN a.age AS n")

(* --- parameter diagnostics ------------------------------------------------ *)

let check_raises_containing name needles f =
  match f () with
  | _ -> Alcotest.failf "%s: expected an exception" name
  | exception (Cp.Parse_error msg | Invalid_argument msg) ->
    List.iter
      (fun needle ->
        let contains =
          let nl = String.length needle and hl = String.length msg in
          let rec go i = i + nl <= hl && (String.sub msg i nl = needle || go (i + 1)) in
          go 0
        in
        if not contains then
          Alcotest.failf "%s: message %S does not mention %S" name msg needle)
      needles

let test_param_parse_errors () =
  check_raises_containing "no params supplied" [ "$x"; "supplied: none" ] (fun () ->
      Cp.parse "MATCH (a:Person) WHERE a.age > $x RETURN a.name AS n");
  check_raises_containing "wrong name supplied" [ "$x"; "$lo"; "$hi" ] (fun () ->
      Cp.parse
        ~params:[ ("lo", [ Value.Int 1 ]); ("hi", [ Value.Int 9 ]) ]
        "MATCH (a:Person) WHERE a.age > $x RETURN a.name AS n");
  (* defer mode: scalars become placeholders, but IN-list params must bind *)
  check_raises_containing "deferred IN param still required" [ "$ids"; "supplied: none" ]
    (fun () -> Cp.parse ~defer_params:true "MATCH (a:Person) WHERE a.age IN $ids RETURN a.name AS n");
  let ast =
    Cp.parse ~defer_params:true "MATCH (a:Person) WHERE a.age > $x RETURN a.name AS n"
  in
  Alcotest.(check bool) "defer mode parses without bindings" true
    (match ast.Gopt_lang.Cypher_ast.parts with _ :: _ -> true | [] -> false)

let fixture_session = lazy (Gopt.Session.create Fixtures.graph)

let test_param_execution_errors () =
  let s = Lazy.force fixture_session in
  let run params =
    Gopt.run_cypher ~params s "MATCH (a:Person) WHERE a.age > $lo RETURN a.name AS n"
  in
  check_raises_containing "unbound at execution" [ "$lo"; "supplied: none" ] (fun () ->
      run []);
  check_raises_containing "wrong binding at execution" [ "$lo"; "$hi" ] (fun () ->
      run [ ("hi", [ Value.Int 3 ]) ]);
  check_raises_containing "multi-value scalar" [ "$lo"; "2 values" ] (fun () ->
      run [ ("lo", [ Value.Int 1; Value.Int 2 ]) ])

let test_param_typing () =
  let lookup _ = None in
  let ty, ds =
    Expr_type.infer
      ~param_ty:(fun _ -> Some Expr_type.Int)
      ~lookup ~path:"t"
      (Expr.Binop (Expr.Add, Expr.Param "x", Expr.Const (Value.Int 1)))
  in
  Alcotest.(check string) "declared scalar kind flows through" "int"
    (Expr_type.to_string ty);
  Alcotest.(check int) "no diagnostics" 0 (List.length ds);
  let _, ds2 =
    Expr_type.infer
      ~param_ty:(fun _ -> Some Expr_type.Path)
      ~lookup ~path:"t" (Expr.Param "x")
  in
  Alcotest.(check bool) "non-scalar parameter kind rejected" true (List.length ds2 > 0);
  let ty3, ds3 = Expr_type.infer ~lookup ~path:"t" (Expr.Param "x") in
  Alcotest.(check string) "undeclared is any" "any" (Expr_type.to_string ty3);
  Alcotest.(check int) "undeclared is fine" 0 (List.length ds3)

(* --- Plan_codec roundtrip (qcheck) ---------------------------------------- *)

let ldbc_session =
  lazy
    (let g = Gopt_workloads.Ldbc.generate ~persons:60 () in
     Gopt.Session.create g)

let workload_queries =
  Queries.comprehensive @ Queries.qr @ Queries.qt @ Queries.qc

let workload_plans =
  lazy
    (let s = Lazy.force ldbc_session in
     List.map
       (fun (q : Queries.query) ->
         (q.Queries.name, fst (Gopt.plan_cypher ~use_cache:false s q.Queries.cypher)))
       workload_queries)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"plan_codec: decode . encode = id over CBO output"
    ~count:(List.length workload_queries)
    QCheck.(map (fun i -> abs i) small_int)
    (fun i ->
      let plans = Lazy.force workload_plans in
      let name, plan = List.nth plans (i mod List.length plans) in
      let enc = Plan_codec.encode plan in
      let dec = Plan_codec.decode enc in
      if dec <> plan then QCheck.Test.fail_reportf "%s: decode <> original" name;
      if Plan_codec.encode dec <> enc then
        QCheck.Test.fail_reportf "%s: re-encode unstable" name;
      true)

let prop_codec_roundtrip_params =
  QCheck.Test.make ~name:"plan_codec: roundtrip preserves Param placeholders" ~count:20
    QCheck.(map (fun i -> abs i) small_int)
    (fun i ->
      let s = Lazy.force fixture_session in
      let src =
        Printf.sprintf
          "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.age > $lo AND b.age < $hi%d \
           RETURN a.name AS n"
          (i mod 3)
      in
      let plan, _ = Gopt.plan_cypher ~use_cache:true s src in
      let dec = Plan_codec.decode (Plan_codec.encode plan) in
      if dec <> plan then QCheck.Test.fail_reportf "param plan: decode <> original";
      Physical.params dec = Physical.params plan
      && List.length (Physical.params plan) = 2)

(* --- differential: cached vs cold ----------------------------------------- *)

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

(* The uncached path: parameters substituted at parse time, no plan cache,
   the default engine profile. *)
let cold ?params s src =
  let physical, _ = Gopt.plan_cypher ?params s src in
  fst (Engine.run (Gopt.Session.graph s) physical)

let test_workload_cached_vs_cold () =
  let s = Lazy.force ldbc_session in
  let g = Gopt.Session.graph s in
  List.iter
    (fun (q : Queries.query) ->
      let cold = cold s q.Queries.cypher in
      let warm1 = Gopt.run_cypher s q.Queries.cypher in
      let warm2 = Gopt.run_cypher s q.Queries.cypher in
      (match warm2.Gopt.report.Planner.plan_cache with
      | Some note ->
        Alcotest.(check bool) (q.Queries.name ^ ": second run hits") true
          note.Planner.cache_hit
      | None -> Alcotest.failf "%s: no cache note on cached run" q.Queries.name);
      Alcotest.(check string)
        (q.Queries.name ^ ": cold = warm")
        (render g cold) (render g warm1.Gopt.result);
      Alcotest.(check string)
        (q.Queries.name ^ ": warm stable")
        (render g warm1.Gopt.result) (render g warm2.Gopt.result);
      (* the cached plan is worker-count invisible *)
      let b1, _ = Engine.run ~workers:1 ~chunk_size:32 g warm2.Gopt.physical in
      let b4, _ = Engine.run ~workers:4 ~chunk_size:32 g warm2.Gopt.physical in
      Alcotest.(check string)
        (q.Queries.name ^ ": cached plan, workers 1 = 4")
        (render g b1) (render g b4))
    workload_queries

let test_random_cached_vs_cold () =
  (* Gen_query targets the Fixtures schema, so run these on that session *)
  let s = Lazy.force fixture_session in
  let g = Gopt.Session.graph s in
  for seed = 0 to 49 do
    let q = Gen_query.generate seed in
    match
      let cold = cold s q in
      let _warm1 = Gopt.run_cypher s q in
      let warm2 = Gopt.run_cypher s q in
      (cold, warm2)
    with
    | cold, warm ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d: cold = cached" seed)
        (render g cold) (render g warm.Gopt.result)
    | exception e ->
      Alcotest.failf "seed %d: %s\nquery:\n  %s" seed (Printexc.to_string e) q
  done

(* 5 distinct bindings of one template through [run_cypher ~params], each
   checked byte-identical against the cold parse-time-substitution path,
   and the bound plan at both worker counts; then a forced stats-epoch
   invalidation, after which the template replans (miss) and still
   agrees. *)
let test_prepared_bindings_and_epoch () =
  let g = Gopt_workloads.Ldbc.generate ~persons:60 () in
  let s = Gopt.Session.create g in
  let src =
    "MATCH (p:Person)-[:KNOWS]->(q:Person) WHERE p.birthday > $lo AND q.gender = $g \
     RETURN p.firstName AS a, q.firstName AS b ORDER BY a ASC, b ASC LIMIT 40"
  in
  let bindings =
    [
      [ ("lo", [ Value.Int 1980 ]); ("g", [ Value.Str "male" ]) ];
      [ ("lo", [ Value.Int 1990 ]); ("g", [ Value.Str "female" ]) ];
      [ ("lo", [ Value.Int 1960 ]); ("g", [ Value.Str "male" ]) ];
      [ ("lo", [ Value.Int 2000 ]); ("g", [ Value.Str "female" ]) ];
      [ ("lo", [ Value.Int 1975 ]); ("g", [ Value.Str "male" ]) ];
    ]
  in
  let check_binding i params =
    let warm = Gopt.run_cypher ~params s src in
    Alcotest.(check string)
      (Printf.sprintf "binding %d: cached = cold" i)
      (render g (cold ~params s src)) (render g warm.Gopt.result);
    let bound = Physical.bind_params params warm.Gopt.physical in
    let b1, _ = Engine.run ~workers:1 g bound in
    let b4, _ = Engine.run ~workers:4 g bound in
    Alcotest.(check string)
      (Printf.sprintf "binding %d: workers 1 = 4" i)
      (render g b1) (render g b4)
  in
  List.iteri check_binding bindings;
  (* after the first run, the rest were hits *)
  let st = Gopt.Session.plan_cache_stats s in
  Alcotest.(check int) "one optimization for 5 bindings" 1 st.Plan_cache.misses;
  Alcotest.(check int) "four hits" 4 st.Plan_cache.hits;
  (* stats-epoch bump: cache is dropped AND the fingerprint moves *)
  Gopt.Session.bump_stats_epoch s;
  Alcotest.(check int) "epoch advanced" 1 (Gopt.Session.stats_epoch s);
  let st = Gopt.Session.plan_cache_stats s in
  Alcotest.(check bool) "invalidations counted" true (st.Plan_cache.invalidations > 0);
  Alcotest.(check int) "cache emptied" 0 st.Plan_cache.entries;
  let params = List.hd bindings in
  let post = Gopt.run_cypher ~params s src in
  (match post.Gopt.report.Planner.plan_cache with
  | Some note -> Alcotest.(check bool) "post-bump run replans" false note.Planner.cache_hit
  | None -> Alcotest.fail "post-bump run has no cache note");
  Alcotest.(check int) "one replan" 2 (Gopt.Session.plan_cache_stats s).Plan_cache.misses;
  Alcotest.(check string) "post-bump result identical"
    (render g (cold ~params s src)) (render g post.Gopt.result)

(* session-level LRU pressure: a tiny cache evicts and re-optimizes without
   affecting results *)
let test_session_eviction () =
  let s = Gopt.Session.create ~plan_cache_capacity:2 Fixtures.graph in
  let g = Fixtures.graph in
  let queries =
    [
      "MATCH (a:Person) RETURN a.name AS n ORDER BY n ASC";
      "MATCH (a:Person)-[:KNOWS]->(b:Person) RETURN count(*) AS c";
      "MATCH (a:Person)-[:LIVES_IN]->(c:City) RETURN c.name AS n ORDER BY n ASC";
    ]
  in
  let renders = List.map (fun q -> render g (Gopt.run_cypher s q).Gopt.result) queries in
  (* third insert evicted the first entry; running q0 again must miss *)
  let st0 = Gopt.Session.plan_cache_stats s in
  Alcotest.(check int) "capacity respected" 2 st0.Plan_cache.entries;
  Alcotest.(check bool) "eviction happened" true (st0.Plan_cache.evictions >= 1);
  let again = Gopt.run_cypher s (List.hd queries) in
  let st1 = Gopt.Session.plan_cache_stats s in
  Alcotest.(check int) "evicted entry re-misses" (st0.Plan_cache.misses + 1)
    st1.Plan_cache.misses;
  Alcotest.(check string) "evicted re-run identical" (List.hd renders)
    (render g again.Gopt.result)

let () =
  Alcotest.run "cache"
    [
      ( "lru",
        [
          Alcotest.test_case "basic hit/miss/evict" `Quick test_lru_basic;
          Alcotest.test_case "overwrite" `Quick test_lru_overwrite;
          Alcotest.test_case "capacity 0 disables" `Quick test_lru_disabled;
          Alcotest.test_case "invalidate_all" `Quick test_lru_invalidate;
          Alcotest.test_case "eviction order" `Quick test_lru_order;
          Alcotest.test_case "4 domains hammering" `Quick test_lru_domains;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "whitespace-insensitive" `Quick test_fp_whitespace;
          Alcotest.test_case "literal/config/epoch sensitivity" `Quick test_fp_sensitivity;
        ] );
      ( "params",
        [
          Alcotest.test_case "parse-time diagnostics" `Quick test_param_parse_errors;
          Alcotest.test_case "execution-time diagnostics" `Quick
            test_param_execution_errors;
          Alcotest.test_case "static typing of placeholders" `Quick test_param_typing;
        ] );
      ( "codec",
        List.map QCheck_alcotest.to_alcotest
          [ prop_codec_roundtrip; prop_codec_roundtrip_params ] );
      ( "differential",
        [
          Alcotest.test_case "workload: cached = cold" `Quick test_workload_cached_vs_cold;
          Alcotest.test_case "50 random queries: cached = cold" `Quick
            test_random_cached_vs_cold;
          Alcotest.test_case "prepared bindings + epoch invalidation" `Quick
            test_prepared_bindings_and_epoch;
          Alcotest.test_case "session LRU eviction" `Quick test_session_eviction;
        ] );
    ]
