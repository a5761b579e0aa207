(* The experiment harness: regenerates every table and figure of the paper's
   evaluation (Section 8). See DESIGN.md for the experiment index and
   EXPERIMENTS.md for recorded paper-vs-measured outcomes.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig8a fig11  # selected experiments
   Scale knobs: GOPT_BENCH_PERSONS (default 1200), GOPT_BENCH_BUDGET (10s). *)

module H = Harness
module Engine = Gopt_exec.Engine
module Planner = Gopt_opt.Planner
module Physical = Gopt_opt.Physical
module Spec = Gopt_opt.Physical_spec
module Baselines = Gopt_opt.Baselines
module Cbo = Gopt_opt.Cbo
module Path_planner = Gopt_opt.Path_planner
module Queries = Gopt_workloads.Queries
module Ldbc = Gopt_workloads.Ldbc
module Tg = Gopt_workloads.Transfer_graph
module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint
module Expr = Gopt_pattern.Expr
module Value = Gopt_graph.Value
module Gq = Gopt_glogue.Glogue_query
module Ti = Gopt_typeinf.Type_inference

(* ------------------------------------------------------------- Table 1 -- *)

let table1 () =
  H.print_table ~title:"Table 1: capabilities of the implemented planners"
    ~header:[ "Planner"; "Lang."; "Opt."; "WcoJoin"; "H.Stats"; "T.Infer" ]
    [
      [ "Neo4j (CypherPlanner baseline)"; "Cypher"; "RBO/CBO"; "no"; "no"; "no" ];
      [ "GraphScope (native RBO baseline)"; "Gremlin"; "RBO"; "yes"; "no"; "no" ];
      [ "GOpt"; "Cypher+Gremlin"; "RBO/CBO"; "yes"; "yes"; "yes" ];
    ];
  print_endline
    "(The rows reproduce the paper's Table 1 for the three planner behaviours\n\
     implemented in this repository; GLogS is subsumed by GOpt's CBO.)"

(* ------------------------------------------------------------- Table 3 -- *)

let table3 () =
  let rows =
    List.map
      (fun (name, persons) ->
        let g = Ldbc.generate ~persons () in
        let v = Gopt_graph.Property_graph.n_vertices g in
        let e = Gopt_graph.Property_graph.n_edges g in
        (* rough in-memory footprint: ids + CSR + property cells *)
        let bytes = (v * 48) + (e * 72) in
        [
          name;
          string_of_int persons;
          string_of_int v;
          string_of_int e;
          Printf.sprintf "%.1f MB" (float_of_int bytes /. 1048576.0);
        ])
      Ldbc.scale_ladder
  in
  H.print_table ~title:"Table 3: the generated dataset ladder (stands in for G30..G1000)"
    ~header:[ "Graph"; "persons"; "|V|"; "|E|"; "approx size" ]
    rows

(* -------------------------------------------------------------- Fig 8a -- *)

(* Heuristic rules on/off. Following the paper, CBO and type inference are
   disabled so only the rule under test varies; queries carry explicit
   types. *)
let fig8a_config ~field_trim ~rules =
  {
    Planner.spec = Spec.graphscope;
    enable_rbo = true;
    rules;
    enable_field_trim = field_trim;
    enable_type_inference = false;
    inference_schema = None;
    enable_cbo = false;
    cbo_options = Cbo.default_options;
    check_plans = false;
  }

let fig8a () =
  let session = H.ldbc_session H.bench_persons in
  let base_rules = Gopt_opt.Rules_relational.all in
  let all_pattern = Gopt_opt.Rules_pattern.all in
  let without name = List.filter (fun r -> r.Gopt_opt.Rule.name <> name) all_pattern in
  let rows =
    List.map
      (fun (q : Queries.query) ->
        let rule = Option.get q.Queries.rule in
        let with_c, without_c =
          if rule = "FieldTrim" then
            ( fig8a_config ~field_trim:true ~rules:(all_pattern @ base_rules),
              fig8a_config ~field_trim:false ~rules:(all_pattern @ base_rules) )
          else
            ( fig8a_config ~field_trim:false ~rules:(all_pattern @ base_rules),
              fig8a_config ~field_trim:false ~rules:(without rule @ base_rules) )
        in
        let on = H.run_cypher session with_c q.Queries.cypher in
        let off = H.run_cypher session without_c q.Queries.cypher in
        ( (off, on),
          [
            q.Queries.name;
            rule;
            H.fmt_time off;
            H.fmt_time on;
            H.fmt_speedup ~base:off ~opt:on;
          ] ))
      Queries.qr
  in
  H.print_table ~title:"Fig 8(a): heuristic rules on/off (GraphScope profile, CBO disabled)"
    ~header:[ "query"; "rule"; "without (s)"; "with (s)"; "speedup" ]
    (List.map snd rows);
  H.summarize_speedups "heuristic rules" (List.map fst rows)

(* -------------------------------------------------------------- Fig 8b -- *)

let fig8b () =
  let session = H.ldbc_session H.bench_persons in
  (* isolate the technique: rule-based execution in the user-given order,
     with and without the type checker (the paper's controlled setup) *)
  let on_c =
    { (Baselines.gopt_config Spec.graphscope) with Planner.enable_cbo = false }
  in
  let off_c = { on_c with Planner.enable_type_inference = false } in
  let rows =
    List.map
      (fun (q : Queries.query) ->
        let on = H.run_cypher session on_c q.Queries.cypher in
        let off = H.run_cypher session off_c q.Queries.cypher in
        ( (off, on),
          [
            q.Queries.name;
            H.fmt_time off;
            H.fmt_time on;
            H.fmt_speedup ~base:off ~opt:on;
            (match off.H.stats, on.H.stats with
            | Some o, Some n ->
              Printf.sprintf "%d -> %d" o.Engine.intermediate_rows n.Engine.intermediate_rows
            | _ -> "-");
          ] ))
      Queries.qt
  in
  H.print_table
    ~title:"Fig 8(b): type inference on/off (queries without explicit types)"
    ~header:[ "query"; "off (s)"; "on (s)"; "speedup"; "intermediate rows" ]
    (List.map snd rows);
  H.summarize_speedups "type inference" (List.map fst rows)

(* -------------------------------------------------------------- Fig 8c -- *)

let qc_pattern session name =
  let q = Queries.find Queries.qc name in
  Queries.pattern_of_cypher (Gopt.Session.schema session) q.Queries.cypher

let count_plan phys =
  Physical.Group
    ( phys,
      [],
      [ { Gopt_gir.Logical.agg_fn = Gopt_gir.Logical.Count; agg_arg = None; agg_alias = "c" } ] )

let fig8c () =
  let session = H.ldbc_session H.bench_persons in
  let graph = Gopt.Session.graph session in
  let gq = Gopt.Session.estimator session in
  let rows = ref [] in
  let all_pairs = ref [] in
  List.iter
    (fun name ->
      let p = qc_pattern session name in
      let gopt_plan, _ = Cbo.optimize gq Spec.graphscope p in
      let gopt = H.run_phys graph (count_plan (Cbo.to_physical Spec.graphscope gopt_plan)) in
      let neo_cost_spec = Baselines.gopt_neo_cost_config.Planner.spec in
      let neo_plan, _ = Cbo.optimize gq neo_cost_spec p in
      let gopt_neo = H.run_phys graph (count_plan (Cbo.to_physical neo_cost_spec neo_plan)) in
      let rng = Gopt_util.Prng.create 1234 in
      let randoms =
        List.init 10 (fun _ ->
            let phys, _ = Baselines.random_plan rng Spec.graphscope p in
            H.run_phys graph (count_plan phys))
      in
      let finite = List.filter (fun r -> not (H.is_ot r)) randoms in
      let rand_ot = List.length randoms - List.length finite in
      let rand_avg =
        if finite = [] then H.ot
        else
          {
            H.rows = 0;
            cpu =
              List.fold_left (fun a r -> a +. r.H.cpu) 0.0 finite
              /. float_of_int (List.length finite);
            sim =
              List.fold_left (fun a r -> a +. r.H.sim) 0.0 finite
              /. float_of_int (List.length finite);
            stats = None;
          }
      in
      let rand_best =
        List.fold_left
          (fun acc r -> if r.H.sim < acc.H.sim then r else acc)
          (match finite with x :: _ -> x | [] -> H.ot)
          finite
      in
      all_pairs := (gopt_neo, gopt) :: !all_pairs;
      rows :=
        [
          name;
          H.fmt_time gopt;
          H.fmt_time gopt_neo;
          H.fmt_time rand_best;
          H.fmt_time rand_avg;
          string_of_int rand_ot;
          H.fmt_speedup ~base:gopt_neo ~opt:gopt;
          H.fmt_speedup ~base:rand_avg ~opt:gopt;
        ]
        :: !rows)
    [ "QC1a"; "QC1b"; "QC2a"; "QC2b"; "QC3a"; "QC3b"; "QC4a"; "QC4b" ];
  H.print_table
    ~title:"Fig 8(c): CBO plan quality — GOpt vs GOpt-Neo-cost vs 10 random plans"
    ~header:
      [
        "query"; "GOpt (s)"; "GOpt-Neo (s)"; "rand best"; "rand avg"; "rand OT"; "vs Neo-cost";
        "vs rand avg";
      ]
    (List.rev !rows);
  H.summarize_speedups "backend-specific cost model (vs mismatched)" !all_pairs

(* -------------------------------------------------------------- Fig 8d -- *)

let fig8d () =
  let session = H.ldbc_session H.bench_persons in
  let graph = Gopt.Session.graph session in
  let hi = Gopt.Session.estimator session in
  let lo = Gopt.Session.low_order_estimator session in
  let rows = ref [] and pairs = ref [] in
  List.iter
    (fun name ->
      let p = qc_pattern session name in
      let hi_plan, _ = Cbo.optimize hi Spec.graphscope p in
      let lo_plan, _ = Cbo.optimize lo Spec.graphscope p in
      let hi_run = H.run_phys graph (count_plan (Cbo.to_physical Spec.graphscope hi_plan)) in
      let lo_run = H.run_phys graph (count_plan (Cbo.to_physical Spec.graphscope lo_plan)) in
      let same_order = Cbo.plan_order hi_plan = Cbo.plan_order lo_plan in
      pairs := (lo_run, hi_run) :: !pairs;
      rows :=
        [
          name;
          H.fmt_time lo_run;
          H.fmt_time hi_run;
          H.fmt_speedup ~base:lo_run ~opt:hi_run;
          (if same_order then "same" else "different");
        ]
        :: !rows)
    [ "QC1a"; "QC1b"; "QC2a"; "QC2b"; "QC3a"; "QC3b"; "QC4a"; "QC4b" ];
  H.print_table
    ~title:"Fig 8(d): high-order vs low-order statistics for CBO"
    ~header:[ "query"; "low-order (s)"; "high-order (s)"; "speedup"; "plan order" ]
    (List.rev !rows);
  H.summarize_speedups "high-order statistics" !pairs

(* -------------------------------------------------------------- Fig 8e -- *)

let fig8e () =
  let session = H.ldbc_session H.bench_persons in
  let gs_plan = Baselines.gs_rbo_config in
  let gopt = Baselines.gopt_config Spec.graphscope in
  let queries =
    List.filter (fun (q : Queries.query) -> q.Queries.gremlin <> None) (Queries.qr @ Queries.qc)
  in
  let rows =
    List.map
      (fun (q : Queries.query) ->
        let src = Option.get q.Queries.gremlin in
        let base = H.run_gremlin session gs_plan src in
        let opt = H.run_gremlin session gopt src in
        ( (base, opt),
          [ q.Queries.name; H.fmt_time base; H.fmt_time opt; H.fmt_speedup ~base ~opt ] ))
      queries
  in
  H.print_table
    ~title:"Fig 8(e): Gremlin queries — GS-plan (native RBO) vs GOpt-plan"
    ~header:[ "query"; "GS-plan (s)"; "GOpt-plan (s)"; "speedup" ]
    (List.map snd rows);
  H.summarize_speedups "GOpt over GraphScope's native RBO" (List.map fst rows)

(* ------------------------------------------------------------ Fig 9a/b -- *)

let fig9 ~spec ~profile ~title () =
  let session = H.ldbc_session H.bench_persons in
  (* the CypherPlanner baseline plans with low-order statistics only *)
  let neo_plan_of query =
    Planner.plan Baselines.cypher_planner_config
      (Gopt.Session.low_order_estimator session)
      (Gopt.cypher_to_gir session query)
  in
  (* GOpt registers the executing backend's PhysicalSpec (the plans for the
     two backends differ, paper Section 8.1) *)
  let gopt_config = Baselines.gopt_config spec in
  let graph = Gopt.Session.graph session in
  let rows =
    List.map
      (fun (q : Queries.query) ->
        let neo_phys, _ = neo_plan_of q.Queries.cypher in
        let base = H.run_phys ~profile graph neo_phys in
        let gopt_phys, _ = Gopt.plan_cypher ~config:gopt_config session q.Queries.cypher in
        let opt = H.run_phys ~profile graph gopt_phys in
        ( (base, opt),
          [ q.Queries.name; H.fmt_time base; H.fmt_time opt; H.fmt_speedup ~base ~opt ] ))
      Queries.comprehensive
  in
  H.print_table ~title ~header:[ "query"; "Neo4j-plan (s)"; "GOpt-plan (s)"; "speedup" ]
    (List.map snd rows);
  H.summarize_speedups "GOpt over CypherPlanner" (List.map fst rows)

let fig9a =
  fig9 ~spec:Spec.neo4j ~profile:Engine.neo4j_profile
    ~title:"Fig 9(a): Neo4j-plan vs GOpt-plan, executed on the Neo4j profile"

let fig9b =
  fig9 ~spec:Spec.graphscope ~profile:Engine.graphscope_profile
    ~title:"Fig 9(b): Neo4j-plan vs GOpt-plan, executed on the GraphScope profile"

(* ------------------------------------------------------------- Fig 10 -- *)

let fig10 ~queries ~title () =
  let sessions =
    List.map (fun (name, persons) -> (name, H.ldbc_session persons)) Ldbc.scale_ladder
  in
  let config = Baselines.gopt_config Spec.graphscope in
  let per_query =
    List.map
      (fun (q : Queries.query) ->
        let times = List.map (fun (_, s) -> H.run_cypher s config q.Queries.cypher) sessions in
        (q.Queries.name, times))
      queries
  in
  let header = ("query" :: List.map fst sessions) @ [ "S4/S1" ] in
  let rows =
    List.map
      (fun (name, times) ->
        let first = List.hd times and last = List.nth times (List.length times - 1) in
        let degradation =
          if H.is_ot first || H.is_ot last || first.H.sim <= 0.0 then "-"
          else Printf.sprintf "%.1fx" (last.H.sim /. first.H.sim)
        in
        (name :: List.map H.fmt_time times) @ [ degradation ])
      per_query
  in
  H.print_table ~title ~header rows;
  let degradations =
    List.filter_map
      (fun (_, times) ->
        let first = List.hd times and last = List.nth times (List.length times - 1) in
        if H.is_ot first || H.is_ot last || first.H.sim <= 0.0 then None
        else Some (last.H.sim /. first.H.sim))
      per_query
  in
  if degradations <> [] then
    Printf.printf "average degradation S1 -> S4 (30x data): %.1fx (geo)\n"
      (H.geomean degradations)

let fig10a = fig10 ~queries:Queries.ic ~title:"Fig 10(a): data-scale experiment, IC queries"
let fig10b = fig10 ~queries:Queries.bi ~title:"Fig 10(b): data-scale experiment, BI queries"

(* ------------------------------------------------------------- Fig 11 -- *)

let st_sets = [ ("ST1", 2, 80); ("ST2", 8, 60); ("ST3", 80, 2); ("ST4", 15, 40); ("ST5", 25, 25) ]

let st_pattern schema ~srcs ~dsts ~k =
  let account = Gopt_graph.Schema.vtype_id schema "Account" in
  let transfer = Gopt_graph.Schema.etype_id schema "TRANSFER" in
  let in_list tag ids =
    Expr.In_list (Expr.Prop (tag, "id"), List.map (fun i -> Value.Int i) ids)
  in
  Pattern.create
    [|
      Pattern.mk_vertex ~pred:(in_list "s" srcs) ~alias:"s" (Tc.Basic account);
      Pattern.mk_vertex ~pred:(in_list "t" dsts) ~alias:"t" (Tc.Basic account);
    |]
    [| Pattern.mk_edge ~hops:(k, k) ~alias:"p" ~src:0 ~dst:1 (Tc.Basic transfer) |]

let fig11 () =
  let accounts = H.env_int "GOPT_BENCH_ACCOUNTS" 20000 in
  let k = 6 in
  let session = H.transfer_session accounts in
  let graph = Gopt.Session.graph session in
  let gq = Gopt.Session.estimator session in
  let rows = ref [] and pairs = ref [] in
  List.iter
    (fun (name, n_src, n_dst) ->
      let srcs, dsts = Tg.pick_endpoints graph ~seed:(Hashtbl.hash name) ~n_src ~n_dst in
      let p = st_pattern Tg.schema ~srcs ~dsts ~k in
      let result = Path_planner.optimize gq Spec.graphscope p in
      let split_str = function
        | None -> "1-dir"
        | Some (a, b) -> Printf.sprintf "(%d,%d)" a b
      in
      let gopt = H.run_phys graph (count_plan result.Path_planner.phys) in
      (* two alternative split positions around the chosen one *)
      let alt_positions =
        match result.Path_planner.split with
        | Some (a, _) -> List.filter (fun x -> x >= 1 && x < k && x <> a) [ a - 1; a + 1 ]
        | None -> [ 2; 3 ]
      in
      let alts =
        List.map
          (fun at ->
            let phys, _ = Path_planner.forced_split gq Spec.graphscope p ~at in
            (at, H.run_phys graph (count_plan phys)))
          alt_positions
      in
      (* Neo4j-plan: single-direction expansion from the S1 side *)
      let neo = H.run_phys graph (count_plan (Planner.compile_user_order Spec.graphscope p)) in
      pairs := (neo, gopt) :: !pairs;
      let alt_cells =
        match alts with
        | [ (a1, r1); (a2, r2) ] ->
          [
            Printf.sprintf "(%d,%d): %s" a1 (k - a1) (H.fmt_time r1);
            Printf.sprintf "(%d,%d): %s" a2 (k - a2) (H.fmt_time r2);
          ]
        | [ (a1, r1) ] -> [ Printf.sprintf "(%d,%d): %s" a1 (k - a1) (H.fmt_time r1); "-" ]
        | _ -> [ "-"; "-" ]
      in
      rows :=
        ([
           name;
           Printf.sprintf "%d/%d" n_src n_dst;
           split_str result.Path_planner.split;
           H.fmt_time gopt;
         ]
        @ alt_cells
        @ [ H.fmt_time neo; H.fmt_speedup ~base:neo ~opt:gopt ])
        :: !rows)
    st_sets;
  H.print_table
    ~title:
      (Printf.sprintf "Fig 11: S-T paths (k=%d) — GOpt split vs alternatives vs single-direction"
         k)
    ~header:
      [ "query"; "|S1|/|S2|"; "GOpt split"; "GOpt (s)"; "alt 1"; "alt 2"; "1-dir (s)"; "vs 1-dir" ]
    (List.rev !rows);
  H.summarize_speedups "bidirectional S-T planning" !pairs

(* ----------------------------------------------------------- ablations -- *)

let ablation_cbo () =
  let session = H.ldbc_session H.bench_persons in
  let gq = Gopt.Session.estimator session in
  let rows = ref [] in
  List.iter
    (fun name ->
      let p = qc_pattern session name in
      let run options =
        let t0 = Sys.time () in
        let plan, stats = Cbo.optimize ~options gq Spec.graphscope p in
        (plan, stats, Sys.time () -. t0)
      in
      let full = Cbo.default_options in
      let plan1, s1, t1 = run full in
      let _, s2, t2 = run { full with Cbo.use_pruning = false } in
      let _, s3, t3 = run { full with Cbo.use_greedy_init = false } in
      rows :=
        [
          name;
          Printf.sprintf "%.4f / %d / %d" t1 s1.Cbo.nodes_searched s1.Cbo.candidates_pruned;
          Printf.sprintf "%.4f / %d / %d" t2 s2.Cbo.nodes_searched s2.Cbo.candidates_pruned;
          Printf.sprintf "%.4f / %d / %d" t3 s3.Cbo.nodes_searched s3.Cbo.candidates_pruned;
          Printf.sprintf "%.3e" plan1.Cbo.cost;
        ]
        :: !rows)
    [ "QC2a"; "QC3a"; "QC4a"; "QC4b" ];
  H.print_table
    ~title:
      "Ablation A1/A2: CBO search — full vs no-pruning vs no-greedy-bound (time / nodes / pruned)"
    ~header:[ "pattern"; "full"; "no pruning"; "no greedy init"; "plan cost" ]
    (List.rev !rows)

let ablation_typeinf () =
  let session = H.ldbc_session H.bench_persons in
  let schema = Gopt.Session.schema session in
  let rows =
    List.map
      (fun (q : Queries.query) ->
        let p = Queries.pattern_of_cypher schema q.Queries.cypher in
        let iters prioritized =
          match Ti.infer ~prioritized schema p with
          | Ti.Inferred (_, n) -> string_of_int n
          | Ti.Invalid -> "invalid"
        in
        [ q.Queries.name; iters true; iters false ])
      Queries.qt
  in
  H.print_table
    ~title:"Ablation A3: type-inference worklist iterations — prioritized vs insertion order"
    ~header:[ "query"; "prioritized"; "unordered" ]
    rows

let ablation_intersect () =
  let rows =
    List.map
      (fun (name, persons) ->
        let session = H.ldbc_session persons in
        let graph = Gopt.Session.graph session in
        let gq = Gopt.Session.estimator session in
        let p = qc_pattern session "QC1a" in
        let plan, _ = Cbo.optimize gq Spec.graphscope p in
        let inter = H.run_phys graph (count_plan (Cbo.to_physical Spec.graphscope plan)) in
        let flat = H.run_phys graph (count_plan (Cbo.to_physical Spec.neo4j plan)) in
        [ name; H.fmt_time flat; H.fmt_time inter; H.fmt_speedup ~base:flat ~opt:inter ])
      Ldbc.scale_ladder
  in
  H.print_table
    ~title:
      "Ablation A4: ExpandInto (flatten) vs ExpandIntersect on the QC1a triangle, same join order"
    ~header:[ "scale"; "flatten (s)"; "intersect (s)"; "speedup" ]
    rows

let ablation_selectivity () =
  (* histogram-based selectivity (the paper's Remark 7.1 future work,
     implemented here) vs the constant 0.1 default: the estimators disagree
     most on weakly-selective range filters, which can flip the scan side *)
  let session = H.ldbc_session H.bench_persons in
  let graph = Gopt.Session.graph session in
  let glogue = Gopt.Session.glogue session in
  let with_hist = Gopt.Session.estimator session in
  let without_hist = Gq.create glogue in
  let queries =
    [
      ( "SEL1",
        "MATCH (m:Post)-[:HAS_CREATOR]->(p:Person) WHERE m.length > 50 RETURN count(*) AS c" );
      ( "SEL2",
        "MATCH (m:Comment)-[:REPLY_OF]->(po:Post) WHERE m.length < 15 RETURN count(*) AS c" );
      ( "SEL3",
        "MATCH (p:Person)-[:LIKES]->(m:Post)-[:HAS_TAG]->(t:Tag) WHERE m.length > 480 \
         RETURN count(*) AS c" );
    ]
  in
  let rows =
    List.map
      (fun (name, cypher) ->
        let gir = Gopt.cypher_to_gir session cypher in
        let run gq =
          let phys, _ = Planner.plan (Planner.default_config ()) gq gir in
          H.run_phys graph phys
        in
        let hist = run with_hist and const = run without_hist in
        ( name :: H.fmt_time const :: H.fmt_time hist
          :: [ H.fmt_speedup ~base:const ~opt:hist ] ))
      queries
  in
  H.print_table
    ~title:"Ablation A5: histogram selectivity vs constant default (0.1)"
    ~header:[ "query"; "constant (s)"; "histograms (s)"; "speedup" ]
    rows

(* ---------------------------------------------------------------- main -- *)

let experiments =
  [
    ("table1", table1);
    ("table3", table3);
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("fig8c", fig8c);
    ("fig8d", fig8d);
    ("fig8e", fig8e);
    ("fig9a", fig9a);
    ("fig9b", fig9b);
    ("fig10a", fig10a);
    ("fig10b", fig10b);
    ("fig11", fig11);
    ("ablation_cbo", ablation_cbo);
    ("ablation_typeinf", ablation_typeinf);
    ("ablation_intersect", ablation_intersect);
    ("ablation_selectivity", ablation_selectivity);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let selected = if args = [] then List.map fst experiments else args in
  (* every name is checked before any experiment runs *)
  (match List.filter (fun name -> not (List.mem_assoc name experiments)) selected with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown experiment%s %s; available: %s\n"
      (if List.length unknown > 1 then "s" else "")
      (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
      (String.concat ", " (List.map fst experiments));
    exit 2);
  Printf.printf "GOpt experiment harness — scale: %d persons, OT budget: %.0fs CPU per run\n%!"
    H.bench_persons H.bench_budget;
  List.iter
    (fun name ->
      let f = List.assoc name experiments in
      Printf.printf "\n%s\n%s\n%!" (String.make 72 '=') name;
      let t0 = Sys.time () in
      f ();
      Printf.printf "[%s done in %.1fs cpu]\n%!" name (Sys.time () -. t0))
    selected
