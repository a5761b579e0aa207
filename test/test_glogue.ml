module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint
module Mc = Gopt_glogue.Motif_counter
module Glogue = Gopt_glogue.Glogue
module Gq = Gopt_glogue.Glogue_query
module Prng = Gopt_util.Prng
open Fixtures

let glogue = Glogue.build graph
let gq = Gq.create glogue

let check_f = Alcotest.(check (float 1e-6))

let test_hom_counts () =
  check_f "knows edges" 5.0 (Mc.count_homomorphisms graph p_knows);
  check_f "triangle" 1.0 (Mc.count_homomorphisms graph p_triangle);
  check_f "to city" 6.0 (Mc.count_homomorphisms graph p_to_city);
  (* out-fork via KNOWS: sum of squared out-degrees = 4+1+1+1 *)
  let fork =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person); pv "c" (Tc.Basic person) |]
      [| pe "e1" 0 1 (Tc.Basic knows); pe "e2" 0 2 (Tc.Basic knows) |]
  in
  check_f "fork" 7.0 (Mc.count_homomorphisms graph fork);
  (* path a->b->c via KNOWS: sum over b of in*out = p1:1*1 + p2:2*1 + p3:1*1 + p0:1*2 *)
  let path =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person); pv "c" (Tc.Basic person) |]
      [| pe "e1" 0 1 (Tc.Basic knows); pe "e2" 1 2 (Tc.Basic knows) |]
  in
  check_f "path" 6.0 (Mc.count_homomorphisms graph path)

let test_hom_undirected () =
  let p =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person) |]
      [| pe ~directed:false "e" 0 1 (Tc.Basic knows) |]
  in
  (* each directed KNOWS edge matches twice (once per orientation of the
     binding), so 2 * 5 *)
  check_f "undirected knows" 10.0 (Mc.count_homomorphisms graph p)

let test_glogue_lookup () =
  check_f "person count" 4.0 (Glogue.vertex_freq glogue person);
  check_f "knows triple" 5.0 (Glogue.triple_freq glogue ~src:person ~etype:knows ~dst:person);
  (match Glogue.find glogue p_knows with
  | Some f -> check_f "stored single edge" 5.0 f
  | None -> Alcotest.fail "single edge motif missing");
  match Glogue.find glogue p_triangle with
  | Some f -> check_f "stored triangle" 1.0 f
  | None -> Alcotest.fail "triangle motif missing"

(* All stored <=3-vertex motifs agree with the brute-force counter. *)
let test_glogue_matches_brute_force () =
  (* sample: check the wedge motifs from the schema around Person *)
  let combos =
    [
      (pe "e1" 0 1 (Tc.Basic knows), pe "e2" 0 2 (Tc.Basic knows), person, person, person);
      (pe "e1" 0 1 (Tc.Basic knows), pe "e2" 2 0 (Tc.Basic knows), person, person, person);
      (pe "e1" 1 0 (Tc.Basic knows), pe "e2" 2 0 (Tc.Basic knows), person, person, person);
      (pe "e1" 0 1 (Tc.Basic lives_in), pe "e2" 0 2 (Tc.Basic knows), person, city, person);
      (pe "e1" 1 0 (Tc.Basic lives_in), pe "e2" 2 0 (Tc.Basic produced_in), city, person, product);
    ]
  in
  List.iter
    (fun (e1, e2, t0, t1, t2) ->
      let p =
        Pattern.create [| pv "x" (Tc.Basic t0); pv "y" (Tc.Basic t1); pv "z" (Tc.Basic t2) |] [| e1; e2 |]
      in
      let brute = Mc.count_homomorphisms graph p in
      match Glogue.find glogue p with
      | Some f -> check_f (Pattern.to_string p) brute f
      | None -> Alcotest.failf "motif missing: %s" (Pattern.to_string p))
    combos

let test_query_exact_on_stored () =
  check_f "single vertex" 4.0 (Gq.get_freq gq (Pattern.single_vertex p_knows 0));
  check_f "single edge" 5.0 (Gq.get_freq gq p_knows);
  check_f "triangle exact" 1.0 (Gq.get_freq gq p_triangle)

let test_query_union_edge () =
  (* (a:ANY)-[:ANY]->(b:City) = LIVES_IN + PRODUCED_IN = 6, exact via triple sums *)
  check_f "union edge" 6.0 (Gq.get_freq gq p_to_city)

let test_query_estimation_square () =
  (* square (4-cycle) of KNOWS: estimated, must be positive and finite *)
  let square =
    Pattern.create
      (Array.init 4 (fun i -> pv (Printf.sprintf "v%d" i) (Tc.Basic person)))
      [|
        pe "e1" 0 1 (Tc.Basic knows);
        pe "e2" 1 2 (Tc.Basic knows);
        pe "e3" 2 3 (Tc.Basic knows);
        pe "e4" 3 0 (Tc.Basic knows);
      |]
  in
  let est = Gq.get_freq gq square in
  Alcotest.(check bool) "positive" true (est > 0.0);
  Alcotest.(check bool) "finite" true (Float.is_finite est)

let test_query_selectivity () =
  let pred = Gopt_pattern.Expr.(Binop (Eq, Prop ("a", "name"), Const (Gopt_graph.Value.Str "p0"))) in
  let p =
    Pattern.create
      [| pv ~pred "a" (Tc.Basic person); pv "b" (Tc.Basic person) |]
      [| pe "k" 0 1 (Tc.Basic knows) |]
  in
  check_f "selectivity applied" 0.5 (Gq.get_freq gq p)

let test_low_order_differs () =
  let lo = Gq.create ~mode:Gq.Low_order glogue in
  (* triangle: high-order exact = 1; low-order decomposes to wedge*sigma *)
  let hi_est = Gq.get_freq gq p_triangle in
  let lo_est = Gq.get_freq lo p_triangle in
  check_f "high exact" 1.0 hi_est;
  Alcotest.(check bool) "low order is an estimate" true (Float.abs (lo_est -. 1.0) > 1e-9)

let test_disconnected_product () =
  let p =
    Pattern.create [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic city) |] [||]
  in
  check_f "cartesian" 8.0 (Gq.get_freq gq p)

let test_var_length_freq () =
  let p =
    Pattern.create
      [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person) |]
      [| pe ~hops:(2, 2) "e" 0 1 (Tc.Basic knows) |]
  in
  (* 2-hop walk estimate: 4 persons * (5/4)^2 = 6.25 *)
  check_f "2-hop estimate" 6.25 (Gq.get_freq gq p)

(* 4-vertex path: (a:Person)-KNOWS->(b:Person)-KNOWS->(c:Person)-LIVES_IN->(d:City) *)
let path4 =
  Pattern.create
    [|
      pv "a" (Tc.Basic person); pv "b" (Tc.Basic person); pv "c" (Tc.Basic person);
      pv "d" (Tc.Basic city);
    |]
    [|
      pe "e1" 0 1 (Tc.Basic knows); pe "e2" 1 2 (Tc.Basic knows);
      pe "e3" 2 3 (Tc.Basic lives_in);
    |]

(* 4-cycle of KNOWS: v0->v1->v2->v3 and v0->v3 *)
let square =
  Pattern.create
    (Array.init 4 (fun i -> pv (Printf.sprintf "v%d" i) (Tc.Basic person)))
    [|
      pe "e1" 0 1 (Tc.Basic knows); pe "e2" 1 2 (Tc.Basic knows);
      pe "e3" 2 3 (Tc.Basic knows); pe "e4" 0 3 (Tc.Basic knows);
    |]

(* Eq. 2 worked example (the paper's Fig. 6 analog, on the fixture graph):
   estimating a pattern one edge beyond GLogue's stored motifs composes the
   exact 3-vertex prefix with expand ratios. *)
let test_eq2_worked_example () =
  (* Eq. 2 peels the first minimum-degree vertex, [a]: est = F(path
     b->c->d, exact = 5) * sigma(e1). The rate of e1 is conditioned on the
     edge b already has, e2: F(path a->b->c, exact = 6) / F(KNOWS) = 6/5.
     That gives the exact count, 6. *)
  check_f "path4 estimate" (5.0 *. (6.0 /. 5.0)) (Gq.get_freq gq path4);
  check_f "path4 count" 6.0 (Mc.count_homomorphisms graph path4);
  (* peeling v0: base = path v1->v2->v3 (exact 6). e1 introduces v0 from
     v1, conditioned on e2: F(v0->v1->v2) / F(KNOWS) = 6/5. e4 closes onto
     v3; its rate is conditioned on e3, F(v2->v3<-v0 in-fork, exact 7) /
     F(KNOWS) = 7/5, and spread over F(Person) = 4 *)
  check_f "square estimate" (6.0 *. (6.0 /. 5.0) *. (7.0 /. 5.0 /. 4.0)) (Gq.get_freq gq square)

(* The paper's plain Eq. 2, kept by [Low_order] (the Fig. 8(d) baseline):
   store lookups stop at single edges and every rate is F(e)/F(u). *)
let test_eq2_low_order () =
  let lo = Gq.create ~mode:Gq.Low_order glogue in
  (* the prefix b->c->d is itself estimated: F(LIVES_IN) = 4 times
     F(KNOWS)/F(Person) = 5/4 gives 5, then sigma(e1) = 5/4 *)
  check_f "path4 estimate" (5.0 *. (5.0 /. 4.0)) (Gq.get_freq lo path4);
  (* base = path v1->v2->v3 estimated as 5 * 5/4; e1 introduces v0
     (5/4), e4 closes onto v3 (F(KNOWS) / (F(Person) * F(Person)) = 5/16) *)
  check_f "square estimate"
    (5.0 *. (5.0 /. 4.0) *. (5.0 /. 4.0) *. (5.0 /. 16.0))
    (Gq.get_freq lo square)

(* A pattern of 3 vertices that the store cannot answer is estimated with
   Eq. 2. Its wedges are the pattern itself, so it keeps the flat rate; a
   conditioned rate would recurse into the pattern being estimated. All-typed
   elements, and unions above [max_union_combos] (2048 type assignments),
   are such patterns on the LDBC schema. *)
let test_unanswerable_wedges_terminate () =
  let ldbc = Gopt_workloads.Ldbc.generate ~persons:20 () in
  let sch = Gopt_graph.Property_graph.schema ldbc in
  let glogue = Glogue.build ldbc in
  let hi = Gq.create glogue and lo = Gq.create ~mode:Gq.Low_order glogue in
  let union universe of_name names = Option.get (Tc.of_list ~universe (List.map of_name names)) in
  let vunion =
    union (Gopt_graph.Schema.n_vtypes sch) (Gopt_graph.Schema.vtype_id sch)
      [ "Person"; "Post"; "Comment"; "Forum"; "Tag" ]
  and eunion =
    union (Gopt_graph.Schema.n_etypes sch) (Gopt_graph.Schema.etype_id sch)
      [ "KNOWS"; "HAS_CREATOR"; "HAS_MEMBER"; "HAS_TAG"; "LIKES" ]
  in
  let path n vcon econ =
    Pattern.create
      (Array.init n (fun i -> pv (Printf.sprintf "v%d" i) vcon))
      (Array.init (n - 1) (fun i -> pe (Printf.sprintf "e%d" i) i (i + 1) econ))
  in
  List.iter
    (fun (name, vcon, econ) ->
      List.iter
        (fun n ->
          let p = path n vcon econ in
          let t0 = Sys.time () in
          (* a runaway recursion overflows an 8 MB stack at once instead
             of growing the default 1 GB one for minutes *)
          let est =
            let saved = Gc.get () in
            Gc.set { saved with Gc.stack_limit = 1 lsl 20 };
            Fun.protect ~finally:(fun () -> Gc.set saved) (fun () -> Gq.get_freq hi p)
          in
          let label = Printf.sprintf "%s %d-vertex path" name n in
          Alcotest.(check bool) (label ^ " positive and finite") true
            (est > 0.0 && Float.is_finite est);
          Alcotest.(check bool) (label ^ " at once") true (Sys.time () -. t0 < 5.0);
          if n = 3 then check_f (label ^ " keeps the flat rate") (Gq.get_freq lo p) est)
        [ 3; 4 ])
    [ ("all-typed", Tc.All, Tc.All); ("union", vunion, eunion) ]

(* On the LDBC generator, KNOWS in-degree, HAS_MEMBER and HAS_CREATOR follow
   one Zipf person rank. At 115 persons the flat rate puts QC4a's and QC4b's
   whole pattern 16-20x below its count; conditioned rates keep every node
   of their CBO plans within 10x of the homomorphism count. *)
let test_qc4_plan_q_error () =
  let module Cbo = Gopt_opt.Cbo in
  let module Queries = Gopt_workloads.Queries in
  let session = Gopt.Session.create (Gopt_workloads.Ldbc.generate ~persons:115 ()) in
  let g = Gopt.Session.graph session in
  let rec nodes (plan : Cbo.plan) =
    plan
    :: (match plan.Cbo.op with
       | Cbo.Scan -> []
       | Cbo.Expand { sub; _ } -> nodes sub
       | Cbo.Join { left; right; _ } -> nodes left @ nodes right)
  in
  List.iter
    (fun name ->
      let q = Queries.find Queries.qc name in
      let p = Queries.pattern_of_cypher (Gopt.Session.schema session) q.Queries.cypher in
      let plan, _ =
        Cbo.optimize (Gopt.Session.estimator session) Gopt_opt.Physical_spec.graphscope p
      in
      List.iter
        (fun (n : Cbo.plan) ->
          let act = Float.max 1.0 (Mc.count_homomorphisms g n.Cbo.pattern) in
          let est = Float.max 1.0 n.Cbo.freq in
          let q = Float.max (est /. act) (act /. est) in
          if q > 10.0 then
            Alcotest.failf "%s: %s estimated %.0f, counted %.0f (q=%.1f)" name
              (Pattern.to_string n.Cbo.pattern) est act q)
        (nodes plan))
    [ "QC4a"; "QC4b" ]

(* property: estimator is exact on every motif that the store contains *)
let prop_estimator_exact_on_motifs =
  QCheck.Test.make ~name:"estimator exact on stored basic motifs" ~count:60 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let triples = Gopt_graph.Schema.triples schema in
      let s, e, d = triples.(Prng.int rng (Array.length triples)) in
      let p =
        Pattern.create
          [| pv "a" (Tc.Basic s); pv "b" (Tc.Basic d) |]
          [| pe "e" 0 1 (Tc.Basic e) |]
      in
      let brute = Mc.count_homomorphisms graph p in
      Float.abs (Gq.get_freq gq p -. brute) < 1e-6)

let () =
  Alcotest.run "glogue"
    [
      ( "motif_counter",
        [
          Alcotest.test_case "hom counts" `Quick test_hom_counts;
          Alcotest.test_case "undirected" `Quick test_hom_undirected;
        ] );
      ( "store",
        [
          Alcotest.test_case "lookups" `Quick test_glogue_lookup;
          Alcotest.test_case "matches brute force" `Quick test_glogue_matches_brute_force;
        ] );
      ( "query",
        [
          Alcotest.test_case "exact on stored" `Quick test_query_exact_on_stored;
          Alcotest.test_case "union edge" `Quick test_query_union_edge;
          Alcotest.test_case "square estimation" `Quick test_query_estimation_square;
          Alcotest.test_case "selectivity" `Quick test_query_selectivity;
          Alcotest.test_case "low vs high order" `Quick test_low_order_differs;
          Alcotest.test_case "disconnected product" `Quick test_disconnected_product;
          Alcotest.test_case "var length" `Quick test_var_length_freq;
          Alcotest.test_case "eq2 worked example (fig 6 analog)" `Quick test_eq2_worked_example;
          Alcotest.test_case "eq2 low order (paper's plain rates)" `Quick test_eq2_low_order;
          Alcotest.test_case "unanswerable wedges terminate" `Quick
            test_unanswerable_wedges_terminate;
          Alcotest.test_case "QC4a/QC4b plan q-error within 10x" `Quick test_qc4_plan_q_error;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_estimator_exact_on_motifs ]);
    ]
