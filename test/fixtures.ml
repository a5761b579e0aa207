(* Shared tiny fixtures for unit tests: a miniature social-network schema and
   a hand-built graph with counts small enough to verify by hand. *)

module Schema = Gopt_graph.Schema
module G = Gopt_graph.Property_graph
module Value = Gopt_graph.Value

let schema =
  Schema.create
    ~vtypes:
      [
        ("Person", [ ("name", Schema.P_string); ("age", Schema.P_int) ]);
        ("City", [ ("name", Schema.P_string) ]);
        ("Product", [ ("name", Schema.P_string) ]);
      ]
    ~etypes:
      [
        ("KNOWS", [ ("since", Schema.P_int) ]);
        ("LIVES_IN", []);
        ("PRODUCED_IN", []);
        ("PURCHASED", []);
      ]
    ~triples:
      [
        ("Person", "KNOWS", "Person");
        ("Person", "LIVES_IN", "City");
        ("Product", "PRODUCED_IN", "City");
        ("Person", "PURCHASED", "Product");
      ]

let person = Schema.vtype_id schema "Person"
let city = Schema.vtype_id schema "City"
let product = Schema.vtype_id schema "Product"
let knows = Schema.etype_id schema "KNOWS"
let lives_in = Schema.etype_id schema "LIVES_IN"
let produced_in = Schema.etype_id schema "PRODUCED_IN"
let purchased = Schema.etype_id schema "PURCHASED"

(* Graph:
     persons p0..p3, cities c0..c1, products g0..g1
     KNOWS: p0->p1, p0->p2, p1->p2, p2->p3, p3->p0
     LIVES_IN: p0->c0, p1->c0, p2->c1, p3->c1
     PRODUCED_IN: g0->c0, g1->c1
     PURCHASED: p0->g0, p1->g0, p2->g1 *)
let graph =
  let b = G.Builder.create schema in
  let p = Array.init 4 (fun i ->
      G.Builder.add_vertex b ~vtype:person
        [ ("name", Value.Str (Printf.sprintf "p%d" i)); ("age", Value.Int (20 + i)) ])
  in
  let c = Array.init 2 (fun i ->
      G.Builder.add_vertex b ~vtype:city [ ("name", Value.Str (Printf.sprintf "c%d" i)) ])
  in
  let g = Array.init 2 (fun i ->
      G.Builder.add_vertex b ~vtype:product [ ("name", Value.Str (Printf.sprintf "g%d" i)) ])
  in
  let e s d t = ignore (G.Builder.add_edge b ~src:s ~dst:d ~etype:t []) in
  e p.(0) p.(1) knows;
  e p.(0) p.(2) knows;
  e p.(1) p.(2) knows;
  e p.(2) p.(3) knows;
  e p.(3) p.(0) knows;
  e p.(0) c.(0) lives_in;
  e p.(1) c.(0) lives_in;
  e p.(2) c.(1) lives_in;
  e p.(3) c.(1) lives_in;
  e g.(0) c.(0) produced_in;
  e g.(1) c.(1) produced_in;
  e p.(0) g.(0) purchased;
  e p.(1) g.(0) purchased;
  e p.(2) g.(1) purchased;
  G.Builder.freeze b

(* Pattern helpers *)
module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint

let pv ?pred alias con = Pattern.mk_vertex ?pred ~alias con

let pe ?directed ?hops alias src dst con = Pattern.mk_edge ?directed ?hops ~alias ~src ~dst con

(* (a:Person)-[k:KNOWS]->(b:Person) *)
let p_knows =
  Pattern.create
    [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person) |]
    [| pe "k" 0 1 (Tc.Basic knows) |]

(* triangle a-KNOWS->b-KNOWS->c, a-KNOWS->c *)
let p_triangle =
  Pattern.create
    [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic person); pv "c" (Tc.Basic person) |]
    [| pe "e1" 0 1 (Tc.Basic knows); pe "e2" 1 2 (Tc.Basic knows); pe "e3" 0 2 (Tc.Basic knows) |]

(* (a:ANY)-[:ANY]->(b:City) *)
let p_to_city =
  Pattern.create
    [| pv "a" Tc.All; pv "b" (Tc.Basic city) |]
    [| pe "e" 0 1 Tc.All |]

(* Does the plan cut its row set at a boundary where ties may sit
   (LIMIT/SKIP, or ORDER BY with a fused top-k)? Any engine, chunk size or
   worker count may legitimately keep a different subset of tied rows, so
   differential tests fall back to cardinality comparison for such plans. *)
let rec plan_has_tie_cut (p : Gopt_opt.Physical.t) =
  let module P = Gopt_opt.Physical in
  match p with
  | P.Limit _ | P.Skip _ | P.Order (_, _, Some _) -> true
  | _ -> List.exists plan_has_tie_cut (P.children p)

(* --- optimizer oracle ------------------------------------------------------ *)

(* The planner without the passes that read narrowed types or trim fields:
   edge distinctness stays one check over every edge, above the pattern. *)
let unnarrowed_config =
  {
    (Gopt_opt.Planner.default_config ()) with
    Gopt_opt.Planner.enable_type_inference = false;
    enable_field_trim = false;
  }

(* Every optimizer stage off: the query's patterns in user order, the
   reference a plan's result is checked against. *)
let naive_config =
  {
    (Gopt_opt.Planner.default_config ()) with
    Gopt_opt.Planner.enable_rbo = false;
    enable_field_trim = false;
    enable_type_inference = false;
    enable_cbo = false;
  }

(* A result as a sorted bag of rows, COLLECT lists sorted too: Cypher leaves
   their element order unspecified. *)
let bag b =
  let module Rval = Gopt_exec.Rval in
  let rec canon = function
    | Rval.Rlist l -> Rval.Rlist (List.sort Rval.compare (List.map canon l))
    | v -> v
  in
  let rows = ref [] in
  Gopt_exec.Batch.iter (fun row -> rows := List.map canon (Array.to_list row) :: !rows) b;
  List.sort (List.compare Rval.compare) !rows

(* Run [q] through the materialized engine planned by default and planned
   with [unnarrowed_config]; [None] when both give the same bag, else what
   differs. *)
let optimizer_oracle session q =
  let run config =
    let phys, _ = Gopt.plan_cypher ?config session q in
    fst (Gopt_exec.Engine.run_materialized (Gopt.Session.graph session) phys)
  in
  let got = run None and want = run (Some unnarrowed_config) in
  if List.equal (List.equal Gopt_exec.Rval.equal) (bag got) (bag want) then None
  else
    Some
      (Printf.sprintf "default plan: %d rows, unnarrowed plan: %d rows"
         (Gopt_exec.Batch.n_rows got) (Gopt_exec.Batch.n_rows want))
