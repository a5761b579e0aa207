(* Seeded random Cypher generator over the Fixtures schema, for the
   differential tests in [test_parallel]. Every query this module emits is
   syntactically valid, schema-clean (labels, edge triples and properties
   all exist), and deterministic in the seed: equal seeds produce equal
   query strings.

   Shape: a connected linear MATCH pattern of 1–3 edges following the
   schema's triples in either direction (occasionally with a variable-length
   KNOWS segment), an optional WHERE over the bound variables, and a RETURN
   that is either a plain (optionally DISTINCT) projection or an implicit
   group-by with aggregates — optionally followed by ORDER BY / SKIP /
   LIMIT, and occasionally wrapped into a UNION of two compatible halves.

   [generate_joins] draws a second family on its own seeds: the same MATCH,
   followed by an OPTIONAL MATCH, a [WHERE (pattern)] or a
   [WHERE NOT (pattern)] hanging one edge off a bound variable, so that the
   plan holds a Left_outer, Semi or Anti hash join.

   [generate_pattern] draws a third family for the optimizer oracle:
   branching and cyclic patterns of 3–6 edges over a triple table (the
   Fixtures one, or a slice of the LDBC schema where HAS_TAG leaves both a
   Forum and a Post), with repeated and undirected edge types, closed
   triangles, an optional var-length KNOWS segment and mostly count-star
   returns.

   [generate_union] draws a fourth family for the optimizer oracle: two
   halves that repeat one 2–3 edge chain under different anchors (an edge
   to a filtered vertex, or a filter on a chain vertex), the shape
   ComSubPattern shares. *)

module Prng = Gopt_util.Prng
module Vec = Gopt_util.Vec

type vlabel = Person | City | Product

let vname = function Person -> "Person" | City -> "City" | Product -> "Product"

(* schema triples: (src label, edge type, dst label) *)
let triples =
  [|
    (Person, "KNOWS", Person);
    (Person, "LIVES_IN", City);
    (Product, "PRODUCED_IN", City);
    (Person, "PURCHASED", Product);
  |]

(* the triples incident to [label], with the far label and the direction *)
let incident label =
  Array.to_list triples
  |> List.concat_map (fun (s, e, d) ->
         (if s = label then [ (e, d, true) ] else [])
         @ if d = label then [ (e, s, false) ] else [])

(* properties per label, with the generators used to build comparison
   constants (Fixtures-style names: p0.., c0.., g0..) *)
let props = function
  | Person -> [| ("name", `Str 'p'); ("age", `Age) |]
  | City -> [| ("name", `Str 'c') |]
  | Product -> [| ("name", `Str 'g') |]

let const rng = function
  | `Str prefix -> Printf.sprintf "'%c%d'" prefix (Prng.int rng 8)
  | `Age -> string_of_int (Prng.int_in rng 18 60)

type node = { var : string; label : vlabel }

(* a connected chain v0 -e0- v1 -e1- ... rendered as one MATCH path *)
let gen_pattern rng =
  let n_edges = Prng.int_in rng 1 3 in
  let start = [| Person; City; Product |].(Prng.int rng 3) in
  let nodes = ref [ { var = "v0"; label = start } ] in
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Printf.sprintf "(v0:%s)" (vname start));
  for i = 1 to n_edges do
    let candidates = incident (List.hd !nodes).label in
    (* every label has at least one incident triple, so this is non-empty *)
    let e, next_label, forward = List.nth candidates (Prng.int rng (List.length candidates)) in
    let var = Printf.sprintf "v%d" i in
    let hops =
      if e = "KNOWS" && Prng.int rng 10 = 0 then
        Printf.sprintf "*1..%d" (Prng.int_in rng 1 2)
      else ""
    in
    Buffer.add_string buf
      (if forward then Printf.sprintf "-[:%s%s]->(%s:%s)" e hops var (vname next_label)
       else Printf.sprintf "<-[:%s%s]-(%s:%s)" e hops var (vname next_label));
    nodes := { var; label = next_label } :: !nodes
  done;
  (Buffer.contents buf, List.rev !nodes)

let gen_pred rng (nodes : node list) =
  let node = List.nth nodes (Prng.int rng (List.length nodes)) in
  let prop, kind = Prng.choice rng (props node.label) in
  let op =
    match kind with
    | `Age -> [| ">"; "<"; ">="; "<="; "="; "<>" |].(Prng.int rng 6)
    | `Str _ -> [| "="; "<>" |].(Prng.int rng 2)
  in
  Printf.sprintf "%s.%s %s %s" node.var prop op (const rng kind)

let gen_where rng nodes =
  match Prng.int rng 10 with
  | 0 | 1 | 2 | 3 -> ""
  | 4 | 5 | 6 -> Printf.sprintf " WHERE %s" (gen_pred rng nodes)
  | _ ->
    let conn = if Prng.bool rng then "AND" else "OR" in
    Printf.sprintf " WHERE %s %s %s" (gen_pred rng nodes) conn (gen_pred rng nodes)

(* a projection item: var.prop (vertex-valued items are deliberately left
   out so results render as scalars in every engine) *)
let gen_item rng nodes =
  let node = List.nth nodes (Prng.int rng (List.length nodes)) in
  let prop, _ = Prng.choice rng (props node.label) in
  Printf.sprintf "%s.%s" node.var prop

(* an aggregate item; [sortable = false] for list-valued aggregates, which
   must not appear under ORDER BY *)
let gen_agg rng nodes alias =
  match Prng.int rng 7 with
  | 0 -> (Printf.sprintf "count(*) AS %s" alias, true)
  | 1 -> (Printf.sprintf "count(DISTINCT %s) AS %s" (gen_item rng nodes) alias, true)
  | 2 ->
    let persons = List.filter (fun n -> n.label = Person) nodes in
    if persons = [] then (Printf.sprintf "count(*) AS %s" alias, true)
    else
      (* ages are ints, so partial-sum merge order cannot perturb the float
         result — keeps the oracle comparison exact *)
      ( Printf.sprintf "%s(%s.age) AS %s"
          [| "sum"; "avg" |].(Prng.int rng 2)
          (List.nth persons (Prng.int rng (List.length persons))).var alias,
        true )
  | 3 -> (Printf.sprintf "min(%s) AS %s" (gen_item rng nodes) alias, true)
  | 4 -> (Printf.sprintf "max(%s) AS %s" (gen_item rng nodes) alias, true)
  | 5 -> (Printf.sprintf "collect(%s) AS %s" (gen_item rng nodes) alias, false)
  | _ -> (Printf.sprintf "count(*) AS %s" alias, true)

(* RETURN clause; returns (clause body, output aliases usable in ORDER BY) *)
let gen_return rng nodes =
  if Prng.int rng 5 < 2 then begin
    (* implicit group-by: 0–1 keys plus 1–2 aggregates *)
    let keys =
      if Prng.bool rng then [ Printf.sprintf "%s AS k0" (gen_item rng nodes) ] else []
    in
    let n_aggs = Prng.int_in rng 1 2 in
    let aggs = List.init n_aggs (fun i -> gen_agg rng nodes (Printf.sprintf "a%d" i)) in
    let aliases =
      List.mapi (fun i _ -> Printf.sprintf "k%d" i) keys
      @ List.concat
          (List.mapi
             (fun i (_, sortable) -> if sortable then [ Printf.sprintf "a%d" i ] else [])
             aggs)
    in
    (String.concat ", " (keys @ List.map fst aggs), aliases)
  end
  else begin
    let n = Prng.int_in rng 1 3 in
    let items =
      List.init n (fun i -> Printf.sprintf "%s AS o%d" (gen_item rng nodes) i)
    in
    let distinct = if Prng.int rng 5 = 0 then "DISTINCT " else "" in
    (distinct ^ String.concat ", " items, List.init n (Printf.sprintf "o%d"))
  end

let gen_tail rng aliases =
  let order =
    if Prng.bool rng && aliases <> [] then begin
      let ks =
        Gopt_util.Prng.sample_distinct rng ~n:(List.length aliases)
          ~k:(Prng.int_in rng 1 2)
        |> List.map (fun i ->
               Printf.sprintf "%s %s" (List.nth aliases i)
                 (if Prng.bool rng then "ASC" else "DESC"))
      in
      Printf.sprintf " ORDER BY %s" (String.concat ", " ks)
    end
    else ""
  in
  let skip = if Prng.int rng 5 = 0 then Printf.sprintf " SKIP %d" (Prng.int rng 6) else "" in
  let limit =
    if Prng.int rng 5 < 2 then Printf.sprintf " LIMIT %d" (Prng.int_in rng 1 10) else ""
  in
  order ^ skip ^ limit

let gen_single rng =
  let pattern, nodes = gen_pattern rng in
  let where = gen_where rng nodes in
  let ret, aliases = gen_return rng nodes in
  let tail = gen_tail rng aliases in
  Printf.sprintf "MATCH %s%s RETURN %s%s" pattern where ret tail

(* a UNION-compatible half: single-label scan projecting one alias *)
let gen_union_half rng =
  let label = [| Person; City; Product |].(Prng.int rng 3) in
  let node = { var = "v0"; label } in
  let where = gen_where rng [ node ] in
  Printf.sprintf "MATCH (v0:%s)%s RETURN v0.name AS n" (vname label) where

let generate seed =
  let rng = Prng.create seed in
  if Prng.int rng 10 = 0 then
    let all = if Prng.bool rng then " ALL" else "" in
    Printf.sprintf "%s UNION%s %s" (gen_union_half rng) all (gen_union_half rng)
  else gen_single rng

(* one schema edge incident to [node], from [node] to a vertex named [var]
   (empty for an anonymous one) *)
let gen_hanging_edge rng (node : node) var =
  let candidates = incident node.label in
  let e, label, forward = List.nth candidates (Prng.int rng (List.length candidates)) in
  let other = Printf.sprintf "(%s:%s)" var (vname label) in
  ( (if forward then Printf.sprintf "(%s)-[:%s]->%s" node.var e other
     else Printf.sprintf "(%s)<-[:%s]-%s" node.var e other),
    { var; label } )

let generate_joins seed =
  let rng = Prng.create seed in
  let pattern, nodes = gen_pattern rng in
  let anchor = List.nth nodes (Prng.int rng (List.length nodes)) in
  let where = gen_where rng nodes in
  let clause, nodes =
    match Prng.int rng 3 with
    | 0 ->
      let edge, w = gen_hanging_edge rng anchor "w" in
      (Printf.sprintf "%s OPTIONAL MATCH %s" where edge, nodes @ [ w ])
    | k ->
      let edge, _ = gen_hanging_edge rng anchor "" in
      let pred = Printf.sprintf "%s%s" (if k = 1 then "" else "NOT ") edge in
      let clause =
        if where = "" then Printf.sprintf " WHERE %s" pred
        else Printf.sprintf "%s AND %s" where pred
      in
      (clause, nodes)
  in
  let ret, aliases = gen_return rng nodes in
  let tail = gen_tail rng aliases in
  Printf.sprintf "MATCH %s%s RETURN %s%s" pattern clause ret tail

(* --- optimizer-oracle patterns -------------------------------------------- *)

(* (src label, edge type, dst label) *)
let fixture_triples =
  [|
    ("Person", "KNOWS", "Person");
    ("Person", "LIVES_IN", "City");
    ("Product", "PRODUCED_IN", "City");
    ("Person", "PURCHASED", "Product");
  |]

let ldbc_triples =
  [|
    ("Person", "KNOWS", "Person");
    ("Person", "IS_LOCATED_IN", "City");
    ("Person", "LIKES", "Post");
    ("Post", "HAS_CREATOR", "Person");
    ("Forum", "HAS_MEMBER", "Person");
    ("Forum", "HAS_TAG", "Tag");
    ("Post", "HAS_TAG", "Tag");
  |]

(* a property every label of the table carries, for projections *)
let pattern_prop ~ldbc label =
  if ldbc then "id" else match label with "Person" -> "age" | _ -> "name"

let generate_pattern ~ldbc seed =
  let rng = Prng.create seed in
  let triples = if ldbc then ldbc_triples else fixture_triples in
  (* LDBC tags and forums are hubs: longer patterns over them outgrow the
     oracle *)
  let n_edges = Prng.int_in rng 3 (if ldbc then 4 else 6) in
  let labels = Vec.create () in
  let s0, _, _ = Prng.choice rng triples in
  Vec.push labels s0;
  let parts = ref [] and var_length = ref false in
  let mentioned = Hashtbl.create 8 in
  (* a vertex's label is written at its first mention only, and left out
     now and then so that type inference has something to narrow *)
  let vref i =
    let v = Printf.sprintf "v%d" i in
    if Hashtbl.mem mentioned i || Prng.int rng 6 = 0 then begin
      Hashtbl.replace mentioned i ();
      Printf.sprintf "(%s)" v
    end
    else begin
      Hashtbl.add mentioned i ();
      Printf.sprintf "(%s:%s)" v (Vec.get labels i)
    end
  in
  let degree = Vec.create () in
  Vec.push degree 0;
  let add_edge a b (_, et, _) forward =
    if b = Vec.length degree then Vec.push degree 0;
    Vec.set degree a (Vec.get degree a + 1);
    Vec.set degree b (Vec.get degree b + 1);
    let undirected = et = "KNOWS" && Prng.int rng 3 = 0 in
    let hops =
      if et = "KNOWS" && (not !var_length) && Prng.int rng 6 = 0 then begin
        var_length := true;
        "*1..2"
      end
      else ""
    in
    let ra = vref a and rb = vref b in
    parts :=
      (if undirected then Printf.sprintf "%s-[:%s%s]-%s" ra et hops rb
       else if forward then Printf.sprintf "%s-[:%s%s]->%s" ra et hops rb
       else Printf.sprintf "%s<-[:%s%s]-%s" ra et hops rb)
      :: !parts
  in
  (* the triples joining labels [la] and [lb], with the direction from a *)
  let between la lb =
    Array.to_list triples
    |> List.concat_map (fun ((s, _, d) as t) ->
           (if s = la && d = lb then [ (t, true) ] else [])
           @ if d = la && s = lb && s <> d then [ (t, false) ] else [])
  in
  for _ = 1 to n_edges do
    let n = Vec.length labels in
    (* close a cycle between two bound vertices when the schema allows,
       else grow a new vertex off a bound one *)
    let closing =
      if n >= 3 && Prng.int rng 3 = 0 then
        let a = Prng.int rng n and b = Prng.int rng n in
        if a = b then None
        else
          match between (Vec.get labels a) (Vec.get labels b) with
          | [] -> None
          | cs -> Some (a, b, List.nth cs (Prng.int rng (List.length cs)))
      else None
    in
    match closing with
    | Some (a, b, (t, fwd)) -> add_edge a b t fwd
    | None ->
      (* mostly a chain, sometimes a branch off a vertex of degree below
         3: a hub with more branches multiplies its matches past what the
         oracle can enumerate *)
      let a =
        let b = Prng.int rng n in
        if Vec.get degree b < 3 && Prng.int rng 3 = 0 then b else n - 1
      in
      let la = Vec.get labels a in
      let cs =
        Array.to_list triples
        |> List.concat_map (fun ((s, _, d) as t) ->
               (if s = la then [ (t, d, true) ] else [])
               @ if d = la then [ (t, s, false) ] else [])
      in
      let t, lb, fwd = List.nth cs (Prng.int rng (List.length cs)) in
      Vec.push labels lb;
      add_edge a n t fwd
  done;
  let n = Vec.length labels in
  let item i = Printf.sprintf "v%d.%s" i (pattern_prop ~ldbc (Vec.get labels i)) in
  let ret =
    match Prng.int rng 6 with
    | 0 | 1 | 2 -> "count(*) AS c"
    | 3 -> Printf.sprintf "%s AS k, count(*) AS c" (item (Prng.int rng n))
    | 4 -> Printf.sprintf "%s AS k, collect(%s) AS l" (item (Prng.int rng n)) (item (Prng.int rng n))
    | _ -> Printf.sprintf "DISTINCT %s AS a, %s AS b" (item (Prng.int rng n)) (item (Prng.int rng n))
  in
  Printf.sprintf "MATCH %s RETURN %s" (String.concat ", " (List.rev !parts)) ret

(* --- shared-chain unions ---------------------------------------------------- *)

(* A 2–3 edge chain v0 - v1 - ..., written out in full in each half, or
   now and then a KNOWS triangle: a shared part that costs far more to
   match than its rows cost to re-read *)
let gen_chain rng =
  if Prng.int rng 5 = 0 then
    ( "(v0:Person)-[:KNOWS]->(v1:Person)-[:KNOWS]->(v2:Person), (v0)-[:KNOWS]->(v2)",
      List.init 3 (fun i -> { var = Printf.sprintf "v%d" i; label = Person }) )
  else
  let n_edges = Prng.int_in rng 2 3 in
  let start = [| Person; Person; City; Product |].(Prng.int rng 4) in
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Printf.sprintf "(v0:%s)" (vname start));
  let nodes = ref [ { var = "v0"; label = start } ] in
  for i = 1 to n_edges do
    let e, label, forward = Prng.choice rng (Array.of_list (incident (List.hd !nodes).label)) in
    let var = Printf.sprintf "v%d" i in
    Buffer.add_string buf
      (if e = "KNOWS" && Prng.int rng 4 = 0 then Printf.sprintf "-[:KNOWS]-(%s:Person)" var
       else if forward then Printf.sprintf "-[:%s]->(%s:%s)" e var (vname label)
       else Printf.sprintf "<-[:%s]-(%s:%s)" e var (vname label));
    nodes := { var; label } :: !nodes
  done;
  (Buffer.contents buf, List.rev !nodes)

(* A half's anchor: an edge from a chain vertex to a vertex [w] that is
   unfiltered or filtered inline or in WHERE, or else a filter on a chain
   vertex. Returns the extra MATCH text and the WHERE clause. *)
let gen_anchor rng chain =
  let node = Prng.choice rng (Array.of_list chain) in
  if Prng.int rng 4 = 0 then ("", " WHERE " ^ gen_pred rng [ node ])
  else begin
    let e, label, forward = Prng.choice rng (Array.of_list (incident node.label)) in
    let w = { var = "w"; label } in
    let inline = Prng.bool rng in
    let bare = Prng.int rng 3 = 0 in
    let wtext =
      if inline && not bare then
        Printf.sprintf "(w:%s {name: %s})" (vname label) (const rng (snd (props label).(0)))
      else Printf.sprintf "(w:%s)" (vname label)
    in
    ( (if forward then Printf.sprintf ", (%s)-[:%s]->%s" node.var e wtext
       else Printf.sprintf ", (%s)<-[:%s]-%s" node.var e wtext),
      if bare || inline then "" else " WHERE " ^ gen_pred rng [ w ] )
  end

let generate_union seed =
  let rng = Prng.create seed in
  let chain, nodes = gen_chain rng in
  let ret = Printf.sprintf "%s AS a, %s AS b" (gen_item rng nodes) (gen_item rng nodes) in
  let half () =
    let edge, where = gen_anchor rng nodes in
    Printf.sprintf "MATCH %s%s%s RETURN %s" chain edge where ret
  in
  let first = half () in
  let all = if Prng.int rng 3 = 0 then " ALL" else "" in
  Printf.sprintf "%s UNION%s %s" first all (half ())
