(* The four workloads and their seeded request generator. The workload seed
   only decides the request order and parameter bindings; the program under
   test sees nothing but the generated requests. *)

module Value = Gopt_graph.Value
module G = Gopt_graph.Property_graph
module Schema = Gopt_graph.Schema
module Queries = Gopt_workloads.Queries

type lang = Cypher | Gremlin

type query = {
  name : string;
  lang : lang;
  text : string;
  params : (string * Templates.domain) list;
}

type request = {
  query : query;
  binding : (string * Value.t list) list;  (** One value per placeholder. *)
  bump_before : bool;
      (** Fire [Session.bump_stats_epoch] (untimed) before this request. *)
}

(* How a request reaches the system. *)
type path =
  | Execute of { workers : int option }  (** [Gopt.run_cypher] through the plan cache. *)
  | Compile  (** Plan only, no cache: [plan_cypher] or [gremlin_to_gir] + [Planner.plan]. *)

type t = {
  name : string;
  why : string;
  path : path;
  queries : query list;  (** The distinct queries the stream draws from. *)
  round : int;  (** Runs stop on a multiple of this many requests. *)
  stream : Value.t array array -> int -> unit -> request;
      (** [stream domains seed] yields the request sequence; [domains.(k)]
          holds the values of the [k]-th domain in {!domains}. *)
}

let persons = 1200
let graph_seed = 42
let workers () = min (Domain.recommended_domain_count ()) 4

let cypher (q : Queries.query) = { name = q.Queries.name; lang = Cypher; text = q.Queries.cypher; params = [] }

let of_template (t : Templates.t) =
  { name = t.Templates.name; lang = Cypher; text = t.Templates.text; params = t.Templates.params }

let heavy_names = [ "QR3"; "QR7"; "QR8"; "QC2a"; "QC2b"; "QC3a"; "QC3b"; "QC4a"; "QC4b" ]
let all_cypher = Queries.comprehensive @ Queries.qr @ Queries.qt @ Queries.qc

let heavy =
  List.map (fun n -> cypher (List.find (fun (q : Queries.query) -> q.Queries.name = n) all_cypher)) heavy_names

(* --- value domains ------------------------------------------------------- *)

(* Every domain a template draws from, in a fixed order. *)
let domains =
  List.sort_uniq compare
    (List.concat_map (fun (t : Templates.t) -> List.map snd t.Templates.params) Templates.serving)

let domain_index d =
  let rec go i = function
    | [] -> invalid_arg "Workload.domain_index"
    | x :: rest -> if x = d then i else go (i + 1) rest
  in
  go 0 domains

(* Distinct values of the domain's property in the graph, sorted. *)
let read_domain g (d : Templates.domain) =
  let schema = G.schema g in
  let values =
    List.concat_map
      (fun vt ->
        Array.to_list
          (Array.map
             (fun v -> G.vprop g v d.Templates.prop)
             (G.vertices_of_vtype g (Schema.vtype_id schema vt))))
      d.Templates.vtypes
  in
  Array.of_list (List.sort_uniq Value.compare values)

let read_domains g = Array.of_list (List.map (read_domain g) domains)

(* --- seeded choices ------------------------------------------------------ *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* How many of [round] requests go to each of [n] ranks under Zipf(s):
   largest-remainder rounding of the expected counts, so every round holds
   the same mix. *)
let zipf_quotas ~n ~s ~round =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let exact = Array.map (fun x -> float_of_int round *. x /. total) w in
  let q = Array.map (fun x -> int_of_float x) exact in
  let by_remainder = List.init n Fun.id in
  let by_remainder =
    List.stable_sort
      (fun i j -> Float.compare (exact.(j) -. float_of_int q.(j)) (exact.(i) -. float_of_int q.(i)))
      by_remainder
  in
  let missing = round - Array.fold_left ( + ) 0 q in
  List.iteri (fun k i -> if k < missing then q.(i) <- q.(i) + 1) by_remainder;
  q

(* Seeded shuffled rounds: each round issues every query once, in a fresh
   order. *)
let rounds queries _domains seed =
  let rng = Random.State.make [| seed |] in
  let qs = Array.of_list queries in
  let order = Array.copy qs and pos = ref (Array.length qs) in
  fun () ->
    if !pos = Array.length qs then begin
      shuffle rng order;
      pos := 0
    end;
    let q = order.(!pos) in
    incr pos;
    { query = q; binding = []; bump_before = false }

let serving_round = 256

(* Zipf(1)-skewed template choice over the queries' rank order, drawn as
   shuffled rounds of [serving_round] requests with fixed per-template
   quotas (the exponent is the classic Zipf law's, an assumption); uniform bindings
   from each placeholder's domain; a stats-epoch bump every 500..1500
   requests. *)
let zipf_stream queries domains seed =
  let rng = Random.State.make [| seed |] in
  let qs = Array.of_list queries in
  let quotas = zipf_quotas ~n:(Array.length qs) ~s:1.0 ~round:serving_round in
  let round =
    Array.concat (Array.to_list (Array.mapi (fun i k -> Array.make k qs.(i)) quotas))
  in
  let pos = ref (Array.length round) in
  let next_bump () = 500 + Random.State.int rng 1001 in
  let until_bump = ref (next_bump ()) in
  fun () ->
    if !pos = Array.length round then begin
      shuffle rng round;
      pos := 0
    end;
    let q = round.(!pos) in
    incr pos;
    let binding =
      List.map
        (fun (name, d) ->
          let values = domains.(domain_index d) in
          (name, [ values.(Random.State.int rng (Array.length values)) ]))
        q.params
    in
    decr until_bump;
    let bump_before = !until_bump = 0 in
    if bump_before then until_bump := next_bump ();
    { query = q; binding; bump_before }

(* --- the workloads ------------------------------------------------------- *)

let pattern_analytics =
  {
    name = "pattern-analytics";
    why = "the nine pattern-heavy queries, where execution time goes";
    path = Execute { workers = None };
    queries = heavy;
    round = List.length heavy;
    stream = rounds heavy;
  }

let serving_params =
  let queries = List.map of_template Templates.ranked in
  {
    name = "serving-params";
    why = "41 parameterized templates, Zipf-skewed, through the plan cache with epoch bumps";
    path = Execute { workers = None };
    queries;
    round = serving_round;
    stream = zipf_stream queries;
  }

let adhoc_compile =
  let gremlin =
    List.filter_map
      (fun (q : Queries.query) ->
        Option.map
          (fun text -> { name = q.Queries.name ^ "-gremlin"; lang = Gremlin; text; params = [] })
          q.Queries.gremlin)
      (Queries.qr @ Queries.qc)
  in
  let queries = List.map cypher all_cypher @ gremlin in
  {
    name = "adhoc-compile";
    why = "plan all 50 Cypher and 16 Gremlin texts without the cache; nothing executes";
    path = Compile;
    queries;
    round = List.length queries;
    stream = rounds queries;
  }

let parallel_scan_agg =
  let queries =
    List.map of_template Templates.parallel
    @ [ cypher (Queries.find Queries.bi "BI1"); cypher (Queries.find Queries.bi "BI12") ]
  in
  {
    name = "parallel-scan-agg";
    why = "scan/aggregate queries on the morsel-parallel engine";
    path = Execute { workers = Some (workers ()) };
    queries;
    round = List.length queries;
    stream = rounds queries;
  }

let all = [ pattern_analytics; serving_params; adhoc_compile; parallel_scan_agg ]
let find name = List.find_opt (fun w -> w.name = name) all

let binding_key (r : request) =
  r.query.name ^ "("
  ^ String.concat ", "
      (List.map
         (fun (n, vs) -> n ^ "=" ^ String.concat "," (List.map Value.to_string vs))
         r.binding)
  ^ ")"
