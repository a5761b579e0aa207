module G = Gopt_graph.Property_graph
module Glogue = Gopt_glogue.Glogue
module Gq = Gopt_glogue.Glogue_query
module Planner = Gopt_opt.Planner
module Physical = Gopt_opt.Physical
module Engine = Gopt_exec.Engine
module Batch = Gopt_exec.Batch
module Plan_cache = Gopt_cache.Plan_cache
module Fingerprint = Gopt_cache.Fingerprint

module Session = struct
  type t = {
    graph : G.t;
    glogue : Glogue.t;
    gq : Gq.t;
    gq_low : Gq.t;
    mutable epoch : int;
        (* Stats epoch: part of every plan fingerprint, so bumping it makes
           all cached plans unreachable even before invalidate_all drops
           them. *)
    cache : (Physical.t * Planner.report) Plan_cache.t;
  }

  let create ?(plan_cache_capacity = 128) graph =
    let glogue = Glogue.build graph in
    {
      graph;
      glogue;
      gq = Gq.create ~histograms:(Gopt_glogue.Histograms.build graph) glogue;
      gq_low = Gq.create ~mode:Gq.Low_order glogue;
      epoch = 0;
      cache = Plan_cache.create ~capacity:plan_cache_capacity ();
    }

  let graph t = t.graph
  let schema t = G.schema t.graph
  let glogue t = t.glogue
  let estimator t = t.gq
  let low_order_estimator t = t.gq_low
  let stats_epoch t = t.epoch

  let bump_stats_epoch t =
    t.epoch <- t.epoch + 1;
    ignore (Plan_cache.invalidate_all t.cache)

  let plan_cache_stats t = Plan_cache.stats t.cache
end

type outcome = {
  result : Batch.t;
  exec_stats : Engine.stats;
  report : Planner.report;
  physical : Physical.t;
}

let profile_for (config : Planner.config) =
  if config.Planner.spec.Gopt_opt.Physical_spec.comm_factor > 0.0 then
    Engine.graphscope_profile
  else Engine.neo4j_profile

let resolve_config = function Some c -> c | None -> Planner.default_config ()

let cypher_to_gir ?params (s : Session.t) src =
  let ast = Gopt_lang.Cypher_parser.parse ?params src in
  Gopt_lang.Lowering.cypher (Session.schema s) ast

let gremlin_to_gir (s : Session.t) src =
  Gopt_lang.Gremlin_parser.parse (Session.schema s) src

(* --- session plan cache ---------------------------------------------------- *)

(* Everything in Planner.config that can change the optimizer's output,
   signed as a string. Planner.config itself is never marshaled: the backend
   spec carries cost-model closures. Cbo.options and Schema.t are pure data. *)
let config_signature (c : Planner.config) =
  let flag b = if b then "1" else "0" in
  String.concat "|"
    [
      c.Planner.spec.Gopt_opt.Physical_spec.name;
      flag c.Planner.enable_rbo;
      String.concat "," (List.map (fun r -> r.Gopt_opt.Rule.name) c.Planner.rules);
      flag c.Planner.enable_field_trim;
      flag c.Planner.enable_type_inference;
      (match c.Planner.inference_schema with
      | None -> "-"
      | Some schema -> Digest.to_hex (Digest.string (Marshal.to_string schema [])));
      flag c.Planner.enable_cbo;
      Digest.to_hex (Digest.string (Marshal.to_string c.Planner.cbo_options []));
      flag c.Planner.check_plans;
    ]

let cache_note ~hit (s : Session.t) =
  let st = Plan_cache.stats s.Session.cache in
  {
    Planner.cache_hit = hit;
    cache_hits = st.Plan_cache.hits;
    cache_misses = st.Plan_cache.misses;
    cache_evictions = st.Plan_cache.evictions;
    cache_invalidations = st.Plan_cache.invalidations;
  }

(* Plan [ast] through the session cache: the fingerprint covers the AST, the
   planner configuration and the current stats epoch, so a hit is
   guaranteed to be the plan this configuration would produce right now.
   The cached report keeps the planning-time statistics; only the cache
   note is refreshed per serve. *)
let plan_cached ?config (s : Session.t) ast =
  let config = resolve_config config in
  let key =
    Fingerprint.digest ~config:(config_signature config) ~epoch:s.Session.epoch ast
  in
  let hit, (physical, report) =
    match Plan_cache.find s.Session.cache key with
    | Some entry -> (true, entry)
    | None ->
      let logical = Gopt_lang.Lowering.cypher (Session.schema s) ast in
      let entry = Planner.plan config s.Session.gq logical in
      Plan_cache.add s.Session.cache key entry;
      (false, entry)
  in
  (config, physical, { report with Planner.plan_cache = Some (cache_note ~hit s) })

let run_cypher ?params ?config ?budget ?chunk_size ?workers s src =
  (* without bindings nothing can bind a placeholder later: an unbound $x
     fails at parse time, as on the uncached path *)
  let ast =
    Gopt_lang.Cypher_parser.parse ?params ~defer_params:(Option.is_some params) src
  in
  let config, physical, report = plan_cached ?config s ast in
  (* an empty binding list still runs the pass: a plan that carries
     placeholders fails naming the missing $x, not in Eval *)
  let runnable =
    match params with
    | Some bindings -> Physical.bind_params bindings physical
    | None -> physical
  in
  let result, exec_stats =
    Engine.run ~profile:(profile_for config) ?budget ?chunk_size ?workers
      s.Session.graph runnable
  in
  { result; exec_stats; report; physical }

let run_gremlin ?config ?budget ?chunk_size ?workers s src =
  let config = resolve_config config in
  let physical, report = Planner.plan config s.Session.gq (gremlin_to_gir s src) in
  let result, exec_stats =
    Engine.run ~profile:(profile_for config) ?budget ?chunk_size ?workers
      s.Session.graph physical
  in
  { result; exec_stats; report; physical }

let plan_cypher ?params ?config ?(use_cache = false) s src =
  if not use_cache then
    Planner.plan (resolve_config config) s.Session.gq (cypher_to_gir ?params s src)
  else
    let ast = Gopt_lang.Cypher_parser.parse ?params ~defer_params:true src in
    let _, physical, report = plan_cached ?config s ast in
    (physical, report)

(* --- static checking (the --lint front door) ------------------------------- *)

module Diagnostic = Gopt_check.Diagnostic
module Plan_check = Gopt_check.Plan_check

let front_door_error = function
  | Gopt_lang.Cypher_parser.Parse_error m | Gopt_lang.Gremlin_parser.Parse_error m ->
    Some (Diagnostic.error ~path:"parse" m)
  | Gopt_lang.Lexer.Lex_error (m, pos) ->
    Some (Diagnostic.errorf ~path:"parse" "%s (at offset %d)" m pos)
  | Gopt_lang.Lowering.Lowering_error m -> Some (Diagnostic.error ~path:"lower" m)
  | _ -> None

let check_of_thunk to_gir s =
  match to_gir () with
  | gir -> Plan_check.check ~schema:(Session.schema s) gir
  | exception e -> (
    match front_door_error e with Some d -> [ d ] | None -> raise e)

let check_cypher ?params s src = check_of_thunk (fun () -> cypher_to_gir ?params s src) s

let check_gremlin s src = check_of_thunk (fun () -> gremlin_to_gir s src) s

let render_diagnostics = Diagnostic.render

let render_trace (o : outcome) =
  match o.exec_stats.Engine.op_trace with
  | Some tr -> Gopt_exec.Op_trace.to_string tr
  | None -> "(no per-operator trace recorded)"

let explain_logical ?config s logical =
  let physical, report = Planner.plan (resolve_config config) s.Session.gq logical in
  let schema = Session.schema s in
  Format.asprintf
    "@[<v>== logical (input) ==@,%a@,== logical (optimized) ==@,%a@,== rules applied ==@,%s@,== physical ==@,%a@]"
    (Gopt_gir.Plan_printer.pp ~schema)
    report.Planner.logical_input
    (Gopt_gir.Plan_printer.pp ~schema)
    report.Planner.logical_optimized
    (match report.Planner.rules_applied with
    | [] -> "(none)"
    | rules -> String.concat ", " rules)
    (Physical.pp ~schema) physical

let explain_cypher ?params ?config s src =
  explain_logical ?config s (cypher_to_gir ?params s src)
