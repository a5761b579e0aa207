(* gopt — run Cypher/Gremlin queries against generated graphs from the
   command line.

   Examples:
     dune exec bin/gopt_cli.exe -- --stats
     dune exec bin/gopt_cli.exe -- "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN count(*) AS c"
     dune exec bin/gopt_cli.exe -- --lang gremlin "g.V().hasLabel('Person').out('KNOWS').count()"
     dune exec bin/gopt_cli.exe -- --planner cypher --explain "MATCH ... RETURN ..."
     dune exec bin/gopt_cli.exe -- --workload IC5 *)

open Cmdliner

module Diag = Gopt_check.Diagnostic

let to_gir session lang src =
  match lang with
  | `Gremlin -> Gopt.gremlin_to_gir session src
  | `Cypher -> Gopt.cypher_to_gir session src

(* A query the frontend rejects (parse, lexer or lowering error) is one
   ["error: path: message"] line, as --lint reports it, and exit code 1. *)
let front_door f =
  try f ()
  with e -> (
    match Gopt.front_door_error e with
    | Some d ->
      prerr_endline (Gopt.render_diagnostics [ d ]);
      1
    | None -> raise e)

(* Static analysis of one query: frontend checks (parse/lower/Plan_check),
   then — when the frontend is clean — the full checked planning pipeline
   (every rule firing verified, every stage re-checked). *)
let lint_query session config lang src =
  let front =
    match lang with
    | `Gremlin -> Gopt.check_gremlin session src
    | `Cypher -> Gopt.check_cypher session src
  in
  let staged =
    if not (Diag.is_clean front) then []
    else begin
      let config = { config with Gopt_opt.Planner.check_plans = true } in
      match
        Gopt_opt.Planner.plan config (Gopt.Session.estimator session)
          (to_gir session lang src)
      with
      | _, report ->
        List.concat_map
          (fun (stage, ds) ->
            (* the "logical" stage re-checks the same GIR the frontend just
               reported on — skip the duplicate *)
            if stage = "logical" then []
            else List.map (fun d -> Diag.{ d with path = stage ^ "/" ^ d.path }) ds)
          report.Gopt_opt.Planner.diagnostics
      | exception Gopt_opt.Rule.Check_failed { rule; diag } ->
        [
          Diag.errorf ~path:("rbo/" ^ diag.Diag.path)
            "rule %S broke a plan invariant: %s" rule diag.Diag.message;
        ]
      | exception Invalid_argument m -> [ Diag.error ~path:"plan" m ]
    end
  in
  front @ staged

let workload_queries =
  Gopt_workloads.Queries.comprehensive @ Gopt_workloads.Queries.qr
  @ Gopt_workloads.Queries.qt @ Gopt_workloads.Queries.qc @ Gopt_workloads.Queries.vs

(* An unknown --workload name is a usage error: name the known queries and
   exit non-zero. *)
let known_workload = function
  | None -> true
  | Some name ->
    let names = List.map (fun q -> q.Gopt_workloads.Queries.name) workload_queries in
    let known = List.mem name names in
    if not known then
      Printf.eprintf "unknown workload %s; known: %s\n" name (String.concat ", " names);
    known

let run_lint session config lang workload query =
  let targets =
    match (workload, query) with
    | Some name, _ ->
      let q = Gopt_workloads.Queries.find workload_queries name in
      [ (q.Gopt_workloads.Queries.name, q.Gopt_workloads.Queries.cypher) ]
    | None, Some q -> [ ("query", q) ]
    | None, None ->
      List.map
        (fun q -> (q.Gopt_workloads.Queries.name, q.Gopt_workloads.Queries.cypher))
        workload_queries
  in
  let n_errors = ref 0 in
  List.iter
    (fun (name, src) ->
      let diags = lint_query session config lang src in
      n_errors := !n_errors + List.length (Diag.errors diags);
      if diags = [] then Printf.printf "%-16s clean\n" name
      else begin
        Printf.printf "%-16s %d error(s), %d warning(s)\n" name
          (List.length (Diag.errors diags))
          (List.length diags - List.length (Diag.errors diags));
        print_endline (Gopt.render_diagnostics diags)
      end)
    targets;
  Printf.printf "-- linted %d quer%s, %d error(s)\n" (List.length targets)
    (if List.length targets = 1 then "y" else "ies")
    !n_errors;
  if !n_errors > 0 then 1 else 0

(* A worker count below 1 is a usage error, like an unknown --workload. *)
let valid_workers workers =
  if workers < 1 then
    Printf.eprintf "--workers must be at least 1 (got %d)\n" workers;
  workers >= 1

(* So is a run with nothing to execute. *)
let has_work ~stats_only ~lint workload query =
  let has = stats_only || lint || workload <> None || query <> None in
  if not has then prerr_endline "provide a QUERY or --workload NAME (or --stats, --lint)";
  has

(* So is a chunk size below 1. *)
let valid_chunk_size = function
  | Some n when n < 1 ->
    Printf.eprintf "--chunk-size must be at least 1 (got %d)\n" n;
    false
  | _ -> true

(* And so is a value outside an option's accepted set: name the accepted
   values. *)
let choice opt accepted v =
  let found = List.assoc_opt v accepted in
  if found = None then
    Printf.eprintf "unknown %s %s; accepted: %s\n" opt v
      (String.concat ", " (List.map fst accepted));
  found

let datasets = [ ("ldbc", `Ldbc); ("transfer", `Transfer) ]
let langs = [ ("cypher", `Cypher); ("gremlin", `Gremlin) ]
let planners = [ ("gopt", `Gopt); ("cypher", `Cypher); ("gsrbo", `Gsrbo) ]

let backends =
  [ ("graphscope", Gopt_opt.Physical_spec.graphscope); ("neo4j", Gopt_opt.Physical_spec.neo4j) ]

let run_main dataset persons accounts seed lang planner backend workers chunk_size
    explain analyze stats_only lint workload repeat cache_stats load save query =
  let choices =
    ( choice "--dataset" datasets dataset,
      choice "--lang" langs lang,
      choice "--planner" planners planner,
      choice "--backend" backends backend )
  in
  let valid =
    known_workload workload && valid_workers workers && valid_chunk_size chunk_size
    && has_work ~stats_only ~lint workload query
  in
  match choices with
  | None, _, _, _ | _, None, _, _ | _, _, None, _ | _, _, _, None -> 2
  | _ when not valid -> 2
  | Some dataset, Some lang, Some planner, Some spec ->
  (* a graph file that cannot be read is one ["error: load: ..."] line and
     exit code 1, like a query the frontend rejects *)
  let graph =
    match load with
    | Some path -> (
      try Ok (Gopt_graph.Graph_io.load path) with Sys_error m | Failure m -> Error m)
    | None -> (
      match dataset with
      | `Ldbc -> Ok (Gopt_workloads.Ldbc.generate ~seed ~persons ())
      | `Transfer -> Ok (Gopt_workloads.Transfer_graph.generate ~seed ~accounts ()))
  in
  match graph with
  | Error m ->
    prerr_endline (Gopt.render_diagnostics [ Diag.error ~path:"load" m ]);
    1
  | Ok graph ->
  (match save with
  | Some path ->
    Gopt_graph.Graph_io.save graph path;
    Printf.printf "graph saved to %s\n" path
  | None -> ());
  if stats_only then begin
    Format.printf "%a@." Gopt_graph.Property_graph.pp_stats graph;
    0
  end
  else begin
    let session = Gopt.Session.create graph in
    let config =
      match planner with
      | `Gopt -> Gopt_opt.Baselines.gopt_config spec
      | `Cypher -> Gopt_opt.Baselines.cypher_planner_config
      | `Gsrbo -> Gopt_opt.Baselines.gs_rbo_config
    in
    if lint then run_lint session config lang workload query
    else begin
    let query =
      match workload, query with
      | Some name, _ ->
        let q = Gopt_workloads.Queries.find workload_queries name in
        Printf.printf "-- %s: %s\n%s\n\n" q.Gopt_workloads.Queries.name
          q.Gopt_workloads.Queries.description q.Gopt_workloads.Queries.cypher;
        q.Gopt_workloads.Queries.cypher
      | None, Some q -> q
      | None, None -> assert false (* rejected by has_work *)
    in
    front_door @@ fun () ->
    if explain then begin
      print_endline (Gopt.explain_logical ~config session (to_gir session lang query));
      0
    end
    else begin
      let run () =
        match lang with
        | `Cypher -> Gopt.run_cypher ~config ?chunk_size ~workers session query
        | `Gremlin -> Gopt.run_gremlin ~config ?chunk_size ~workers session query
      in
      let t0 = Sys.time () in
      let out = run () in
      let dt = Sys.time () -. t0 in
      (* Repetitions after the first run through the session plan cache:
         [dt] above is the cold (optimize + execute) time, [warm] the
         amortized per-execution time. *)
      let warm =
        if repeat <= 1 then None
        else begin
          let t1 = Sys.time () in
          for _ = 2 to repeat do
            ignore (run ())
          done;
          Some ((Sys.time () -. t1) /. float_of_int (repeat - 1))
        end
      in
      Format.printf "%a@." (Gopt_exec.Batch.pp graph) out.Gopt.result;
      Printf.printf "-- %d rows in %.3fs cpu; %d intermediate rows; %d edges touched\n"
        (Gopt_exec.Batch.n_rows out.Gopt.result)
        dt out.Gopt.exec_stats.Gopt_exec.Engine.intermediate_rows
        out.Gopt.exec_stats.Gopt_exec.Engine.edges_touched;
      (match warm with
      | Some w ->
        Printf.printf "-- repeat %d: cold %.3fs, warm %.4fs/run (plan cached)\n" repeat
          dt w
      | None -> ());
      if out.Gopt.exec_stats.Gopt_exec.Engine.workers_used > 1 then
        Printf.printf "-- %d workers; %d exchange rows (%d cells)\n"
          out.Gopt.exec_stats.Gopt_exec.Engine.workers_used
          out.Gopt.exec_stats.Gopt_exec.Engine.exchange_rows
          out.Gopt.exec_stats.Gopt_exec.Engine.exchange_cells;
      if cache_stats then begin
        let st = Gopt.Session.plan_cache_stats session in
        Printf.printf
          "-- plan cache: %d/%d entries; %d hits, %d misses, %d evictions, %d \
           invalidations (epoch %d)\n"
          st.Gopt_cache.Plan_cache.entries st.Gopt_cache.Plan_cache.capacity
          st.Gopt_cache.Plan_cache.hits st.Gopt_cache.Plan_cache.misses
          st.Gopt_cache.Plan_cache.evictions st.Gopt_cache.Plan_cache.invalidations
          (Gopt.Session.stats_epoch session)
      end;
      if analyze then begin
        print_endline
          "-- per-operator trace (rows in/out, self cpu time; kernel: rows selected \
           by vectorized kernels and kernel cpu time):";
        print_endline (Gopt.render_trace out)
      end;
      0
    end
    end
  end

let dataset = Arg.(value & opt string "ldbc" & info [ "dataset" ] ~doc:"ldbc or transfer")
let persons = Arg.(value & opt int 800 & info [ "persons" ] ~doc:"LDBC scale (persons)")
let accounts = Arg.(value & opt int 8000 & info [ "accounts" ] ~doc:"transfer-graph scale")
let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"generator seed")
let lang = Arg.(value & opt string "cypher" & info [ "lang" ] ~doc:"cypher or gremlin")
let planner = Arg.(value & opt string "gopt" & info [ "planner" ] ~doc:"gopt, cypher or gsrbo")
let backend =
  Arg.(value & opt string "graphscope" & info [ "backend" ] ~doc:"graphscope or neo4j")
let workers =
  Arg.(
    value & opt int 1
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "execute on $(docv) OCaml domains (default 1: morsels run in order on this \
           domain, with no exchange). Results are identical for every worker count; \
           speedup requires a multi-core machine")
let chunk_size =
  Arg.(
    value
    & opt (some int) None
    & info [ "chunk-size" ] ~doc:"pipelined batch granularity in rows (default 1024)")
let explain = Arg.(value & flag & info [ "explain" ] ~doc:"show plans instead of executing")
let analyze =
  Arg.(value & flag & info [ "analyze" ] ~doc:"after executing, print the per-operator trace (EXPLAIN ANALYZE)")
let stats_only = Arg.(value & flag & info [ "stats" ] ~doc:"print dataset statistics and exit")
let lint =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "statically check queries instead of executing: parse/lowering failures, \
           undefined variables, schema mismatches, plan invariants at every optimizer \
           stage. Lints the given QUERY (or --workload), or every workload query when \
           none is given; exits 1 if any error is reported")
let workload =
  Arg.(value & opt (some string) None & info [ "workload" ] ~doc:"run a named workload query (IC1..BI18, QR, QT, QC)")
let repeat =
  Arg.(
    value & opt int 1
    & info [ "repeat" ] ~docv:"N"
        ~doc:
          "execute the query $(docv) times through the session plan cache and report \
           cold vs amortized (warm) per-run time")
let cache_stats =
  Arg.(
    value & flag
    & info [ "cache-stats" ]
        ~doc:"after executing, print the session plan-cache counters")
let load_file =
  Arg.(value & opt (some string) None & info [ "load" ] ~doc:"load the graph from a file instead of generating")
let save_file =
  Arg.(value & opt (some string) None & info [ "save" ] ~doc:"save the (generated or loaded) graph to a file")
let query = Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY")

let cmd =
  let doc = "GOpt: modular graph-native query optimization (SIGMOD 2025 reproduction)" in
  Cmd.v
    (Cmd.info "gopt" ~doc)
    Term.(
      const run_main $ dataset $ persons $ accounts $ seed $ lang $ planner $ backend
      $ workers $ chunk_size $ explain $ analyze $ stats_only $ lint
      $ workload $ repeat $ cache_stats $ load_file $ save_file $ query)

let () = exit (Cmd.eval' cmd)
