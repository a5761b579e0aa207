(* Shared machinery for the experiment harness: budgeted runs, simulated
   distributed time, and plain-text table rendering. *)

module Engine = Gopt_exec.Engine
module Batch = Gopt_exec.Batch
module Planner = Gopt_opt.Planner
module Physical = Gopt_opt.Physical

let env_int name default =
  match Sys.getenv_opt name with Some v -> int_of_string v | None -> default

let env_float name default =
  match Sys.getenv_opt name with Some v -> float_of_string v | None -> default

(* Scale and one-hour-analog OT cutoff, overridable for quick runs:
     GOPT_BENCH_PERSONS=400 GOPT_BENCH_BUDGET=2 dune exec bench/main.exe *)
let bench_persons = env_int "GOPT_BENCH_PERSONS" 1200
let bench_budget = env_float "GOPT_BENCH_BUDGET" 10.0

(* The GraphScope profile simulates a distributed dataflow: every
   materialized intermediate row is shuffled once; its cost is proportional
   to the row width (cells). One shuffled cell costs this many seconds of
   simulated network time. *)
let comm_seconds_per_cell = 5e-8

type runres = {
  rows : int;
  cpu : float;  (** measured CPU seconds *)
  sim : float;  (** cpu + simulated communication *)
  stats : Engine.stats option;
}

let ot = { rows = -1; cpu = infinity; sim = infinity; stats = None }

let is_ot r = r.rows < 0

let run_phys ?(profile = Engine.graphscope_profile) ?(budget = bench_budget) graph phys =
  let t0 = Sys.time () in
  match Engine.run ~profile ~budget graph phys with
  | batch, stats ->
    let cpu = Sys.time () -. t0 in
    {
      rows = Batch.n_rows batch;
      cpu;
      sim = cpu +. (float_of_int stats.Engine.comm_cells *. comm_seconds_per_cell);
      stats = Some stats;
    }
  | exception Engine.Timeout -> ot

let run_cypher ?profile ?budget session config query =
  let physical, _report = Gopt.plan_cypher ~config session query in
  run_phys ?profile ?budget (Gopt.Session.graph session) physical

let run_gremlin ?profile ?budget session config query =
  let config' = config in
  let gir = Gopt.gremlin_to_gir session query in
  let physical, _ = Planner.plan config' (Gopt.Session.estimator session) gir in
  run_phys ?profile ?budget (Gopt.Session.graph session) physical

let fmt_time r = if is_ot r then "OT" else Printf.sprintf "%.4f" r.sim

let fmt_speedup ~base ~opt =
  if is_ot base && is_ot opt then "-"
  else if is_ot base then ">"
  else if is_ot opt then "<1"
  else if opt.sim <= 0.0 then "inf"
  else Printf.sprintf "%.1fx" (base.sim /. opt.sim)

let speedup_value ~base ~opt =
  if is_ot opt then None
  else if is_ot base then None (* unbounded; reported separately *)
  else if opt.sim <= 0.0 then None
  else Some (base.sim /. opt.sim)

(* --- tables ---------------------------------------------------------------- *)

let print_table ~title ~header rows =
  let cols = List.length header in
  let widths = Array.make cols 0 in
  List.iteri (fun i h -> widths.(i) <- String.length h) header;
  List.iter
    (fun row ->
      List.iteri (fun i cell -> if String.length cell > widths.(i) then widths.(i) <- String.length cell) row)
    rows;
  let line char =
    print_string "+";
    Array.iter (fun w -> print_string (String.make (w + 2) char); print_string "+") widths;
    print_newline ()
  in
  let render row =
    print_string "|";
    List.iteri (fun i cell -> Printf.printf " %-*s |" widths.(i) cell) row;
    print_newline ()
  in
  Printf.printf "\n## %s\n" title;
  line '-';
  render header;
  line '=';
  List.iter render rows;
  line '-'

let geomean = function
  | [] -> nan
  | xs -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let summarize_speedups label pairs =
  let sps = List.filter_map (fun (base, opt) -> speedup_value ~base ~opt) pairs in
  let wins = List.length (List.filter (fun s -> s > 1.05) sps) in
  let ots_beaten = List.length (List.filter (fun (b, o) -> is_ot b && not (is_ot o)) pairs) in
  if sps = [] then Printf.printf "%s: no comparable runs\n" label
  else
    Printf.printf
      "%s: faster on %d/%d comparable queries (+%d where the baseline is OT); average (geo) speedup %.1fx, max %.1fx\n"
      label wins (List.length sps) ots_beaten (geomean sps)
      (List.fold_left Float.max 0.0 sps)

(* memoized sessions so experiments can share graphs *)
let session_cache : (string, Gopt.Session.t) Hashtbl.t = Hashtbl.create 8

let ldbc_session persons =
  let key = Printf.sprintf "ldbc-%d" persons in
  match Hashtbl.find_opt session_cache key with
  | Some s -> s
  | None ->
    Printf.printf "[setup] generating LDBC-like graph (%d persons) + GLogue...\n%!" persons;
    let t0 = Sys.time () in
    let g = Gopt_workloads.Ldbc.generate ~persons () in
    let s = Gopt.Session.create g in
    Printf.printf "[setup] |V|=%d |E|=%d glogue_entries=%d (%.1fs)\n%!"
      (Gopt_graph.Property_graph.n_vertices g)
      (Gopt_graph.Property_graph.n_edges g)
      (Gopt_glogue.Glogue.n_entries (Gopt.Session.glogue s))
      (Sys.time () -. t0);
    Hashtbl.add session_cache key s;
    s

let transfer_session accounts =
  let key = Printf.sprintf "transfer-%d" accounts in
  match Hashtbl.find_opt session_cache key with
  | Some s -> s
  | None ->
    Printf.printf "[setup] generating transfer graph (%d accounts) + GLogue...\n%!" accounts;
    let g = Gopt_workloads.Transfer_graph.generate ~accounts () in
    let s = Gopt.Session.create g in
    Hashtbl.add session_cache key s;
    s
