(* The traced pass: each request re-issued as its separate public layer
   calls, every call timed from outside on the monotonic clock. Nothing
   inside the program is instrumented; a layer's figure is the duration of
   the public call that is that layer.

   Per-layer times and counts are accumulated per call and reported as the
   mean per call. *)

module Logical = Gopt_gir.Logical
module Pattern = Gopt_pattern.Pattern
module Planner = Gopt_opt.Planner
module Cbo = Gopt_opt.Cbo
module Rule = Gopt_opt.Rule
module Physical = Gopt_opt.Physical
module Engine = Gopt_exec.Engine
module Op_trace = Gopt_exec.Op_trace
module Ti = Gopt_typeinf.Type_inference
module Fingerprint = Gopt_cache.Fingerprint

(* --- accumulators ---------------------------------------------------------- *)

type acc = { mutable total : float; mutable calls : int }

let table : (string, acc) Hashtbl.t = Hashtbl.create 64

let reset () = Hashtbl.reset table

let add name v =
  match Hashtbl.find_opt table name with
  | Some a ->
    a.total <- a.total +. v;
    a.calls <- a.calls + 1
  | None -> Hashtbl.add table name { total = v; calls = 1 }

(* Mean per call; 0 for a layer the workload never called. *)
let mean name =
  match Hashtbl.find_opt table name with
  | Some a when a.calls > 0 -> a.total /. float_of_int a.calls
  | _ -> 0.0

let timed name f =
  let dt, r = Measure.time f in
  add name dt;
  (dt, r)

(* --- planning ------------------------------------------------------------- *)

(* Connected components of a pattern, as the planner splits them before the
   CBO (one CBO search per component). *)
let components p =
  let nv = Pattern.n_vertices p in
  let comp = Array.make nv (-1) in
  let n = ref 0 in
  for v = 0 to nv - 1 do
    if comp.(v) < 0 then begin
      let id = !n in
      incr n;
      let rec dfs x =
        if comp.(x) < 0 then begin
          comp.(x) <- id;
          List.iter (fun (_, y) -> dfs y) (Pattern.neighbors p x)
        end
      in
      dfs v
    end
  done;
  List.init !n (fun c ->
      let es =
        List.filter
          (fun ei -> comp.((Pattern.edge p ei).Pattern.e_src) = c)
          (List.init (Pattern.n_edges p) Fun.id)
      in
      match es with
      | [] ->
        let v = List.find (fun v -> comp.(v) = c) (List.init nv Fun.id) in
        Pattern.single_vertex p v
      | _ -> fst (Pattern.sub_by_edges p es))

let patterns plan =
  List.rev
    (Logical.fold
       (fun acc n ->
         match n with
         | Logical.Match p | Logical.Pattern_cont (_, p) -> p :: acc
         | _ -> acc)
       [] plan)

let match_patterns plan =
  List.rev
    (Logical.fold (fun acc n -> match n with Logical.Match p -> p :: acc | _ -> acc) [] plan)

(* [Planner.plan] timed as a whole, then its stages re-issued one by one:
   RBO fixpoint, FieldTrim, type inference on every pattern, and per
   pattern component the CBO search and its physical lowering. The part of
   [Planner.plan] none of these calls covers is [planner.unattributed].
   Returns the plan and its duration. *)
let plan s logical =
  let config = Planner.default_config () in
  let gq = Gopt.Session.estimator s and schema = Gopt.Session.schema s in
  let t_plan, (physical, report) = timed "planner.plan" (fun () -> Planner.plan config gq logical) in
  let t_rbo, (l1, fired) =
    timed "rule.fixpoint" (fun () -> Rule.fixpoint ~schema config.Planner.rules logical)
  in
  add "rule.firings" (float_of_int (List.length fired));
  let t_trim, l1 = timed "rules_pattern.field_trim" (fun () -> Gopt_opt.Rules_pattern.field_trim l1) in
  let t_ti =
    List.fold_left
      (fun acc p ->
        let dt, r = timed "type_inference.infer" (fun () -> Ti.infer schema p) in
        (match r with
        | Ti.Inferred (_, iters) -> add "type_inference.iterations" (float_of_int iters)
        | Ti.Invalid -> add "type_inference.iterations" 0.0);
        acc +. dt)
      0.0 (patterns l1)
  in
  let t_cbo =
    List.fold_left
      (fun acc p ->
        match Ti.infer schema p with
        | Ti.Invalid -> acc
        | Ti.Inferred _ ->
          List.fold_left
            (fun acc sub ->
              let dt_opt, (cplan, st) =
                timed "cbo.optimize" (fun () ->
                    Cbo.optimize ~options:config.Planner.cbo_options gq config.Planner.spec sub)
              in
              add "cbo.nodes_searched" (float_of_int st.Cbo.nodes_searched);
              add "cbo.candidates_pruned" (float_of_int st.Cbo.candidates_pruned);
              add "cbo.memo_hits" (float_of_int st.Cbo.memo_hits);
              let dt_phys, _ =
                timed "cbo.to_physical" (fun () -> Cbo.to_physical config.Planner.spec cplan)
              in
              acc +. dt_opt +. dt_phys)
            acc (components p))
      0.0
      (match_patterns report.Planner.logical_optimized)
  in
  add "planner.unattributed" (t_plan -. t_rbo -. t_trim -. t_ti -. t_cbo);
  (t_plan, physical)

(* --- execution ------------------------------------------------------------ *)

let op_kinds =
  [
    "Scan"; "Select"; "Project"; "ExpandAll"; "ExpandInto"; "ExpandIntersect"; "PathExpand";
    "HashJoin"; "AllDistinct"; "Group"; "Order"; "Dedup"; "Limit"; "Union"; "WithCommon";
    "CommonRef";
  ]

(* An operator's kind is the leading identifier of its trace label
   ("HashJoin[INNER](f)" -> "HashJoin"); exchange nodes of parallel runs
   become "Exchange", per-worker rollup nodes are not operators. *)
let kind_of_label name =
  let n = String.length name in
  let i = ref 0 in
  while
    !i < n
    && match name.[!i] with 'A' .. 'Z' | 'a' .. 'z' -> true | _ -> false
  do
    incr i
  done;
  match String.sub name 0 !i with
  | "exchange" -> Some "Exchange"
  | "worker" | "" -> None
  | k -> Some k

(* Sums over one run's trace, by operator kind. The self time is the
   engine's own clock, which is process CPU time (Sys.time): on parallel
   runs it includes sibling workers' time. *)
let record_trace (tr : Op_trace.t) =
  let self = Hashtbl.create 16 and rows = Hashtbl.create 16 in
  let bump h k v = Hashtbl.replace h k (v +. Option.value (Hashtbl.find_opt h k) ~default:0.0) in
  let kernel_ns = ref 0.0 and selected = ref 0 in
  let rec go (t : Op_trace.t) =
    (match kind_of_label t.Op_trace.name with
    | Some k ->
      bump self k t.Op_trace.time_s;
      bump rows k (float_of_int t.Op_trace.rows_out)
    | None -> ());
    kernel_ns := !kernel_ns +. t.Op_trace.kernel_ns;
    selected := !selected + t.Op_trace.rows_selected;
    List.iter go t.Op_trace.children
  in
  go tr;
  List.iter
    (fun k ->
      add ("op." ^ k ^ ".self") (Option.value (Hashtbl.find_opt self k) ~default:0.0);
      add ("op." ^ k ^ ".rows_out") (Option.value (Hashtbl.find_opt rows k) ~default:0.0))
    ("Exchange" :: op_kinds);
  add "op.kernel" (!kernel_ns *. 1e-9);
  add "op.rows_selected" (float_of_int !selected)

let record_stats (st : Engine.stats) =
  let c name v = add name (float_of_int v) in
  c "engine.intermediate_rows" st.Engine.intermediate_rows;
  c "engine.edges_touched" st.Engine.edges_touched;
  c "engine.peak_rows" st.Engine.peak_rows;
  c "engine.comm_cells" st.Engine.comm_cells;
  c "engine.workers_used" st.Engine.workers_used;
  c "engine.exchange_rows" st.Engine.exchange_rows;
  c "engine.exchange_cells" st.Engine.exchange_cells;
  Option.iter record_trace st.Engine.op_trace

(* --- one traced request ----------------------------------------------------- *)

type traced = {
  result : Gopt_exec.Batch.t option;  (** [None] for compile-only requests. *)
  physical : Physical.t;
  layer_sum_s : float;
      (** Sum of the top-level layer calls that make up the request, the
          figure compared with its untraced latency. *)
}

(* The signature string only keys this pass's own digest calls. *)
let fingerprint_config = "perfbench"

(* Parse, fingerprint and plan-cache consult; on a miss, the planning it
   did is re-issued stage by stage. Returns the parse and consult durations
   and the plan. *)
let consult s (r : Workload.request) =
  let params = r.Workload.binding and text = r.Workload.query.Workload.text in
  let t_parse, ast =
    timed "cypher_parser.parse" (fun () ->
        Gopt_lang.Cypher_parser.parse ~params ~defer_params:true text)
  in
  ignore
    (timed "fingerprint.digest" (fun () ->
         Fingerprint.digest ~config:fingerprint_config ~epoch:(Gopt.Session.stats_epoch s) ast));
  (* the consult is plan_cypher through the cache minus its own parse *)
  let t_plan, (physical, report) =
    Measure.time (fun () -> Gopt.plan_cypher ~params ~use_cache:true s text)
  in
  let t_consult = t_plan -. t_parse in
  add "gopt.consult" t_consult;
  (match report.Planner.plan_cache with
  | Some { Planner.cache_hit = false; _ } ->
    let _, logical =
      timed "lowering.cypher" (fun () -> Gopt_lang.Lowering.cypher (Gopt.Session.schema s) ast)
    in
    ignore (plan s logical)
  | _ -> ());
  (t_parse, t_consult, physical)

let execute ~budget ~workers s (r : Workload.request) =
  let t_parse, t_consult, physical = consult s r in
  let t_bind, bound =
    timed "physical.bind_params" (fun () -> Physical.bind_params r.Workload.binding physical)
  in
  (* every word allocated, minor and major heap alike (large blocks such
     as grown columns go straight to the major heap) *)
  let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8) in
  let words0 = words () in
  let t_run, (b, st) =
    timed "engine.run" (fun () -> Engine.run ~budget ?workers (Gopt.Session.graph s) bound)
  in
  if workers = None then add "engine.alloc_words" (words () -. words0);
  record_stats st;
  { result = Some b; physical; layer_sum_s = t_parse +. t_consult +. t_bind +. t_run }

let compile s (q : Workload.query) =
  let schema = Gopt.Session.schema s in
  match q.Workload.lang with
  | Workload.Cypher ->
    let t_parse, ast = timed "cypher_parser.parse" (fun () -> Gopt_lang.Cypher_parser.parse q.Workload.text) in
    let t_lower, logical = timed "lowering.cypher" (fun () -> Gopt_lang.Lowering.cypher schema ast) in
    let t_plan, physical = plan s logical in
    { result = None; physical; layer_sum_s = t_parse +. t_lower +. t_plan }
  | Workload.Gremlin ->
    let t_parse, logical =
      timed "gremlin_parser.parse" (fun () -> Gopt_lang.Gremlin_parser.parse schema q.Workload.text)
    in
    let t_plan, physical = plan s logical in
    { result = None; physical; layer_sum_s = t_parse +. t_plan }
