(* One benchmark run of one workload: set-up, the untraced pass that gives
   the end-to-end metrics, the oracle check, and optionally the traced pass
   that gives the per-layer metrics. *)

module W = Workload
module Planner = Gopt_opt.Planner

type config = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  persons : int;
}

type metric = { name : string; unit_ : string; value : float }

type outcome = {
  attempted : int;
  failures : (int * string * string) list;
      (** (request index, request, reason), one per failed request. *)
  end_to_end : metric list;
  extra : metric list;  (** Printed and saved, not part of the metric set. *)
  per_query : (string * float list) list;
      (** Per query of the workload: the latencies (s) of its requests. *)
  per_layer : metric list;
  layers_unlisted : metric list;
      (** Traced-pass figures that are zero on some workload by construction,
          saved with the run but not part of the per-layer metric set. *)
}

(* CPU seconds a request may use before the engine raises Timeout. *)
let budget = 60.0

(* Set-ups before the measured pass, and after it once its sessions are
   dropped: spread over the run, the fastest one is likely to fall in a
   quiet phase of the shared host. *)
let setups_before = 5
let setups_after = 4

(* --- set-up --------------------------------------------------------------- *)

let first_binding domains (q : W.query) =
  List.map (fun (name, d) -> (name, [ domains.(W.domain_index d).(0) ])) q.W.params

(* Fill the plan cache (or, on the compile path, the GLogue estimate memo)
   with every query the workload draws from. *)
let prepare_templates (w : W.t) s domains =
  List.iter
    (fun (q : W.query) ->
      match (w.W.path, q.W.lang) with
      | W.Execute _, _ ->
        ignore (Gopt.plan_cypher ~params:(first_binding domains q) ~use_cache:true s q.W.text)
      | W.Compile, W.Cypher -> ignore (Gopt.plan_cypher s q.W.text)
      | W.Compile, W.Gremlin ->
        ignore
          (Planner.plan (Planner.default_config ()) (Gopt.Session.estimator s)
             (Gopt.gremlin_to_gir s q.W.text)))
    w.W.queries

(* Graph generation + Session.create (GLogue, histograms) + reading the
   binding domains + template preparation, timed. *)
let setup_once cfg =
  Gc.compact ();
  Measure.time (fun () ->
      let g = Gopt_workloads.Ldbc.generate ~seed:W.graph_seed ~persons:cfg.persons () in
      let s = Gopt.Session.create g in
      let domains = W.read_domains g in
      prepare_templates cfg.workload s domains;
      (s, domains))

(* [n] timed set-ups, each session dropped before the next is built. *)
let setups cfg n = List.init n (fun _ -> fst (setup_once cfg))

(* One untimed execution of every query, then a compaction, so
   first-execution costs (heap growth, cold caches, collecting the warm-up's
   garbage) stay out of the measured requests. *)
let warm_execution (w : W.t) s domains =
  (match w.W.path with
  | W.Execute { workers } ->
    List.iter
      (fun (q : W.query) ->
        ignore (Gopt.run_cypher ~params:(first_binding domains q) ~budget ?workers s q.W.text))
      w.W.queries
  | W.Compile -> ());
  Gc.compact ()

(* --- requests --------------------------------------------------------------- *)

type got = Executed of Check.digest | Compiled

let issue (w : W.t) s (r : W.request) =
  match (w.W.path, r.W.query.W.lang) with
  | W.Execute { workers }, _ ->
    `Batch (Gopt.run_cypher ~params:r.W.binding ~budget ?workers s r.W.query.W.text).Gopt.result
  | W.Compile, W.Cypher -> `Plan (fst (Gopt.plan_cypher s r.W.query.W.text))
  | W.Compile, W.Gremlin ->
    let logical = Gopt.gremlin_to_gir s r.W.query.W.text in
    `Plan (fst (Planner.plan (Planner.default_config ()) (Gopt.Session.estimator s) logical))

(* Reduce a response to what is checked: a result digest, or the verdict of
   the physical-plan verifier. *)
let finish s = function
  | `Batch b -> Ok (Executed (Check.digest (Gopt.Session.graph s) b))
  | `Plan p -> (
    match
      Gopt_check.Diagnostic.errors (Gopt_opt.Physical_check.check ~schema:(Gopt.Session.schema s) p)
    with
    | [] -> Ok Compiled
    | d :: _ -> Error (Format.asprintf "plan check: %a" Gopt_check.Diagnostic.pp d))

(* The oracle for each distinct (query, binding) of the executed requests:
   parse-time substitution, no plan cache, the materialized engine. *)
let oracle s requests =
  let table = Hashtbl.create 256 in
  Array.iter
    (fun (r : W.request) ->
      let key = W.binding_key r in
      if not (Hashtbl.mem table key) then
        Hashtbl.add table key
          (match
             Check.expected (Gopt.Session.graph s)
               (fst (Gopt.plan_cypher ~params:r.W.binding s r.W.query.W.text))
           with
          | e -> Ok e
          | exception e -> Error ("oracle: " ^ Printexc.to_string e)))
    requests;
  table

let verify oracle (r : W.request) = function
  | Error m -> Some m
  | Ok Compiled -> None
  | Ok (Executed d) -> (
    match Hashtbl.find oracle (W.binding_key r) with
    | Error m -> Some m
    | Ok e -> Check.compare_digest e d)

(* --- the passes ------------------------------------------------------------- *)

let m name unit_ value = { name; unit_; value }

(* The traced twin: a second session on the same graph whose GLogue and
   histogram builds are timed separately and whose templates are prepared
   through the separate layer calls. *)
let twin cfg g domains =
  let w = cfg.workload in
  Layers.reset ();
  ignore (Layers.timed "glogue.build" (fun () -> Gopt_glogue.Glogue.build ~max_k:3 g));
  ignore (Layers.timed "histograms.build" (fun () -> Gopt_glogue.Histograms.build g));
  let t = Gopt.Session.create g in
  List.iter
    (fun (q : W.query) ->
      match w.W.path with
      | W.Execute _ ->
        ignore
          (Layers.consult t { W.query = q; binding = first_binding domains q; bump_before = false })
      | W.Compile -> ignore (Layers.compile t q))
    w.W.queries;
  warm_execution w t domains;
  t

type traced = {
  traced_s : float;  (** Wall time of the whole traced request. *)
  layer_sum_s : float;
  traced_got : (got, string) result;
}

(* One request re-issued through the separate layer calls. *)
let traced_request (w : W.t) t (r : W.request) =
  let t0 = Measure.now () in
  let res =
    match
      match w.W.path with
      | W.Execute { workers } -> Layers.execute ~budget ~workers t r
      | W.Compile -> Layers.compile t r.W.query
    with
    | res -> Ok res
    | exception e -> Error (Printexc.to_string e)
  in
  let traced_s = Measure.now () -. t0 in
  match res with
  | Error msg -> { traced_s; layer_sum_s = traced_s; traced_got = Error msg }
  | Ok res ->
    let traced_got =
      match res.Layers.result with
      | Some b -> Ok (Executed (Check.digest (Gopt.Session.graph t) b))
      | None -> finish t (`Plan res.Layers.physical)
    in
    { traced_s; layer_sum_s = res.Layers.layer_sum_s; traced_got }

(* The measured closed loop. With a traced twin, each request is also
   re-issued on the twin, untimed by the loop, alternately just before and
   just after its untraced issue: the twin sees the same request sequence
   (and so the same plan-cache history), and each traced request is paired
   with its untraced one under the same conditions of the shared host. *)
let passes cfg s domains twin =
  let w = cfg.workload in
  warm_execution w s domains;
  let next = w.W.stream domains cfg.seed in
  let issued = ref [] and traced = ref [] in
  let current () = List.hd !issued in
  let trace_current () =
    Option.iter (fun t -> traced := traced_request w t (current ()) :: !traced) twin
  in
  let prepare i =
    let r = next () in
    if r.W.bump_before then begin
      Gopt.Session.bump_stats_epoch s;
      Option.iter Gopt.Session.bump_stats_epoch twin
    end;
    issued := r :: !issued;
    if i land 1 = 0 then trace_current ()
  in
  let finish_one i resp =
    let got = Result.bind resp (finish s) in
    if i land 1 = 1 then trace_current ();
    got
  in
  let run =
    Measure.loop ~seconds:cfg.seconds ~round:w.W.round ~prepare ~finish:finish_one (fun _ ->
        issue w s (current ()))
  in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  (run, Array.of_list (List.rev !issued), Array.of_list (List.rev !traced), top_heap_words)

(* Per-layer metric names in the order they are reported: (name, unit,
   accumulator key, scale). Time accumulators hold seconds. *)
let listed_layers =
  let us k = (k ^ "_us", "us", k, 1e6) and cnt k = (k, "count", k, 1.0) in
  [
    us "cypher_parser.parse"; us "lowering.cypher"; us "rule.fixpoint"; cnt "rule.firings";
    us "rules_pattern.field_trim"; us "type_inference.infer"; cnt "type_inference.iterations";
    us "cbo.optimize"; cnt "cbo.nodes_searched"; cnt "cbo.candidates_pruned"; cnt "cbo.memo_hits";
    us "cbo.to_physical"; us "planner.plan"; us "planner.unattributed";
    ("glogue.build_s", "s", "glogue.build", 1.0); ("histograms.build_s", "s", "histograms.build", 1.0);
    cnt "engine.intermediate_rows"; cnt "engine.edges_touched"; cnt "engine.peak_rows";
    cnt "engine.comm_cells"; ("engine.alloc_words", "words", "engine.alloc_words", 1.0);
  ]
  @ List.map (fun k -> cnt ("op." ^ k ^ ".rows_out")) Layers.op_kinds
  @ [ cnt "op.rows_selected"; cnt "engine.workers_used"; cnt "engine.exchange_rows"; cnt "engine.exchange_cells" ]

let unlisted_layers =
  let us k = (k ^ "_us", "us", k, 1e6) and ms k = (k ^ "_ms", "ms", k, 1e3) in
  [ us "gremlin_parser.parse"; us "fingerprint.digest"; us "gopt.consult"; us "physical.bind_params";
    ms "engine.run"; ms "op.kernel" ]
  @ List.map (fun k -> ms ("op." ^ k ^ ".self")) ("Exchange" :: Layers.op_kinds)

let layer_metrics specs =
  List.map (fun (name, unit_, key, scale) -> m name unit_ (Layers.mean key *. scale)) specs

(* Stated tolerance of the layer-sum check: the top-level layer calls of a
   request must add up to its untraced latency within this share. *)
let layer_sum_tolerance = 0.25

let run cfg =
  let setup_before = setups cfg (setups_before - 1) in
  let t_last, (s, domains) = setup_once cfg in
  let twin = if cfg.trace then Some (twin cfg (Gopt.Session.graph s) domains) else None in
  let cache0 = Option.map Gopt.Session.plan_cache_stats twin in
  let run, requests, traced, top_heap_words = passes cfg s domains twin in
  let n = Array.length run.Measure.samples in
  let oracle = oracle s (match cfg.workload.W.path with W.Execute _ -> requests | W.Compile -> [||]) in
  let failures = ref [] in
  let fail i why = failures := (i, W.binding_key requests.(i), why) :: !failures in
  Array.iteri
    (fun i (smp : _ Measure.sample) ->
      Option.iter (fail i) (verify oracle requests.(i) smp.Measure.result))
    run.Measure.samples;
  let latencies_of (r : _ Measure.run) =
    Array.to_list (Array.map (fun x -> x.Measure.latency_s) r.Measure.samples)
  in
  let latencies = latencies_of run in
  let sum = Measure.summarize latencies in
  let quiet = Measure.quiet ~round:cfg.workload.W.round run in
  let qsum = Measure.summarize (latencies_of quiet) in
  let ms x = x *. 1e3 in
  let per_layer, layers_unlisted =
    if not cfg.trace then ([], [])
    else begin
      let t = Option.get twin in
      Array.iteri (fun i x -> Option.iter (fail i) (verify oracle requests.(i) x.traced_got)) traced;
      let traced_lat = Array.to_list (Array.map (fun x -> x.traced_s) traced) in
      let ratios =
        List.mapi
          (fun i x -> x.layer_sum_s /. run.Measure.samples.(i).Measure.latency_s)
          (Array.to_list traced)
      in
      let c0 = Option.get cache0 and c1 = Gopt.Session.plan_cache_stats t in
      let estimates = Gopt_glogue.Glogue_query.cache_size (Gopt.Session.estimator t) in
      let module C = Gopt_cache.Plan_cache in
      let d f = float_of_int (f c1 - f c0) in
      let hits = d (fun c -> c.C.hits) and misses = d (fun c -> c.C.misses) in
      ( layer_metrics listed_layers
        @ [
            m "glogue_query.estimates_memoized" "count" (float_of_int estimates);
            m "plan_cache.hit_rate" "ratio" (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
            m "plan_cache.misses" "count" misses;
            m "plan_cache.invalidations" "count" (d (fun c -> c.C.invalidations));
            m "plan_cache.evictions" "count" (d (fun c -> c.C.evictions));
            m "trace.overhead_frac" "ratio" ((Measure.median traced_lat /. sum.Measure.p50) -. 1.0);
            m "trace.layer_sum_frac" "ratio" (Measure.median ratios -. 1.0);
          ],
        layer_metrics unlisted_layers )
    end
  in
  (* a request failing in both passes is one failure *)
  let failures = List.sort_uniq (fun (i, _, _) (j, _, _) -> compare i j) !failures in
  (* the sessions are no longer used, so these set-ups run on a small heap
     like the first ones; interference on a shared host only ever adds
     time, so the fastest set-up is the least disturbed one *)
  let setup_times = setup_before @ (t_last :: setups cfg setups_after) in
  let end_to_end =
    [
      m "throughput_qps" "req/s" (Measure.throughput quiet);
      m "latency_p50_ms" "ms" (ms qsum.Measure.p50);
      m "latency_p90_ms" "ms" (ms qsum.Measure.p90);
      m "cpu_ms_per_request" "ms" (ms (Measure.cpu_per_request quiet));
      m "peak_heap_mb" "MB"
        (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
      m "setup_s" "s" (List.fold_left Float.min infinity setup_times);
    ]
  in
  let extra =
    (match sum.Measure.p99 with Some p -> [ m "latency_p99_ms" "ms" (ms p) ] | None -> [])
    @ [
        m "failed_frac" "ratio" (float_of_int (List.length failures) /. float_of_int n);
        m "latency_samples" "count" (float_of_int n);
        m "latency_q1_ms" "ms" (ms sum.Measure.q1);
        m "latency_q3_ms" "ms" (ms sum.Measure.q3);
        m "latency_cv" "ratio" sum.Measure.cv;
        m "quiet_samples" "count" (float_of_int qsum.Measure.n);
        m "setup_median_s" "s" (Measure.median setup_times);
      ]
  in
  let per_query =
    List.filter_map
      (fun (q : W.query) ->
        let ls =
          List.filteri (fun i _ -> requests.(i).W.query.W.name = q.W.name) latencies
        in
        if ls = [] then None else Some (q.W.name, ls))
      cfg.workload.W.queries
  in
  { attempted = n; failures; end_to_end; extra; per_query; per_layer; layers_unlisted }
