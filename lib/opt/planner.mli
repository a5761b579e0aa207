(** The full optimization pipeline (paper §4, "Overall Workflow"):
    RBO -> type inference -> CBO -> backend-specific physical plan.

    Every stage can be toggled independently, which is how the paper's
    controlled experiments (heuristic rules on/off, type inference on/off,
    CBO vs user order) and the baseline planners in {!Baselines} are
    realized. *)

type config = {
  spec : Physical_spec.t;  (** Backend operator/cost registration. *)
  enable_rbo : bool;
  rules : Rule.t list;
      (** Rules used when [enable_rbo]. With [enable_cbo], ComSubPattern
          ({!Rules_pattern.com_sub_pattern}) is left out: the CBO plans each
          UNION branch whole, from the branch's own anchor, instead of one
          shared common pattern that no branch's filter reaches. *)
  enable_field_trim : bool;  (** The FieldTrim whole-plan pass. *)
  enable_type_inference : bool;
  inference_schema : Gopt_graph.Schema.t option;
      (** Schema used by type inference; [None] = the estimator's (declared)
          schema. Pass {!Gopt_graph.Schema_discovery.observed} output here to
          model schema-loose systems whose schema is extracted from data
          (paper Remark 6.1) — strictly tighter inference. *)
  enable_cbo : bool;
      (** [false]: patterns compile in user-specified order (the behaviour
          of a rule-based-only backend). *)
  cbo_options : Cbo.options;
  check_plans : bool;
      (** Run {!Gopt_check.Plan_check} on the plan at every stage (input,
          post-RBO, post-inference, physical), verify each RBO rule firing
          ({!Rule.fixpoint}[ ~check:true] — raises {!Rule.Check_failed} on an
          unsound rewrite), and reject structurally broken plans with
          [Invalid_argument] before the CBO runs. Stage diagnostics are
          collected in {!report.diagnostics}. *)
}

val default_config : ?spec:Physical_spec.t -> unit -> config
(** Everything enabled, all shipped rules, default CBO options;
    [spec] defaults to {!Physical_spec.graphscope}. *)

type cache_note = {
  cache_hit : bool;  (** This report was served from the session plan cache. *)
  cache_hits : int;  (** Cumulative session-cache counters at serve time. *)
  cache_misses : int;
  cache_evictions : int;
  cache_invalidations : int;
}
(** Plan-cache observability attached by the [Gopt] façade when a query is
    answered through the session's plan cache. The planner itself
    never consults a cache — [plan] always reports [plan_cache = None]. *)

type report = {
  logical_input : Gopt_gir.Logical.t;
  logical_optimized : Gopt_gir.Logical.t;  (** After RBO + type inference. *)
  rules_applied : string list;
  invalid_patterns : int;
      (** Patterns proven unsatisfiable by type inference (compiled to
          Empty). *)
  search_stats : Cbo.search_stats list;  (** One entry per CBO-planned pattern. *)
  est_costs : float list;  (** Estimated cost per CBO-planned pattern. *)
  diagnostics : (string * Gopt_check.Diagnostic.t list) list;
      (** Per-stage verifier output when [config.check_plans]: ["logical"],
          ["rbo"], ["optimized"] (both after {!Gopt_check.Plan_check}) and
          ["physical"] (after {!Physical_check.check}). Empty otherwise. *)
  plan_cache : cache_note option;
}

val plan :
  config -> Gopt_glogue.Glogue_query.t -> Gopt_gir.Logical.t -> Physical.t * report
(** Optimize a logical plan end to end. *)

val compile_user_order : Physical_spec.t -> Gopt_pattern.Pattern.t -> Physical.t
(** Left-deep compilation in the pattern's declaration order (scan vertex 0,
    then bind each subsequent vertex adjacent to the bound set, lowest index
    first) — what a purely rule-based backend executes. *)

val compile_continuation :
  Gopt_glogue.Glogue_query.t ->
  Physical_spec.t ->
  Physical.t ->
  Gopt_pattern.Pattern.t ->
  bound:string list ->
  Physical.t
(** Extend rows that already bind [bound] vertex aliases to full matches of
    the pattern, choosing the expansion order greedily by estimated
    cardinality. Used for [Pattern_cont] (ComSubPattern continuations). *)
