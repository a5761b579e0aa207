(** GOpt — a modular, graph-native query optimization framework for complex
    graph patterns (CGPs), reproducing Lyu et al., SIGMOD 2025.

    This is the user-facing façade: create a {!Session} over a property
    graph (which builds the GLogue statistics), then run Cypher or Gremlin
    queries through the full pipeline — parse, lower to the unified GIR,
    RBO, type inference, CBO against a backend {!Gopt_opt.Physical_spec},
    and execution on the in-repo engine.

    The underlying layers are exposed as libraries of their own
    ([gopt_graph], [gopt_pattern], [gopt_gir], [gopt_lang], [gopt_glogue],
    [gopt_typeinf], [gopt_opt], [gopt_exec]) for programmatic use; see
    [examples/] for end-to-end walkthroughs. *)

module Session : sig
  type t

  val create :
    ?glogue_k:int ->
    ?estimator_mode:Gopt_glogue.Glogue_query.mode ->
    ?selectivity:float ->
    ?histograms:bool ->
    ?plan_cache_capacity:int ->
    Gopt_graph.Property_graph.t ->
    t
  (** Build a session: precomputes GLogue motif statistics up to [glogue_k]
      (default 3) vertices, property histograms for selectivity estimation
      ([histograms], default true), and sets up the cardinality
      estimator. [plan_cache_capacity] bounds the session's LRU plan cache
      (default 128; [0] disables caching entirely). *)

  val graph : t -> Gopt_graph.Property_graph.t
  val schema : t -> Gopt_graph.Schema.t
  val glogue : t -> Gopt_glogue.Glogue.t
  val estimator : t -> Gopt_glogue.Glogue_query.t

  val low_order_estimator : t -> Gopt_glogue.Glogue_query.t
  (** A low-order-statistics view over the same store (baseline planners). *)

  val stats_epoch : t -> int
  (** The session's statistics epoch. Every plan fingerprint includes it, so
      cached plans from older epochs can never be served. *)

  val bump_stats_epoch : t -> unit
  (** Declare the graph schema or GLogue statistics changed: advances the
      epoch and drops every cached plan (counted as invalidations, not
      evictions). Subsequent executions re-optimize. *)

  val plan_cache_stats : t -> Gopt_cache.Plan_cache.stats
  (** Hit/miss/eviction/invalidation counters of the session plan cache. *)
end

type outcome = {
  result : Gopt_exec.Batch.t;
  exec_stats : Gopt_exec.Engine.stats;
  report : Gopt_opt.Planner.report;
  physical : Gopt_opt.Physical.t;
}

val run_cypher :
  ?params:(string * Gopt_graph.Value.t list) list ->
  ?config:Gopt_opt.Planner.config ->
  ?profile:Gopt_exec.Engine.profile ->
  ?budget:float ->
  ?chunk_size:int ->
  ?workers:int ->
  Session.t ->
  string ->
  outcome
(** Parse, optimize and execute a Cypher query. [config] defaults to the
    full GOpt pipeline on the GraphScope spec; [profile] defaults to the
    matching engine profile; [budget] (CPU seconds) bounds execution;
    [chunk_size] sets the engine's pipelined batch granularity, which is
    also the rows per work unit (at least 1, else [Invalid_argument]).
    [workers] (default 1) is the number of OCaml domains the engine runs
    on; rows and their order are the same for every worker count (see
    {!Gopt_exec.Engine.run}).

    The optimized plan is consulted from and stored into the session plan
    cache keyed by {!Gopt_cache.Fingerprint}: repeated templates skip
    RBO/inference/CBO entirely, and when [params] is given, scalar [$name]
    parameters stay symbolic in the cached plan (bound per execution), so
    runs differing only in scalar parameter values share one plan. Without
    [params] the text is a literal query, and a [$name] in it raises
    {!Gopt_lang.Cypher_parser.Parse_error}. [report.plan_cache] records
    whether this run hit. The stateless parse-substitute-optimize-execute
    path is {!run_logical} over {!cypher_to_gir}. *)

val run_logical :
  ?config:Gopt_opt.Planner.config ->
  ?profile:Gopt_exec.Engine.profile ->
  ?budget:float ->
  ?chunk_size:int ->
  ?workers:int ->
  Session.t ->
  Gopt_gir.Logical.t ->
  outcome
(** Optimize and execute a logical plan, bypassing the plan cache. *)

val run_gremlin :
  ?config:Gopt_opt.Planner.config ->
  ?profile:Gopt_exec.Engine.profile ->
  ?budget:float ->
  ?chunk_size:int ->
  ?workers:int ->
  Session.t ->
  string ->
  outcome

val plan_cypher :
  ?params:(string * Gopt_graph.Value.t list) list ->
  ?config:Gopt_opt.Planner.config ->
  ?use_cache:bool ->
  Session.t ->
  string ->
  Gopt_opt.Physical.t * Gopt_opt.Planner.report
(** Optimize without executing. [use_cache] defaults to [false] here —
    planning APIs are used to {e observe} the optimizer; pass [true] to go
    through the session cache like {!run_cypher} does. *)

(** Prepared statements: parse and fingerprint once, optimize on first
    execution, then re-execute with fresh parameter bindings at plan-lookup
    cost. The prepared handle stores the deferred AST, not a plan — every
    {!Prepared.execute} re-keys against the session's {e current} stats
    epoch, so a {!Session.bump_stats_epoch} transparently forces one
    re-optimization and never serves a stale plan. *)
module Prepared : sig
  type t

  val params : t -> string list
  (** Placeholder names the statement expects at execution, in
      first-occurrence order — user-written [$x] plus auto-extracted
      [@p0], [@p1], … slots (see [prepare_cypher ~auto_params]). *)

  val source : t -> string
  (** The original query text. *)

  val execute :
    ?params:(string * Gopt_graph.Value.t list) list ->
    ?profile:Gopt_exec.Engine.profile ->
    ?budget:float ->
    ?chunk_size:int ->
      ?workers:int ->
    t ->
    outcome
  (** Execute with the given bindings (each scalar placeholder binds exactly
      one value; supplied bindings override prepare-time ones). Raises
      [Invalid_argument] naming the missing parameter and the supplied set
      when a placeholder is left unbound. *)
end

val prepare_cypher :
  ?params:(string * Gopt_graph.Value.t list) list ->
  ?config:Gopt_opt.Planner.config ->
  ?auto_params:bool ->
  Session.t ->
  string ->
  Prepared.t
(** Parse [src] with deferred scalar parameters (see
    {!Gopt_lang.Cypher_parser.parse}). [params] supplies [IN]-list and
    property-map parameters, which must bind at prepare time. With
    [auto_params], scalar literals are additionally lifted into placeholder
    slots ({!Gopt_cache.Fingerprint.auto_parameterize}), so statements
    differing only in literals share one cache entry; the extracted values
    become default bindings. *)

val explain_cypher :
  ?params:(string * Gopt_graph.Value.t list) list ->
  ?config:Gopt_opt.Planner.config ->
  Session.t ->
  string ->
  string
(** Human-readable report: input logical plan, optimized logical plan,
    applied rules, and the physical plan. *)

val explain_logical :
  ?config:Gopt_opt.Planner.config -> Session.t -> Gopt_gir.Logical.t -> string
(** {!explain_cypher}'s report for a logical plan from any frontend (e.g.
    {!gremlin_to_gir}), bypassing the plan cache. *)

val render_trace : outcome -> string
(** EXPLAIN ANALYZE-style rendering of the outcome's per-operator trace:
    rows in/out and self time per operator, plus — on operators that ran a
    vectorized kernel — the kernel's selected-row count and kernel time. *)

val explain_analyze_cypher :
  ?params:(string * Gopt_graph.Value.t list) list ->
  ?config:Gopt_opt.Planner.config ->
  ?profile:Gopt_exec.Engine.profile ->
  ?budget:float ->
  ?chunk_size:int ->
  ?workers:int ->
  Session.t ->
  string ->
  outcome * string
(** Optimize {e and} execute, returning the outcome together with a report
    combining the physical plan with the measured per-operator trace. With
    several [workers] the trace contains one exchange node per stage, with
    one leaf per worker, and a summary line reports worker and exchange-row
    counts. *)

val cypher_to_gir :
  ?params:(string * Gopt_graph.Value.t list) list ->
  Session.t ->
  string ->
  Gopt_gir.Logical.t
(** Frontend only: parse + lower (useful for cross-language tests). *)

val gremlin_to_gir : Session.t -> string -> Gopt_gir.Logical.t

val check_cypher :
  ?params:(string * Gopt_graph.Value.t list) list ->
  Session.t ->
  string ->
  Gopt_check.Diagnostic.t list
(** Statically check a query without planning or executing it: parse and
    lexer failures surface as a single error at path ["parse"], unknown
    labels/properties raised during lowering at path ["lower"], and the
    lowered plan runs through {!Gopt_check.Plan_check} against the session
    schema — undefined variables, type-mismatched expressions, malformed
    operators, and unused-binding warnings, each anchored at its operator
    path. An empty list means the query is clean. *)

val check_gremlin : Session.t -> string -> Gopt_check.Diagnostic.t list

val front_door_error : exn -> Gopt_check.Diagnostic.t option
(** The diagnostic {!check_cypher} and {!check_gremlin} report for a
    frontend exception: a Cypher or Gremlin [Parse_error] or a
    [Lexer.Lex_error] at path ["parse"], a [Lowering.Lowering_error] at
    path ["lower"]. [None] for any other exception. *)

val check_gir : Session.t -> Gopt_gir.Logical.t -> Gopt_check.Diagnostic.t list
(** {!Gopt_check.Plan_check.check} against the session schema. *)

val render_diagnostics : Gopt_check.Diagnostic.t list -> string
(** One ["severity: path: message"] line per diagnostic;
    ["(no diagnostics)"] when the list is empty. *)
