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

  val create : ?plan_cache_capacity:int -> Gopt_graph.Property_graph.t -> t
  (** Build a session: precomputes GLogue motif statistics up to 3
      vertices and property histograms for selectivity estimation, and sets
      up the cardinality estimator. [plan_cache_capacity] bounds the
      session's LRU plan cache (default 128; [0] disables caching
      entirely). *)

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
      (** The optimized plan as planned and cached: a query run with
          [params] keeps its scalar [$x] placeholders here; the engine ran
          it after {!Gopt_opt.Physical.bind_params}. *)
}

val run_cypher :
  ?params:(string * Gopt_graph.Value.t list) list ->
  ?config:Gopt_opt.Planner.config ->
  ?budget:float ->
  ?chunk_size:int ->
  ?workers:int ->
  Session.t ->
  string ->
  outcome
(** Parse, optimize and execute a Cypher query. [config] defaults to the
    full GOpt pipeline on the GraphScope spec, and the engine profile
    follows its backend; [budget] (CPU seconds) bounds execution;
    [chunk_size] sets the engine's pipelined batch granularity, which is
    also the rows per work unit (at least 1, else [Invalid_argument]).
    [workers] (default 1) is the number of OCaml domains the engine runs
    on; rows and their order are the same for every worker count (see
    {!Gopt_exec.Engine.run}).

    The optimized plan is consulted from and stored into the session plan
    cache keyed by {!Gopt_cache.Fingerprint}: repeated templates skip
    RBO/inference/CBO entirely. With [params], scalar [$name] parameters
    stay symbolic in the cached plan and are bound per execution by
    {!Gopt_opt.Physical.bind_params}, so runs differing only in scalar
    parameter values share one plan; a placeholder left unbound (or bound
    to several values) raises [Invalid_argument] naming it. [IN]-list and
    property-map parameters bind at parse time. Without [params] the text
    is a literal query, and a [$name] in it raises
    {!Gopt_lang.Cypher_parser.Parse_error}. [report.plan_cache] records
    whether this run hit. *)

val run_gremlin :
  ?config:Gopt_opt.Planner.config ->
  ?budget:float ->
  ?chunk_size:int ->
  ?workers:int ->
  Session.t ->
  string ->
  outcome
(** Parse, optimize and execute a Gremlin traversal, as {!run_cypher}
    without the plan cache. *)

val plan_cypher :
  ?params:(string * Gopt_graph.Value.t list) list ->
  ?config:Gopt_opt.Planner.config ->
  ?use_cache:bool ->
  Session.t ->
  string ->
  Gopt_opt.Physical.t * Gopt_opt.Planner.report
(** Optimize without executing. [use_cache] defaults to [false] here —
    planning APIs are used to {e observe} the optimizer, and [params] are
    substituted at parse time; pass [true] to go through the session cache
    like {!run_cypher} does, leaving scalar placeholders in the plan. *)

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

val render_diagnostics : Gopt_check.Diagnostic.t list -> string
(** One ["severity: path: message"] line per diagnostic;
    ["(no diagnostics)"] when the list is empty. *)
