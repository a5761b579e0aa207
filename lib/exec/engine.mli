(** The execution engine: a physical-plan interpreter over the property
    graph store.

    One engine executes the plans of every backend profile — exactly as the
    paper runs GOpt plans and Neo4j plans on both Neo4j and GraphScope — but
    the {e profile} controls the accounting: the GraphScope profile simulates
    a distributed dataflow by counting every produced intermediate row as
    communication (the paper's communication-cost definition), while the
    Neo4j profile is a single-machine pipeline with no communication.
    Benchmarks combine wall-clock time with the simulated communication
    volume (see EXPERIMENTS.md).

    Execution is morsel-driven, push-based and pipelined: the plan's input
    is split into morsels that flow through chains of streaming operators
    in fixed-size chunks, straight into the next pipeline breaker's state
    (see {!Gopt_opt.Physical.pipeline_role}); hash joins probe a table
    built once from their build side, so their output streams too. [LIMIT]
    stops a morsel's operators as soon as it is satisfied, and no further
    morsels start. Every run records a per-operator {!Op_trace.t} on
    {!stats.op_trace}. The original batch-at-a-time interpreter survives as
    {!run_materialized}, the semantic oracle for differential tests.

    All pattern operators implement homomorphism semantics; Cypher's
    no-repeated-edge semantics is realized by the AllDistinct operator
    (paper Remark 3.1). *)

type profile = Op_trace.profile = {
  count_comm : bool;
      (** Count produced intermediate rows, and rows crossing a worker-merge
          exchange, as simulated communication. *)
}

val neo4j_profile : profile
val graphscope_profile : profile

type stats = Op_trace.stats = {
  mutable operators : int;  (** Operators executed. *)
  mutable intermediate_rows : int;  (** Total rows produced across operators. *)
  mutable intermediate_cells : int;  (** Rows weighted by width (FieldTrim effect). *)
  mutable comm_rows : int;  (** Simulated shuffled rows (distributed profiles). *)
  mutable comm_cells : int;
      (** Shuffled rows weighted by row width — the simulated network volume
          (what FieldTrim reduces). *)
  mutable edges_touched : int;  (** Adjacency entries visited by expansions. *)
  mutable peak_rows : int;
      (** Maximum simultaneously-live materialized rows. On pipelined plans
          this reflects breaker state plus accumulated results and drops
          well below the materialized path's peak. *)
  mutable live_rows : int;  (** Current live rows (internal counter). *)
  mutable exchange_rows : int;
      (** Rows that crossed a worker-merge exchange (0 with one worker). *)
  mutable exchange_cells : int;  (** Exchange rows weighted by row width. *)
  mutable workers_used : int;  (** Worker domains the run was given. *)
  mutable op_trace : Op_trace.t option;
      (** Per-operator trace of the last run ({!run} fills it in;
          {!run_materialized} leaves it [None]). *)
}

exception Timeout
(** Raised when the run exceeds its [budget] of CPU seconds — the engine's
    analogue of the paper's one-hour OT cutoff. *)

val run :
  ?profile:profile ->
  ?budget:float ->
  ?chunk_size:int ->
  ?workers:int ->
  Gopt_graph.Property_graph.t ->
  Gopt_opt.Physical.t ->
  Batch.t * stats
(** Execute a plan. [profile] defaults to {!graphscope_profile};
    [chunk_size] is the pipelined batch granularity and the morsel size
    (default 1024, at least 1: a smaller value raises [Invalid_argument]
    naming it).

    Scan and filter predicates always run as column-at-a-time kernels
    (falling back to the row interpreter for shapes without one), and
    all-variable projections are column swaps.

    A plan carrying [$x] placeholders ({!Gopt_pattern.Expr.Param}) runs
    after {!Gopt_opt.Physical.bind_params} has substituted them.

    [workers] (default 1, at least 1) is the number of OCaml domains. Scans
    and materialized intermediates are split into morsels of one chunk
    each. With one worker the morsels run in order on the calling domain
    and feed each pipeline breaker directly: no exchange, and a trace with
    the plan's shape. With more, the domains claim
    morsels, each morsel builds its own partial breaker state, and the
    partials merge in morsel order; the trace gains one exchange node per
    stage.

    Output order is part of the result: the same plan yields the same rows
    in the same order for every [workers] and [chunk_size].
    GROUP BY emits groups in the order their key first appears, ORDER BY is
    stable, and DISTINCT keeps the first row of each key. The one exception
    is the rounding of SUM/AVG over non-integral floats, which several
    workers add up per morsel before merging. *)

val run_materialized :
  ?profile:profile ->
  ?budget:float ->
  Gopt_graph.Property_graph.t ->
  Gopt_opt.Physical.t ->
  Batch.t * stats
(** Execute a plan on the materialized batch-at-a-time reference engine
    (every operator fully materializes its output; no per-operator trace).
    Same results as {!run} on every plan; used as the oracle in
    differential tests. *)
