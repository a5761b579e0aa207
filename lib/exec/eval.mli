(** Expression evaluation over rows.

    Comparison and arithmetic follow SQL-ish null semantics: any comparison
    or arithmetic involving Null yields Null; AND/OR use Kleene logic; a
    SELECT keeps a row only when its predicate evaluates to [Bool true]
    ({!is_true}). *)

val eval :
  Gopt_graph.Property_graph.t ->
  (string -> Rval.t option) ->
  Gopt_pattern.Expr.t ->
  Gopt_graph.Value.t
(** [eval g lookup e] evaluates [e]; [lookup] resolves tags to row values
    (unknown tags evaluate to Null, matching optional-field semantics). *)

val eval_rval :
  Gopt_graph.Property_graph.t ->
  (string -> Rval.t option) ->
  Gopt_pattern.Expr.t ->
  Rval.t
(** Like {!eval} but preserves graph-typed values: [Var tag] returns the
    tag's raw runtime value (so projecting a vertex keeps it a vertex). *)

val is_true : Gopt_graph.Value.t -> bool

val lookup_of_row : Batch.t -> Rval.t array -> string -> Rval.t option
(** Standard row-based tag resolver. *)

val contains : sub:string -> string -> bool
(** Allocation-free substring test ([CONTAINS]); the empty needle is
    contained in every string. Exposed for unit tests. *)

(** {1 Vectorized predicate kernels}

    A kernel is an expression compiled once per operator into a function
    that narrows candidate logical row indices of a columnar {!Batch.t} to
    the rows where the expression evaluates to [Bool true]. Hot shapes
    (AND-chains, [tag.key <op> const] comparisons, null tests, property
    IN-lists) become monomorphic column-at-a-time loops with the property
    column lookup hoisted out of the row loop; every other shape falls back
    to the row interpreter, row by row, with identical semantics. *)

type kernel

val compile :
  Gopt_graph.Property_graph.t ->
  fields:string list ->
  Gopt_pattern.Expr.t ->
  kernel
(** [compile g ~fields e] compiles [e] against the given chunk layout. *)

val run_kernel : kernel -> Batch.t -> int array -> int array
(** [run_kernel k b cand] filters the candidate logical row indices. The
    result is in candidate order and may share [cand] when all survive.
    Kernels are pure readers: one compiled kernel may run concurrently on
    several domains. *)

val vectorized : kernel -> bool
(** Whether at least part of the kernel runs as a specialized column loop
    (drives the [rows_selected]/[kernel_ns] trace counters). *)

(** {1 Column evaluation} *)

val column :
  Gopt_graph.Property_graph.t ->
  fields:string list ->
  Gopt_pattern.Expr.t ->
  Batch.t ->
  Batch.data
(** [column g ~fields e] compiles [e] against the given chunk layout into
    a function from a chunk to [e]'s value on each of its logical rows, as
    fresh storage indexed by logical row: the value {!eval_rval} gives per
    row. A bound variable copies its column, so dense ids stay dense; a
    property of a bound tag ([v.id]) is read from the graph's property
    column through the dense ids in one loop, an absent one as
    [Rval Null]; any other expression runs through the row interpreter.
    Computed projections and computed grouping keys use it. *)
