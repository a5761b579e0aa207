(** Physical plans (paper §5.1, Fig. 3(d)/(e)).

    The physical plan fixes operator implementations and their order: how a
    pattern is matched (scans, edge expansions, intersections, hash joins)
    and how the relational part executes. Backends differ in which operators
    the planner emits — e.g. a Neo4j-profile plan closes cycles with
    [Expand_into] while a GraphScope-profile plan uses [Expand_intersect] —
    but every operator here is executable by the engine in [gopt_exec].

    Plans are serializable with {!to_string}, standing in for the paper's
    protobuf hand-off to backends. *)

type edge_step = {
  s_edge : Gopt_pattern.Pattern.edge;
      (** Constraint/alias/direction/predicate of the traversed pattern
          edge. Endpoint {e indices} in this record are pattern-local and not
          meaningful at execution time; the aliases below are. *)
  s_from : string;  (** Alias of the bound endpoint the step starts from. *)
  s_to : string;  (** Alias of the endpoint the step arrives at. *)
  s_forward : bool;
      (** [true] when the traversal follows the edge's stored direction
          (from its [e_src] to its [e_dst]). *)
  s_to_con : Gopt_pattern.Type_constraint.t;  (** Target vertex constraint. *)
  s_to_pred : Gopt_pattern.Expr.t option;  (** Target vertex predicate. *)
}

type t =
  | Scan of {
      alias : string;
      con : Gopt_pattern.Type_constraint.t;
      pred : Gopt_pattern.Expr.t option;
    }  (** Emit all vertices satisfying the constraint. *)
  | Expand_all of t * edge_step
      (** Bind the step's edge and its (new) far vertex, flattening: one
          output row per traversed edge. *)
  | Expand_into of t * edge_step
      (** Both endpoints already bound: keep rows where the edge exists,
          binding the edge alias (one row per parallel edge). *)
  | Expand_intersect of t * edge_step list
      (** Worst-case-optimal vertex expansion: all steps share [s_to]; the
          new vertex is the sorted-adjacency intersection of all steps'
          neighbour lists, then edges are unfolded. *)
  | Path_expand of t * edge_step
      (** Variable-length expansion ([s_edge.e_hops] is [Some _]): binds the
          path value under the edge alias and the far endpoint under
          [s_to] (or filters if [s_to] is already bound). *)
  | Hash_join of { left : t; right : t; keys : string list; kind : Gopt_gir.Logical.join_kind }
  | Select of t * Gopt_pattern.Expr.t
  | Project of t * (Gopt_pattern.Expr.t * string) list
  | Group of t * (Gopt_pattern.Expr.t * string) list * Gopt_gir.Logical.agg list
  | Order of t * (Gopt_pattern.Expr.t * Gopt_gir.Logical.sort_dir) list * int option
  | Limit of t * int
  | Skip of t * int
  | Unfold of t * Gopt_pattern.Expr.t * string
      (** One output row per element of the evaluated collection. *)
  | Dedup of t * string list
  | Union of t * t
  | All_distinct of t * string list
      (** Pairwise-distinct filter over the given edge-valued fields. *)
  | With_common of { common : t; left : t; right : t; combine : Gopt_gir.Logical.combine }
  | Common_ref of string list
      (** Rows of the enclosing [With_common]'s shared subplan; carries its
          field layout. *)
  | Empty of string list
      (** Produces no rows (e.g. a pattern proven INVALID by type
          inference), with the given output fields. *)

val output_fields : t -> string list
(** Visible fields, mirroring {!Gopt_gir.Logical.output_fields}. *)

val children : t -> t list
(** Direct inputs in plan order: a join's or union's left before its right,
    a [With_common]'s common sub-plan before its branches. *)

val with_children : t -> t list -> t
(** [with_children node kids] is [node] over new direct inputs, given in
    {!children} order. Raises [Invalid_argument] on a count mismatch. *)

val node_fields : t -> string list list -> string list
(** [node_fields node kid_fields] is {!output_fields} of [node] given the
    output fields of its children (in {!children} order), without
    recursing — for passes that compute every node's fields once. *)

val map_exprs : (Gopt_pattern.Expr.t -> Gopt_pattern.Expr.t) -> t -> t
(** Rewrite every expression position in the plan: scan and expansion
    predicates, selections, projections, group keys and aggregate arguments,
    sort keys, and unfold sources. Structure (aliases, constraints, join
    keys, limits) is untouched. *)

val params : t -> string list
(** Names of unresolved [Expr.Param] placeholders anywhere in the plan, in
    first-occurrence order, without duplicates. Empty for plans compiled from
    fully-substituted queries. *)

val bind_params : (string * Gopt_graph.Value.t list) list -> t -> t
(** [bind_params bindings plan] substitutes every [Expr.Param] placeholder
    with its bound constant. Each scalar placeholder must bind exactly one
    value; raises [Invalid_argument] with a descriptive message naming the
    missing parameter and the supplied set otherwise. *)

type pipeline_role =
  | Streaming  (** Emits as input arrives; holds no unbounded state. *)
  | Stateful
      (** Emits eagerly but accumulates state proportional to distinct
          input (e.g. Dedup's seen-set). *)
  | Breaker
      (** Must materialize (part of) its input before emitting: Group,
          Order, the Hash_join build side, the With_common common
          sub-plan. *)

val pipeline_role : t -> pipeline_role
(** How the push-based engine executes this operator (classification of the
    node itself, not the subtree). *)

val is_pipeline_breaker : t -> bool
(** [pipeline_role t = Breaker]. *)

val breaker_count : t -> int
(** Pipeline breakers in the whole plan tree; a plan with [n] breakers
    executes as at least [n + 1] pipelines. *)

val node_label : ?schema:Gopt_graph.Schema.t -> t -> string
(** Single-line description of the root operator (no children) — shared by
    {!pp} and the engine's per-operator traces. *)

val pp : ?schema:Gopt_graph.Schema.t -> Format.formatter -> t -> unit
val to_string : ?schema:Gopt_graph.Schema.t -> t -> string

val operator_count : t -> int

val uses_intersect : t -> bool
(** Does the plan contain an [Expand_intersect]? (Observability for tests
    and experiment reports.) *)
