(** Static well-formedness verification of GIR logical plans.

    The optimizer's rewrite contract (paper §6–§7) requires every stage —
    RBO rules, ComSubPattern factoring, CBO orders, physical lowering — to
    preserve plan well-formedness. This module makes that contract
    machine-checked: {!check} walks a {!Gopt_gir.Logical.t} bottom-up,
    tracking the typed field environment every operator produces, and
    reports structural violations as {!Diagnostic.t}s instead of letting
    them surface as [assert false]/[failwith] deep in lowering or the
    engines.

    Invariant catalog (errors unless noted):
    - every expression variable resolves to an output field of its input;
    - filter predicates type as booleans; arithmetic/string/logic operands
      type-check against the schema's declared property kinds;
    - [Join] keys exist on both sides, with kind-compatible types;
    - [Common_ref] appears only inside a [With_common] branch;
    - pattern aliases are namespace-disjoint (no vertex/edge collision);
    - disconnected [Match] patterns warn (planner forms a cartesian
      product); a [Pattern_cont] component sharing no vertex with its bound
      input is an error (the continuation compiler cannot bind it);
    - [Project]/[Group] output aliases are collision-free;
    - [Group] aggregates have required arguments with numeric inputs where
      the aggregate demands it ([SUM]/[AVG]);
    - [Order] keys are not lists/paths; [Order] top-k, [Limit], [Skip]
      counts are non-negative;
    - [Unwind] operands are lists; [Dedup] tags are input fields;
    - [All_distinct] tags name edge or path fields of the input;
    - [Union] (and [With_common C_union]) branches produce the same field
      set (differing order is a warning);
    - user-named pattern bindings that are never referenced warn (skipped
      in [~partial] mode). *)

val check :
  ?schema:Gopt_graph.Schema.t ->
  ?partial:bool ->
  Gopt_gir.Logical.t ->
  Diagnostic.t list
(** [check ?schema ?partial plan] returns all diagnostics, outermost
    operators first. With [schema], pattern constraints are narrowed through
    {!Gopt_typeinf.Type_inference} first (an unsatisfiable pattern is a
    warning — the planner compiles it to an empty scan) and property
    accesses are checked against declared property kinds.

    [~partial:true] checks a plan {e fragment}, as the checked rule rewriter
    does after each rule firing: a [Common_ref] whose [With_common] ancestor
    lies outside the fragment is treated as an unknown-but-bound input
    rather than an error, and the unused-binding lint is skipped. *)

val first_error : Diagnostic.t list -> Diagnostic.t option

