(** Lowering of Cypher ASTs into the unified GIR (the GraphIrBuilder role of
    paper §5.2, Fig. 3(c)).

    Conventions mirroring Cypher semantics:
    - anonymous nodes/relationships receive fresh ["@v1"]/["@e1"] aliases;
    - node reuse within a MATCH unifies pattern vertices; reuse across
      clauses becomes an equi-join on the shared tag (which JoinToPattern
      later fuses when possible);
    - each MATCH with two or more relationships is wrapped in ALL_DISTINCT,
      converting homomorphism matching to Cypher's no-repeated-edge
      semantics (paper Remark 3.1); variable-length relationships use Trail
      path semantics;
    - WITH/RETURN projections with aggregates group implicitly on their
      scalar items;
    - UNION deduplicates; UNION ALL concatenates;
    - WHERE pattern predicates ([EXISTS (...)], [NOT (...)]) become
      semi/anti joins. *)

exception Lowering_error of string

val cypher :
  ?edge_distinct:bool -> Gopt_graph.Schema.t -> Cypher_ast.query -> Gopt_gir.Logical.t
(** [edge_distinct] (default [true]) controls the ALL_DISTINCT wrapping;
    disable it for pure homomorphism semantics. Raises {!Lowering_error} on
    unknown labels/types or unsupported constructs. *)

val build_pattern :
  Gopt_graph.Schema.t ->
  fresh:(string -> string) ->
  Cypher_ast.path_pat list ->
  Gopt_pattern.Pattern.t * Gopt_pattern.Expr.t option
(** Build one pattern graph from path patterns (exposed for the Gremlin
    frontend and for tests). [fresh] generates aliases for anonymous
    elements. A relationship from a node to itself ends at a fresh hidden
    vertex (["@loop1"], ...) instead, since a pattern holds no self-loop; the
    returned filter equates each such vertex with its node. A single-hop
    self-loop is matched directed, so an undirected one matches each graph
    self-loop once. *)
