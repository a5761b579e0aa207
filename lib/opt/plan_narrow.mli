(** Narrowing passes over physical plans (paper §6 type inference, Fig. 8(a)
    FieldTrim), run by {!Planner.plan} after physical lowering. Both reuse
    existing operators: they move [All_distinct] checks and insert all-[Var]
    [Project]s.

    {b Edge distinctness by type.} Two pattern edges can bind the same graph
    edge only if the schema triples [(src vtype, etype, dst vtype)] they can
    bind intersect. {!distinct_components} splits an [All_distinct]'s edges
    into connected components of that overlap relation; checking all pairs
    inside a component equals checking its overlapping pairs, since edges
    that share no triple are always distinct. A component of one plain edge
    needs no check; one var-length path keeps its check on its own edges.

    {b Placement.} Each [All_distinct] moves down to the lowest node that
    binds all of its edges, through the sides of inner hash joins and
    through [Expand_all] and [Path_expand] steps without a predicate. It
    stays above a filtered expansion and above an [Expand_into] (a
    cycle-closing filter), which would otherwise pass it rows they drop.

    {b Join-input trimming.} One top-down pass computes the fields each
    node's consumers read. Below every hash-join input that carries other
    fields it inserts a column-swap [Project] keeping the fields read above,
    the join keys and fields shared by both sides. A keyless count reads
    nothing; [Dedup []], [Union] and [With_common] inputs keep every field; an
    [Expand_into] and a bound [Path_expand] read their target; the right side
    of a semi or anti join keeps only its keys. *)

val distinct_components :
  Gopt_graph.Schema.t -> Gopt_pattern.Pattern.t list -> string list -> string list list
(** [distinct_components schema patterns tags] groups the edge tags of one
    [All_distinct] into the components that still need a check, in
    first-tag order, each in [tags] order. Each tag's triples come from its
    edge in [patterns] (the narrowed patterns below the check; a tag bound
    in several is the union); a tag found in none may be any edge. *)

val narrow : sink:bool -> trim:bool -> Physical.t -> Physical.t
(** [narrow ~sink ~trim plan] moves every [All_distinct] down ([sink]) and
    trims hash-join inputs ([trim]), computing each node's fields once.
    Results, and their row order, are those of [plan]. *)
