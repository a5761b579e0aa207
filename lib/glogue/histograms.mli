(** Property-value statistics for selectivity estimation.

    The paper's Remark 7.1 uses a constant default selectivity (0.1) for
    predicates pushed into patterns and names histogram/sampling-based
    estimation as future work; this module implements it. For every
    (vertex-or-edge type, property) pair the build pass collects:

    - numeric properties: an equi-depth histogram (bucket boundaries over
      the sorted values), answering range and equality selectivities;
    - all properties: the distinct-value count and the total population,
      answering equality and IN-list selectivities under a uniform
      assumption over distinct values.

    {!Glogue_query} consults these when available, falling back to the
    constant default. *)

type t

val build : ?buckets:int -> Gopt_graph.Property_graph.t -> t
(** Scan the graph once per property column; [buckets] (default 32) bounds
    the equi-depth histogram resolution. *)

type elem = Vertex | Edge

val selectivity :
  t ->
  elem:elem ->
  type_ids:int list ->
  prop:string ->
  [ `Eq of Gopt_graph.Value.t
  | `Range of [ `Lt | `Leq | `Gt | `Geq ] * Gopt_graph.Value.t
  | `In of Gopt_graph.Value.t list ] ->
  float option
(** Estimated fraction of elements (of any of the given types) satisfying
    the comparison on [prop]; [None] when no statistics were collected for
    the column (e.g. an unknown property). Multiple types are combined by
    population-weighted averaging. *)
