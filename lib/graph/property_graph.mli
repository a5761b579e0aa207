(** In-memory property graph store.

    This is the data substrate the paper's backends (Neo4j, GraphScope) stand
    on: a schema-strict directed multigraph with typed vertices and edges and
    dynamically-typed property columns. The frozen representation is CSR
    (compressed sparse row) adjacency in both directions, with each vertex's
    adjacency sorted by [(etype, neighbour)] so that per-edge-type expansion
    and sorted-neighbour intersection (the worst-case-optimal join kernel)
    are cheap.

    Vertices and edges are dense integer ids ([0 .. n-1]). *)

type t

(** {1 Construction} *)

module Builder : sig
  type graph := t

  type t
  (** A mutable graph under construction. *)

  val create : Schema.t -> t

  val add_vertex : t -> vtype:int -> (string * Value.t) list -> int
  (** [add_vertex b ~vtype props] appends a vertex and returns its id.
      Raises [Invalid_argument] if [vtype] is out of range. *)

  val add_edge : t -> src:int -> dst:int -> etype:int -> (string * Value.t) list -> int
  (** [add_edge b ~src ~dst ~etype props] appends a directed edge and returns
      its id. Schema-strict: raises [Invalid_argument] if the
      [(vtype src, etype, vtype dst)] triple is not allowed by the schema. *)

  val n_vertices : t -> int

  val vtype : t -> int -> int
  (** Type of an already-added vertex (useful while generating edges). *)

  val freeze : t -> graph
  (** Build the immutable CSR representation. The builder can be reused
      afterwards, but further mutation does not affect the frozen graph. *)
end

(** {1 Basic accessors} *)

val schema : t -> Schema.t
val n_vertices : t -> int
val n_edges : t -> int

val vtype : t -> int -> int
(** Type of vertex [v]. *)

val etype : t -> int -> int
(** Type of edge [e]. *)

val esrc : t -> int -> int
(** Source vertex of edge [e]. *)

val edst : t -> int -> int
(** Destination vertex of edge [e]. *)

(** {1 Adjacency} *)

val out_degree : t -> int -> int
val out_degree_etype : t -> int -> int -> int
val in_degree_etype : t -> int -> int -> int

val iter_out : t -> int -> (int -> unit) -> unit
(** [iter_out g v f] calls [f eid] for every outgoing edge of [v]. *)

val iter_in : t -> int -> (int -> unit) -> unit

val iter_out_etype : t -> int -> int -> (int -> int -> unit) -> unit
(** [iter_out_etype g v et f] calls [f eid dst] for every outgoing
    [et]-edge of [v], in adjacency order (by destination, then edge id):
    the edge and its other endpoint come from one CSR slot. *)

val iter_in_etype : t -> int -> int -> (int -> int -> unit) -> unit
(** Incoming analogue of {!iter_out_etype}: [f eid src]. *)

val out_neighbors_etype : t -> int -> int -> int array
(** [out_neighbors_etype g v et] is the sorted array of destination vertices
    of [v]'s outgoing [et]-edges (may contain duplicates for parallel
    edges). Shares no storage with the graph. *)

val in_neighbors_etype : t -> int -> int -> int array

val has_out_edge : t -> src:int -> etype:int -> dst:int -> bool
(** Sorted-adjacency membership test, O(log degree). *)

val iter_out_edges_to : t -> src:int -> etype:int -> dst:int -> (int -> unit) -> unit
(** [iter_out_edges_to g ~src ~etype ~dst f] calls [f eid] for every
    parallel [etype]-edge from [src] to [dst], in edge-id order: a binary
    search in [src]'s sorted etype slice, no list built. *)

val find_out_edges : t -> src:int -> etype:int -> dst:int -> int list
(** All parallel [etype]-edges from [src] to [dst], in edge-id order. *)

(** {1 Type-indexed access and statistics} *)

val vertices_of_vtype : t -> int -> int array
(** All vertices of a given type (ascending ids). The returned array is owned
    by the graph: do not mutate. *)

val count_vtype : t -> int -> int
val count_etype : t -> int -> int

val triple_count : t -> src:int -> etype:int -> dst:int -> int
(** Number of edges realizing a schema triple — the single-edge "high-order"
    statistic GLogue builds on. *)

val avg_out_degree : t -> src_vtype:int -> etype:int -> float
(** Average number of outgoing [etype]-edges per vertex of [src_vtype]. *)

val avg_in_degree : t -> dst_vtype:int -> etype:int -> float

(** {1 Properties} *)

val vprop : t -> int -> string -> Value.t
(** [vprop g v key] is vertex [v]'s property [key], or [Null]. *)

val eprop : t -> int -> string -> Value.t

val vprop_column : t -> string -> Value.t array option
(** The dense property column for [key], indexed by vertex id (absent
    entries hold [Null]); [None] when no vertex carries the property.
    Owned by the graph — do not mutate. Vectorized expression kernels use
    this to hoist the per-key hashtable lookup out of their row loops. *)

val eprop_column : t -> string -> Value.t array option
(** Edge-indexed analogue of {!vprop_column}. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: vertex/edge counts per type. *)
