(** Graph schema: the vertex/edge type universe and their connectivity.

    GOpt's metadata provider (paper §4) exposes the schema to the type
    checker: which vertex types exist, which edge types exist, and which
    [(src_vtype, etype, dst_vtype)] triples the data graph may contain. We
    model the schema-strict context of the paper (§6.2); the schema-loose
    case (Remark 6.1) is handled by {!of_graph_extraction}-style discovery,
    i.e. deriving a schema from observed data. *)

type prop_kind = P_bool | P_int | P_float | P_string
(** Declared property kinds, used for documentation and validation of
    generated data; execution is dynamically typed over {!Value.t}. *)

type t

val create :
  vtypes:(string * (string * prop_kind) list) list ->
  etypes:(string * (string * prop_kind) list) list ->
  triples:(string * string * string) list ->
  t
(** [create ~vtypes ~etypes ~triples] builds a schema. [vtypes] and [etypes]
    list type names with their declared properties; [triples] lists the
    allowed [(src_vtype_name, etype_name, dst_vtype_name)] combinations.
    Raises [Invalid_argument] on duplicate names or unknown names in
    triples. *)

val n_vtypes : t -> int
val n_etypes : t -> int

val vtype_id : t -> string -> int
(** Raises [Not_found] for unknown names. *)

val etype_id : t -> string -> int
val find_vtype : t -> string -> int option
val find_etype : t -> string -> int option
val vtype_name : t -> int -> string
val etype_name : t -> int -> string

val all_vtypes : t -> int list
val all_etypes : t -> int list

val triples : t -> (int * int * int) array
(** All allowed [(src_vtype, etype, dst_vtype)] triples. *)

val triple_allowed : t -> src:int -> etype:int -> dst:int -> bool

val out_schema : t -> int -> (int * int) list
(** [out_schema t vt] lists [(etype, dst_vtype)] pairs reachable by an
    outgoing edge from a vertex of type [vt] — the schema neighbourhood
    N_S(t) / N^E_S(t) of paper Algorithm 1. *)

val in_schema : t -> int -> (int * int) list
(** Mirror of {!out_schema} for incoming edges: [(etype, src_vtype)]. *)

val vprops : t -> int -> (string * prop_kind) list
(** Declared properties of a vertex type. *)

val eprops : t -> int -> (string * prop_kind) list

val pp : Format.formatter -> t -> unit
(** Human-readable dump: types and connectivity triples. *)
