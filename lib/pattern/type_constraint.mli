(** Type constraints on pattern vertices and edges (paper §3).

    A constraint is one of:
    - [Basic t] — matches exactly the data type [t];
    - [Union ts] — matches any type in the (non-trivial) set [ts];
    - [All] — matches every type in the data graph.

    Types are integer ids into a {!Gopt_graph.Schema.t}'s vertex-type or
    edge-type universe; the same representation serves both. *)

type t =
  | Basic of int
  | Union of int list  (** sorted, duplicate-free, length >= 2 *)
  | All

val of_list : universe:int -> int list -> t option
(** [of_list ~universe ts] normalizes a list of type ids into a constraint:
    [None] for the empty list (unsatisfiable), [Basic] for singletons,
    [All] if the set covers the whole universe [0..universe-1], [Union]
    otherwise. *)

val to_list : universe:int -> t -> int list
(** Concrete types admitted by the constraint, ascending. *)

val mem : universe:int -> t -> int -> bool

val inter : universe:int -> t -> t -> t option
(** Set intersection; [None] when empty (the INVALID case of Algorithm 1). *)

val subset : universe:int -> t -> t -> bool
(** [subset ~universe a b] — every type admitted by [a] is admitted by [b]. *)

val cardinality : universe:int -> t -> int

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : names:(int -> string) -> Format.formatter -> t -> unit
(** Pretty-print with type names resolved via [names], e.g.
    [Person], [Post|Comment], [*]. *)

val fingerprint : t -> string
(** Stable string form used in canonical pattern codes. *)
