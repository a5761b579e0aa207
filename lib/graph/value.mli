(** Property values.

    The property-graph model attaches key/value pairs to vertices and edges;
    this is the dynamically-typed value domain shared by the graph store, the
    GIR expression language and the execution engines. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

val equal : t -> t -> bool
(** Structural equality. [Null] equals only [Null] (SQL-style three-valued
    logic is handled one level up, in expression evaluation). *)

val compare : t -> t -> int
(** Total order used by ORDER BY and by grouping keys. [Null] sorts first;
    across constructors the order is Null < Bool < Int/Float < Str, with
    [Int] and [Float] compared numerically against each other. *)

val hash : t -> int
(** Hash compatible with [equal] (in particular [Int n] and [Float n] with
    integral [n] hash alike, since they compare equal). *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val as_float : t -> float option
(** Numeric coercion: succeeds on [Int] and [Float]. *)

val as_string : t -> string option

val is_null : t -> bool
