(** Scalar expressions of the GIR (paper §5.1).

    Expressions reference earlier results by tag (the [Alias]/[Tag] mechanism
    of the GraphIrBuilder), access vertex/edge properties, and combine values
    with the usual comparison, arithmetic, boolean and string operators.
    Evaluation is defined in the execution layer; this module is the pure
    syntax plus the static analyses the optimizer needs (free tags,
    conjunction splitting, constant folding). *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Neq | Lt | Leq | Gt | Geq
  | And | Or
  | Starts_with | Ends_with | Contains

type unop = Not | Neg | Is_null | Is_not_null

type t =
  | Const of Gopt_graph.Value.t
  | Param of string
      (** A named query parameter ([$name]), left unresolved through the
          whole optimization pipeline and bound to a constant only at
          execution time (cached parameterized plans). Parameters are scalars;
          labels and IN-list value sets are {e not} parameterizable, so type
          inference and label narrowing stay sound on parameterized plans. *)
  | Var of string
      (** Value of a tagged result: the id of a vertex/edge, or a scalar. *)
  | Prop of string * string  (** [Prop (tag, key)] is [tag.key]. *)
  | Label of string
      (** [Label tag]: the type name of the tagged vertex/edge. *)
  | Binop of binop * t * t
  | Unop of unop * t
  | In_list of t * Gopt_graph.Value.t list

val equal : t -> t -> bool
val compare : t -> t -> int

val free_tags : t -> string list
(** Tags the expression references, duplicate-free, in first-use order. The
    FilterIntoPattern rule pushes a predicate into a pattern element only when
    all its free tags resolve to that element. *)

val params : t -> string list
(** Parameter names the expression references, duplicate-free, in first-use
    order. A closed (fully bindable) expression has [params e = []]. *)

val bind_params : (string -> Gopt_graph.Value.t option) -> t -> t
(** [bind_params f e] replaces each [Param name] for which [f name] is
    [Some v] by [Const v]; unresolved parameters are left in place (callers
    decide whether that is an error). *)

val conjuncts : t -> t list
(** Split an expression on top-level [And]s. *)

val conj : t list -> t option
(** Rebuild a conjunction; [None] for the empty list. *)

val rename_tags : (string -> string) -> t -> t
(** Apply a tag substitution to all [Var]/[Prop]/[Label] occurrences. *)

val substitute : (string -> t option) -> t -> t option
(** [substitute f e] replaces each tag reference [x] for which [f x] is
    [Some e'] by [e']. [Var x] accepts any replacement; [Prop (x, k)] and
    [Label x] only accept a replacement of the form [Var y] (one cannot take
    the property of a computed value) — in that case the whole substitution
    fails with [None]. Used by predicate push-down through projections. *)

val const_fold : t -> t
(** Fold constant subexpressions (pure, best-effort: arithmetic, comparisons
    and boolean connectives over constants). *)

val binop_name : binop -> string
(** Surface-syntax name of a binary operator ("+", "AND", "CONTAINS", ...). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
