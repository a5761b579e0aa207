(** Static types for GIR expressions.

    The execution engines are dynamically typed over {!Gopt_graph.Value.t}
    (plus vertices/edges/paths/lists at the {i Rval} level); this module
    assigns each {!Gopt_pattern.Expr.t} a static type against a field
    environment and, when available, the graph schema's declared property
    kinds — flagging expressions that can only evaluate to [Null] at runtime
    (e.g. [a.name + 1], [NOT a.age]) before the plan ever executes. *)

type ty =
  | Any  (** Unknown / dynamically null-able; unifies with everything. *)
  | Bool
  | Int
  | Float
  | Str
  | Node of Gopt_pattern.Type_constraint.t option
      (** A pattern vertex, with its (possibly inferred) type constraint. *)
  | Edge of Gopt_pattern.Type_constraint.t option
  | Path  (** A variable-length path binding. *)
  | List of ty  (** Result of COLLECT. *)

val to_string : ty -> string

val of_value : Gopt_graph.Value.t -> ty
(** [Null] maps to {!Any}. *)

val is_numeric : ty -> bool
(** [Int], [Float] or [Any]. *)

val compatible : ty -> ty -> bool
(** Whether two types can meaningfully compare/join: same kind (numeric,
    string, bool, element, path, list), or either side is {!Any}. *)

val infer :
  ?schema:Gopt_graph.Schema.t ->
  ?param_ty:(string -> ty option) ->
  lookup:(string -> ty option) ->
  path:string ->
  Gopt_pattern.Expr.t ->
  ty * Diagnostic.t list
(** [infer ?schema ~lookup ~path e] types [e] under the field environment
    [lookup]. Diagnostics (unbound variables, arithmetic on non-numeric
    operands, boolean connectives over non-booleans, string predicates over
    non-strings, property access on scalars, undeclared properties) are
    anchored at [path]. With [schema], [Prop] accesses resolve the declared
    property kinds of the types admitted by the element's constraint.
    [param_ty] supplies a declared/inferred scalar kind for [Param]
    placeholders (parameterized plans); parameters without one type as
    {!Any}, and a declared non-scalar parameter kind is an error. *)

val prop_ty :
  Gopt_graph.Schema.t ->
  is_vertex:bool ->
  Gopt_pattern.Type_constraint.t option ->
  string ->
  ty * string option
(** [prop_ty schema ~is_vertex con key] is the static type of property [key]
    on an element constrained by [con], together with [Some warning] when no
    admitted type declares [key]. *)
