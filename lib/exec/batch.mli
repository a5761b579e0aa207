(** Columnar chunks exchanged between physical operators.

    A batch has a fixed field layout (tag -> column position) and stores its
    rows column-wise: vertex and edge bindings live in dense unboxed [int]
    arrays, everything else (scalars, paths, lists, nulls) in boxed
    {!Rval.t} columns. A column adapts on first write and promotes itself to
    the boxed representation if a non-conforming value arrives later (e.g. an
    [Rnull] padded in by an outer join).

    On top of the physical columns sits an optional {e selection vector}: a
    logical-to-physical row mapping that lets filters mark survivors and
    morsel splitting take row ranges without copying any column data.
    Batches carrying a selection vector (and batches sharing another batch's
    columns — the results of {!sub}, {!select} and {!project}) are immutable
    views; {!add} applies only to freshly {!create}d batches.

    The row-oriented API ({!row}, {!iter}) is preserved for operators that
    genuinely need row-at-a-time processing (path expansion, computed
    projections, keyed grouping): it materializes row arrays on demand. Vectorized kernels instead read the
    physical columns directly via {!col} and index them through
    {!selection}. *)

type t

val create : string list -> t
(** Fresh empty batch with the given field layout. Raises
    [Invalid_argument] on duplicate fields. *)

val fields : t -> string list

val has_field : t -> string -> bool

val pos : t -> string -> int
(** Column position of a field; raises [Invalid_argument] naming the missing
    field and the batch's layout (planner/engine mismatches are bugs and
    should be diagnosable). *)

val pos_opt : t -> string -> int option
(** Total variant, for optional-field lookups. *)

val n_rows : t -> int
(** Logical row count (selection-vector length when one is present). *)

val n_fields : t -> int

val add : t -> Rval.t array -> unit
(** Append a row (length must match the layout). Raises [Invalid_argument]
    on views — batches returned by {!sub}, {!select} or {!project} share
    column storage and are immutable. *)

val get : t -> int -> int -> Rval.t
(** [get b i j] is the value of logical row [i] at column [j]. Vertex/edge
    cells are boxed on access; kernels that want the raw ids use {!col}. *)

val row : t -> int -> Rval.t array
(** The [i]-th logical row, materialized as a fresh array. *)

val lookup : t -> int -> string -> Rval.t option
(** [lookup b i tag] resolves [tag] in logical row [i] without materializing
    the row ([None] when the field is absent) — the columnar counterpart of
    {!Eval.lookup_of_row}. *)

val iter : (Rval.t array -> unit) -> t -> unit
(** Row-at-a-time iteration in logical order; each row is a fresh array. *)

val of_rows : string list -> Rval.t array list -> t

val of_vertex_ids : string -> int array -> pos:int -> len:int -> t
(** [of_vertex_ids alias ids ~pos ~len] is a single-field batch over the
    given slice of vertex ids, filled column-wise without boxing — the
    vectorized scan's chunk constructor. *)

val project_to : t -> string list -> Rval.t array -> Rval.t array
(** [project_to b target_fields row] reorders [row] (laid out as [b]) into
    the target field order. Used to align UNION branches. *)

val sub : t -> pos:int -> len:int -> t
(** [sub b ~pos ~len] is a zero-copy view of rows [pos .. pos+len-1]: the
    columns are shared and the range becomes a selection vector. Raises
    [Invalid_argument] when the range is out of bounds. Morsel-driven
    execution uses this to split a materialized batch into morsels. *)

val select : t -> int array -> t
(** [select b sel] is a zero-copy view keeping the logical rows listed in
    [sel], in that order (composes with an existing selection vector). The
    array is taken over by the view — do not mutate it afterwards. Filters
    use this to mark survivors without copying column data. *)

val project : t -> (int * string) list -> t
(** [project b [(j, alias); ...]] is a zero-copy view whose [alias] column
    is [b]'s column [j] — projection of already-bound fields as pure column
    swaps. Raises [Invalid_argument] on duplicate output aliases. *)

type data =
  | D_vertex of int array  (** Dense vertex ids. *)
  | D_edge of int array  (** Dense edge ids. *)
  | D_boxed of Rval.t array  (** Boxed values (mixed or scalar columns). *)

val col : t -> int -> data
(** Physical storage of column [j], for vectorized kernels. Arrays may be
    longer than the row count (capacity); index them only through
    {!selection} / physical row indices [< n_rows] and do not mutate. *)

val selection : t -> int array option
(** The selection vector: logical row [i] lives at physical index
    [sel.(i)]; [None] means the identity mapping. *)

val gather : t -> int -> int array -> int -> data
(** [gather b j rows n] copies column [j] at the logical rows
    [rows.(0) .. rows.(n-1)] into fresh storage of the same kind: a dense
    vertex or edge column stays dense. The hash join gathers its output
    chunk's probe-side columns this way, and the expansions their input
    columns. *)

val of_data : string list -> int -> data array -> t
(** [of_data fields n cols] is a fresh batch of [n] rows whose column [j]
    is [cols.(j)] (taken over, not copied; each array holds at least [n]
    cells). Raises [Invalid_argument] when the column count does not match
    the layout. Assembles a gathered hash-join or expansion output chunk. *)

val append_batch : t -> t -> unit
(** [append_batch dst src] appends [src]'s logical rows to [dst]
    column-wise (compacting through [src]'s selection vector). Layouts must
    match and [dst] must not be a view. *)

val concat : string list -> t list -> t
(** [concat fields bs] is a fresh batch with layout [fields] holding the
    rows of every batch of [bs] in order, built by column-wise appends.
    Each input batch must have exactly the layout [fields] (raises
    [Invalid_argument] otherwise). Assembles the engine's final result from
    its per-morsel parts. *)

val pp : Gopt_graph.Property_graph.t -> Format.formatter -> t -> unit
(** Tabular rendering (for examples and debugging); truncates long
    batches. *)
