(** Growable arrays.

    OCaml 5.1 predates [Dynarray] in the standard library; this is the small
    subset we need for graph construction and batched query execution. *)

type 'a t
(** A growable array of ['a]. *)

val create : unit -> 'a t
(** Fresh empty vector. *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th element; raises [Invalid_argument] out of range. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit
(** Append one element, growing the backing store as needed. *)

val pop : 'a t -> 'a option
(** Remove and return the last element, if any. *)

val clear : 'a t -> unit
(** Remove all elements (does not shrink the backing store). *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_array : 'a t -> 'a array
(** Copy out the contents. *)

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val append : 'a t -> 'a t -> unit
(** [append dst src] pushes all of [src] onto [dst]. *)

val sort : ('a -> 'a -> int) -> 'a t -> unit
(** In-place stable sort of the live prefix: equal elements keep their
    insertion order. *)
