(** Structured static-analysis diagnostics.

    Every check in [gopt_check] (and the physical-plan checker layered on top
    in [gopt_opt]) reports findings as a list of diagnostics instead of
    raising deep inside the optimizer: each carries a severity, the path of
    the plan node it anchors to (e.g. ["Order/Group/Select/Match"]), and a
    human-readable message. *)

type severity = Error | Warning

type t = {
  severity : severity;
  path : string;  (** Slash-joined node-kind path from the plan root. *)
  message : string;
}

val error : path:string -> string -> t
val warning : path:string -> string -> t

val errorf : path:string -> ('a, unit, string, t) format4 -> 'a

val is_error : t -> bool

val errors : t list -> t list
(** Keep only [Error]-severity diagnostics. *)

val is_clean : t list -> bool
(** No errors (warnings allowed). *)

val pp : Format.formatter -> t -> unit
(** ["error: <path>: <message>"]. *)

val render : t list -> string
(** One diagnostic per line; ["(no diagnostics)"] when empty. *)
