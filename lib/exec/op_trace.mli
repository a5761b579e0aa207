(** Per-operator execution traces and the shared execution accounting.

    A trace mirrors the physical plan tree: one node per operator, carrying
    rows-in / rows-out and the operator's {e self} CPU time (time spent in
    nested operators is attributed to those operators, profiler-style). The
    engine fills one in on every run and hangs it off {!stats.op_trace};
    {!pp} renders it [EXPLAIN ANALYZE]-style. *)

type t = {
  name : string;  (** Single-line operator description. *)
  mutable rows_in : int;
  mutable rows_out : int;
  mutable rows_selected : int;
      (** Rows that survived this operator's vectorized kernels (0 on
          row-interpreted operators). *)
  mutable kernel_ns : float;
      (** CPU nanoseconds spent inside vectorized kernels — the kernel-level
          share of [time_s]. *)
  mutable time_s : float;  (** Self CPU seconds (exclusive of children). *)
  mutable children : t list;
}

val make : string -> t list -> t

type profile = {
  count_comm : bool;
      (** The backend is a distributed dataflow: produced intermediate rows,
          and rows crossing a worker-merge exchange of the morsel-driven
          engine, are charged to the communication counters (the paper's
          communication-cost definition). Single-machine profiles leave both
          out of [comm_rows]; exchange crossings are still tracked in
          [exchange_rows]. *)
}

val neo4j_profile : profile
val graphscope_profile : profile

type stats = {
  mutable operators : int;  (** Operators executed. *)
  mutable intermediate_rows : int;  (** Total rows produced across operators. *)
  mutable intermediate_cells : int;  (** Rows weighted by width (FieldTrim effect). *)
  mutable comm_rows : int;  (** Simulated shuffled rows (distributed profiles). *)
  mutable comm_cells : int;  (** Shuffled rows weighted by row width. *)
  mutable edges_touched : int;  (** Adjacency entries visited by expansions. *)
  mutable peak_rows : int;
      (** Maximum simultaneously-live materialized rows (breaker state,
          reference batches, accumulated results). Drops on pipelined
          plans relative to the materialized reference path. *)
  mutable live_rows : int;  (** Current live rows (internal counter). *)
  mutable exchange_rows : int;
      (** Rows that crossed a worker-merge exchange (0 with one worker). *)
  mutable exchange_cells : int;  (** Exchange rows weighted by row width. *)
  mutable workers_used : int;  (** Worker domains of the run. *)
  mutable op_trace : t option;  (** Per-operator trace of the last run. *)
}

val fresh_stats : unit -> stats

exception Timeout
(** Raised when a run exceeds its [budget] of CPU seconds — the engine's
    analogue of the paper's one-hour OT cutoff. *)

val live_add : stats -> int -> unit
(** Rows became live; updates [peak_rows]. *)

val live_sub : stats -> int -> unit
(** Rows were released. *)

val count_rows : profile -> stats -> width:int -> int -> unit
(** [count_rows profile st ~width n]: an operator produced [n] rows of
    [width] fields. They count as intermediate rows, and as communication
    when the profile counts it. *)

type clock
(** Self-time attribution clock shared by all operators of one run. *)

val clock : unit -> clock

val timed : clock -> t -> (unit -> 'a) -> 'a
(** [timed clk tr f] runs [f], charging elapsed CPU time to [tr] except for
    slices spent inside nested [timed] frames (exception-safe). *)

val pp : Format.formatter -> t -> unit
(** EXPLAIN ANALYZE-style tree rendering. *)

val to_string : t -> string

val absorb : t -> t -> unit
(** [absorb dst src] adds [src]'s own rows, kernel counters and self time
    into [dst] (children are not visited). A worker of a multi-worker run
    records into private copies of the trace nodes, which are absorbed into
    the run's trace when the stage ends. *)
