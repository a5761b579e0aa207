(* Engine facade.

   [run] is the morsel-driven push engine ([Parallel] driving [Operator]
   fragments into [Breaker] states); [run_materialized] is the original
   batch-at-a-time interpreter ([Engine_reference]), retained as the
   semantic oracle. Both share the accounting types in [Op_trace],
   re-exported here so existing callers keep matching on [Engine.Timeout] and
   reading [stats] fields unchanged. *)

type profile = Op_trace.profile = { count_comm : bool }

let neo4j_profile = Op_trace.neo4j_profile
let graphscope_profile = Op_trace.graphscope_profile

type stats = Op_trace.stats = {
  mutable operators : int;
  mutable intermediate_rows : int;
  mutable intermediate_cells : int;
  mutable comm_rows : int;
  mutable comm_cells : int;
  mutable edges_touched : int;
  mutable peak_rows : int;
  mutable live_rows : int;
  mutable exchange_rows : int;
  mutable exchange_cells : int;
  mutable workers_used : int;
  mutable op_trace : Op_trace.t option;
}

exception Timeout = Op_trace.Timeout

let run ?profile ?budget ?chunk_size ?(workers = 1) g plan =
  Parallel.run ?profile ?budget ?chunk_size ~workers g plan

let run_materialized = Engine_reference.run
