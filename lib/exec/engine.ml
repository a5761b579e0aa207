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

(* Parameter bindings are resolved once, at plan granularity, before either
   engine sees the plan: substituting [Param -> Const] up front keeps the
   per-row evaluators binding-free and makes prepared execution byte-identical
   to executing the equivalent literal plan. *)
let resolve_params ?params plan =
  match params with
  | None -> plan
  (* an empty binding list still runs the pass: a plan that carries
     placeholders must fail with the descriptive undefined-parameter
     diagnostic, not the Eval safety net *)
  | Some bindings -> Gopt_opt.Physical.bind_params bindings plan

let run ?profile ?budget ?chunk_size ?(workers = 1) ?params g plan =
  Parallel.run ?profile ?budget ?chunk_size ~workers g
    (resolve_params ?params plan)

let run_materialized ?profile ?budget ?params g plan =
  Engine_reference.run ?profile ?budget g (resolve_params ?params plan)
