(* Aggregate accumulators shared by the pipelined engine and the
   materialized reference engine, and the reference engine's row keys: an
   [Rval.t list] per row ([Key]/[KeyTbl]). The pipelined engine keys its
   breakers on columns ([Breaker.Keys]) and keeps its count(DISTINCT) sets
   itself ([Breaker.Distinct]), so [a_distinct] is the reference engine's. *)

module Value = Gopt_graph.Value
module Logical = Gopt_gir.Logical

module Key = struct
  type t = Rval.t list

  let equal a b = List.equal Rval.equal a b
  let hash l = List.fold_left (fun acc v -> (acc * 31) + Rval.hash v) 7 l
end

module KeyTbl = Hashtbl.Make (Key)

type state = {
  mutable a_count : int;
  mutable a_sum_i : int;
  mutable a_sum_f : float;
  mutable a_is_float : bool;
  mutable a_min : Value.t;
  mutable a_max : Value.t;
  mutable a_collect : Rval.t list;
  mutable a_distinct : unit KeyTbl.t option;
}

let init (_a : Logical.agg) =
  {
    a_count = 0;
    a_sum_i = 0;
    a_sum_f = 0.0;
    a_is_float = false;
    a_min = Value.Null;
    a_max = Value.Null;
    a_collect = [];
    a_distinct = None;
  }

let update g lk (states : state array) i (a : Logical.agg) =
  let st = states.(i) in
  match a.Logical.agg_fn with
  | Logical.Count -> begin
    match a.Logical.agg_arg with
    | None -> st.a_count <- st.a_count + 1
    | Some e ->
      if not (Value.is_null (Eval.eval g lk e)) then st.a_count <- st.a_count + 1
  end
  | Logical.Count_distinct -> begin
    let v = Eval.eval_rval g lk (Option.get a.Logical.agg_arg) in
    if v <> Rval.Rnull then begin
      let tbl =
        match st.a_distinct with
        | Some t -> t
        | None ->
          let t = KeyTbl.create 16 in
          st.a_distinct <- Some t;
          t
      in
      KeyTbl.replace tbl [ v ] ()
    end
  end
  | Logical.Sum | Logical.Avg -> begin
    match Eval.eval g lk (Option.get a.Logical.agg_arg) with
    | Value.Int n ->
      st.a_count <- st.a_count + 1;
      st.a_sum_i <- st.a_sum_i + n;
      st.a_sum_f <- st.a_sum_f +. float_of_int n
    | Value.Float f ->
      st.a_count <- st.a_count + 1;
      st.a_is_float <- true;
      st.a_sum_f <- st.a_sum_f +. f
    | _ -> ()
  end
  | Logical.Min -> begin
    let v = Eval.eval g lk (Option.get a.Logical.agg_arg) in
    if not (Value.is_null v) then
      if Value.is_null st.a_min || Value.compare v st.a_min < 0 then st.a_min <- v
  end
  | Logical.Max -> begin
    let v = Eval.eval g lk (Option.get a.Logical.agg_arg) in
    if not (Value.is_null v) then
      if Value.is_null st.a_max || Value.compare v st.a_max > 0 then st.a_max <- v
  end
  | Logical.Collect ->
    st.a_collect <- Eval.eval_rval g lk (Option.get a.Logical.agg_arg) :: st.a_collect

(* Feed one row (via its tag resolver) into every accumulator of a group.
   Shared by the pipelined Group operator, the reference engine and the
   parallel engine's per-morsel partials. *)
let update_all g lk (states : state array) (aggs : Logical.agg list) =
  List.iteri (fun i a -> update g lk states i a) aggs

(* [merge a b] folds partial state [b] into [a], as if [b]'s input rows had
   arrived after [a]'s. Used by the parallel engine's breaker merge: each
   morsel accumulates its own partial states, merged in morsel order so the
   result (including float-summation order and COLLECT order) is identical
   for every worker count. *)
let merge (a : state) (b : state) (spec : Logical.agg) =
  match spec.Logical.agg_fn with
  | Logical.Count -> a.a_count <- a.a_count + b.a_count
  | Logical.Count_distinct -> begin
    match b.a_distinct with
    | None -> ()
    | Some tb ->
      let ta =
        match a.a_distinct with
        | Some t -> t
        | None ->
          let t = KeyTbl.create 16 in
          a.a_distinct <- Some t;
          t
      in
      KeyTbl.iter (fun k () -> KeyTbl.replace ta k ()) tb
  end
  | Logical.Sum | Logical.Avg ->
    a.a_count <- a.a_count + b.a_count;
    a.a_sum_i <- a.a_sum_i + b.a_sum_i;
    a.a_sum_f <- a.a_sum_f +. b.a_sum_f;
    a.a_is_float <- a.a_is_float || b.a_is_float
  | Logical.Min ->
    if not (Value.is_null b.a_min) then
      if Value.is_null a.a_min || Value.compare b.a_min a.a_min < 0 then a.a_min <- b.a_min
  | Logical.Max ->
    if not (Value.is_null b.a_max) then
      if Value.is_null a.a_max || Value.compare b.a_max a.a_max > 0 then a.a_max <- b.a_max
  | Logical.Collect ->
    (* both lists are reversed accumulators; [b]'s rows come later *)
    a.a_collect <- b.a_collect @ a.a_collect

let finish (st : state) (a : Logical.agg) =
  match a.Logical.agg_fn with
  | Logical.Count -> Rval.Rval (Value.Int st.a_count)
  | Logical.Count_distinct ->
    Rval.Rval
      (Value.Int (match st.a_distinct with Some t -> KeyTbl.length t | None -> 0))
  | Logical.Sum ->
    if st.a_is_float then Rval.Rval (Value.Float st.a_sum_f)
    else Rval.Rval (Value.Int st.a_sum_i)
  | Logical.Avg ->
    if st.a_count = 0 then Rval.Rnull
    else Rval.Rval (Value.Float (st.a_sum_f /. float_of_int st.a_count))
  | Logical.Min -> Rval.Rval st.a_min
  | Logical.Max -> Rval.Rval st.a_max
  | Logical.Collect -> Rval.Rlist (List.rev st.a_collect)
