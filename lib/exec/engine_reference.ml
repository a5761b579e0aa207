(* Materialized reference engine.

   The original batch-at-a-time tree-walking interpreter: every operator
   fully materializes its output before the parent runs. Kept as the
   semantic oracle for the pipelined engine (differential tests run every
   workload query through both and compare), and as the baseline that makes
   the pipelined engine's [peak_rows] / short-circuit wins measurable.

   Accounting matches [Operator]: per-operator totals go to the same
   [Op_trace.stats] fields, and [peak_rows] is the maximum number of
   simultaneously-live materialized rows — an input batch stays live until
   its consuming operator has produced (and recorded) its output. No
   per-operator trace is produced ([op_trace] stays [None]). *)

module G = Gopt_graph.Property_graph
module Schema = Gopt_graph.Schema
module Value = Gopt_graph.Value
module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint
module Logical = Gopt_gir.Logical
module Physical = Gopt_opt.Physical
module KeyTbl = Agg.KeyTbl

let run ?(profile = Op_trace.graphscope_profile) ?budget g plan =
  let schema = G.schema g in
  let vuniv = Schema.n_vtypes schema and euniv = Schema.n_etypes schema in
  let stats = Op_trace.fresh_stats () in
  let start = Sys.time () in
  let ticks = ref 0 in
  let tick () =
    incr ticks;
    if !ticks land 8191 = 0 then
      match budget with
      | Some b when Sys.time () -. start > b -> raise Op_trace.Timeout
      | _ -> ()
  in
  let record ?(comm = true) batch =
    stats.Op_trace.operators <- stats.Op_trace.operators + 1;
    let n = Batch.n_rows batch in
    stats.Op_trace.intermediate_rows <- stats.Op_trace.intermediate_rows + n;
    stats.Op_trace.intermediate_cells <-
      stats.Op_trace.intermediate_cells + (n * Batch.n_fields batch);
    if comm && profile.Op_trace.count_comm then begin
      stats.Op_trace.comm_rows <- stats.Op_trace.comm_rows + n;
      stats.Op_trace.comm_cells <- stats.Op_trace.comm_cells + (n * Batch.n_fields batch)
    end;
    Op_trace.live_add stats n;
    batch
  in
  (* an input batch dies once its consumer produced output — except the
     shared common batch, which outlives all its Common_ref readers *)
  let release common b =
    match common with
    | Some cb when b == cb -> ()
    | _ -> Op_trace.live_sub stats (Batch.n_rows b)
  in
  let etypes con = Tc.to_list ~universe:euniv con in
  let vcheck con v = Tc.mem ~universe:vuniv con (G.vtype g v) in
  (* iterate (eid, other) over a step's adjacency from bound vertex [v] *)
  let iter_step_adj (step : Physical.edge_step) v f =
    let e = step.Physical.s_edge in
    let visit eid other =
      tick ();
      f eid other
    in
    let visit_out et = G.iter_out_etype g v et visit in
    let visit_in et = G.iter_in_etype g v et visit in
    List.iter
      (fun et ->
        if e.Pattern.e_directed then
          if step.Physical.s_forward then visit_out et else visit_in et
        else begin
          visit_out et;
          visit_in et
        end)
      (etypes e.Pattern.e_con)
  in
  (* all edges realizing a step between two bound endpoints *)
  let step_edges_between (step : Physical.edge_step) u w =
    let e = step.Physical.s_edge in
    List.concat_map
      (fun et ->
        if e.Pattern.e_directed then
          if step.Physical.s_forward then G.find_out_edges g ~src:u ~etype:et ~dst:w
          else G.find_out_edges g ~src:w ~etype:et ~dst:u
        else
          G.find_out_edges g ~src:u ~etype:et ~dst:w
          @ G.find_out_edges g ~src:w ~etype:et ~dst:u)
      (etypes e.Pattern.e_con)
  in
  let sorted_step_neighbors (step : Physical.edge_step) v =
    let e = step.Physical.s_edge in
    let arrays =
      List.concat_map
        (fun et ->
          if e.Pattern.e_directed then
            if step.Physical.s_forward then [ G.out_neighbors_etype g v et ]
            else [ G.in_neighbors_etype g v et ]
          else [ G.out_neighbors_etype g v et; G.in_neighbors_etype g v et ])
        (etypes e.Pattern.e_con)
    in
    let merged =
      match arrays with
      | [ single ] -> single (* per-etype adjacency is already sorted *)
      | _ ->
        let m = Array.concat arrays in
        Array.sort Int.compare m;
        m
    in
    (* distinct candidate vertices; multiplicity recovered via
       step_edges_between *)
    let out = Gopt_util.Vec.create () in
    Array.iteri
      (fun i x -> if i = 0 || merged.(i - 1) <> x then Gopt_util.Vec.push out x)
      merged;
    Gopt_util.Vec.to_array out
  in
  let vertex_of rv =
    match rv with
    | Rval.Rvertex v -> v
    | _ -> invalid_arg "Engine: expected a vertex binding"
  in
  (* [a]'s rows then [b]'s, in [a]'s field order *)
  let union_batches a b =
    let out = Batch.create (Batch.fields a) in
    (* same layout: column-wise append instead of re-adding row by row *)
    Batch.append_batch out a;
    Batch.iter (fun row -> Batch.add out (Batch.project_to b (Batch.fields a) row)) b;
    out
  in
  let join_batches lb rb keys kind =
    let lkeys = List.map (Batch.pos lb) keys and rkeys = List.map (Batch.pos rb) keys in
    let right_extra = List.filter (fun f -> not (Batch.has_field lb f)) (Batch.fields rb) in
    let out_fields =
      match kind with
      | Logical.Semi | Logical.Anti -> Batch.fields lb
      | Logical.Inner | Logical.Left_outer -> Batch.fields lb @ right_extra
    in
    let out = Batch.create out_fields in
    let right_extra_pos = List.map (Batch.pos rb) right_extra in
    let emit lrow rrow =
      Batch.add out
        (Array.append lrow (Array.of_list (List.map (fun p -> rrow.(p)) right_extra_pos)))
    in
    let build b positions =
      let table = KeyTbl.create (max 16 (Batch.n_rows b)) in
      Batch.iter
        (fun row ->
          tick ();
          let key = List.map (fun p -> row.(p)) positions in
          let cur = Option.value ~default:[] (KeyTbl.find_opt table key) in
          KeyTbl.replace table key (row :: cur))
        b;
      table
    in
    let probe table positions row =
      tick ();
      Option.value ~default:[] (KeyTbl.find_opt table (List.map (fun p -> row.(p)) positions))
    in
    if kind = Logical.Inner && Batch.n_rows lb < Batch.n_rows rb then begin
      (* inner joins are symmetric: build the hash table on the smaller
         input and probe with the larger one *)
      let table = build lb lkeys in
      Batch.iter (fun rrow -> List.iter (fun lrow -> emit lrow rrow) (probe table rkeys rrow)) rb
    end
    else begin
      let table = build rb rkeys in
      Batch.iter
        (fun lrow ->
          let matches = probe table lkeys lrow in
          match kind with
          | Logical.Inner -> List.iter (fun rrow -> emit lrow rrow) matches
          | Logical.Left_outer ->
            if matches = [] then
              Batch.add out
                (Array.append lrow (Array.make (List.length right_extra_pos) Rval.Rnull))
            else List.iter (fun rrow -> emit lrow rrow) matches
          | Logical.Semi -> if matches <> [] then Batch.add out lrow
          | Logical.Anti -> if matches = [] then Batch.add out lrow)
        lb
    end;
    out
  in
  let rec exec common plan =
    match plan with
    | Physical.Empty fields -> record (Batch.create fields)
    | Physical.Common_ref _ -> begin
      match common with
      | Some batch -> batch (* already recorded when produced *)
      | None -> failwith "Engine: CommonRef outside WithCommon"
    end
    | Physical.Scan { alias; con; pred } ->
      let out = Batch.create [ alias ] in
      List.iter
        (fun t ->
          Array.iter
            (fun v ->
              tick ();
              let row = [| Rval.Rvertex v |] in
              let keep =
                match pred with
                | None -> true
                | Some p -> Eval.is_true (Eval.eval g (Eval.lookup_of_row out row) p)
              in
              if keep then Batch.add out row)
            (G.vertices_of_vtype g t))
        (Tc.to_list ~universe:vuniv con);
      record out
    | Physical.Expand_all (x, step) ->
      let input = exec common x in
      let e_alias = step.Physical.s_edge.Pattern.e_alias in
      let out = Batch.create (Batch.fields input @ [ e_alias; step.Physical.s_to ]) in
      let from_pos = Batch.pos input step.Physical.s_from in
      Batch.iter
        (fun row ->
          let v = vertex_of row.(from_pos) in
          iter_step_adj step v (fun eid other ->
              stats.Op_trace.edges_touched <- stats.Op_trace.edges_touched + 1;
              if vcheck step.Physical.s_to_con other then begin
                let row' = Array.append row [| Rval.Redge eid; Rval.Rvertex other |] in
                let lk = Eval.lookup_of_row out row' in
                let keep =
                  (match step.Physical.s_edge.Pattern.e_pred with
                  | None -> true
                  | Some p -> Eval.is_true (Eval.eval g lk p))
                  &&
                  match step.Physical.s_to_pred with
                  | None -> true
                  | Some p -> Eval.is_true (Eval.eval g lk p)
                in
                if keep then Batch.add out row'
              end))
        input;
      let r = record out in
      release common input;
      r
    | Physical.Expand_into (x, step) ->
      let input = exec common x in
      let e_alias = step.Physical.s_edge.Pattern.e_alias in
      let out = Batch.create (Batch.fields input @ [ e_alias ]) in
      let from_pos = Batch.pos input step.Physical.s_from in
      let to_pos = Batch.pos input step.Physical.s_to in
      Batch.iter
        (fun row ->
          tick ();
          let u = vertex_of row.(from_pos) and w = vertex_of row.(to_pos) in
          List.iter
            (fun eid ->
              stats.Op_trace.edges_touched <- stats.Op_trace.edges_touched + 1;
              let row' = Array.append row [| Rval.Redge eid |] in
              let lk = Eval.lookup_of_row out row' in
              let keep =
                match step.Physical.s_edge.Pattern.e_pred with
                | None -> true
                | Some p -> Eval.is_true (Eval.eval g lk p)
              in
              if keep then Batch.add out row')
            (step_edges_between step u w))
        input;
      let r = record out in
      release common input;
      r
    | Physical.Expand_intersect (x, steps) ->
      let input = exec common x in
      let to_alias = (List.hd steps).Physical.s_to in
      let edge_aliases = List.map (fun s -> s.Physical.s_edge.Pattern.e_alias) steps in
      let out = Batch.create (Batch.fields input @ edge_aliases @ [ to_alias ]) in
      let from_pos = List.map (fun s -> Batch.pos input s.Physical.s_from) steps in
      let to_con = (List.hd steps).Physical.s_to_con in
      let to_pred = (List.hd steps).Physical.s_to_pred in
      (* hub vertices recur across rows: memoize their extracted adjacency *)
      let nbr_cache : (int * int, int array) Hashtbl.t = Hashtbl.create 256 in
      let step_neighbors idx step v =
        match Hashtbl.find_opt nbr_cache (idx, v) with
        | Some a -> a
        | None ->
          let a = sorted_step_neighbors step v in
          stats.Op_trace.edges_touched <- stats.Op_trace.edges_touched + Array.length a;
          Hashtbl.add nbr_cache (idx, v) a;
          a
      in
      Batch.iter
        (fun row ->
          tick ();
          let anchors = List.map (fun p -> vertex_of row.(p)) from_pos in
          let nbr_arrays =
            List.mapi (fun i (s, v) -> step_neighbors i s v) (List.combine steps anchors)
          in
          (* candidates = intersection of all sorted distinct arrays; probe
             from the smallest list *)
          match nbr_arrays with
          | [] -> ()
          | _ ->
            let first =
              List.fold_left
                (fun acc a -> if Array.length a < Array.length acc then a else acc)
                (List.hd nbr_arrays) (List.tl nbr_arrays)
            in
            let rest = List.filter (fun a -> a != first) nbr_arrays in
            Array.iter
              (fun c ->
                tick ();
                if
                  List.for_all
                    (fun arr ->
                      let lo = ref 0 and hi = ref (Array.length arr) in
                      while !lo < !hi do
                        let mid = (!lo + !hi) / 2 in
                        if arr.(mid) < c then lo := mid + 1 else hi := mid
                      done;
                      !lo < Array.length arr && arr.(!lo) = c)
                    rest
                  && vcheck to_con c
                then begin
                  (* unfold edge bindings: product over steps *)
                  let rec assemble acc_edges = function
                    | [] ->
                      let row' =
                        Array.concat
                          [
                            row;
                            Array.of_list (List.rev_map (fun e -> Rval.Redge e) acc_edges);
                            [| Rval.Rvertex c |];
                          ]
                      in
                      let lk = Eval.lookup_of_row out row' in
                      let keep =
                        (match to_pred with
                        | None -> true
                        | Some p -> Eval.is_true (Eval.eval g lk p))
                        && List.for_all
                             (fun (s : Physical.edge_step) ->
                               match s.Physical.s_edge.Pattern.e_pred with
                               | None -> true
                               | Some p -> Eval.is_true (Eval.eval g lk p))
                             steps
                      in
                      if keep then Batch.add out row'
                    | (s, v) :: more ->
                      List.iter
                        (fun eid -> assemble (eid :: acc_edges) more)
                        (step_edges_between s v c)
                  in
                  (* rev to preserve steps order after rev_map above *)
                  assemble [] (List.combine steps anchors)
                end)
              first)
        input;
      let r = record out in
      release common input;
      r
    | Physical.Path_expand (x, step) ->
      let input = exec common x in
      let lo, hi =
        match step.Physical.s_edge.Pattern.e_hops with
        | Some (lo, hi) -> (lo, hi)
        | None -> (1, 1)
      in
      let sem = step.Physical.s_edge.Pattern.e_path in
      let e_alias = step.Physical.s_edge.Pattern.e_alias in
      let bound_mode = Batch.has_field input step.Physical.s_to in
      let out_fields =
        if bound_mode then Batch.fields input @ [ e_alias ]
        else Batch.fields input @ [ e_alias; step.Physical.s_to ]
      in
      let out = Batch.create out_fields in
      let from_pos = Batch.pos input step.Physical.s_from in
      let to_pos = if bound_mode then Some (Batch.pos input step.Physical.s_to) else None in
      Batch.iter
        (fun row ->
          let v0 = vertex_of row.(from_pos) in
          let target = Option.map (fun p -> vertex_of row.(p)) to_pos in
          let rec dfs v depth edges_rev verts_rev =
            tick ();
            if depth >= lo && depth <= hi then begin
              let ok_endpoint =
                match target with Some t -> t = v | None -> vcheck step.Physical.s_to_con v
              in
              if ok_endpoint then begin
                let path =
                  Rval.Rpath { edges = List.rev edges_rev; verts = List.rev verts_rev }
                in
                let row' =
                  if bound_mode then Array.append row [| path |]
                  else Array.append row [| path; Rval.Rvertex v |]
                in
                let lk = Eval.lookup_of_row out row' in
                let keep =
                  match step.Physical.s_to_pred with
                  | None -> true
                  | Some p -> if bound_mode then true else Eval.is_true (Eval.eval g lk p)
                in
                if keep then Batch.add out row'
              end
            end;
            if depth < hi then
              iter_step_adj step v (fun eid other ->
                  stats.Op_trace.edges_touched <- stats.Op_trace.edges_touched + 1;
                  let ok =
                    match sem with
                    | Pattern.Arbitrary -> true
                    | Pattern.Simple -> not (List.mem other verts_rev)
                    | Pattern.Trail -> not (List.mem eid edges_rev)
                  in
                  if ok then dfs other (depth + 1) (eid :: edges_rev) (other :: verts_rev))
          in
          dfs v0 0 [] [ v0 ])
        input;
      let r = record out in
      release common input;
      r
    | Physical.Hash_join { left; right; keys; kind } ->
      let lb = exec common left and rb = exec common right in
      let r = record (join_batches lb rb keys kind) in
      release common lb;
      release common rb;
      r
    | Physical.Select (x, pred) ->
      let input = exec common x in
      let out = Batch.create (Batch.fields input) in
      Batch.iter
        (fun row ->
          tick ();
          if Eval.is_true (Eval.eval g (Eval.lookup_of_row input row) pred) then
            Batch.add out row)
        input;
      let r = record out in
      release common input;
      r
    | Physical.Project (x, ps) ->
      let input = exec common x in
      let out = Batch.create (List.map snd ps) in
      Batch.iter
        (fun row ->
          tick ();
          let lk = Eval.lookup_of_row input row in
          Batch.add out
            (Array.of_list (List.map (fun (e, _) -> Eval.eval_rval g lk e) ps)))
        input;
      (* a column swap (every item a bound [Var]) ships nothing, as in
         [Operator] *)
      let swap =
        List.for_all
          (function Gopt_pattern.Expr.Var t, _ -> Batch.pos_opt input t <> None | _ -> false)
          ps
      in
      let r = record ~comm:(not swap) out in
      release common input;
      r
    | Physical.Group (x, ks, aggs) ->
      let input = exec common x in
      let out = Batch.create (List.map snd ks @ List.map (fun a -> a.Logical.agg_alias) aggs) in
      let groups : Agg.state array KeyTbl.t = KeyTbl.create 64 in
      (* keys in first-sighting order, the engines' group emission order *)
      let order = ref [] in
      Batch.iter
        (fun row ->
          tick ();
          let lk = Eval.lookup_of_row input row in
          let key = List.map (fun (e, _) -> Eval.eval_rval g lk e) ks in
          let states =
            match KeyTbl.find_opt groups key with
            | Some states -> states
            | None ->
              let states = Array.of_list (List.map Agg.init aggs) in
              KeyTbl.add groups key states;
              order := key :: !order;
              states
          in
          Agg.update_all g lk states aggs)
        input;
      if KeyTbl.length groups = 0 && ks = [] then
        (* aggregate over an empty input still yields one row *)
        Batch.add out (Array.of_list (List.map (fun a -> Agg.finish (Agg.init a) a) aggs))
      else
        List.iter
          (fun key ->
            let states = KeyTbl.find groups key in
            let agg_vals = List.mapi (fun i a -> Agg.finish states.(i) a) aggs in
            Batch.add out (Array.of_list (key @ agg_vals)))
          (List.rev !order);
      let r = record out in
      release common input;
      r
    | Physical.Order (x, ks, lim) ->
      let input = exec common x in
      let keyed =
        Array.init (Batch.n_rows input) (fun i ->
            let row = Batch.row input i in
            let lk = Eval.lookup_of_row input row in
            (List.map (fun (e, _) -> Eval.eval g lk e) ks, row))
      in
      let cmp (ka, _) (kb, _) =
        let rec go ks ka kb =
          match ks, ka, kb with
          | [], _, _ -> 0
          | (_, dir) :: ks', a :: ka', b :: kb' ->
            let c = Value.compare a b in
            let c = match dir with Logical.Asc -> c | Logical.Desc -> -c in
            if c <> 0 then c else go ks' ka' kb'
          | _ -> 0
        in
        go ks ka kb
      in
      (* stable: tied rows keep their input order, as in the engines *)
      Array.stable_sort cmp keyed;
      let out = Batch.create (Batch.fields input) in
      let n =
        match lim with Some l -> min l (Array.length keyed) | None -> Array.length keyed
      in
      for i = 0 to n - 1 do
        Batch.add out (snd keyed.(i))
      done;
      let r = record out in
      release common input;
      r
    | Physical.Limit (x, n) ->
      let input = exec common x in
      let out = Batch.create (Batch.fields input) in
      let count = min n (Batch.n_rows input) in
      for i = 0 to count - 1 do
        Batch.add out (Batch.row input i)
      done;
      let r = record out in
      release common input;
      r
    | Physical.Skip (x, n) ->
      let input = exec common x in
      let out = Batch.create (Batch.fields input) in
      for i = n to Batch.n_rows input - 1 do
        Batch.add out (Batch.row input i)
      done;
      let r = record out in
      release common input;
      r
    | Physical.Unfold (x, e, alias) ->
      let input = exec common x in
      let out = Batch.create (Batch.fields input @ [ alias ]) in
      Batch.iter
        (fun row ->
          tick ();
          let emit v = Batch.add out (Array.append row [| v |]) in
          match Eval.eval_rval g (Eval.lookup_of_row input row) e with
          | Rval.Rlist items -> List.iter emit items
          | Rval.Rpath { verts; _ } -> List.iter (fun v -> emit (Rval.Rvertex v)) verts
          | Rval.Rnull -> ()
          | single -> emit single)
        input;
      let r = record out in
      release common input;
      r
    | Physical.Dedup (x, tags) ->
      let input = exec common x in
      let out = Batch.create (Batch.fields input) in
      let positions =
        match tags with
        | [] -> List.init (Batch.n_fields input) Fun.id
        | tags -> List.map (Batch.pos input) tags
      in
      let seen = KeyTbl.create 64 in
      Batch.iter
        (fun row ->
          tick ();
          let key = List.map (fun p -> row.(p)) positions in
          if not (KeyTbl.mem seen key) then begin
            KeyTbl.add seen key ();
            Batch.add out row
          end)
        input;
      let r = record out in
      release common input;
      r
    | Physical.Union (a, b) ->
      let ba = exec common a and bb = exec common b in
      let r = record (union_batches ba bb) in
      release common ba;
      release common bb;
      r
    | Physical.All_distinct (x, fields) ->
      let input = exec common x in
      let out = Batch.create (Batch.fields input) in
      let positions = List.map (Batch.pos input) fields in
      Batch.iter
        (fun row ->
          tick ();
          let ids = List.concat_map (fun p -> Rval.edge_ids row.(p)) positions in
          let distinct =
            let tbl = Hashtbl.create (List.length ids) in
            List.for_all
              (fun e ->
                if Hashtbl.mem tbl e then false
                else begin
                  Hashtbl.add tbl e ();
                  true
                end)
              ids
          in
          if distinct then Batch.add out row)
        input;
      let r = record out in
      release common input;
      r
    | Physical.With_common { common = c; left; right; combine } ->
      let cb = exec common c in
      let inner = Some cb in
      let lb = exec inner left in
      let rb = exec inner right in
      let combined =
        match combine with
        | Logical.C_union -> union_batches lb rb
        | Logical.C_join (keys, kind) -> join_batches lb rb keys kind
      in
      let r = record combined in
      release inner lb;
      release inner rb;
      Op_trace.live_sub stats (Batch.n_rows cb);
      r
  in
  let result = exec None plan in
  (result, stats)
