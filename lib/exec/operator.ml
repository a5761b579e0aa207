(* Push-based pipelined execution.

   Each Physical.t node compiles into an operator with consume/close
   callbacks; rows flow through pipelines in chunks of [chunk_size] rows of
   the Batch representation. Pipelines break only where semantics require
   materialization: the Hash_join build side, Group, Order, and the
   With_common common sub-plan (Dedup streams but holds its seen-set). The
   breakers' state and output order come from [Breaker], shared with the
   morsel engine.

   Stop protocol: Limit raises the internal [Stop] exception once satisfied;
   it unwinds through the upstream operator frames to the pipeline's source
   (Scan / Common_ref / branch driver), which catches it and closes the
   pipeline. Sources additionally poll their sink's [k_alive] chain before
   producing, so sibling pipelines that feed an already-satisfied Limit
   (e.g. the second Union branch) never start. *)

module G = Gopt_graph.Property_graph
module Schema = Gopt_graph.Schema
module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint
module Logical = Gopt_gir.Logical
module Physical = Gopt_opt.Physical
module Vec = Gopt_util.Vec

exception Stop

let default_chunk_size = 1024

type sink = {
  k_consume : Batch.t -> unit;  (** Receive a chunk (never empty). *)
  k_close : unit -> unit;  (** End of stream; called exactly once. *)
  k_alive : unit -> bool;  (** Does anything downstream still want rows? *)
}

let run ?(profile = Op_trace.graphscope_profile) ?budget ?stop_poll
    ?(chunk_size = default_chunk_size) ?source g plan =
  let schema = G.schema g in
  let vuniv = Schema.n_vtypes schema and euniv = Schema.n_etypes schema in
  let st = Op_trace.fresh_stats () in
  let clk = Op_trace.clock () in
  let start = Sys.time () in
  let ticks = ref 0 in
  let tick_check () =
    (match budget with
    | Some b when Sys.time () -. start > b -> raise Op_trace.Timeout
    | _ -> ());
    match stop_poll with
    | Some poll when poll () -> raise Op_trace.Timeout
    | _ -> ()
  in
  let tick () =
    incr ticks;
    if !ticks land 8191 = 0 then tick_check ()
  in
  (* chunk-granular tick: fires whenever the counter crosses an 8192
     boundary, so budget polling frequency matches the row-at-a-time path *)
  let tick_n n =
    let before = !ticks in
    ticks := before + n;
    if !ticks lsr 13 <> before lsr 13 then tick_check ()
  in
  (* run a compiled predicate kernel, charging kernel-level counters to the
     operator's trace node (only genuinely vectorized kernels are counted —
     fallback kernels are the row interpreter under another name) *)
  let run_kern tr kern b cand =
    if Eval.vectorized kern then begin
      let t0 = Sys.time () in
      let out = Eval.run_kernel kern b cand in
      tr.Op_trace.kernel_ns <- tr.Op_trace.kernel_ns +. ((Sys.time () -. t0) *. 1e9);
      tr.Op_trace.rows_selected <- tr.Op_trace.rows_selected + Array.length out;
      out
    end
    else Eval.run_kernel kern b cand
  in
  let mk_trace ?(count_op = true) label =
    if count_op then st.Op_trace.operators <- st.Op_trace.operators + 1;
    Op_trace.make label []
  in
  (* wrap an operator body into a sink; consume/close are timed against the
     operator's trace node and rows-in is counted *)
  let mk_sink tr ~consume ~close ~alive =
    {
      k_consume =
        (fun chunk ->
          if Batch.n_rows chunk = 0 then
            invalid_arg "Operator: empty chunk pushed downstream";
          Op_trace.timed clk tr (fun () ->
              tr.Op_trace.rows_in <- tr.Op_trace.rows_in + Batch.n_rows chunk;
              consume chunk));
      k_close = (fun () -> Op_trace.timed clk tr close);
      k_alive = alive;
    }
  in
  (* chunked output buffer: counts emissions into the trace and the engine
     stats, flushes full chunks downstream, and raises Stop when the
     downstream chain no longer wants rows. [count] is false only for
     Common_ref re-emission (those rows were accounted when the common
     sub-plan materialized). *)
  let emitter ?(count = true) tr fields sink =
    let buf = ref (Batch.create fields) in
    let width = List.length fields in
    let flush () =
      if Batch.n_rows !buf > 0 then begin
        let b = !buf in
        buf := Batch.create fields;
        sink.k_consume b
      end
    in
    let account n =
      tr.Op_trace.rows_out <- tr.Op_trace.rows_out + n;
      if count then begin
        st.Op_trace.intermediate_rows <- st.Op_trace.intermediate_rows + n;
        st.Op_trace.intermediate_cells <- st.Op_trace.intermediate_cells + (n * width);
        if profile.Op_trace.count_comm then begin
          st.Op_trace.comm_rows <- st.Op_trace.comm_rows + n;
          st.Op_trace.comm_cells <- st.Op_trace.comm_cells + (n * width)
        end
      end
    in
    let emit row =
      Batch.add !buf row;
      account 1;
      if Batch.n_rows !buf >= chunk_size then begin
        flush ();
        if not (sink.k_alive ()) then raise Stop
      end
    in
    (* push a pre-built chunk (a filtered view or a column swap) downstream
       without row-at-a-time rebuffering; any buffered rows flush first so
       output order is preserved *)
    let emit_chunk b =
      let n = Batch.n_rows b in
      if n > 0 then begin
        flush ();
        account n;
        sink.k_consume b;
        if not (sink.k_alive ()) then raise Stop
      end
    in
    let close () =
      (try flush () with Stop -> ());
      sink.k_close ()
    in
    (emit, emit_chunk, close)
  in
  (* collect a pipeline's output into a batch (final results, the common
     sub-plan, join build inputs); collected rows are live *)
  let collector fields =
    let out = Batch.create fields in
    let sink =
      {
        k_consume =
          (fun chunk ->
            Batch.append_batch out chunk;
            Op_trace.live_add st (Batch.n_rows chunk));
        k_close = ignore;
        k_alive = (fun () -> true);
      }
    in
    (out, sink)
  in
  let etypes con = Tc.to_list ~universe:euniv con in
  let vcheck con v = Tc.mem ~universe:vuniv con (G.vtype g v) in
  let iter_step_adj (step : Physical.edge_step) v f =
    let e = step.Physical.s_edge in
    let visit_out et = G.iter_out_etype g v et (fun eid -> tick (); f eid (G.edst g eid)) in
    let visit_in et = G.iter_in_etype g v et (fun eid -> tick (); f eid (G.esrc g eid)) in
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
    let out = Vec.create () in
    Array.iteri (fun i x -> if i = 0 || merged.(i - 1) <> x then Vec.push out x) merged;
    Vec.to_array out
  in
  let vertex_of rv =
    match rv with
    | Rval.Rvertex v -> v
    | _ -> invalid_arg "Engine: expected a vertex binding"
  in
  let label plan = Physical.node_label ~schema plan in
  (* [run_plan common plan sink] executes the subtree rooted at [plan],
     pushing chunks into [sink] and closing it exactly once; returns the
     subtree's trace *)
  let rec run_plan common plan sink : Op_trace.t =
    (* drive a source iteration: honour the stop signal, then close *)
    let drive tr close iterate =
      (try
         Op_trace.timed clk tr (fun () ->
             if not (sink.k_alive ()) then raise Stop;
             iterate ())
       with Stop -> ());
      Op_trace.timed clk tr close;
      tr
    in
    (* unary operator: per-input-row body emitting via [emit]. Breakers
       also pass [finish], which emits their held state at end of input,
       and [held], the live rows that state pins until then. *)
    let unary ?alive ?(finish = ignore) ?(held = fun () -> 0) x tr fields on_row =
      let emit, _, close = emitter tr fields sink in
      let alive = match alive with Some f -> f | None -> sink.k_alive in
      let op =
        mk_sink tr ~alive
          ~consume:(fun chunk -> Batch.iter (fun row -> on_row emit row) chunk)
          ~close:(fun () ->
            (try finish emit with Stop -> ());
            Op_trace.live_sub st (held ());
            close ())
      in
      let ctr = run_plan common x op in
      tr.Op_trace.children <- [ ctr ];
      tr
    in
    (* two-branch union (Union and With_common's C_union): [b]'s rows are
       projected onto [fields]; the output closes once both branches have *)
    let union2 tr fields ~b_fields ~run_a ~run_b =
      let b_layout = Batch.create b_fields in
      let emit, _, close = emitter tr fields sink in
      let pending = ref 2 in
      let branch on_row =
        mk_sink tr ~alive:sink.k_alive
          ~close:(fun () ->
            decr pending;
            if !pending = 0 then close ())
          ~consume:(fun chunk -> Batch.iter on_row chunk)
      in
      let tra = run_a (branch emit) in
      let trb = run_b (branch (fun row -> emit (Batch.project_to b_layout fields row))) in
      (tra, trb)
    in
    (* hash-join machinery shared by Hash_join and With_common's C_join:
       materializes the build side via [run_build], then streams the probe
       side *)
    let hash_join tr ~left_fields ~right_fields ~keys ~kind ~run_build ~run_probe =
      let jc = Breaker.Join.create ~left_fields ~right_fields ~keys ~kind in
      let build_sink =
        mk_sink tr ~alive:sink.k_alive ~close:ignore
          ~consume:(fun chunk ->
            Batch.iter
              (fun row ->
                tick ();
                Breaker.Join.build jc row;
                Op_trace.live_add st 1)
              chunk)
      in
      let build_tr = run_build build_sink in
      let emit, _, close = emitter tr jc.Breaker.Join.out_fields sink in
      let probe_sink =
        mk_sink tr ~alive:sink.k_alive
          ~consume:(fun chunk ->
            Batch.iter
              (fun lrow ->
                tick ();
                Breaker.Join.probe jc lrow emit)
              chunk)
          ~close:(fun () ->
            Op_trace.live_sub st (Breaker.Join.size jc);
            close ())
      in
      let probe_tr = run_probe probe_sink in
      (build_tr, probe_tr)
    in
    match plan with
    | Physical.Empty _ ->
      let tr = mk_trace (label plan) in
      drive tr (fun () -> sink.k_close ()) (fun () -> ())
    | Physical.Common_ref _ -> begin
      match common with
      | None -> failwith "Engine: CommonRef outside WithCommon"
      | Some cb ->
        let tr = mk_trace ~count_op:false (label plan) in
        let emit, _, close = emitter ~count:false tr (Batch.fields cb) sink in
        drive tr close (fun () -> Batch.iter emit cb)
    end
    | Physical.Scan { alias; con; pred } ->
      let tr = mk_trace (label plan) in
      let fields = [ alias ] in
      let kernel = Option.map (fun p -> Eval.compile g ~fields p) pred in
      let _, emit_chunk, close = emitter tr fields sink in
      (* vectorized scan: fill a dense id column per chunk straight from the
         type index, then narrow it with the compiled predicate kernel — no
         per-vertex boxing, no per-row closure dispatch *)
      drive tr close (fun () ->
          List.iter
            (fun t ->
              let verts = G.vertices_of_vtype g t in
              let nv = Array.length verts in
              let at = ref 0 in
              while !at < nv do
                let len = min chunk_size (nv - !at) in
                tick_n len;
                let b = Batch.of_vertex_ids alias verts ~pos:!at ~len in
                at := !at + len;
                match kernel with
                | None -> emit_chunk b
                | Some k ->
                  let selected = run_kern tr k b (Array.init len Fun.id) in
                  if Array.length selected = len then emit_chunk b
                  else if Array.length selected > 0 then
                    emit_chunk (Batch.select b selected)
              done)
            (Tc.to_list ~universe:vuniv con))
    | Physical.Expand_all (x, step) ->
      let child_fields = Physical.output_fields x in
      let e_alias = step.Physical.s_edge.Pattern.e_alias in
      let fields = child_fields @ [ e_alias; step.Physical.s_to ] in
      let layout = Batch.create fields in
      let from_pos = Batch.pos layout step.Physical.s_from in
      let tr = mk_trace (label plan) in
      unary x tr fields (fun emit row ->
          let v = vertex_of row.(from_pos) in
          iter_step_adj step v (fun eid other ->
              st.Op_trace.edges_touched <- st.Op_trace.edges_touched + 1;
              if vcheck step.Physical.s_to_con other then begin
                let row' = Array.append row [| Rval.Redge eid; Rval.Rvertex other |] in
                let lk = Eval.lookup_of_row layout row' in
                let keep =
                  (match step.Physical.s_edge.Pattern.e_pred with
                  | None -> true
                  | Some p -> Eval.is_true (Eval.eval g lk p))
                  &&
                  match step.Physical.s_to_pred with
                  | None -> true
                  | Some p -> Eval.is_true (Eval.eval g lk p)
                in
                if keep then emit row'
              end))
    | Physical.Expand_into (x, step) ->
      let child_fields = Physical.output_fields x in
      let e_alias = step.Physical.s_edge.Pattern.e_alias in
      let fields = child_fields @ [ e_alias ] in
      let layout = Batch.create fields in
      let from_pos = Batch.pos layout step.Physical.s_from in
      let to_pos = Batch.pos layout step.Physical.s_to in
      let tr = mk_trace (label plan) in
      unary x tr fields (fun emit row ->
          tick ();
          let u = vertex_of row.(from_pos) and w = vertex_of row.(to_pos) in
          List.iter
            (fun eid ->
              st.Op_trace.edges_touched <- st.Op_trace.edges_touched + 1;
              let row' = Array.append row [| Rval.Redge eid |] in
              let lk = Eval.lookup_of_row layout row' in
              let keep =
                match step.Physical.s_edge.Pattern.e_pred with
                | None -> true
                | Some p -> Eval.is_true (Eval.eval g lk p)
              in
              if keep then emit row')
            (step_edges_between step u w))
    | Physical.Expand_intersect (x, steps) ->
      let child_fields = Physical.output_fields x in
      let to_alias = (List.hd steps).Physical.s_to in
      let edge_aliases = List.map (fun s -> s.Physical.s_edge.Pattern.e_alias) steps in
      let fields = child_fields @ edge_aliases @ [ to_alias ] in
      let layout = Batch.create fields in
      let child_layout = Batch.create child_fields in
      let from_pos = List.map (fun s -> Batch.pos child_layout s.Physical.s_from) steps in
      let to_con = (List.hd steps).Physical.s_to_con in
      let to_pred = (List.hd steps).Physical.s_to_pred in
      (* hub vertices recur across rows: memoize their extracted adjacency *)
      let nbr_cache : (int * int, int array) Hashtbl.t = Hashtbl.create 256 in
      let step_neighbors idx step v =
        match Hashtbl.find_opt nbr_cache (idx, v) with
        | Some a -> a
        | None ->
          let a = sorted_step_neighbors step v in
          st.Op_trace.edges_touched <- st.Op_trace.edges_touched + Array.length a;
          Hashtbl.add nbr_cache (idx, v) a;
          a
      in
      let tr = mk_trace (label plan) in
      unary x tr fields (fun emit row ->
          tick ();
          let anchors = List.map (fun p -> vertex_of row.(p)) from_pos in
          let nbr_arrays =
            List.mapi (fun i (s, v) -> step_neighbors i s v) (List.combine steps anchors)
          in
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
                      let lk = Eval.lookup_of_row layout row' in
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
                      if keep then emit row'
                    | (s, v) :: more ->
                      List.iter
                        (fun eid -> assemble (eid :: acc_edges) more)
                        (step_edges_between s v c)
                  in
                  assemble [] (List.combine steps anchors)
                end)
              first)
    | Physical.Path_expand (x, step) ->
      let child_fields = Physical.output_fields x in
      let lo, hi =
        match step.Physical.s_edge.Pattern.e_hops with
        | Some (lo, hi) -> (lo, hi)
        | None -> (1, 1)
      in
      let sem = step.Physical.s_edge.Pattern.e_path in
      let e_alias = step.Physical.s_edge.Pattern.e_alias in
      let bound_mode = List.mem step.Physical.s_to child_fields in
      let fields =
        if bound_mode then child_fields @ [ e_alias ]
        else child_fields @ [ e_alias; step.Physical.s_to ]
      in
      let layout = Batch.create fields in
      let from_pos = Batch.pos layout step.Physical.s_from in
      let to_pos = if bound_mode then Some (Batch.pos layout step.Physical.s_to) else None in
      let tr = mk_trace (label plan) in
      unary x tr fields (fun emit row ->
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
                let lk = Eval.lookup_of_row layout row' in
                let keep =
                  match step.Physical.s_to_pred with
                  | None -> true
                  | Some p -> if bound_mode then true else Eval.is_true (Eval.eval g lk p)
                in
                if keep then emit row'
              end
            end;
            if depth < hi then
              iter_step_adj step v (fun eid other ->
                  st.Op_trace.edges_touched <- st.Op_trace.edges_touched + 1;
                  let ok =
                    match sem with
                    | Pattern.Arbitrary -> true
                    | Pattern.Simple -> not (List.mem other verts_rev)
                    | Pattern.Trail -> not (List.mem eid edges_rev)
                  in
                  if ok then dfs other (depth + 1) (eid :: edges_rev) (other :: verts_rev))
          in
          dfs v0 0 [] [ v0 ])
    | Physical.Hash_join { left; right; keys; kind } ->
      let tr = mk_trace (label plan) in
      let build_tr, probe_tr =
        hash_join tr
          ~left_fields:(Physical.output_fields left)
          ~right_fields:(Physical.output_fields right)
          ~keys ~kind
          ~run_build:(fun s -> run_plan common right s)
          ~run_probe:(fun s -> run_plan common left s)
      in
      tr.Op_trace.children <- [ probe_tr; build_tr ];
      tr
    | Physical.Select (x, pred) ->
      let fields = Physical.output_fields x in
      let tr = mk_trace (label plan) in
      let kernel = Eval.compile g ~fields pred in
      let _, emit_chunk, close = emitter tr fields sink in
      (* vectorized filter: the kernel marks survivors and the chunk is
         forwarded as a selection-vector view — no row copying *)
      let op =
        mk_sink tr ~alive:sink.k_alive ~close
          ~consume:(fun chunk ->
            let n = Batch.n_rows chunk in
            tick_n n;
            let selected = run_kern tr kernel chunk (Array.init n Fun.id) in
            if Array.length selected = n then emit_chunk chunk
            else if Array.length selected > 0 then
              emit_chunk (Batch.select chunk selected))
      in
      let ctr = run_plan common x op in
      tr.Op_trace.children <- [ ctr ];
      tr
    | Physical.Project (x, ps) ->
      let child_fields = Physical.output_fields x in
      let child_layout = Batch.create child_fields in
      let fields = List.map snd ps in
      let tr = mk_trace (label plan) in
      (* when every projection is a bound [Var], the whole operator is a
         column swap: the output chunk shares the input's columns and
         selection vector *)
      let var_positions =
        let rec go acc = function
          | [] -> Some (List.rev acc)
          | (Gopt_pattern.Expr.Var tag, alias) :: rest -> begin
            match Batch.pos_opt child_layout tag with
            | Some j -> go ((j, alias) :: acc) rest
            | None -> None
          end
          | _ -> None
        in
        go [] ps
      in
      begin
        match var_positions with
        | Some pairs ->
          let _, emit_chunk, close = emitter tr fields sink in
          let op =
            mk_sink tr ~alive:sink.k_alive ~close
              ~consume:(fun chunk ->
                let n = Batch.n_rows chunk in
                tick_n n;
                let t0 = Sys.time () in
                let out = Batch.project chunk pairs in
                tr.Op_trace.kernel_ns <-
                  tr.Op_trace.kernel_ns +. ((Sys.time () -. t0) *. 1e9);
                tr.Op_trace.rows_selected <- tr.Op_trace.rows_selected + n;
                emit_chunk out)
          in
          let ctr = run_plan common x op in
          tr.Op_trace.children <- [ ctr ];
          tr
        | None ->
          unary x tr fields (fun emit row ->
              tick ();
              let lk = Eval.lookup_of_row child_layout row in
              emit (Array.of_list (List.map (fun (e, _) -> Eval.eval_rval g lk e) ps)))
      end
    | Physical.Group (x, ks, aggs) ->
      let tr = mk_trace (label plan) in
      let grp = Breaker.Group.create g ~fields:(Physical.output_fields x) ks aggs in
      unary x tr (Breaker.Group.out_fields ks aggs)
        ~finish:(Breaker.Group.finish grp)
        ~held:(fun () -> Breaker.Group.length grp)
        (fun _ row ->
          tick ();
          if Breaker.Group.add grp row then Op_trace.live_add st 1)
    | Physical.Order (x, ks, lim) ->
      let fields = Physical.output_fields x in
      let tr = mk_trace (label plan) in
      let run = Breaker.Sorted_run.create g ~fields ~chunk_size ks lim in
      unary x tr fields
        ~finish:(fun emit ->
          Array.iter (fun (_, row) -> emit row) (Breaker.Sorted_run.finish run))
        ~held:(fun () -> Breaker.Sorted_run.length run)
        (fun _ row ->
          tick ();
          Op_trace.live_add st 1;
          Op_trace.live_sub st (Breaker.Sorted_run.push run row))
    | Physical.Limit (x, n) ->
      let fields = Physical.output_fields x in
      let tr = mk_trace (label plan) in
      let count = ref 0 in
      unary
        ~alive:(fun () -> !count < n && sink.k_alive ())
        x tr fields
        (fun emit row ->
          if !count < n then begin
            emit row;
            incr count;
            (* stop signal: unwinds to this pipeline's source *)
            if !count >= n then raise Stop
          end)
    | Physical.Skip (x, n) ->
      let fields = Physical.output_fields x in
      let tr = mk_trace (label plan) in
      let seen = ref 0 in
      unary x tr fields (fun emit row ->
          incr seen;
          if !seen > n then emit row)
    | Physical.Unfold (x, e, alias) ->
      let child_fields = Physical.output_fields x in
      let child_layout = Batch.create child_fields in
      let fields = child_fields @ [ alias ] in
      let tr = mk_trace (label plan) in
      unary x tr fields (fun emit row ->
          tick ();
          let emit1 v = emit (Array.append row [| v |]) in
          match Eval.eval_rval g (Eval.lookup_of_row child_layout row) e with
          | Rval.Rlist items -> List.iter emit1 items
          | Rval.Rpath { verts; _ } -> List.iter (fun v -> emit1 (Rval.Rvertex v)) verts
          | Rval.Rnull -> ()
          | single -> emit1 single)
    | Physical.Dedup (x, tags) ->
      let fields = Physical.output_fields x in
      let tr = mk_trace (label plan) in
      let dd = Breaker.Dedup.create ~fields tags in
      unary x tr fields
        ~held:(fun () -> Breaker.Dedup.length dd)
        (fun emit row ->
          tick ();
          if Breaker.Dedup.add dd row then begin
            Op_trace.live_add st 1;
            emit row
          end)
    | Physical.All_distinct (x, distinct_fields) ->
      let fields = Physical.output_fields x in
      let layout = Batch.create fields in
      let positions = List.map (Batch.pos layout) distinct_fields in
      let tr = mk_trace (label plan) in
      unary x tr fields (fun emit row ->
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
          if distinct then emit row)
    | Physical.Union (a, b) ->
      let tr = mk_trace (label plan) in
      (* forwarding node: counts the combined stream once, like the
         materialized engine recorded the concatenated batch *)
      let tra, trb =
        union2 tr (Physical.output_fields a) ~b_fields:(Physical.output_fields b)
          ~run_a:(run_plan common a) ~run_b:(run_plan common b)
      in
      tr.Op_trace.children <- [ tra; trb ];
      tr
    | Physical.With_common { common = c; left; right; combine } ->
      let tr = mk_trace (label plan) in
      let c_fields = Physical.output_fields c in
      let cb, c_sink = collector c_fields in
      let c_tr = run_plan common c c_sink in
      let inner = Some cb in
      let l_tr, r_tr =
        match combine with
        | Logical.C_union ->
          union2 tr (Physical.output_fields left)
            ~b_fields:(Physical.output_fields right)
            ~run_a:(run_plan inner left) ~run_b:(run_plan inner right)
        | Logical.C_join (keys, kind) ->
          let build_tr, probe_tr =
            hash_join tr
              ~left_fields:(Physical.output_fields left)
              ~right_fields:(Physical.output_fields right)
              ~keys ~kind
              ~run_build:(fun s -> run_plan inner right s)
              ~run_probe:(fun s -> run_plan inner left s)
          in
          (probe_tr, build_tr)
      in
      Op_trace.live_sub st (Batch.n_rows cb);
      tr.Op_trace.children <- [ c_tr; l_tr; r_tr ];
      tr
  in
  let result, final_sink = collector (Physical.output_fields plan) in
  let root_tr = run_plan source plan final_sink in
  st.Op_trace.op_trace <- Some root_tr;
  (result, st)
