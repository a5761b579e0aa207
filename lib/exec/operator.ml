(* Streaming fragments: the per-morsel half of the execution engine.

   A fragment is a chain of streaming operators over one source: a slice of
   a vertex type's index (a Scan morsel) or a batch of rows (a pipeline
   breaker's output, or a WithCommon common result re-emitted through a
   CommonRef). [compile] wires the chain into push operators with
   consume/close callbacks that end in a consumer sink; the returned feed
   function pushes one source — at most [chunk_size] rows, one chunk of the
   Batch representation — through and flushes every operator's buffer into
   the consumer. Which sources a stage has, what consumes a fragment's output
   and how pipeline breakers merge is [Parallel]'s business; this module
   only moves rows and accounts for them. A compiled fragment keeps its
   per-operator state (compiled kernels, ExpandIntersect's adjacency cache)
   across every source it is fed.

   Stop protocol: a consumer that wants no more rows (a satisfied LIMIT)
   answers [false] to [k_alive]; the next emitter to flush raises the
   internal [Stop] exception, which unwinds to the feed function and ends
   that source early. *)

module G = Gopt_graph.Property_graph
module Schema = Gopt_graph.Schema
module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint
module Physical = Gopt_opt.Physical
module Vec = Gopt_util.Vec

exception Stop

let default_chunk_size = 1024

type sink = {
  k_consume : Batch.t -> unit;  (** Receive a chunk (never empty). *)
  k_close : unit -> unit;  (** End of the current source: flush downstream. *)
  k_alive : unit -> bool;  (** Does anything downstream still want rows? *)
}

type step =
  | Op of Physical.t  (** A streaming operator; its input subtree is not run. *)
  | Probe of Breaker.Join.table  (** Probe an indexed hash-join table. *)
  | Forward of string list
      (** A Union branch: pass rows on, laid out as these fields. *)

(* One morsel: a range of a vertex type's index, or rows. *)
type source =
  | Vertices of {
      alias : string;
      verts : int array;
      pos : int;
      len : int;
      kernel : Eval.kernel option;
    }
  | Rows of Batch.t

type fragment = {
  leaf : Op_trace.t option;
      (** Trace node of the source: the Scan, or a CommonRef re-emitting a
          common result; none for a breaker's output. *)
  steps : (step * Op_trace.t) list;  (** Bottom-up, each with its trace node. *)
}

type ctx = {
  g : G.t;
  profile : Op_trace.profile;
  chunk_size : int;
  stats : Op_trace.stats;
  clock : Op_trace.clock;
  check : unit -> unit;
  mutable ticks : int;
}

(* the budget is polled once every 8192 ticks; [tick_n] counts a chunk at
   once and polls whenever the counter crosses an 8192 boundary *)
let tick ctx =
  ctx.ticks <- ctx.ticks + 1;
  if ctx.ticks land 8191 = 0 then ctx.check ()

let tick_n ctx n =
  let before = ctx.ticks in
  ctx.ticks <- before + n;
  if ctx.ticks lsr 13 <> before lsr 13 then ctx.check ()

(* run a compiled predicate kernel, charging kernel-level counters to the
   operator's trace node (only genuinely vectorized kernels are counted —
   fallback kernels are the row interpreter under another name) *)
let run_kern tr kern b =
  let cand = Array.init (Batch.n_rows b) Fun.id in
  if Eval.vectorized kern then begin
    let t0 = Sys.time () in
    let out = Eval.run_kernel kern b cand in
    tr.Op_trace.kernel_ns <- tr.Op_trace.kernel_ns +. ((Sys.time () -. t0) *. 1e9);
    tr.Op_trace.rows_selected <- tr.Op_trace.rows_selected + Array.length out;
    out
  end
  else Eval.run_kernel kern b cand

(* the rows of [b] whose kernel verdict is true, as a view *)
let filter tr kern b =
  let selected = run_kern tr kern b in
  if Array.length selected = Batch.n_rows b then b else Batch.select b selected

let compile ctx frag consumer =
  let g = ctx.g and chunk_size = ctx.chunk_size and st = ctx.stats in
  let clk = ctx.clock in
  let schema = G.schema g in
  let vuniv = Schema.n_vtypes schema and euniv = Schema.n_etypes schema in
  let tick () = tick ctx in
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
     downstream chain no longer wants rows *)
  let emitter tr fields sink =
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
      Op_trace.count_rows ctx.profile st ~width n
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
  (* [operator step tr down] is the sink of one streaming operator, pushing
     its output into [down] *)
  let operator step tr down =
    (* per-input-row body emitting via [emit] *)
    let unary fields on_row =
      let emit, _, close = emitter tr fields down in
      mk_sink tr ~alive:down.k_alive ~close ~consume:(fun chunk ->
          Batch.iter (fun row -> on_row emit row) chunk)
    in
    (* per-chunk body emitting whole chunks *)
    let chunked fields on_chunk =
      let _, emit_chunk, close = emitter tr fields down in
      mk_sink tr ~alive:down.k_alive ~close ~consume:(fun chunk ->
          on_chunk emit_chunk chunk)
    in
    match step with
    | Probe table ->
      let buf = Breaker.Join.buffer ~chunk_size in
      chunked (Breaker.Join.out_fields table) (fun emit_chunk chunk ->
          tick_n ctx (Batch.n_rows chunk);
          Breaker.Join.probe table buf chunk emit_chunk)
    | Forward fields ->
      (* a Union branch: rows pass on, the right branch's columns swapped
         into the union's field order *)
      chunked fields (fun emit_chunk chunk ->
          if Batch.fields chunk = fields then emit_chunk chunk
          else
            emit_chunk
              (Batch.project chunk (List.map (fun f -> (Batch.pos chunk f, f)) fields)))
    | Op (Physical.Expand_all (x, step)) ->
      let child_fields = Physical.output_fields x in
      let e_alias = step.Physical.s_edge.Pattern.e_alias in
      let fields = child_fields @ [ e_alias; step.Physical.s_to ] in
      let layout = Batch.create fields in
      let from_pos = Batch.pos layout step.Physical.s_from in
      unary fields (fun emit row ->
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
    | Op (Physical.Expand_into (x, step)) ->
      let child_fields = Physical.output_fields x in
      let e_alias = step.Physical.s_edge.Pattern.e_alias in
      let fields = child_fields @ [ e_alias ] in
      let layout = Batch.create fields in
      let from_pos = Batch.pos layout step.Physical.s_from in
      let to_pos = Batch.pos layout step.Physical.s_to in
      unary fields (fun emit row ->
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
    | Op (Physical.Expand_intersect (x, steps)) ->
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
      unary fields (fun emit row ->
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
    | Op (Physical.Path_expand (x, step)) ->
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
      unary fields (fun emit row ->
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
    | Op (Physical.Select (x, pred)) ->
      let fields = Physical.output_fields x in
      let kernel = Eval.compile g ~fields pred in
      (* vectorized filter: the kernel marks survivors and the chunk is
         forwarded as a selection-vector view — no row copying *)
      chunked fields (fun emit_chunk chunk ->
          tick_n ctx (Batch.n_rows chunk);
          emit_chunk (filter tr kernel chunk))
    | Op (Physical.Project (x, ps)) -> begin
      let child_fields = Physical.output_fields x in
      let child_layout = Batch.create child_fields in
      let fields = List.map snd ps in
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
      match var_positions with
      | Some pairs ->
        chunked fields (fun emit_chunk chunk ->
            let n = Batch.n_rows chunk in
            tick_n ctx n;
            let t0 = Sys.time () in
            let out = Batch.project chunk pairs in
            tr.Op_trace.kernel_ns <- tr.Op_trace.kernel_ns +. ((Sys.time () -. t0) *. 1e9);
            tr.Op_trace.rows_selected <- tr.Op_trace.rows_selected + n;
            emit_chunk out)
      | None ->
        unary fields (fun emit row ->
            tick ();
            let lk = Eval.lookup_of_row child_layout row in
            emit (Array.of_list (List.map (fun (e, _) -> Eval.eval_rval g lk e) ps)))
    end
    | Op (Physical.Unfold (x, e, alias)) ->
      let child_fields = Physical.output_fields x in
      let child_layout = Batch.create child_fields in
      let fields = child_fields @ [ alias ] in
      unary fields (fun emit row ->
          tick ();
          let emit1 v = emit (Array.append row [| v |]) in
          match Eval.eval_rval g (Eval.lookup_of_row child_layout row) e with
          | Rval.Rlist items -> List.iter emit1 items
          | Rval.Rpath { verts; _ } -> List.iter (fun v -> emit1 (Rval.Rvertex v)) verts
          | Rval.Rnull -> ()
          | single -> emit1 single)
    | Op (Physical.All_distinct (x, distinct_fields)) ->
      let fields = Physical.output_fields x in
      let layout = Batch.create fields in
      let positions = List.map (Batch.pos layout) distinct_fields in
      (* the edge ids of one row, compared pairwise in place: a dense edge
         column gives one id, a path cell all of its edges *)
      let ids = ref (Array.make 16 0) and m = ref 0 in
      let push e =
        if !m = Array.length !ids then begin
          let bigger = Array.make (2 * !m) 0 in
          Array.blit !ids 0 bigger 0 !m;
          ids := bigger
        end;
        !ids.(!m) <- e;
        incr m
      in
      let distinct () =
        let a = !ids and n = !m in
        let ok = ref true and i = ref 0 in
        while !ok && !i < n do
          for j = !i + 1 to n - 1 do
            if a.(j) = a.(!i) then ok := false
          done;
          incr i
        done;
        !ok
      in
      chunked fields (fun emit_chunk chunk ->
          let n = Batch.n_rows chunk in
          tick_n ctx n;
          let cols = Array.of_list (List.map (Batch.col chunk) positions) in
          let sel = Batch.selection chunk in
          let keep = Array.make n 0 and k = ref 0 in
          for i = 0 to n - 1 do
            let p = match sel with Some s -> s.(i) | None -> i in
            m := 0;
            for c = 0 to Array.length cols - 1 do
              match cols.(c) with
              | Batch.D_edge a -> push a.(p)
              | Batch.D_vertex _ -> ()
              | Batch.D_boxed a -> (
                match a.(p) with
                | Rval.Redge e -> push e
                | v -> List.iter push (Rval.edge_ids v))
            done;
            if distinct () then begin
              keep.(!k) <- i;
              incr k
            end
          done;
          emit_chunk (if !k = n then chunk else Batch.select chunk (Array.sub keep 0 !k)))
    | Op p -> invalid_arg ("Operator: not a streaming operator: " ^ Physical.node_label p)
  in
  let sink =
    List.fold_right (fun (step, tr) down -> operator step tr down) frag.steps consumer
  in
  (* the source's rows, as the fragment's leaf produced them: a Scan morsel
     is narrowed by the scan predicate and counts as produced rows; CommonRef
     re-emission was accounted when the common sub-plan materialized *)
  let source_rows src =
    match src, frag.leaf with
    | Rows b, leaf ->
      tick_n ctx (Batch.n_rows b);
      Option.iter
        (fun tr -> tr.Op_trace.rows_out <- tr.Op_trace.rows_out + Batch.n_rows b)
        leaf;
      b
    | Vertices _, None -> invalid_arg "Operator: a vertex source needs its Scan node"
    | Vertices { alias; verts; pos; len; kernel }, Some tr ->
      tick_n ctx len;
      (* vectorized scan: a dense id column straight from the type index,
         narrowed by the compiled predicate kernel — no per-vertex boxing *)
      let b = Batch.of_vertex_ids alias verts ~pos ~len in
      let b = match kernel with None -> b | Some k -> filter tr k b in
      tr.Op_trace.rows_out <- tr.Op_trace.rows_out + Batch.n_rows b;
      Op_trace.count_rows ctx.profile st ~width:1 (Batch.n_rows b);
      b
  in
  let feed src =
    let push () =
      let b = source_rows src in
      (try if Batch.n_rows b > 0 && sink.k_alive () then sink.k_consume b
       with Stop -> ());
      sink.k_close ()
    in
    match frag.leaf with Some tr -> Op_trace.timed clk tr push | None -> push ()
  in
  feed
