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
   per-operator state (compiled kernels, output buffers, ExpandIntersect's
   neighbour cache) across every source it is fed.

   Most operators work on whole chunks. The expansions (ExpandAll,
   ExpandInto, ExpandIntersect) read their source ids from the dense vertex
   columns, walk CSR edge-type ranges into int buffers of (input row, edge
   id, neighbour), and gather each output chunk column by column, so id
   columns stay dense; their predicates run as compiled kernels, before the
   gather when they read only the new columns. ExpandIntersect caches each
   step's sorted neighbour list per anchor in an int-keyed table and probes
   the lists by binary search. PathExpand, a computed Project and Unfold
   still work a row at a time.

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
module Expr = Gopt_pattern.Expr

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

(* The rows an expansion has found and not yet gathered: per row, the input
   row it extends and its new ids (edges, then the target vertex). *)
type xbuf = { x_row : int array; x_ids : int array array; mutable x_n : int }

let xbuf ~chunk_size width =
  {
    x_row = Array.make chunk_size 0;
    x_ids = Array.init width (fun _ -> Array.make chunk_size 0);
    x_n = 0;
  }

(* The vertex ids of column [j], one per logical row: read from a dense
   column, unboxed from a promoted one (-1 for a non-vertex cell, which
   [source_vertex] rejects when its row is expanded). *)
let vertex_ids chunk j =
  let sel = Batch.selection chunk in
  let phys i = match sel with Some s -> s.(i) | None -> i in
  let n = Batch.n_rows chunk in
  match Batch.col chunk j with
  | Batch.D_vertex a -> Array.init n (fun i -> a.(phys i))
  | Batch.D_boxed a ->
    Array.init n (fun i -> match a.(phys i) with Rval.Rvertex v -> v | _ -> -1)
  | Batch.D_edge _ -> Array.make n (-1)

let source_vertex (ids : int array) i =
  let v = ids.(i) in
  if v < 0 then invalid_arg "Engine: expected a vertex binding" else v

(* [c] among an anchor's sorted neighbours, by binary search; the
   annotations keep [<] off polymorphic compare *)
let nbr_mem (a : int array) (c : int) =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < c then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length a && a.(!lo) = c

module Int_tbl = Hashtbl.Make (Int)

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
  let emitter ?(profile = ctx.profile) tr fields sink =
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
      Op_trace.count_rows profile st ~width n
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
  (* membership in a vertex type constraint, one array read per vertex *)
  let vcheck con =
    let ok = Array.init vuniv (Tc.mem ~universe:vuniv con) in
    fun v -> ok.(G.vtype g v)
  in
  (* a step's edge types, and whether it walks out of and into its bound
     endpoint *)
  let walks (step : Physical.edge_step) =
    let e = step.Physical.s_edge in
    let fwd = step.Physical.s_forward in
    ( Array.of_list (etypes e.Pattern.e_con),
      (not e.Pattern.e_directed) || fwd,
      (not e.Pattern.e_directed) || not fwd )
  in
  (* [step_adj step v f] calls [f eid other] for every edge of the step at
     [v], in adjacency order per edge type *)
  let step_adj step =
    let ets, out, inn = walks step in
    fun v f ->
      for k = 0 to Array.length ets - 1 do
        if out then G.iter_out_etype g v ets.(k) f;
        if inn then G.iter_in_etype g v ets.(k) f
      done
  in
  (* [step_edges_between step u w f] calls [f eid] for every edge of the
     step from [u] to [w]: per edge type, a search in the sorted CSR slice *)
  let step_edges_between step =
    let ets, out, inn = walks step in
    fun u w f ->
      for k = 0 to Array.length ets - 1 do
        if out then G.iter_out_edges_to g ~src:u ~etype:ets.(k) ~dst:w f;
        if inn then G.iter_out_edges_to g ~src:w ~etype:ets.(k) ~dst:u f
      done
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
    let chunked ?profile fields on_chunk =
      let _, emit_chunk, close = emitter ?profile tr fields down in
      mk_sink tr ~alive:down.k_alive ~close ~consume:(fun chunk ->
          on_chunk emit_chunk chunk)
    in
    (* An expansion over columns (ExpandAll, ExpandInto, ExpandIntersect).
       [walk chunk x commit] writes each output row's new ids into slot
       [x.x_n] of [x.x_ids] and calls [commit i] with the input row [i] it
       extends. Buffered rows leave as chunks gathered column by column,
       each exactly [chunk_size] rows (a source's last chunk at close), so
       a partial chunk carries over to the next input chunk. [pred] runs as
       a kernel: over the new columns alone, before anything is gathered,
       when it reads no input column; over each gathered chunk otherwise. *)
    let expansion child_fields new_cols pred walk =
      let new_fields = List.map fst new_cols in
      let fields = child_fields @ new_fields in
      let is_vertex = Array.of_list (List.map snd new_cols) in
      let width = Array.length is_vertex in
      let reads_input p =
        List.exists (fun t -> List.mem t child_fields) (Expr.free_tags p)
      in
      let pre, post =
        match pred with
        | None -> (None, None)
        | Some p when reads_input p -> (None, Some (Eval.compile g ~fields p))
        | Some p -> (Some (Eval.compile g ~fields:new_fields p), None)
      in
      let _, emit_chunk, _ = emitter tr fields down in
      let out = xbuf ~chunk_size width in
      (* with a predicate over the new columns, rows are staged apart and
         only its survivors reach [out] *)
      let stage = if Option.is_none pre then out else xbuf ~chunk_size width in
      let cur = ref (Batch.create child_fields) in
      let carry = ref None in
      let room () =
        chunk_size - match !carry with None -> 0 | Some c -> Batch.n_rows c
      in
      let id_col c a = if is_vertex.(c) then Batch.D_vertex a else Batch.D_edge a in
      (* gather [out]'s rows into a chunk and pass it on, or keep it as the
         carry when it is short of [chunk_size] *)
      let ship () =
        let n = out.x_n in
        out.x_n <- 0;
        let chunk = !cur in
        let cols =
          Array.append
            (Array.init (Batch.n_fields chunk) (fun j -> Batch.gather chunk j out.x_row n))
            (Array.mapi (fun c a -> id_col c (Array.sub a 0 n)) out.x_ids)
        in
        let part = Batch.of_data fields n cols in
        let part = match post with None -> part | Some k -> filter tr k part in
        let m = Batch.n_rows part in
        if m > 0 then
          match !carry with
          | None when m = chunk_size -> emit_chunk part
          | None ->
            carry := Some (if Batch.selection part = None then part else Batch.concat fields [ part ])
          | Some c ->
            Batch.append_batch c part;
            if Batch.n_rows c = chunk_size then begin
              carry := None;
              emit_chunk c
            end
      in
      let drain () =
        match pre with
        | None -> ()
        | Some k ->
          let n = stage.x_n in
          stage.x_n <- 0;
          if n > 0 then begin
            let cand = Batch.of_data new_fields n (Array.mapi id_col stage.x_ids) in
            Array.iter
              (fun s ->
                let o = out.x_n in
                out.x_row.(o) <- stage.x_row.(s);
                for c = 0 to width - 1 do
                  out.x_ids.(c).(o) <- stage.x_ids.(c).(s)
                done;
                out.x_n <- o + 1;
                if out.x_n >= room () then ship ())
              (run_kern tr k cand)
          end
      in
      let commit i =
        stage.x_row.(stage.x_n) <- i;
        stage.x_n <- stage.x_n + 1;
        if stage == out then (if out.x_n >= room () then ship ())
        else if stage.x_n = chunk_size then drain ()
      in
      let close () =
        (match !carry with
        | Some c ->
          carry := None;
          (try emit_chunk c with Stop -> ())
        | None -> ());
        down.k_close ()
      in
      mk_sink tr ~alive:down.k_alive ~close ~consume:(fun chunk ->
          cur := chunk;
          stage.x_n <- 0;
          out.x_n <- 0;
          walk chunk stage commit;
          drain ();
          if out.x_n > 0 then ship ())
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
      let from_pos = Batch.pos (Batch.create child_fields) step.Physical.s_from in
      let adj = step_adj step and to_ok = vcheck step.Physical.s_to_con in
      let e = step.Physical.s_edge in
      let pred = Expr.conj (List.filter_map Fun.id [ e.Pattern.e_pred; step.Physical.s_to_pred ]) in
      expansion child_fields
        [ (e.Pattern.e_alias, false); (step.Physical.s_to, true) ]
        pred
        (fun chunk x commit ->
          let srcs = vertex_ids chunk from_pos in
          let row = ref 0 in
          let visit eid other =
            tick ();
            st.Op_trace.edges_touched <- st.Op_trace.edges_touched + 1;
            if to_ok other then begin
              x.x_ids.(0).(x.x_n) <- eid;
              x.x_ids.(1).(x.x_n) <- other;
              commit !row
            end
          in
          for i = 0 to Array.length srcs - 1 do
            row := i;
            adj (source_vertex srcs i) visit
          done)
    | Op (Physical.Expand_into (x, step)) ->
      let child_fields = Physical.output_fields x in
      let layout = Batch.create child_fields in
      let from_pos = Batch.pos layout step.Physical.s_from in
      let to_pos = Batch.pos layout step.Physical.s_to in
      let between = step_edges_between step in
      let e = step.Physical.s_edge in
      expansion child_fields [ (e.Pattern.e_alias, false) ] e.Pattern.e_pred
        (fun chunk x commit ->
          let us = vertex_ids chunk from_pos and ws = vertex_ids chunk to_pos in
          for i = 0 to Array.length us - 1 do
            tick ();
            between (source_vertex us i) (source_vertex ws i) (fun eid ->
                st.Op_trace.edges_touched <- st.Op_trace.edges_touched + 1;
                x.x_ids.(0).(x.x_n) <- eid;
                commit i)
          done)
    | Op (Physical.Expand_intersect (x, step_list)) ->
      let child_fields = Physical.output_fields x in
      let head = List.hd step_list in
      let child_layout = Batch.create child_fields in
      let steps = Array.of_list step_list in
      let k = Array.length steps in
      let from_pos = Array.map (fun s -> Batch.pos child_layout s.Physical.s_from) steps in
      let between = Array.map step_edges_between steps in
      let to_ok = vcheck head.Physical.s_to_con in
      let pred =
        Expr.conj
          (Option.to_list head.Physical.s_to_pred
          @ List.filter_map (fun s -> s.Physical.s_edge.Pattern.e_pred) step_list)
      in
      (* hub vertices recur across rows: each step caches its anchors'
         neighbour lists, keyed by anchor id *)
      let cache = Array.init k (fun _ -> Int_tbl.create 256) in
      let neighbours i v =
        match Int_tbl.find_opt cache.(i) v with
        | Some a -> a
        | None ->
          let a = sorted_step_neighbors steps.(i) v in
          st.Op_trace.edges_touched <- st.Op_trace.edges_touched + Array.length a;
          Int_tbl.add cache.(i) v a;
          a
      in
      let anchors = Array.make k 0 and sets = Array.make k [||] in
      (* per step, the parallel edges from its anchor to one candidate *)
      let found = Array.init k (fun _ -> Vec.create ()) and combo = Array.make k 0 in
      expansion child_fields
        (List.map (fun s -> (s.Physical.s_edge.Pattern.e_alias, false)) step_list
        @ [ (head.Physical.s_to, true) ])
        pred
        (fun chunk x commit ->
          let cols = Array.map (vertex_ids chunk) from_pos in
          for r = 0 to Batch.n_rows chunk - 1 do
            tick ();
            for i = 0 to k - 1 do
              anchors.(i) <- source_vertex cols.(i) r;
              sets.(i) <- neighbours i anchors.(i)
            done;
            (* the shortest list drives; the others are probed *)
            let first = ref 0 in
            for i = 1 to k - 1 do
              if Array.length sets.(i) < Array.length sets.(!first) then first := i
            done;
            let first = !first in
            let rec member c i =
              i = k || ((i = first || nbr_mem sets.(i) c) && member c (i + 1))
            in
            (* one row per combination of parallel edges, the first step's
               outermost *)
            let rec combine c i =
              if i = k then begin
                for j = 0 to k - 1 do
                  x.x_ids.(j).(x.x_n) <- combo.(j)
                done;
                x.x_ids.(k).(x.x_n) <- c;
                commit r
              end
              else
                Vec.iter
                  (fun e ->
                    combo.(i) <- e;
                    combine c (i + 1))
                  found.(i)
            in
            Array.iter
              (fun c ->
                tick ();
                if member c 0 && to_ok c then begin
                  for i = 0 to k - 1 do
                    Vec.clear found.(i);
                    between.(i) anchors.(i) c (Vec.push found.(i))
                  done;
                  combine c 0
                end)
              sets.(first)
          done)
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
      let adj = step_adj step and to_ok = vcheck step.Physical.s_to_con in
      unary fields (fun emit row ->
          let v0 = vertex_of row.(from_pos) in
          let target = Option.map (fun p -> vertex_of row.(p)) to_pos in
          let rec dfs v depth edges_rev verts_rev =
            tick ();
            if depth >= lo && depth <= hi then begin
              let ok_endpoint =
                match target with Some t -> t = v | None -> to_ok v
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
              adj v (fun eid other ->
                  tick ();
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
         selection vector, so it copies and ships nothing and is charged
         no communication *)
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
        chunked ~profile:{ Op_trace.count_comm = false } fields (fun emit_chunk chunk ->
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
