(* The execution driver: morsel-driven, on one or more OCaml 5 domains.

   The plan is decomposed into {e stages}. A stage is a streaming region —
   chains of streaming operators ([Operator] fragments) over Scan leaves,
   breaker outputs or CommonRef leaves, joined by Union branches and by
   HashJoin probes — that ends in one consumer: a pipeline breaker's state
   (Group table, sorted run, Dedup seen-set, join build table) or a
   collector of rows (the final result, a WithCommon common result, the
   input of Limit and Skip). A region's input is partitioned into
   {e morsels} of [chunk_size] rows — vertex ranges for scans, row ranges
   for materialized intermediates — so a morsel is one chunk, and every
   morsel is pushed through its fragment straight into the consumer.
   Joins stream: the build side runs once as its own stage into one
   [Breaker.Join] table, which every probe-side morsel then probes
   read-only. Breakers come from
   [Breaker]; their output stays a list of per-morsel batches that is
   sliced into the next stage's morsels, and only the final result is
   concatenated.

   One worker is the sequential engine: morsels run in order on the calling
   domain, every morsel feeds the stage's single consumer state, nothing
   crosses an exchange, and the trace has the plan's shape. With [workers]
   > 1 a domain pool claims morsel indices off an atomic counter, each
   morsel feeds its own partial state, and the partials cross an
   {e exchange} to a merge point on the coordinating domain that folds them
   in morsel order. Each worker compiles a branch's fragment once per stage
   and records into private copies of the trace nodes, absorbed into the
   run's trace when the stage ends; each stage's trace gains an
   [exchange[...]] node with one leaf per worker.

   Determinism: morsel partitioning depends only on the plan, the graph and
   [chunk_size], per-morsel work is sequential, and merge points fold
   partials in morsel order, so for every [workers] value the result has
   the same rows in the same order as one worker feeding each breaker in
   morsel order. Only SUM/AVG over non-integral floats may round
   differently between one worker and several, since several workers add
   them up per morsel before merging; between any two worker counts above
   one they are bit-identical.

   Accounting: with several workers, rows handed from a morsel to its merge
   point count as {e exchange} rows ([stats.exchange_rows]); profiles with
   [count_comm = true] also charge them to the communication counters,
   applying the paper's communication-cost definition to this engine.
   [peak_rows] counts breaker state, materialized stage outputs and the
   result; with several workers, partial states count once they reach the
   merge point. *)

module G = Gopt_graph.Property_graph
module Schema = Gopt_graph.Schema
module Tc = Gopt_pattern.Type_constraint
module Logical = Gopt_gir.Logical
module Physical = Gopt_opt.Physical

(* A streaming region: its branches (fragments with the sources of their
   morsels, in morsel order) and the trace node of its top operator. *)
type src = {
  s_fields : string list;  (** Output layout of every branch. *)
  s_node : Op_trace.t;
  s_branches : (Operator.fragment * Operator.source list) list;
  s_held : int;
      (** Live rows the region pins until its stage ends: breaker outputs it
          reads, join tables it probes, common results it re-emits. *)
}

let rows parts = List.fold_left (fun n b -> n + Batch.n_rows b) 0 parts

(* the first [n] rows, and all but the first [n] rows, of a part list *)
let rec take n = function
  | [] -> []
  | b :: rest ->
    let r = Batch.n_rows b in
    if r < n then b :: take (n - r) rest
    else if n = 0 then []
    else [ (if r = n then b else Batch.sub b ~pos:0 ~len:n) ]

let rec drop n = function
  | [] -> []
  | b :: rest ->
    let r = Batch.n_rows b in
    if n = 0 then b :: rest
    else if r <= n then drop (n - r) rest
    else Batch.sub b ~pos:n ~len:(r - n) :: rest

(* A keyless Group whose aggregates fold into the probe of the inner
   HashJoin under zero or more AllDistincts ([Breaker.Probe_agg]): the
   AllDistincts with their fields, top first, the join, and its inputs and
   keys. *)
let probe_agg ks aggs (x : Physical.t) =
  let rec chain (p : Physical.t) =
    match p with
    | Physical.All_distinct (y, fs) ->
      Option.map (fun (ads, j) -> ((p, fs) :: ads, j)) (chain y)
    | Physical.Hash_join { left; right; keys; kind = Logical.Inner } ->
      Some ([], (p, left, right, keys))
    | _ -> None
  in
  match ks, chain x with
  | [], Some (ads, ((join, _, _, _) as j))
    when Breaker.Probe_agg.supports ~fields:(Physical.output_fields join) aggs ->
    Some (ads, j)
  | _ -> None

let run ?(profile = Op_trace.graphscope_profile) ?budget
    ?(chunk_size = Operator.default_chunk_size) ~workers g plan =
  if workers < 1 then invalid_arg "Parallel.run: workers must be >= 1";
  if chunk_size < 1 then
    invalid_arg (Printf.sprintf "Engine.run: chunk_size must be >= 1 (got %d)" chunk_size);
  let schema = G.schema g in
  let vuniv = Schema.n_vtypes schema in
  let single = workers = 1 in
  let st = Op_trace.fresh_stats () in
  st.Op_trace.workers_used <- workers;
  let clk = Op_trace.clock () in
  let start = Sys.time () in
  let cancelled = Atomic.make false in
  (* Sys.time is process-wide CPU, so with w workers the budget is w-fold
     conservative — acceptable for a cutoff *)
  let check () =
    (match budget with
    | Some b when Sys.time () -. start > b -> raise Op_trace.Timeout
    | _ -> ());
    if Atomic.get cancelled then raise Op_trace.Timeout
  in
  (* one trace node per plan operator; CommonRef re-emission is not one *)
  let node p =
    (match p with
    | Physical.Common_ref _ -> ()
    | _ -> st.Op_trace.operators <- st.Op_trace.operators + 1);
    Op_trace.make (Physical.node_label ~schema p) []
  in
  (* [stage ?node ~width s ~init ~add ~size] runs every morsel of [s]
     through its branch's fragment and feeds the output chunks to a consumer
     state with [add], timed into [node] (the consuming breaker's trace
     node). [size] is the number of rows a state holds, [width] their field
     count (for exchange accounting). Returns the states in morsel order
     (never none) and the trace node the consumer's input hangs under.
     [count_in] false leaves [node]'s rows-in to the caller.
     [alive] lets a state refuse further rows, ending its morsel early;
     [enough] stops claiming morsels once the completed prefix of morsels
     holds that many rows (morsels are claimed in index order, so every
     skipped one lies beyond it). *)
  let stage ?node ?(count_in = true) ?(alive = fun _ -> true) ?enough ~width (s : src) ~init
      ~add ~size =
    let frags = Array.of_list (List.map fst s.s_branches) in
    let morsels =
      Array.of_list
        (List.concat
           (List.mapi (fun bi (_, srcs) -> List.map (fun m -> (bi, m)) srcs) s.s_branches))
    in
    let n = Array.length morsels in
    let the_state = if single then Some (init ()) else None in
    let results = Array.make n None in
    let errors = Array.make n None in
    let worker_of = Array.make n (-1) in
    let next = Atomic.make 0 in
    let stop = Atomic.make (match enough with Some t -> t <= 0 | None -> false) in
    let prefix_mutex = Mutex.create () in
    let done_rows = Array.make n (-1) in
    let frontier = ref 0 and prefix_rows = ref 0 in
    let note_done i state =
      match enough with
      | None -> ()
      | Some target when single -> if size state >= target then Atomic.set stop true
      | Some target ->
        Mutex.lock prefix_mutex;
        done_rows.(i) <- size state;
        while !frontier < n && done_rows.(!frontier) >= 0 do
          prefix_rows := !prefix_rows + done_rows.(!frontier);
          incr frontier
        done;
        if !prefix_rows >= target then Atomic.set stop true;
        Mutex.unlock prefix_mutex
    in
    let worker wid =
      let wst = if single then st else Op_trace.fresh_stats () in
      let copies = ref [] in
      let local tr =
        if single then tr
        else
          match List.assq_opt tr !copies with
          | Some c -> c
          | None ->
            let c = Op_trace.make tr.Op_trace.name [] in
            copies := (tr, c) :: !copies;
            c
      in
      let ctx =
        {
          Operator.g;
          profile;
          chunk_size;
          stats = wst;
          clock = (if single then clk else Op_trace.clock ());
          check;
          ticks = 0;
        }
      in
      let cur = ref the_state in
      let state () = Option.get !cur in
      let consume =
        match Option.map local node with
        | None -> fun chunk -> add wst (state ()) chunk
        | Some tr ->
          fun chunk ->
            Op_trace.timed ctx.Operator.clock tr (fun () ->
                if count_in then tr.Op_trace.rows_in <- tr.Op_trace.rows_in + Batch.n_rows chunk;
                add wst (state ()) chunk)
      in
      let consumer =
        {
          Operator.k_consume = consume;
          k_close = ignore;
          k_alive = (fun () -> alive (state ()));
        }
      in
      let feeds = Array.make (Array.length frags) None in
      let feed bi m =
        match feeds.(bi) with
        | Some f -> f m
        | None ->
          let frag = frags.(bi) in
          let f =
            Operator.compile ctx
              {
                Operator.leaf = Option.map local frag.Operator.leaf;
                steps = List.map (fun (step, tr) -> (step, local tr)) frag.Operator.steps;
              }
              consumer
          in
          feeds.(bi) <- Some f;
          f m
      in
      let continue_ = ref true in
      while !continue_ do
        if Atomic.get stop || Atomic.get cancelled then continue_ := false
        else begin
          let i = Atomic.fetch_and_add next 1 in
          if i >= n then continue_ := false
          else begin
            worker_of.(i) <- wid;
            if not single then cur := Some (init ());
            let bi, m = morsels.(i) in
            match feed bi m with
            | () ->
              results.(i) <- !cur;
              note_done i (state ())
            | exception e ->
              errors.(i) <- Some e;
              Atomic.set cancelled true
          end
        end
      done;
      (wst, !copies)
    in
    let w = max 1 (min workers n) in
    let outcomes =
      if w = 1 then [ worker 0 ]
      else begin
        let doms = Array.init (w - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1))) in
        let first = worker 0 in
        first :: Array.to_list (Array.map Domain.join doms)
      end
    in
    (* Re-raise the first genuine error in morsel order; a cancellation-
       induced Timeout only wins when every error is a Timeout. *)
    let first_err p =
      Array.fold_left
        (fun acc e -> match acc, e with None, Some x when p x -> Some x | _ -> acc)
        None errors
    in
    (match first_err (fun e -> e <> Op_trace.Timeout) with
    | Some e -> raise e
    | None -> (match first_err (fun _ -> true) with Some e -> raise e | None -> ()));
    let states =
      match the_state with
      | Some state -> [ state ]
      | None -> (
        match List.filter_map Fun.id (Array.to_list results) with
        | [] -> [ init () ]
        | states -> states)
    in
    let kid =
      if single then s.s_node
      else begin
        List.iter
          (fun ((wst : Op_trace.stats), copies) ->
            st.intermediate_rows <- st.intermediate_rows + wst.intermediate_rows;
            st.intermediate_cells <- st.intermediate_cells + wst.intermediate_cells;
            st.comm_rows <- st.comm_rows + wst.comm_rows;
            st.comm_cells <- st.comm_cells + wst.comm_cells;
            st.edges_touched <- st.edges_touched + wst.edges_touched;
            List.iter (fun (tr, c) -> Op_trace.absorb tr c) copies)
          outcomes;
        let sizes = Array.map (function Some state -> size state | None -> 0) results in
        let xrows = Array.fold_left ( + ) 0 sizes in
        Op_trace.live_add st xrows;
        st.exchange_rows <- st.exchange_rows + xrows;
        st.exchange_cells <- st.exchange_cells + (xrows * width);
        if profile.Op_trace.count_comm then begin
          st.comm_rows <- st.comm_rows + xrows;
          st.comm_cells <- st.comm_cells + (xrows * width)
        end;
        let worker_node wid =
          let morsels = ref 0 and rows = ref 0 in
          Array.iteri
            (fun i w' ->
              if w' = wid then begin
                incr morsels;
                rows := !rows + sizes.(i)
              end)
            worker_of;
          let tr = Op_trace.make (Printf.sprintf "worker %d (morsels=%d)" wid !morsels) [] in
          tr.Op_trace.rows_out <- !rows;
          tr
        in
        let skipped =
          Array.fold_left (fun k r -> if Option.is_none r then k + 1 else k) 0 results
        in
        let label = (match node with Some tr -> tr | None -> s.s_node).Op_trace.name in
        let xnode =
          Op_trace.make
            (Printf.sprintf "exchange[%s] (morsels=%d%s, workers=%d)" label n
               (if skipped > 0 then Printf.sprintf ", skipped=%d" skipped else "")
               w)
            (List.init w worker_node @ [ s.s_node ])
        in
        xnode.Op_trace.rows_in <- xrows;
        xnode.Op_trace.rows_out <- xrows;
        xnode
      end
    in
    Op_trace.live_sub st s.s_held;
    (states, kid)
  in
  (* a collecting stage: the region's rows as batches, at most [cap] per
     state *)
  let collect ?node ?cap (s : src) =
    let room b = match cap with Some n -> n - Batch.n_rows b | None -> max_int in
    stage ?node ~width:(List.length s.s_fields) s ~alive:(fun b -> room b > 0) ?enough:cap
      ~init:(fun () -> Batch.create s.s_fields)
      ~add:(fun wst b chunk ->
        let k = min (room b) (Batch.n_rows chunk) in
        if k > 0 then begin
          Batch.append_batch b
            (if k = Batch.n_rows chunk then chunk else Batch.sub chunk ~pos:0 ~len:k);
          Op_trace.live_add wst k
        end)
      ~size:Batch.n_rows
  in
  (* a merge point's output [parts] takes the place of the [held] live rows
     of breaker state, and counts as rows the breaker [tr] produced *)
  let settle tr ~held parts =
    let n = rows parts in
    Op_trace.live_sub st held;
    Op_trace.live_add st n;
    tr.Op_trace.rows_out <- tr.Op_trace.rows_out + n;
    (match parts with
    | b :: _ -> Op_trace.count_rows profile st ~width:(Batch.n_fields b) n
    | [] -> ());
    (parts, tr)
  in
  (* [f pos len] over the chunk-sized ranges of [0, n) *)
  let ranges n f =
    List.init ((n + chunk_size - 1) / chunk_size) (fun k ->
        let pos = k * chunk_size in
        f pos (min chunk_size (n - pos)))
  in
  let slices parts =
    List.concat_map
      (fun b ->
        let nr = Batch.n_rows b in
        if nr = 0 then []
        else if nr <= chunk_size then [ Operator.Rows b ]
        else ranges nr (fun pos len -> Operator.Rows (Batch.sub b ~pos ~len)))
      parts
  in
  let add_step (s : src) step tr ~fields =
    {
      s with
      s_fields = fields;
      s_node = tr;
      s_branches =
        List.map
          (fun ((f : Operator.fragment), srcs) ->
            ({ f with Operator.steps = f.Operator.steps @ [ (step, tr) ] }, srcs))
          s.s_branches;
    }
  in
  (* both branches' morsels, each branch's rows passed on through [tr] in
     the first branch's layout *)
  let union tr (sa : src) (sb : src) =
    let fields = sa.s_fields in
    let fwd s = (add_step s (Operator.Forward fields) tr ~fields).s_branches in
    {
      s_fields = fields;
      s_node = tr;
      s_branches = fwd sa @ fwd sb;
      s_held = sa.s_held + sb.s_held;
    }
  in
  let probe tr (s : src) table =
    let s' = add_step s (Operator.Probe table) tr ~fields:(Breaker.Join.out_fields table) in
    { s' with s_held = s.s_held + Breaker.Join.rows table }
  in
  (* [psource env p] decomposes the streaming region rooted at [p]; the
     breakers below it run to completion first, through [exec]. [env] is
     the enclosing WithCommon's common result. *)
  let rec psource env (p : Physical.t) : src =
    match p with
    | Physical.Scan { alias; con; pred } ->
      let kernel = Option.map (fun p -> Eval.compile g ~fields:[ alias ] p) pred in
      let morsels t =
        let verts = G.vertices_of_vtype g t in
        ranges (Array.length verts) (fun pos len ->
            Operator.Vertices { alias; verts; pos; len; kernel })
      in
      let tr = node p in
      let srcs = List.concat_map morsels (Tc.to_list ~universe:vuniv con) in
      {
        s_fields = [ alias ];
        s_node = tr;
        s_branches = [ ({ leaf = Some tr; steps = [] }, srcs) ];
        s_held = 0;
      }
    | Physical.Common_ref fields -> begin
      match env with
      | None -> failwith "Engine: CommonRef outside WithCommon"
      | Some parts ->
        let tr = node p in
        {
          s_fields = fields;
          s_node = tr;
          s_branches = [ ({ leaf = Some tr; steps = [] }, slices parts) ];
          s_held = 0;
        }
    end
    | Physical.Empty fields ->
      { s_fields = fields; s_node = node p; s_branches = []; s_held = 0 }
    | Physical.Select (x, _) | Physical.Project (x, _) | Physical.Expand_all (x, _)
    | Physical.Expand_into (x, _) | Physical.Expand_intersect (x, _)
    | Physical.Path_expand (x, _) | Physical.Unfold (x, _, _) | Physical.All_distinct (x, _) ->
      let s = psource env x in
      let tr = node p in
      tr.Op_trace.children <- [ s.s_node ];
      add_step s (Operator.Op p) tr ~fields:(Physical.output_fields p)
    | Physical.Union (a, b) ->
      let sa = psource env a in
      let sb = psource env b in
      let tr = node p in
      tr.Op_trace.children <- [ sa.s_node; sb.s_node ];
      union tr sa sb
    | Physical.Hash_join { left; right; keys; kind } ->
      let tr = node p in
      let jc, build_tr =
        build env tr right ~left_fields:(Physical.output_fields left) ~keys ~kind
      in
      let sl = psource env left in
      tr.Op_trace.children <- [ sl.s_node; build_tr ];
      probe tr sl jc
    | Physical.With_common { common; left; right; combine } ->
      let tr = node p in
      let parts, common_tr = exec env common in
      let env = Some parts in
      let s =
        match combine with
        | Logical.C_union ->
          let sl = psource env left in
          let sr = psource env right in
          tr.Op_trace.children <- [ common_tr; sl.s_node; sr.s_node ];
          union tr sl sr
        | Logical.C_join (keys, kind) ->
          let jc, build_tr =
            build env tr right ~left_fields:(Physical.output_fields left) ~keys ~kind
          in
          let sl = psource env left in
          tr.Op_trace.children <- [ common_tr; sl.s_node; build_tr ];
          probe tr sl jc
      in
      { s with s_held = s.s_held + rows parts }
    | Physical.Group _ | Physical.Order _ | Physical.Limit _ | Physical.Skip _
    | Physical.Dedup _ ->
      let parts, tr = exec env p in
      {
        s_fields = Physical.output_fields p;
        s_node = tr;
        s_branches = [ ({ leaf = None; steps = [] }, slices parts) ];
        s_held = rows parts;
      }
  (* the build side of a hash join [tr]: one stage into one join table,
     indexed here, on the coordinating domain, before any probe starts *)
  and build env tr right ~left_fields ~keys ~kind =
    let s = psource env right in
    let partials, kid =
      stage ~node:tr ~width:(List.length s.s_fields) s
        ~init:(fun () ->
          Breaker.Join.create ~left_fields ~right_fields:s.s_fields ~keys ~kind)
        ~add:(fun wst jc chunk ->
          Breaker.Join.add jc chunk;
          Op_trace.live_add wst (Batch.n_rows chunk))
        ~size:Breaker.Join.size
    in
    let table =
      Op_trace.timed clk tr (fun () ->
          let jc = List.hd partials in
          List.iter (Breaker.Join.merge jc) (List.tl partials);
          Breaker.Join.index jc)
    in
    (table, kid)
  (* a Group [tr] folded into the probe of [join] through the AllDistincts
     [ads]: the join builds as usual and its probe side streams into
     per-morsel [Breaker.Probe_agg] states. The trace keeps the plan's
     shape; the join and the AllDistincts are charged, after the merge,
     the rows they would have passed on, and the fold's time is the
     Group's. *)
  and group_in_probe env tr ~width ~finish aggs ads (join, left, right, keys) =
    let jtr = node join in
    let table, build_tr =
      build env jtr right ~left_fields:(Physical.output_fields left) ~keys ~kind:Logical.Inner
    in
    let sl = psource env left in
    jtr.Op_trace.children <- [ sl.s_node; build_tr ];
    let lowest_first = List.rev ads in
    let top, ad_trs =
      List.fold_left
        (fun (below, trs) (ad, _) ->
          let t = node ad in
          t.Op_trace.children <- [ below ];
          (t, t :: trs))
        (jtr, []) lowest_first
    in
    let s = { sl with s_node = top; s_held = sl.s_held + Breaker.Join.rows table } in
    let groups states =
      List.fold_left (fun n pa -> n + Breaker.Group.length pa.Breaker.Probe_agg.group) 0 states
    in
    let states, kid =
      stage ~node:tr ~count_in:false ~width s
        ~init:(fun () ->
          Breaker.Probe_agg.create g table ~levels:(List.map snd lowest_first) aggs)
        ~add:(fun wst pa chunk ->
          Op_trace.live_add wst (Breaker.Probe_agg.add pa ~check chunk))
        ~size:(fun pa -> groups [ pa ])
    in
    tr.Op_trace.children <- [ kid ];
    let held = groups states in
    Op_trace.timed clk tr (fun () ->
        let pa = List.hd states in
        List.iter (Breaker.Probe_agg.merge pa) (List.tl states);
        let jwidth = List.length (Breaker.Join.out_fields table) in
        let passed rows_in (t : Op_trace.t) n =
          t.Op_trace.rows_in <- t.Op_trace.rows_in + rows_in;
          t.Op_trace.rows_out <- t.Op_trace.rows_out + n;
          Op_trace.count_rows profile st ~width:jwidth n;
          n
        in
        let out = passed pa.Breaker.Probe_agg.probe_rows jtr pa.Breaker.Probe_agg.pairs in
        let out =
          List.fold_left2 passed out (List.rev ad_trs)
            (Array.to_list pa.Breaker.Probe_agg.passed)
        in
        tr.Op_trace.rows_in <- tr.Op_trace.rows_in + out;
        finish held pa.Breaker.Probe_agg.group)
  (* [exec env p] evaluates [p] to its output parts and trace node *)
  and exec env (p : Physical.t) : Batch.t list * Op_trace.t =
    let sum size states = List.fold_left (fun n x -> n + size x) 0 states in
    match p with
    | Physical.Group (x, ks, aggs) -> begin
      let tr = node p in
      let fields = Breaker.Group.out_fields ks aggs in
      let width = List.length fields in
      (* partial tables fold in morsel order: keys keep first sighting *)
      let finish held grp =
        let out = Batch.create fields in
        Breaker.Group.finish grp (Batch.add out);
        settle tr ~held [ out ]
      in
      match probe_agg ks aggs x with
      | Some (ads, join) -> group_in_probe env tr ~width ~finish aggs ads join
      | None ->
        let s = psource env x in
        let tables, kid =
          stage ~node:tr ~width s
            ~init:(fun () -> Breaker.Group.create g ~fields:s.s_fields ks aggs)
            ~add:(fun wst grp chunk ->
              Op_trace.live_add wst (Breaker.Group.add_chunk grp chunk))
            ~size:Breaker.Group.length
        in
        tr.Op_trace.children <- [ kid ];
        let held = sum Breaker.Group.length tables in
        Op_trace.timed clk tr (fun () ->
            let grp = List.hd tables in
            List.iter (Breaker.Group.merge grp) (List.tl tables);
            finish held grp)
    end
    | Physical.Order (x, ks, lim) ->
      let s = psource env x in
      let tr = node p in
      let runs, kid =
        stage ~node:tr ~width:(List.length s.s_fields) s
          ~init:(fun () -> Breaker.Sorted_run.create g ~fields:s.s_fields ~chunk_size ks lim)
          ~add:(fun wst run chunk ->
            Batch.iter
              (fun row ->
                Op_trace.live_add wst 1;
                Op_trace.live_sub wst (Breaker.Sorted_run.push run row))
              chunk)
          ~size:Breaker.Sorted_run.length
      in
      tr.Op_trace.children <- [ kid ];
      let held = sum Breaker.Sorted_run.length runs in
      (* ties resolve to the earlier run, i.e. the earlier morsel *)
      Op_trace.timed clk tr (fun () ->
          let out = Batch.create s.s_fields in
          Breaker.Sorted_run.merge ks lim
            (Array.of_list (List.map Breaker.Sorted_run.finish runs))
            (Batch.add out);
          settle tr ~held [ out ])
    | Physical.Dedup (x, tags) ->
      let s = psource env x in
      let tr = node p in
      let create () = Breaker.Dedup.create ~fields:s.s_fields tags in
      let states, kid =
        stage ~node:tr ~width:(List.length s.s_fields) s ~init:create
          ~add:(fun wst d chunk -> Op_trace.live_add wst (Breaker.Dedup.add_chunk d chunk))
          ~size:Breaker.Dedup.length
      in
      tr.Op_trace.children <- [ kid ];
      let held = sum Breaker.Dedup.length states in
      Op_trace.timed clk tr (fun () ->
          let d =
            match states with
            | [ d ] -> d
            | states ->
              (* re-filter each morsel's local survivors against one global
                 key table *)
              let d = create () in
              List.iter
                (fun part ->
                  Breaker.Dedup.parts part
                  |> List.iter (fun b -> ignore (Breaker.Dedup.add_chunk d b)))
                states;
              d
          in
          settle tr ~held [ Batch.concat s.s_fields (Breaker.Dedup.parts d) ])
    | Physical.Limit (x, n) ->
      let s = psource env x in
      let tr = node p in
      let parts, kid = collect ~node:tr ~cap:n s in
      tr.Op_trace.children <- [ kid ];
      settle tr ~held:(rows parts) (take n parts)
    | Physical.Skip (x, n) ->
      let s = psource env x in
      let tr = node p in
      let parts, kid = collect ~node:tr s in
      tr.Op_trace.children <- [ kid ];
      settle tr ~held:(rows parts) (drop n parts)
    | Physical.Scan _ | Physical.Select _ | Physical.Project _ | Physical.Expand_all _
    | Physical.Expand_into _ | Physical.Expand_intersect _ | Physical.Path_expand _
    | Physical.Unfold _ | Physical.All_distinct _ | Physical.Union _
    | Physical.Hash_join _ | Physical.With_common _ | Physical.Common_ref _
    | Physical.Empty _ ->
      (* a streaming region: its operators already counted their rows *)
      collect (psource env p)
  in
  let parts, root = exec None plan in
  let result =
    match parts with [ b ] -> b | parts -> Batch.concat (Physical.output_fields plan) parts
  in
  st.Op_trace.op_trace <- Some root;
  (result, st)
