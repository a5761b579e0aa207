(* Pipeline-breaker cores of the execution engine: the hash-join table, the
   first-sighting group table, sorted runs with their k-way merge, and the
   Dedup seen-set. Each breaker's semantics — its output order included —
   lives here once. Every state can be fed directly or as per-morsel
   partials merged in morsel order, with the same result, which is what
   makes a one-worker run byte-identical to a run at any worker count.
   [Parallel] decides where rows come from and where a breaker's output
   goes; [Operator] probes a built join table. *)

module G = Gopt_graph.Property_graph
module Value = Gopt_graph.Value
module Logical = Gopt_gir.Logical
module KeyTbl = Agg.KeyTbl
module Vec = Gopt_util.Vec

(* Hash join: key extraction, build-side table, and the per-row probe for
   all four join kinds. *)
module Join = struct
  type t = {
    table : Rval.t array list KeyTbl.t;
    mutable rows : int;  (** Build rows held. *)
    lkeys : int list;
    rkeys : int list;
    right_extra_pos : int list;
    kind : Logical.join_kind;
    out_fields : string list;
  }

  let create ~left_fields ~right_fields ~keys ~kind =
    let l_layout = Batch.create left_fields in
    let r_layout = Batch.create right_fields in
    let right_extra =
      List.filter (fun f -> not (Batch.has_field l_layout f)) right_fields
    in
    let out_fields =
      match kind with
      | Logical.Semi | Logical.Anti -> left_fields
      | Logical.Inner | Logical.Left_outer -> left_fields @ right_extra
    in
    {
      table = KeyTbl.create 64;
      rows = 0;
      lkeys = List.map (Batch.pos l_layout) keys;
      rkeys = List.map (Batch.pos r_layout) keys;
      right_extra_pos = List.map (Batch.pos r_layout) right_extra;
      kind;
      out_fields;
    }

  (* Build rows are consed in arrival order, so matches come back in reverse
     arrival order. *)
  let build t row =
    let key = List.map (fun p -> row.(p)) t.rkeys in
    let cur = Option.value ~default:[] (KeyTbl.find_opt t.table key) in
    KeyTbl.replace t.table key (row :: cur);
    t.rows <- t.rows + 1

  let size t = t.rows

  (* Fold partial table [p] into [t], as if [p]'s rows had been built after
     [t]'s ([p] is consumed). *)
  let merge t p =
    KeyTbl.iter
      (fun key rows ->
        let cur = Option.value ~default:[] (KeyTbl.find_opt t.table key) in
        KeyTbl.replace t.table key (rows @ cur))
      p.table;
    t.rows <- t.rows + p.rows

  let probe t lrow emit =
    let key = List.map (fun p -> lrow.(p)) t.lkeys in
    let matches = Option.value ~default:[] (KeyTbl.find_opt t.table key) in
    let emit_pair rrow =
      emit
        (Array.append lrow
           (Array.of_list (List.map (fun p -> rrow.(p)) t.right_extra_pos)))
    in
    match t.kind with
    | Logical.Inner -> List.iter emit_pair matches
    | Logical.Left_outer ->
      if matches = [] then
        emit (Array.append lrow (Array.make (List.length t.right_extra_pos) Rval.Rnull))
      else List.iter emit_pair matches
    | Logical.Semi -> if matches <> [] then emit lrow
    | Logical.Anti -> if matches = [] then emit lrow
end

(* ORDER BY comparator over evaluated sort keys. *)
let compare_keys ks ka kb =
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

(* GROUP BY: one accumulator array per key, groups emitted in the order their
   key was first seen. *)
module Group = struct
  type t = {
    g : G.t;
    layout : Batch.t;
    keys : (Gopt_pattern.Expr.t * string) list;
    aggs : Logical.agg list;
    states : Agg.state array KeyTbl.t;
    order : Rval.t list Vec.t;  (** Keys in first-sighting order. *)
  }

  let create g ~fields keys aggs =
    {
      g;
      layout = Batch.create fields;
      keys;
      aggs;
      states = KeyTbl.create 64;
      order = Vec.create ();
    }

  let out_fields keys aggs =
    List.map snd keys @ List.map (fun a -> a.Logical.agg_alias) aggs

  let length t = Vec.length t.order

  (* Feed one row; true when the row opened a new group. *)
  let add t row =
    let lk = Eval.lookup_of_row t.layout row in
    let key = List.map (fun (e, _) -> Eval.eval_rval t.g lk e) t.keys in
    let states, fresh =
      match KeyTbl.find_opt t.states key with
      | Some states -> (states, false)
      | None ->
        let states = Array.of_list (List.map Agg.init t.aggs) in
        KeyTbl.add t.states key states;
        Vec.push t.order key;
        (states, true)
    in
    Agg.update_all t.g lk states t.aggs;
    fresh

  (* Fold partial table [p] into [t], as if [p]'s rows had arrived after
     [t]'s ([p] is consumed). *)
  let merge t p =
    Vec.iter
      (fun key ->
        let pstates = KeyTbl.find p.states key in
        match KeyTbl.find_opt t.states key with
        | Some states -> List.iteri (fun i a -> Agg.merge states.(i) pstates.(i) a) t.aggs
        | None ->
          KeyTbl.add t.states key pstates;
          Vec.push t.order key)
      p.order

  (* Emit one finished row per group, in first-sighting order. An aggregate
     without grouping keys over empty input still yields one row. *)
  let finish t emit =
    if Vec.length t.order = 0 && t.keys = [] then
      emit (Array.of_list (List.map (fun a -> Agg.finish (Agg.init a) a) t.aggs))
    else
      Vec.iter
        (fun key ->
          let states = KeyTbl.find t.states key in
          let agg_vals = List.mapi (fun i a -> Agg.finish states.(i) a) t.aggs in
          emit (Array.of_list (key @ agg_vals)))
        t.order
end

(* ORDER BY [LIMIT]: a run of rows with their evaluated sort keys. Sorting is
   stable, so tied rows keep their arrival order; with a limit the buffer is
   kept bounded by sort-and-truncate whenever it overflows a small multiple
   of the target (amortized O(n log k)), which preserves that order. *)
module Sorted_run = struct
  type entry = Value.t list * Rval.t array

  type t = {
    g : G.t;
    layout : Batch.t;
    keys : (Gopt_pattern.Expr.t * Logical.sort_dir) list;
    limit : int;
    prune_at : int;
    buf : entry Vec.t;
  }

  let create g ~fields ~chunk_size keys limit =
    {
      g;
      layout = Batch.create fields;
      keys;
      limit = Option.value limit ~default:max_int;
      prune_at = (match limit with Some l -> max (4 * l) chunk_size | None -> max_int);
      buf = Vec.create ();
    }

  let length t = Vec.length t.buf
  let sort t = Vec.sort (fun (ka, _) (kb, _) -> compare_keys t.keys ka kb) t.buf

  (* Add one row; returns how many buffered rows a prune dropped. *)
  let push t row =
    let lk = Eval.lookup_of_row t.layout row in
    Vec.push t.buf (List.map (fun (e, _) -> Eval.eval t.g lk e) t.keys, row);
    if Vec.length t.buf <= t.prune_at then 0
    else begin
      sort t;
      let dropped = Vec.length t.buf - t.limit in
      if dropped > 0 then begin
        let keep = Array.init t.limit (Vec.get t.buf) in
        Vec.clear t.buf;
        Array.iter (Vec.push t.buf) keep
      end;
      max 0 dropped
    end

  (* The run's first [limit] entries in sorted order. *)
  let finish t =
    sort t;
    Array.init (min t.limit (Vec.length t.buf)) (Vec.get t.buf)

  (* k-way merge of finished runs, emitting at most [limit] rows; ties go to
     the earlier run, so merging the runs of consecutive input slices equals
     one stable sort of their concatenation. A binary min-heap holds the
     index of every run with rows left, ordered by (head key, run index). *)
  let merge keys limit (runs : entry array array) emit =
    let idx = Array.make (Array.length runs) 0 in
    let less a b =
      let ka, _ = runs.(a).(idx.(a)) and kb, _ = runs.(b).(idx.(b)) in
      let c = compare_keys keys ka kb in
      c < 0 || (c = 0 && a < b)
    in
    let heap = Array.make (Array.length runs) 0 in
    let size = ref 0 in
    let swap i j =
      let x = heap.(i) in
      heap.(i) <- heap.(j);
      heap.(j) <- x
    in
    let rec sift_up i =
      let parent = (i - 1) / 2 in
      if i > 0 && less heap.(i) heap.(parent) then begin
        swap i parent;
        sift_up parent
      end
    in
    let rec sift_down i =
      let l = (2 * i) + 1 in
      let smallest =
        if l + 1 < !size && less heap.(l + 1) heap.(l) then l + 1 else l
      in
      if l < !size && less heap.(smallest) heap.(i) then begin
        swap i smallest;
        sift_down smallest
      end
    in
    Array.iteri
      (fun r run ->
        if Array.length run > 0 then begin
          heap.(!size) <- r;
          incr size;
          sift_up (!size - 1)
        end)
      runs;
    let left = ref (Option.value limit ~default:max_int) in
    while !size > 0 && !left > 0 do
      let r = heap.(0) in
      let _, row = runs.(r).(idx.(r)) in
      emit row;
      decr left;
      idx.(r) <- idx.(r) + 1;
      if idx.(r) = Array.length runs.(r) then begin
        decr size;
        heap.(0) <- heap.(!size)
      end;
      sift_down 0
    done
end

(* DISTINCT over the given tags (all fields when none are given): the first
   row of each key survives. *)
module Dedup = struct
  type t = { positions : int list; seen : unit KeyTbl.t }

  let create ~fields tags =
    let layout = Batch.create fields in
    let positions =
      match tags with
      | [] -> List.init (List.length fields) Fun.id
      | tags -> List.map (Batch.pos layout) tags
    in
    { positions; seen = KeyTbl.create 64 }

  let length t = KeyTbl.length t.seen

  (* True when [row]'s key is seen for the first time. *)
  let add t row =
    let key = List.map (fun p -> row.(p)) t.positions in
    if KeyTbl.mem t.seen key then false
    else begin
      KeyTbl.add t.seen key ();
      true
    end
end
