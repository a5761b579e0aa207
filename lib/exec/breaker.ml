(* Pipeline-breaker cores of the execution engine: the hash-join table, the
   first-sighting group table, sorted runs with their k-way merge, and the
   Dedup seen-set. Each breaker's semantics — its output order included —
   lives here once. Every state can be fed directly or as per-morsel
   partials merged in morsel order, with the same result, which is what
   makes a one-worker run byte-identical to a run at any worker count.
   The join table and the keyless group work on whole columnar chunks: the
   join holds its build chunks as the immutable views they arrived as and
   indexes them with int arrays (see [Join]); a group without keys counts
   a chunk's rows at once. [Parallel] decides where rows come from and
   where a breaker's output goes; [Operator] probes an indexed join
   table. *)

module G = Gopt_graph.Property_graph
module Value = Gopt_graph.Value
module Logical = Gopt_gir.Logical
module KeyTbl = Agg.KeyTbl
module Vec = Gopt_util.Vec

(* Hash join over columns, for all four join kinds and both column kinds.

   Layout. The build side keeps every chunk it is fed, as the view it
   arrived as: a chunk is never mutated once pushed downstream, so holding
   it costs no copy. Each build row is one entry — (chunk, physical row,
   key hash) — in three int vectors, in arrival order; per-morsel partial
   build states merge by appending in morsel order. [index] then links the
   entries into one chained table ([heads]/[next] int arrays) on the
   coordinating domain, after the build stage's merge point and before any
   probe. The table is read-only from then on, so probes from every worker
   domain share it.

   Keys are read straight from the columns: dense vertex and edge ids
   unboxed, boxed cells through [Rval.hash]/[Rval.equal]. A boxed
   [Rvertex x] (an outer join's [Rnull] padding promotes a column to
   boxed) hashes and compares equal to [x] in a dense vertex column, and
   likewise for edges. No keys (a cartesian product) match every row.

   Order. Chains link entries newest first, so a probe row's matches come
   back in reverse build-arrival order; probe rows keep their order. *)
module Join = struct
  type spec = {
    lkeys : int array;  (** Key columns in the probe (left) layout. *)
    rkeys : int array;  (** Key columns in the build (right) layout. *)
    right_extra : int array;  (** Build columns appended to a probe row. *)
    kind : Logical.join_kind;
    out_fields : string list;
  }

  (* The build side while it is being fed. *)
  type t = {
    spec : spec;
    chunks : Batch.t Vec.t;
    e_chunk : int Vec.t;
    e_row : int Vec.t;  (** Physical row in its chunk. *)
    e_hash : int Vec.t;
  }

  type kind = K_vertex | K_edge | K_boxed

  (* The indexed, read-only table. *)
  type table = {
    tspec : spec;
    cols : Batch.data array array;  (** Chunk -> column storage. *)
    chunk : int array;
    row : int array;
    hash : int array;
    heads : int array;  (** Bucket -> newest entry, or -1. *)
    next : int array;  (** Entry -> next older entry of its bucket, or -1. *)
    extra_kind : kind array;
        (** Per [right_extra] column: dense when every build chunk stores
            it as one dense kind. *)
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
    let positions layout fs = Array.of_list (List.map (Batch.pos layout) fs) in
    {
      spec =
        {
          lkeys = positions l_layout keys;
          rkeys = positions r_layout keys;
          right_extra = positions r_layout right_extra;
          kind;
          out_fields;
        };
      chunks = Vec.create ();
      e_chunk = Vec.create ();
      e_row = Vec.create ();
      e_hash = Vec.create ();
    }

  let mix x =
    let h = x * 0x3C6EF372FE94F82B in
    h lxor (h lsr 31)

  let cell_hash (d : Batch.data) p =
    match d with
    | Batch.D_vertex a | Batch.D_edge a -> mix a.(p)
    | Batch.D_boxed a -> (
      match a.(p) with Rval.Rvertex x | Rval.Redge x -> mix x | v -> Rval.hash v)

  let key_hash keys p =
    let h = ref 0 in
    for k = 0 to Array.length keys - 1 do
      h := (!h * 31) + cell_hash keys.(k) p
    done;
    !h

  let cell_equal (da : Batch.data) pa (db : Batch.data) pb =
    match da, db with
    | Batch.D_vertex a, Batch.D_vertex b | Batch.D_edge a, Batch.D_edge b -> a.(pa) = b.(pb)
    | Batch.D_vertex _, Batch.D_edge _ | Batch.D_edge _, Batch.D_vertex _ -> false
    | Batch.D_vertex a, Batch.D_boxed b -> (
      match b.(pb) with Rval.Rvertex y -> a.(pa) = y | _ -> false)
    | Batch.D_boxed a, Batch.D_vertex b -> (
      match a.(pa) with Rval.Rvertex x -> x = b.(pb) | _ -> false)
    | Batch.D_edge a, Batch.D_boxed b -> (
      match b.(pb) with Rval.Redge y -> a.(pa) = y | _ -> false)
    | Batch.D_boxed a, Batch.D_edge b -> (
      match a.(pa) with Rval.Redge x -> x = b.(pb) | _ -> false)
    | Batch.D_boxed a, Batch.D_boxed b -> Rval.equal a.(pa) b.(pb)

  (* Record every row of a build chunk. *)
  let add t chunk =
    let c = Vec.length t.chunks in
    Vec.push t.chunks chunk;
    let keys = Array.map (Batch.col chunk) t.spec.rkeys in
    let sel = Batch.selection chunk in
    for i = 0 to Batch.n_rows chunk - 1 do
      let p = match sel with Some s -> s.(i) | None -> i in
      Vec.push t.e_chunk c;
      Vec.push t.e_row p;
      Vec.push t.e_hash (key_hash keys p)
    done

  let size t = Vec.length t.e_row

  (* Append partial build state [p] to [t], as if [p]'s rows had been built
     after [t]'s. *)
  let merge t p =
    let offset = Vec.length t.chunks in
    Vec.append t.chunks p.chunks;
    Vec.iter (fun c -> Vec.push t.e_chunk (c + offset)) p.e_chunk;
    Vec.append t.e_row p.e_row;
    Vec.append t.e_hash p.e_hash

  (* Link the entries into chains, newest first. Call once, after the last
     [add]/[merge] and before any probe. *)
  let index t =
    let hash = Vec.to_array t.e_hash in
    let n = Array.length hash in
    let size = ref 16 in
    while !size < n do
      size := 2 * !size
    done;
    let heads = Array.make !size (-1) and next = Array.make n (-1) in
    for e = 0 to n - 1 do
      let b = hash.(e) land (!size - 1) in
      next.(e) <- heads.(b);
      heads.(b) <- e
    done;
    let cols =
      Array.map
        (fun chunk -> Array.init (Batch.n_fields chunk) (Batch.col chunk))
        (Vec.to_array t.chunks)
    in
    let kind_of = function
      | Batch.D_vertex _ -> K_vertex
      | Batch.D_edge _ -> K_edge
      | Batch.D_boxed _ -> K_boxed
    in
    let extra_kind =
      Array.map
        (fun j ->
          match Array.to_list cols with
          | [] -> K_boxed
          | first :: rest ->
            let k = kind_of first.(j) in
            if List.for_all (fun c -> kind_of c.(j) = k) rest then k else K_boxed)
        t.spec.right_extra
    in
    {
      tspec = t.spec;
      cols;
      chunk = Vec.to_array t.e_chunk;
      row = Vec.to_array t.e_row;
      hash;
      heads;
      next;
      extra_kind;
    }

  let rows tb = Array.length tb.row
  let out_fields tb = tb.tspec.out_fields

  (* A probe's (probe row, build entry) pairs awaiting their gather; one per
     compiled fragment, so per domain. *)
  type buffer = { lrow : int array; entry : int array }

  let buffer ~chunk_size =
    { lrow = Array.make chunk_size 0; entry = Array.make chunk_size 0 }

  (* column [j] of entry [e]'s build row, boxed; entry -1 is the padding *)
  let boxed_cell tb j e =
    if e < 0 then Rval.Rnull
    else
      match tb.cols.(tb.chunk.(e)).(j) with
      | Batch.D_vertex a -> Rval.Rvertex a.(tb.row.(e))
      | Batch.D_edge a -> Rval.Redge a.(tb.row.(e))
      | Batch.D_boxed a -> a.(tb.row.(e))

  let dense_cell tb j e =
    match tb.cols.(tb.chunk.(e)).(j) with
    | Batch.D_vertex a | Batch.D_edge a -> a.(tb.row.(e))
    | Batch.D_boxed _ -> invalid_arg "Breaker.Join: boxed cell in a dense column"

  (* The output chunk of the first [n] buffered pairs, column by column;
     [padded] when some pair is a Left_outer padding. *)
  let gather tb buf chunk n ~padded =
    let left = Array.init (Batch.n_fields chunk) (fun j -> Batch.gather chunk j buf.lrow n) in
    let right =
      Array.mapi
        (fun x j ->
          let dense () = Array.init n (fun r -> dense_cell tb j buf.entry.(r)) in
          match tb.extra_kind.(x) with
          | K_vertex when not padded -> Batch.D_vertex (dense ())
          | K_edge when not padded -> Batch.D_edge (dense ())
          | K_vertex | K_edge | K_boxed ->
            Batch.D_boxed (Array.init n (fun r -> boxed_cell tb j buf.entry.(r))))
        tb.tspec.right_extra
    in
    Batch.of_data tb.tspec.out_fields n (Array.append left right)

  (* Probe one chunk and [emit] its output: gathered chunks of at most the
     buffer's size for Inner and Left_outer, one selection view of [chunk]
     for Semi and Anti. *)
  let probe tb buf chunk emit =
    let sp = tb.tspec in
    let n = Batch.n_rows chunk in
    let sel = Batch.selection chunk in
    let keys = Array.map (Batch.col chunk) sp.lkeys in
    let mask = Array.length tb.heads - 1 in
    let nkeys = Array.length keys in
    (* the first entry from [e] on along its chain whose key equals that of
       the probe row at physical row [p] *)
    let rec find e p h =
      if e < 0 then e
      else if
        tb.hash.(e) = h
        &&
        let c = tb.cols.(tb.chunk.(e)) and r = tb.row.(e) in
        let rec same k = k = nkeys || (cell_equal keys.(k) p c.(sp.rkeys.(k)) r && same (k + 1)) in
        same 0
      then e
      else find tb.next.(e) p h
    in
    let phys i = match sel with Some s -> s.(i) | None -> i in
    match sp.kind with
    | Logical.Semi | Logical.Anti ->
      let want = sp.kind = Logical.Semi in
      let keep = Array.make n 0 and k = ref 0 in
      for i = 0 to n - 1 do
        let p = phys i in
        let h = key_hash keys p in
        if (find tb.heads.(h land mask) p h >= 0) = want then begin
          keep.(!k) <- i;
          incr k
        end
      done;
      if !k = n then emit chunk
      else if !k > 0 then emit (Batch.select chunk (Array.sub keep 0 !k))
    | Logical.Inner | Logical.Left_outer ->
      let cap = Array.length buf.lrow in
      let k = ref 0 and padded = ref false in
      let flush () =
        if !k > 0 then begin
          let out = gather tb buf chunk !k ~padded:!padded in
          k := 0;
          padded := false;
          emit out
        end
      in
      let push i e =
        if !k = cap then flush ();
        buf.lrow.(!k) <- i;
        buf.entry.(!k) <- e;
        incr k;
        if e < 0 then padded := true
      in
      for i = 0 to n - 1 do
        let p = phys i in
        let h = key_hash keys p in
        let e = ref (find tb.heads.(h land mask) p h) in
        if !e < 0 && sp.kind = Logical.Left_outer then push i (-1);
        while !e >= 0 do
          push i !e;
          e := find tb.next.(!e) p h
        done
      done;
      flush ()
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

  (* Feed a chunk; returns how many groups it opened. Without grouping keys
     the single state is fetched once per chunk and every [count( * )] adds
     the chunk's row count; other aggregates still update row by row. *)
  let add_chunk t chunk =
    match t.keys with
    | [] ->
      let states, fresh =
        match KeyTbl.find_opt t.states [] with
        | Some states -> (states, 0)
        | None ->
          let states = Array.of_list (List.map Agg.init t.aggs) in
          KeyTbl.add t.states [] states;
          Vec.push t.order [];
          (states, 1)
      in
      let n = Batch.n_rows chunk in
      let per_row = ref [] in
      List.iteri
        (fun i (a : Logical.agg) ->
          match a.Logical.agg_fn, a.Logical.agg_arg with
          | Logical.Count, None -> states.(i).Agg.a_count <- states.(i).Agg.a_count + n
          | _ -> per_row := (i, a) :: !per_row)
        t.aggs;
      let per_row = List.rev !per_row in
      if per_row <> [] then
        for r = 0 to n - 1 do
          let lk tag = Batch.lookup chunk r tag in
          List.iter (fun (i, a) -> Agg.update t.g lk states i a) per_row
        done;
      fresh
    | _ ->
      let fresh = ref 0 in
      Batch.iter (fun row -> if add t row then incr fresh) chunk;
      !fresh

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
