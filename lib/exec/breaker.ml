(* Pipeline-breaker cores of the execution engine: the hash-join table, the
   first-sighting key table behind Group, Dedup and count(DISTINCT), sorted
   runs with their k-way merge, and the probe aggregate that folds a
   keyless count into a join's probe. Each breaker's semantics — its output
   order included — lives here once. Every state can be fed directly or as
   per-morsel partials merged in morsel order, with the same result, which
   is what makes a one-worker run byte-identical to a run at any worker
   count. The breakers work on whole columnar chunks: the join holds its
   build chunks as the immutable views they arrived as (see [Join]). The
   join, Group, Dedup and count(DISTINCT) key on column cells through one
   key table, [Keys], so a dense vertex or edge id hashes as an int and no
   per-row key list is built. [Parallel] decides where rows come from and
   where a breaker's output goes; [Operator] probes an indexed join
   table. *)

module G = Gopt_graph.Property_graph
module Value = Gopt_graph.Value
module Logical = Gopt_gir.Logical
module Expr = Gopt_pattern.Expr
module Vec = Gopt_util.Vec

let mix x =
  let h = x * 0x3C6EF372FE94F82B in
  h lxor (h lsr 31)

(* A first-sighting key table over column cells. A key is [width] cells,
   staged column by column with [load] and then looked up, and added when
   new, with [intern]; keys are numbered in the order they were first
   seen. [lookup] finds a row's key in place, without staging it. Each
   cell is kept as an int code: a vertex id [x], from a dense column or a
   boxed [Rvertex x], is [2x], an edge id [2x + 1], so ids hash and
   compare as ints whatever column kind carried them. Any other boxed
   cell has code [-1] and keeps its value, hashed and compared by
   [Rval.hash]/[Rval.equal]: [Rval (Int 1)] and [Rval (Float 1.0)] are one
   key, [Rnull] and [Rval Null] two. The table copies what it keeps, so it
   holds no reference to the chunks its keys came from. Width 0 has the
   one empty key. *)
module Keys = struct
  type t = {
    width : int;
    mutable codes : int array;  (** Key [k]'s cell [c] at [k * width + c]. *)
    mutable vals : Rval.t array;  (** Boxed cells (code -1), same index; empty until one. *)
    mutable hash : int array;
    mutable next : int array;  (** Key -> next older key of its bucket, or -1. *)
    mutable heads : int array;  (** Bucket -> newest key, or -1. *)
    mutable n : int;
    s_code : int array;  (** The staged key. *)
    s_val : Rval.t array;
  }

  let boxed = -1

  (* the bucket count for [cap] keys: the least power of two, from 16,
     that holds them *)
  let buckets cap =
    let b = ref 16 in
    while !b < cap do
      b := 2 * !b
    done;
    !b

  (* A table with room for [size] keys before it grows. *)
  let create ?(size = 16) width =
    let cap = max 16 size in
    {
      width;
      codes = Array.make (cap * width) 0;
      vals = [||];
      hash = Array.make cap 0;
      next = Array.make cap (-1);
      heads = Array.make (buckets cap) (-1);
      n = 0;
      s_code = Array.make width 0;
      s_val = Array.make width Rval.Rnull;
    }

  let length t = t.n

  (* the code of cell [p] of column [d] *)
  let[@inline] code (d : Batch.data) p =
    match d with
    | Batch.D_vertex a -> 2 * a.(p)
    | Batch.D_edge a -> (2 * a.(p)) + 1
    | Batch.D_boxed a -> (
      match a.(p) with Rval.Rvertex x -> 2 * x | Rval.Redge x -> (2 * x) + 1 | _ -> boxed)

  (* Stage cell [p] of column [d] as cell [c] of the key to intern. *)
  let load t c (d : Batch.data) p =
    let code = code d p in
    t.s_code.(c) <- code;
    match d with Batch.D_boxed a when code = boxed -> t.s_val.(c) <- a.(p) | _ -> ()

  (* Stage key [k] of [src], a table of the same width. *)
  let load_key t src k =
    for c = 0 to t.width - 1 do
      let code = src.codes.((k * src.width) + c) in
      t.s_code.(c) <- code;
      if code = boxed then t.s_val.(c) <- src.vals.((k * src.width) + c)
    done

  let grow t =
    let cap = 2 * Array.length t.hash in
    let resize a len fill =
      let b = Array.make len fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.codes <- resize t.codes (cap * t.width) 0;
    if Array.length t.vals > 0 then t.vals <- resize t.vals (cap * t.width) Rval.Rnull;
    t.hash <- resize t.hash cap 0;
    t.next <- Array.make cap (-1);
    t.heads <- Array.make (buckets cap) (-1);
    for k = 0 to t.n - 1 do
      let b = t.hash.(k) land (Array.length t.heads - 1) in
      t.next.(k) <- t.heads.(b);
      t.heads.(b) <- k
    done

  (* the hash of a cell of code [code], boxed as [v] *)
  let[@inline] cell_hash code v = if code = boxed then Rval.hash v else mix code

  (* the boxed cell [p] of column [d], [Rnull] for a dense one *)
  let[@inline] boxed_val (d : Batch.data) p = match d with Batch.D_boxed a -> a.(p) | _ -> Rval.Rnull

  (* whether stored key [k] equals the staged key from cell [c] on *)
  let rec same t k c =
    c = t.width
    ||
    let code = t.codes.((k * t.width) + c) in
    code = t.s_code.(c)
    && (code <> boxed || Rval.equal t.vals.((k * t.width) + c) t.s_val.(c))
    && same t k (c + 1)

  (* whether stored key [k] equals row [p] of [cols] at [pos], from cell [c]
     on *)
  let rec holds t k (cols : Batch.data array) pos p c =
    c = t.width
    ||
    let d = cols.(pos.(c)) in
    let stored = t.codes.((k * t.width) + c) in
    stored = code d p
    && (stored <> boxed || Rval.equal t.vals.((k * t.width) + c) (boxed_val d p))
    && holds t k cols pos p (c + 1)

  (* the stored key, from [k] on along its chain, equal to the staged key
     of hash [h], or -1 *)
  let rec find t h k = if k < 0 || (t.hash.(k) = h && same t k 0) then k else find t h t.next.(k)

  (* the same for row [p] of [cols] at [pos] *)
  let rec find_row t h cols pos p k =
    if k < 0 || (t.hash.(k) = h && holds t k cols pos p 0) then k
    else find_row t h cols pos p t.next.(k)

  (* the newest key of hash [h]'s bucket, or -1 *)
  let bucket t h = t.heads.(h land (Array.length t.heads - 1))

  (* The number of the key in row [p] of columns [cols] at positions [pos],
     or -1. The cells are hashed and compared in place and nothing is
     written, so any number of domains may look up one table at once. *)
  let lookup t (cols : Batch.data array) pos p =
    let h = ref 0 in
    for c = 0 to t.width - 1 do
      let d = cols.(pos.(c)) in
      h := (!h * 31) + cell_hash (code d p) (boxed_val d p)
    done;
    find_row t !h cols pos p (bucket t !h)

  (* The number of the staged key, added as the newest when unseen. *)
  let intern t =
    let w = t.width in
    let h = ref 0 in
    for c = 0 to w - 1 do
      h := (!h * 31) + cell_hash t.s_code.(c) t.s_val.(c)
    done;
    let h = !h in
    let k = find t h (bucket t h) in
    if k >= 0 then k
    else begin
      if t.n = Array.length t.hash then grow t;
      let k = t.n in
      for c = 0 to w - 1 do
        let code = t.s_code.(c) in
        t.codes.((k * w) + c) <- code;
        if code = boxed then begin
          if Array.length t.vals = 0 then t.vals <- Array.make (Array.length t.codes) Rval.Rnull;
          t.vals.((k * w) + c) <- t.s_val.(c)
        end
      done;
      t.hash.(k) <- h;
      let b = h land (Array.length t.heads - 1) in
      t.next.(k) <- t.heads.(b);
      t.heads.(b) <- k;
      t.n <- k + 1;
      k
    end

  (* Cell [c] of key [k], boxed. *)
  let cell t k c =
    let code = t.codes.((k * t.width) + c) in
    if code = boxed then t.vals.((k * t.width) + c)
    else if code land 1 = 0 then Rval.Rvertex (code lsr 1)
    else Rval.Redge (code lsr 1)
end

(* A count(DISTINCT) set. Vertex and edge ids go, as [Keys] codes, into an
   open-addressing int set; any other cell into a one-column [Keys] table.
   [Rnull] is not counted. The ids stay out of [Keys]: keeping them there
   too (chains, hashes and staging per cell) raised QR3's probe-fold
   Group self time from 6.96 to 10.95 ms at 1200 persons, median of five
   rounds. *)
module Distinct = struct
  type t = {
    mutable slots : int array;  (** Codes, -1 for an empty slot. *)
    mutable ids : int;
    mutable other : Keys.t option;
  }

  let create () = { slots = Array.make 16 (-1); ids = 0; other = None }
  let length t = t.ids + match t.other with Some k -> Keys.length k | None -> 0

  (* the slot holding [code], or the empty slot where it goes *)
  let rec slot slots mask code i =
    let s = slots.(i) in
    if s = code || s < 0 then i else slot slots mask code ((i + 1) land mask)

  let rec add_code t code =
    let mask = Array.length t.slots - 1 in
    let i = slot t.slots mask code (mix code land mask) in
    if t.slots.(i) < 0 then begin
      t.slots.(i) <- code;
      t.ids <- t.ids + 1;
      if 2 * t.ids > Array.length t.slots then begin
        let old = t.slots in
        t.slots <- Array.make (2 * Array.length old) (-1);
        t.ids <- 0;
        Array.iter (fun c -> if c >= 0 then add_code t c) old
      end
    end

  let other t =
    match t.other with
    | Some k -> k
    | None ->
      let k = Keys.create 1 in
      t.other <- Some k;
      k

  (* add boxed cell [p] of [d], not an id *)
  let add_other t (d : Batch.data) p =
    match Keys.boxed_val d p with
    | Rval.Rnull -> ()
    | _ ->
      let k = other t in
      Keys.load k 0 d p;
      ignore (Keys.intern k)

  let[@inline] add_cell t (d : Batch.data) p =
    let code = Keys.code d p in
    if code <> Keys.boxed then add_code t code else add_other t d p

  (* add every value of [p] to [t] *)
  let merge t p =
    Array.iter (fun c -> if c >= 0 then add_code t c) p.slots;
    Option.iter
      (fun pk ->
        let k = other t in
        for m = 0 to Keys.length pk - 1 do
          Keys.load_key k pk m;
          ignore (Keys.intern k)
        done)
      p.other
end

(* The edge ids of one row's AllDistinct fields, collected cell by cell and
   compared pairwise in place: a dense edge column gives one id, a boxed
   [Redge] one, a path cell all of its edges, a vertex none. The
   AllDistinct operator and the probe aggregate's pair check share it. *)
module Edge_ids = struct
  type t = { mutable ids : int array; mutable m : int }

  let create () = { ids = Array.make 16 0; m = 0 }
  let clear t = t.m <- 0

  let push t e =
    if t.m = Array.length t.ids then begin
      let bigger = Array.make (2 * t.m) 0 in
      Array.blit t.ids 0 bigger 0 t.m;
      t.ids <- bigger
    end;
    t.ids.(t.m) <- e;
    t.m <- t.m + 1

  let add_boxed t = function
    | Rval.Redge e -> push t e
    | v -> List.iter (push t) (Rval.edge_ids v)

  let[@inline] add_cell t (d : Batch.data) p =
    match d with
    | Batch.D_edge a -> push t a.(p)
    | Batch.D_vertex _ -> ()
    | Batch.D_boxed a -> add_boxed t a.(p)

  (* no id collected twice *)
  let distinct t =
    let a = t.ids and n = t.m in
    let ok = ref true and i = ref 0 in
    while !ok && !i < n do
      for j = !i + 1 to n - 1 do
        if a.(j) = a.(!i) then ok := false
      done;
      incr i
    done;
    !ok
end

(* Hash join over columns, for all four join kinds and both column kinds.

   Layout. The build side keeps every chunk it is fed, as the view it
   arrived as: a chunk is never mutated once pushed downstream, so holding
   it costs no copy. Each build row is one entry, in arrival order;
   per-morsel partial build states merge by appending in morsel order.
   [index] then numbers the build keys in a [Keys] table, on the
   coordinating domain, after the build stage's merge point and before any
   probe: each distinct key owns one run of entries. A dense [right_extra]
   column is also copied out in entry order, so a pair's build cell is one
   array read. The table is read-only from then on, so probes from every
   worker domain share it.

   Keys match as [Keys] cells do: a boxed [Rvertex x] (an outer join's
   [Rnull] padding promotes a column to boxed) is the key [x] of a dense
   vertex column, a vertex never matches an edge, and other boxed cells
   match by [Rval.equal]. No keys (a cartesian product) match every row.

   Probing. [iter_runs] is the one walk over a probe chunk: each probe row
   looks its key up in place ([Keys.lookup]) and meets that key's run of
   build entries. [probe] unrolls the runs into (probe row, build entry)
   pairs and gathers those into output chunks; the probe aggregate
   ([Probe_agg]) folds the runs into a count without gathering.

   Order. A run lists its entries newest first, so a probe row's matches
   come back in reverse build-arrival order; probe rows keep their
   order. *)
module Join = struct
  type spec = {
    lkeys : int array;  (** Key columns in the probe (left) layout. *)
    rkeys : int array;  (** Key columns in the build (right) layout. *)
    right_extra : int array;  (** Build columns appended to a probe row. *)
    kind : Logical.join_kind;
    out_fields : string list;
  }

  (* The build side while it is being fed: its chunks in arrival order. *)
  type t = { spec : spec; chunks : Batch.t Vec.t; mutable size : int }

  type kind = K_vertex | K_edge | K_boxed

  (* The indexed, read-only table. Entries are numbered by key: each
     distinct build key owns one run of entries, newest first. *)
  type table = {
    tspec : spec;
    cols : Batch.data array array;  (** Chunk -> column storage. *)
    chunk : int array;  (** Entry -> its chunk. *)
    row : int array;  (** Entry -> its physical row. *)
    keys : Keys.t;  (** The build keys, numbered in arrival order. *)
    start : int array;  (** Key -> its first entry; key [k]'s run ends at [start.(k + 1)]. *)
    extra_kind : kind array;
        (** Per [right_extra] column: dense when every build chunk stores
            it as one dense kind. *)
    ids : int array array;
        (** Per dense [right_extra] column, its ids in entry order (empty
            for a boxed one). *)
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
      size = 0;
    }

  (* Record every row of a build chunk. *)
  let add t chunk =
    Vec.push t.chunks chunk;
    t.size <- t.size + Batch.n_rows chunk

  let size t = t.size

  (* Append partial build state [p] to [t], as if [p]'s rows had been built
     after [t]'s. *)
  let merge t p =
    Vec.append t.chunks p.chunks;
    t.size <- t.size + p.size

  (* Number the build keys and group the entries by key into runs, newest
     first. Call once, after the last [add]/[merge] and before any
     probe. *)
  let index t =
    let chunks = Vec.to_array t.chunks in
    let n = t.size in
    let cols =
      Array.map (fun chunk -> Array.init (Batch.n_fields chunk) (Batch.col chunk)) chunks
    in
    let rkeys = t.spec.rkeys in
    (* the entries in arrival order: [f c r] for row [r] of chunk [c] *)
    let iter_entries f =
      Array.iteri
        (fun c chunk ->
          let sel = Batch.selection chunk in
          for i = 0 to Batch.n_rows chunk - 1 do
            f c (match sel with Some s -> s.(i) | None -> i)
          done)
        chunks
    in
    let keys = Keys.create ~size:n (Array.length rkeys) in
    let key_of = Array.make n 0 and count = Array.make (n + 1) 0 in
    let e = ref 0 in
    iter_entries (fun c r ->
        for j = 0 to Array.length rkeys - 1 do
          Keys.load keys j cols.(c).(rkeys.(j)) r
        done;
        let k = Keys.intern keys in
        key_of.(!e) <- k;
        count.(k + 1) <- count.(k + 1) + 1;
        incr e);
    let nkeys = Keys.length keys in
    let start = count in
    for k = 1 to nkeys do
      start.(k) <- start.(k) + start.(k - 1)
    done;
    (* lay each key's entries out newest first, filling its run from the
       end; [fill] holds where the run's next entry goes *)
    let fill = Array.sub start 1 nkeys in
    let chunk = Array.make n 0 and row = Array.make n 0 in
    e := 0;
    iter_entries (fun c r ->
        let k = key_of.(!e) in
        let x = fill.(k) - 1 in
        fill.(k) <- x;
        chunk.(x) <- c;
        row.(x) <- r;
        incr e);
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
    let ids =
      Array.mapi
        (fun x j ->
          match extra_kind.(x) with
          | K_boxed -> [||]
          | K_vertex | K_edge ->
            Array.init n (fun e ->
                match cols.(chunk.(e)).(j) with
                | Batch.D_vertex a | Batch.D_edge a -> a.(row.(e))
                | Batch.D_boxed _ -> invalid_arg "Breaker.Join: boxed cell in a dense column"))
        t.spec.right_extra
    in
    { tspec = t.spec; cols; chunk; row; keys; start; extra_kind; ids }

  let rows tb = Array.length tb.row
  let out_fields tb = tb.tspec.out_fields

  (* Where an output field of a matched pair lives: a column of the probe
     chunk, or the [x]th [right_extra] column of the build side. *)
  type side = Probe_col of int | Build_col of int

  let side tb f =
    let rec index k = function
      | [] -> invalid_arg ("Breaker.Join.side: no output field " ^ f)
      | x :: rest -> if x = f then k else index (k + 1) rest
    in
    let k = index 0 tb.tspec.out_fields in
    let n_left = List.length tb.tspec.out_fields - Array.length tb.tspec.right_extra in
    if k < n_left then Probe_col k else Build_col (k - n_left)

  (* [iter_runs tb chunk f] calls [f i p lo hi] for every logical probe
     row [i] (physical row [p]), in order: its key's build entries are
     [lo .. hi - 1], newest first, and [lo = hi] when it has none. *)
  let iter_runs tb chunk f =
    let sel = Batch.selection chunk in
    let cols = Array.init (Batch.n_fields chunk) (Batch.col chunk) in
    for i = 0 to Batch.n_rows chunk - 1 do
      let p = match sel with Some s -> s.(i) | None -> i in
      let k = Keys.lookup tb.keys cols tb.tspec.lkeys p in
      if k < 0 then f i p 0 0 else f i p tb.start.(k) tb.start.(k + 1)
    done

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

  (* The output chunk of the first [n] buffered pairs, column by column;
     [padded] when some pair is a Left_outer padding. *)
  let gather tb buf chunk n ~padded =
    let left = Array.init (Batch.n_fields chunk) (fun j -> Batch.gather chunk j buf.lrow n) in
    let right =
      Array.mapi
        (fun x j ->
          let dense () = Array.init n (fun r -> tb.ids.(x).(buf.entry.(r))) in
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
    match tb.tspec.kind with
    | Logical.Semi | Logical.Anti ->
      let n = Batch.n_rows chunk in
      let hit = Array.make n false in
      iter_runs tb chunk (fun i _ lo hi -> hit.(i) <- lo < hi);
      let want = tb.tspec.kind = Logical.Semi in
      let keep = Array.make n 0 and k = ref 0 in
      for i = 0 to n - 1 do
        if hit.(i) = want then begin
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
        incr k
      in
      (* a Left_outer row without a match pairs with the padding, entry -1 *)
      let pad = tb.tspec.kind = Logical.Left_outer in
      iter_runs tb chunk (fun i _ lo hi ->
          if lo = hi then begin
            if pad then begin
              push i (-1);
              padded := true
            end
          end
          else
            for e = lo to hi - 1 do
              push i e
            done);
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

(* GROUP BY: groups numbered in first-sighting order by a [Keys] table over
   the key columns, each with one accumulator per aggregate, emitted in
   that order. A key that is a bound variable is read straight from its
   column; any other key expression is evaluated into a column per chunk
   ([Eval.column]). [count( * )] adds to its count, a count(DISTINCT e)
   adds [e]'s cell to the group's own [Distinct] set, and the
   other aggregates update through the row interpreter. Without keys there
   is one group, and a chunk's [count( * )] adds its row count at once. *)
module Group = struct
  (* a column read by the table: a field of the chunk, indexed by physical
     row, or a computed column, indexed by logical row *)
  type src = Field of int | Computed of (Batch.t -> Batch.data)

  type t = {
    g : G.t;
    keys : src array;
    aggs : Logical.agg array;
    star : int array;  (** The [count( * )] aggregates. *)
    distinct : (int * src) array;  (** Each count(DISTINCT e): its aggregate and [e]. *)
    per_row : int array;  (** Aggregates updated through the row interpreter. *)
    table : Keys.t;
    states : Agg.state array Vec.t;  (** Per group. *)
    sets : Distinct.t array Vec.t;  (** Per group, one set per [distinct] entry. *)
  }

  let create g ~fields keys aggs =
    let layout = Batch.create fields in
    let src e =
      match e with
      | Expr.Var tag when Batch.has_field layout tag -> Field (Batch.pos layout tag)
      | e -> Computed (Eval.column g ~fields e)
    in
    let aggs = Array.of_list aggs in
    let indices p = List.filter (fun i -> p aggs.(i)) (List.init (Array.length aggs) Fun.id) in
    let distinct (a : Logical.agg) = a.Logical.agg_fn = Logical.Count_distinct in
    let star (a : Logical.agg) = a.Logical.agg_fn = Logical.Count && a.Logical.agg_arg = None in
    {
      g;
      keys = Array.of_list (List.map (fun (e, _) -> src e) keys);
      aggs;
      star = Array.of_list (indices star);
      distinct =
        Array.of_list
          (List.map (fun i -> (i, src (Option.get aggs.(i).Logical.agg_arg))) (indices distinct));
      per_row = Array.of_list (indices (fun a -> not (distinct a || star a)));
      table = Keys.create (List.length keys);
      states = Vec.create ();
      sets = Vec.create ();
    }

  let out_fields keys aggs =
    List.map snd keys @ List.map (fun a -> a.Logical.agg_alias) aggs

  let length t = Vec.length t.states

  (* the number of the staged key's group, opened when new *)
  let group t =
    let k = Keys.intern t.table in
    if k = Vec.length t.states then begin
      Vec.push t.states (Array.map Agg.init t.aggs);
      Vec.push t.sets (Array.map (fun _ -> Distinct.create ()) t.distinct)
    end;
    k

  (* add [n] to every [count( * )] of group [k] *)
  let add_count t k n =
    let states = Vec.get t.states k in
    Array.iter (fun i -> states.(i).Agg.a_count <- states.(i).Agg.a_count + n) t.star

  (* Feed a chunk; returns how many groups it opened. *)
  let add_chunk t chunk =
    let n = Batch.n_rows chunk in
    let sel = Batch.selection chunk in
    let before = length t in
    let resolve = function Field j -> Batch.col chunk j | Computed f -> f chunk in
    let at s i p = match s with Field _ -> p | Computed _ -> i in
    let kcols = Array.map resolve t.keys in
    let dcols = Array.map (fun (_, s) -> resolve s) t.distinct in
    let keyless = Array.length t.keys = 0 in
    let k0 = if keyless then group t else -1 in
    if keyless then add_count t k0 n;
    if (not keyless) || Array.length t.distinct > 0 || Array.length t.per_row > 0 then
      for i = 0 to n - 1 do
        let p = match sel with Some s -> s.(i) | None -> i in
        let k =
          if keyless then k0
          else begin
            for c = 0 to Array.length kcols - 1 do
              Keys.load t.table c kcols.(c) (at t.keys.(c) i p)
            done;
            let k = group t in
            add_count t k 1;
            k
          end
        in
        let sets = Vec.get t.sets k in
        for x = 0 to Array.length dcols - 1 do
          Distinct.add_cell sets.(x) dcols.(x) (at (snd t.distinct.(x)) i p)
        done;
        if Array.length t.per_row > 0 then begin
          let states = Vec.get t.states k and lk = Batch.lookup chunk i in
          Array.iter (fun a -> Agg.update t.g lk states a t.aggs.(a)) t.per_row
        end
      done;
    length t - before

  (* Fold partial table [p] into [t], as if [p]'s rows had arrived after
     [t]'s ([p] is consumed). *)
  let merge t p =
    for k = 0 to length p - 1 do
      Keys.load_key t.table p.table k;
      let j = Keys.intern t.table in
      if j = length t then begin
        Vec.push t.states (Vec.get p.states k);
        Vec.push t.sets (Vec.get p.sets k)
      end
      else begin
        let states = Vec.get t.states j and pstates = Vec.get p.states k in
        Array.iteri (fun i a -> Agg.merge states.(i) pstates.(i) a) t.aggs;
        Array.iteri (fun x ps -> Distinct.merge (Vec.get t.sets j).(x) ps) (Vec.get p.sets k)
      end
    done

  (* Emit one finished row per group, in first-sighting order. An aggregate
     without grouping keys over empty input still yields one row. *)
  let finish t emit =
    if length t = 0 && Array.length t.keys = 0 then
      emit (Array.map (fun a -> Agg.finish (Agg.init a) a) t.aggs)
    else
      for k = 0 to length t - 1 do
        let states = Vec.get t.states k and sets = Vec.get t.sets k in
        let vals = Array.mapi (fun i a -> Agg.finish states.(i) a) t.aggs in
        Array.iteri
          (fun x (i, _) -> vals.(i) <- Rval.Rval (Value.Int (Distinct.length sets.(x))))
          t.distinct;
        emit (Array.append (Array.init (Array.length t.keys) (Keys.cell t.table k)) vals)
      done
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
   row of each key survives. A chunk's first sightings are kept as one
   selection view of it; the key table holds copies of the keys, so a chunk
   none of whose rows survive is not kept alive. *)
module Dedup = struct
  type t = { positions : int array; keys : Keys.t; kept : Batch.t Vec.t; mutable rows : int }

  let create ~fields tags =
    let layout = Batch.create fields in
    let positions =
      match tags with
      | [] -> Array.init (List.length fields) Fun.id
      | tags -> Array.of_list (List.map (Batch.pos layout) tags)
    in
    { positions; keys = Keys.create (Array.length positions); kept = Vec.create (); rows = 0 }

  let length t = t.rows

  (* The views of the surviving rows, in arrival order. *)
  let parts t = Vec.to_list t.kept

  (* Feed a chunk; returns how many of its rows survive. *)
  let add_chunk t chunk =
    let n = Batch.n_rows chunk in
    let sel = Batch.selection chunk in
    let cols = Array.map (Batch.col chunk) t.positions in
    let keep = Array.make n 0 and k = ref 0 in
    for i = 0 to n - 1 do
      let p = match sel with Some s -> s.(i) | None -> i in
      for c = 0 to Array.length cols - 1 do
        Keys.load t.keys c cols.(c) p
      done;
      let before = Keys.length t.keys in
      if Keys.intern t.keys = before then begin
        keep.(!k) <- i;
        incr k
      end
    done;
    let k = !k in
    if k > 0 then
      Vec.push t.kept (if k = n then chunk else Batch.select chunk (Array.sub keep 0 k));
    t.rows <- t.rows + k;
    k
end

(* The probe aggregate: a keyless Group whose every aggregate is
   [count( * )] or [count(DISTINCT v)] of a bound variable, over zero or
   more AllDistincts over an inner hash join, folded into the join's probe.
   Each matched (probe row, build entry) pair of [Join.iter_runs]' runs is
   checked against every AllDistinct's edge set, read from both sides of
   the pair, and a surviving pair counts and adds its DISTINCT cells to
   their sets; with neither, a run counts at once. No joined row is
   gathered. The state counts what the operators it stands
   for would have passed on — probe rows, pairs, survivors of each
   AllDistinct — so that [Parallel] charges them as if they had run. *)
module Probe_agg = struct
  (* how a pair's cell is read: from a probe column, at the probe row; from
     a dense build column copied out in entry order, at the entry; or from
     a boxed build column, the [x]th of [right_extra] *)
  type reader = Probe of int | Build_ids of Batch.data | Build_boxed of int

  type t = {
    group : Group.t;
    table : Join.table;
    levels : reader array array;  (** Each AllDistinct's fields, lowest first. *)
    args : reader array;  (** Each count(DISTINCT v)'s [v], as [group.distinct]. *)
    edges : Edge_ids.t;
    mutable probe_rows : int;
    mutable pairs : int;
    passed : int array;  (** Pairs that passed each AllDistinct. *)
  }

  (* whether [aggs] fold into the probe of a join whose output is [fields] *)
  let supports ~fields aggs =
    aggs <> []
    && List.for_all
         (fun (a : Logical.agg) ->
           match a.Logical.agg_fn, a.Logical.agg_arg with
           | Logical.Count, None -> true
           | Logical.Count_distinct, Some (Expr.Var v) -> List.mem v fields
           | _ -> false)
         aggs

  let reader tb f =
    match Join.side tb f with
    | Join.Probe_col j -> Probe j
    | Join.Build_col x -> (
      match tb.Join.extra_kind.(x) with
      | Join.K_edge -> Build_ids (Batch.D_edge tb.Join.ids.(x))
      | Join.K_vertex -> Build_ids (Batch.D_vertex tb.Join.ids.(x))
      | Join.K_boxed -> Build_boxed x)

  let create g table ~levels aggs =
    let group = Group.create g ~fields:(Join.out_fields table) [] aggs in
    let arg (i, _) =
      match (List.nth aggs i).Logical.agg_arg with
      | Some (Expr.Var v) -> reader table v
      | _ -> invalid_arg "Breaker.Probe_agg: count(DISTINCT) of a non-variable"
    in
    {
      group;
      table;
      levels =
        Array.of_list (List.map (fun fs -> Array.of_list (List.map (reader table) fs)) levels);
      args = Array.map arg group.Group.distinct;
      edges = Edge_ids.create ();
      probe_rows = 0;
      pairs = 0;
      passed = Array.make (List.length levels) 0;
    }

  (* the boxed build column [x] of entry [e]'s chunk *)
  let boxed_col tb x e = tb.Join.cols.(tb.Join.chunk.(e)).(tb.Join.tspec.Join.right_extra.(x))

  (* whether the pair of physical probe row [p] (whose chunk's columns are
     [lcols]) and build entry [e] passes the AllDistincts from [l] on *)
  let rec pass t lcols p e l =
    l = Array.length t.levels
    ||
    let fs = t.levels.(l) in
    Edge_ids.clear t.edges;
    for f = 0 to Array.length fs - 1 do
      match fs.(f) with
      | Probe j -> Edge_ids.add_cell t.edges lcols.(j) p
      | Build_ids d -> Edge_ids.add_cell t.edges d e
      | Build_boxed x -> Edge_ids.add_cell t.edges (boxed_col t.table x e) t.table.Join.row.(e)
    done;
    Edge_ids.distinct t.edges
    && begin
         t.passed.(l) <- t.passed.(l) + 1;
         pass t lcols p e (l + 1)
       end

  let add_value set lcols p e tb = function
    | Probe j -> Distinct.add_cell set lcols.(j) p
    | Build_ids d -> Distinct.add_cell set d e
    | Build_boxed x -> Distinct.add_cell set (boxed_col tb x e) tb.Join.row.(e)

  (* Probe with one chunk and fold its pairs in, calling [check] every 8192
     pairs; returns how many groups it opened (1 on the first chunk).
     Without AllDistincts or DISTINCT, a probe row's matches count as one
     run. *)
  let add t ~check chunk =
    let fresh = if Group.length t.group = 0 then 1 else 0 in
    let k = Group.group t.group in
    let sets = Vec.get t.group.Group.sets k in
    let lcols = Array.init (Batch.n_fields chunk) (Batch.col chunk) in
    let per_pair = Array.length t.levels > 0 || Array.length t.args > 0 in
    let count = ref 0 in
    t.probe_rows <- t.probe_rows + Batch.n_rows chunk;
    Join.iter_runs t.table chunk (fun _ p lo hi ->
        let before = t.pairs in
        t.pairs <- before + (hi - lo);
        if t.pairs lsr 13 <> before lsr 13 then check ();
        if not per_pair then count := !count + (hi - lo)
        else
          for e = lo to hi - 1 do
            if pass t lcols p e 0 then begin
              incr count;
              for x = 0 to Array.length t.args - 1 do
                add_value sets.(x) lcols p e t.table t.args.(x)
              done
            end
          done);
    Group.add_count t.group k !count;
    fresh

  (* Fold partial state [p] into [t], as if [p]'s probe rows had come
     after [t]'s. *)
  let merge t p =
    Group.merge t.group p.group;
    t.probe_rows <- t.probe_rows + p.probe_rows;
    t.pairs <- t.pairs + p.pairs;
    Array.iteri (fun l n -> t.passed.(l) <- t.passed.(l) + n) p.passed
end
