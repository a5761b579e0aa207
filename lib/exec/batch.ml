(* Columnar chunk with adaptive per-field columns and a selection vector.

   Columns start untyped and specialize on first write: vertex and edge
   bindings go to dense [int] arrays (no per-cell boxing), anything else to
   a boxed [Rval.t] array. If a later write does not conform (e.g. an outer
   join pads an [Rnull] into a vertex column) the column promotes itself to
   the boxed representation, re-boxing the rows written so far — promotion
   is a one-time cost per column, not per row.

   Views ([sub]/[select]/[project] results) share the physical columns of
   their parent and carry a selection vector mapping logical to physical row
   indices. The engine never mutates a batch after handing it downstream, so
   sharing is safe; [add] additionally refuses to run on views. *)

type col =
  | C_empty  (* nothing written yet; kind unknown *)
  | C_vertex of int array
  | C_edge of int array
  | C_boxed of Rval.t array

type t = {
  field_list : string list;
  index : (string, int) Hashtbl.t;
  width : int;
  mutable cols : col array;
  mutable phys : int;  (* valid physical rows in [cols] *)
  mutable sel : int array option;  (* logical -> physical; None = identity *)
  view : bool;  (* shares another batch's columns; [add] is forbidden *)
}

let create field_list =
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i f ->
      if Hashtbl.mem index f then invalid_arg (Printf.sprintf "Batch.create: duplicate field %S" f);
      Hashtbl.add index f i)
    field_list;
  let width = List.length field_list in
  {
    field_list;
    index;
    width;
    cols = Array.make (max width 1) C_empty;
    phys = 0;
    sel = None;
    view = false;
  }

let fields t = t.field_list
let has_field t f = Hashtbl.mem t.index f

let pos_opt t f = Hashtbl.find_opt t.index f

let pos t f =
  match Hashtbl.find_opt t.index f with
  | Some i -> i
  | None ->
    invalid_arg
      (Printf.sprintf "Batch.pos: no field %S in batch [%s]" f
         (String.concat "; " t.field_list))

let n_rows t = match t.sel with Some s -> Array.length s | None -> t.phys
let n_fields t = t.width

(* --- cell writes with column adaptation ---------------------------------- *)

let grow_int a need =
  if Array.length a > need then a
  else begin
    let na = Array.make (max 8 (2 * (need + 1))) 0 in
    Array.blit a 0 na 0 (Array.length a);
    na
  end

let grow_boxed a need =
  if Array.length a > need then a
  else begin
    let na = Array.make (max 8 (2 * (need + 1))) Rval.Rnull in
    Array.blit a 0 na 0 (Array.length a);
    na
  end

(* box the first [n] cells of an int column so a non-conforming value can be
   stored; [mk] re-boxes the existing ids *)
let promote a n mk v =
  let b = Array.make (max 8 (2 * (n + 1))) Rval.Rnull in
  for k = 0 to n - 1 do
    b.(k) <- mk a.(k)
  done;
  b.(n) <- v;
  b

(* write cell [i] of column [j]; [i] is the next physical row (cells are
   written append-only, all columns advancing in lockstep) *)
let set_cell t j i (v : Rval.t) =
  match t.cols.(j), v with
  | C_vertex a, Rval.Rvertex x ->
    let a = grow_int a i in
    a.(i) <- x;
    t.cols.(j) <- C_vertex a
  | C_edge a, Rval.Redge x ->
    let a = grow_int a i in
    a.(i) <- x;
    t.cols.(j) <- C_edge a
  | C_vertex a, v -> t.cols.(j) <- C_boxed (promote a i (fun x -> Rval.Rvertex x) v)
  | C_edge a, v -> t.cols.(j) <- C_boxed (promote a i (fun x -> Rval.Redge x) v)
  | C_boxed a, v ->
    let a = grow_boxed a i in
    a.(i) <- v;
    t.cols.(j) <- C_boxed a
  | C_empty, Rval.Rvertex x ->
    let a = Array.make 8 0 in
    a.(0) <- x;
    t.cols.(j) <- C_vertex a
  | C_empty, Rval.Redge x ->
    let a = Array.make 8 0 in
    a.(0) <- x;
    t.cols.(j) <- C_edge a
  | C_empty, v ->
    let a = Array.make 8 Rval.Rnull in
    a.(0) <- v;
    t.cols.(j) <- C_boxed a

let add t row =
  if t.view || t.sel <> None then
    invalid_arg "Batch.add: batch is an immutable view (sub/select/project result)";
  assert (Array.length row = t.width);
  let i = t.phys in
  for j = 0 to t.width - 1 do
    set_cell t j i row.(j)
  done;
  t.phys <- i + 1

(* --- reads ---------------------------------------------------------------- *)

let phys_of t i = match t.sel with Some s -> s.(i) | None -> i

let get t i j =
  let p = phys_of t i in
  match t.cols.(j) with
  | C_vertex a -> Rval.Rvertex a.(p)
  | C_edge a -> Rval.Redge a.(p)
  | C_boxed a -> a.(p)
  | C_empty -> invalid_arg "Batch.get: empty column"

let row t i =
  if i < 0 || i >= n_rows t then invalid_arg "Batch.row: index out of bounds";
  Array.init t.width (fun j -> get t i j)

let lookup t i tag =
  match Hashtbl.find_opt t.index tag with Some j -> Some (get t i j) | None -> None

let iter f t =
  let n = n_rows t in
  for i = 0 to n - 1 do
    f (row t i)
  done

let of_rows field_list rows =
  let t = create field_list in
  List.iter (add t) rows;
  t

let of_vertex_ids alias ids ~pos ~len =
  let t = create [ alias ] in
  t.cols.(0) <- C_vertex (Array.sub ids pos len);
  t.phys <- len;
  t

let project_to t target_fields row =
  Array.of_list (List.map (fun f -> row.(pos t f)) target_fields)

(* --- zero-copy views ------------------------------------------------------ *)

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > n_rows t then
    invalid_arg
      (Printf.sprintf "Batch.sub: range [%d, %d) out of bounds (%d rows)" pos (pos + len)
         (n_rows t));
  let sel =
    match t.sel with
    | None -> Array.init len (fun k -> pos + k)
    | Some s -> Array.sub s pos len
  in
  { t with sel = Some sel; view = true }

let select t idxs =
  let sel =
    match t.sel with None -> idxs | Some s -> Array.map (fun i -> s.(i)) idxs
  in
  { t with sel = Some sel; view = true }

let project t pairs =
  let out_fields = List.map snd pairs in
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i f ->
      if Hashtbl.mem index f then
        invalid_arg (Printf.sprintf "Batch.project: duplicate field %S" f);
      Hashtbl.add index f i)
    out_fields;
  {
    field_list = out_fields;
    index;
    width = List.length out_fields;
    cols = Array.of_list (List.map (fun (j, _) -> t.cols.(j)) pairs);
    phys = t.phys;
    sel = t.sel;
    view = true;
  }

(* --- kernel access -------------------------------------------------------- *)

type data = D_vertex of int array | D_edge of int array | D_boxed of Rval.t array

let col t j =
  match t.cols.(j) with
  | C_vertex a -> D_vertex a
  | C_edge a -> D_edge a
  | C_boxed a -> D_boxed a
  | C_empty -> D_boxed [||]

let selection t = t.sel

(* --- column gathers (hash-join and expansion output) ---------------------- *)

let gather t j rows n =
  (* monomorphic int copies: plain stores, no write barrier *)
  let ints (a : int array) =
    let d = Array.make n 0 in
    (match t.sel with
    | None ->
      for i = 0 to n - 1 do
        d.(i) <- a.(rows.(i))
      done
    | Some s ->
      for i = 0 to n - 1 do
        d.(i) <- a.(s.(rows.(i)))
      done);
    d
  in
  match t.cols.(j) with
  | C_vertex a -> D_vertex (ints a)
  | C_edge a -> D_edge (ints a)
  | C_boxed a -> D_boxed (Array.init n (fun i -> a.(phys_of t rows.(i))))
  | C_empty -> invalid_arg "Batch.gather: empty column"

let compact t j =
  let n = n_rows t in
  let ints (a : int array) =
    match t.sel with None -> Array.sub a 0 n | Some s -> Array.init n (fun i -> a.(s.(i)))
  in
  match t.cols.(j) with
  | C_vertex a -> D_vertex (ints a)
  | C_edge a -> D_edge (ints a)
  | C_boxed a -> D_boxed (Array.init n (fun i -> a.(phys_of t i)))
  | C_empty -> D_boxed [||]

let of_data field_list n data =
  let t = create field_list in
  if Array.length data <> t.width then
    invalid_arg
      (Printf.sprintf "Batch.of_data: %d columns for %d fields" (Array.length data) t.width);
  Array.iteri
    (fun j d ->
      let len = match d with D_vertex a | D_edge a -> Array.length a | D_boxed a -> Array.length a in
      if len < n then invalid_arg "Batch.of_data: column shorter than the row count";
      t.cols.(j) <- (match d with D_vertex a -> C_vertex a | D_edge a -> C_edge a | D_boxed a -> C_boxed a))
    data;
  t.phys <- n;
  t

(* --- column-wise append (exchange merge) ---------------------------------- *)

let append_batch dst src =
  if dst.view || dst.sel <> None then invalid_arg "Batch.append_batch: target is a view";
  if src.field_list <> dst.field_list then
    invalid_arg
      (Printf.sprintf "Batch.append_batch: layout mismatch ([%s] vs [%s])"
         (String.concat "; " src.field_list)
         (String.concat "; " dst.field_list));
  let n = n_rows src in
  if n > 0 then begin
    let base = dst.phys in
    for j = 0 to dst.width - 1 do
      (* fast paths: same-kind dense copies, compacting through the source
         selection vector; anything else falls back to per-cell writes *)
      match src.cols.(j), dst.cols.(j), src.sel with
      | C_vertex a, C_vertex d, sel ->
        let d = grow_int d (base + n - 1) in
        (match sel with
        | None -> Array.blit a 0 d base n
        | Some s ->
          for k = 0 to n - 1 do
            d.(base + k) <- a.(s.(k))
          done);
        dst.cols.(j) <- C_vertex d
      | C_edge a, C_edge d, sel ->
        let d = grow_int d (base + n - 1) in
        (match sel with
        | None -> Array.blit a 0 d base n
        | Some s ->
          for k = 0 to n - 1 do
            d.(base + k) <- a.(s.(k))
          done);
        dst.cols.(j) <- C_edge d
      | (C_vertex _ | C_edge _ | C_boxed _), _, _ ->
        for k = 0 to n - 1 do
          set_cell dst j (base + k) (get src k j)
        done
      | C_empty, _, _ -> invalid_arg "Batch.append_batch: empty column with rows"
    done;
    dst.phys <- base + n
  end

let concat field_list bs =
  let out = create field_list in
  List.iter
    (fun b ->
      if b.field_list <> field_list then
        invalid_arg
          (Printf.sprintf "Batch.concat: layout mismatch ([%s] vs [%s])"
             (String.concat "; " b.field_list)
             (String.concat "; " field_list));
      append_batch out b)
    bs;
  out

let pp g ppf t =
  Format.fprintf ppf "@[<v>%s@," (String.concat " | " t.field_list);
  let n = n_rows t in
  let shown = min n 20 in
  for i = 0 to shown - 1 do
    let r = row t i in
    Format.fprintf ppf "%s@,"
      (String.concat " | "
         (Array.to_list (Array.map (fun v -> Format.asprintf "%a" (Rval.pp g) v) r)))
  done;
  if n > shown then Format.fprintf ppf "... (%d rows total)@," n;
  Format.fprintf ppf "@]"
