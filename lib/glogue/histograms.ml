module G = Gopt_graph.Property_graph
module Schema = Gopt_graph.Schema
module Value = Gopt_graph.Value

type elem = Vertex | Edge

type column = {
  population : int;  (** elements of the type that carry the property *)
  distinct : int;
  boundaries : float array;
      (** equi-depth bucket boundaries (ascending) for numeric columns;
          empty for non-numeric columns *)
  lo : float;
  hi : float;
}

type t = {
  columns : (elem * int * string, column) Hashtbl.t;
  type_counts : (elem * int, int) Hashtbl.t;
}

let numeric v = Value.as_float v

let build_column ?(buckets = 32) values =
  let n = List.length values in
  let distinct =
    let tbl = Hashtbl.create (2 * n) in
    List.iter (fun v -> Hashtbl.replace tbl (Value.to_string v) ()) values;
    Hashtbl.length tbl
  in
  let numerics = List.filter_map numeric values in
  if numerics = [] then
    { population = n; distinct; boundaries = [||]; lo = nan; hi = nan }
  else begin
    let arr = Array.of_list numerics in
    Array.sort Float.compare arr;
    let m = Array.length arr in
    let k = min buckets m in
    let boundaries =
      Array.init (k + 1) (fun i ->
          if i = k then arr.(m - 1) else arr.(i * m / k))
    in
    { population = n; distinct; boundaries; lo = arr.(0); hi = arr.(m - 1) }
  end

let build ?(buckets = 32) g =
  let schema = G.schema g in
  let columns = Hashtbl.create 64 in
  let type_counts = Hashtbl.create 32 in
  (* vertices: group property values per (vtype, key) *)
  let vcells : (int * string, Value.t list ref) Hashtbl.t = Hashtbl.create 64 in
  for v = 0 to G.n_vertices g - 1 do
    let vt = G.vtype g v in
    List.iter
      (fun (key, _) ->
        let value = G.vprop g v key in
        if not (Value.is_null value) then begin
          let cell =
            match Hashtbl.find_opt vcells (vt, key) with
            | Some r -> r
            | None ->
              let r = ref [] in
              Hashtbl.add vcells (vt, key) r;
              r
          in
          cell := value :: !cell
        end)
      (Schema.vprops schema vt)
  done;
  List.iter
    (fun vt -> Hashtbl.replace type_counts (Vertex, vt) (G.count_vtype g vt))
    (Schema.all_vtypes schema);
  Hashtbl.iter
    (fun (vt, key) cell ->
      Hashtbl.replace columns (Vertex, vt, key) (build_column ~buckets !cell))
    vcells;
  (* edges *)
  let ecells : (int * string, Value.t list ref) Hashtbl.t = Hashtbl.create 64 in
  for e = 0 to G.n_edges g - 1 do
    let et = G.etype g e in
    List.iter
      (fun (key, _) ->
        let value = G.eprop g e key in
        if not (Value.is_null value) then begin
          let cell =
            match Hashtbl.find_opt ecells (et, key) with
            | Some r -> r
            | None ->
              let r = ref [] in
              Hashtbl.add ecells (et, key) r;
              r
          in
          cell := value :: !cell
        end)
      (Schema.eprops schema et)
  done;
  List.iter
    (fun et -> Hashtbl.replace type_counts (Edge, et) (G.count_etype g et))
    (Schema.all_etypes schema);
  Hashtbl.iter
    (fun (et, key) cell ->
      Hashtbl.replace columns (Edge, et, key) (build_column ~buckets !cell))
    ecells;
  { columns; type_counts }

(* Fraction of a numeric column strictly below x, from the equi-depth
   boundaries: each bucket holds 1/k of the population. *)
let fraction_below col x =
  let b = col.boundaries in
  let k = Array.length b - 1 in
  if k <= 0 then 0.5
  else if x <= b.(0) then 0.0
  else if x >= b.(k) then 1.0
  else begin
    (* find the bucket containing x *)
    let i = ref 0 in
    while !i < k && b.(!i + 1) < x do
      incr i
    done;
    let blo = b.(!i) and bhi = b.(!i + 1) in
    let within = if bhi > blo then (x -. blo) /. (bhi -. blo) else 0.5 in
    (float_of_int !i +. within) /. float_of_int k
  end

let column_selectivity col pred =
  match pred with
  | `Eq _ -> Some (1.0 /. float_of_int (max 1 col.distinct))
  | `In vs ->
    Some (Float.min 1.0 (float_of_int (List.length vs) /. float_of_int (max 1 col.distinct)))
  | `Range (op, v) -> begin
    match numeric v, col.boundaries with
    | Some x, b when Array.length b >= 2 ->
      let below = fraction_below col x in
      let point = 1.0 /. float_of_int (max 1 col.distinct) in
      Some
        (match op with
        | `Lt -> below
        | `Leq -> Float.min 1.0 (below +. point)
        | `Gt -> Float.max 0.0 (1.0 -. below -. point)
        | `Geq -> 1.0 -. below)
    | _ -> None
  end

let selectivity t ~elem ~type_ids ~prop pred =
  let weighted =
    List.filter_map
      (fun ty ->
        match Hashtbl.find_opt t.columns (elem, ty, prop) with
        | Some col -> begin
          match column_selectivity col pred with
          | Some s ->
            let pop = Option.value ~default:col.population (Hashtbl.find_opt t.type_counts (elem, ty)) in
            (* elements without the property cannot satisfy the predicate *)
            let coverage =
              if pop > 0 then float_of_int col.population /. float_of_int pop else 1.0
            in
            Some (float_of_int pop, s *. coverage)
          | None -> None
        end
        | None ->
          (* the type exists but never carries the property: selectivity 0
             for its population *)
          Option.map
            (fun pop -> (float_of_int pop, 0.0))
            (Hashtbl.find_opt t.type_counts (elem, ty)))
      type_ids
  in
  (* require statistics for at least one listed type *)
  let known =
    List.exists (fun ty -> Hashtbl.mem t.columns (elem, ty, prop)) type_ids
  in
  if (not known) || weighted = [] then None
  else begin
    let total_pop = List.fold_left (fun acc (p, _) -> acc +. p) 0.0 weighted in
    if total_pop <= 0.0 then None
    else
      Some (List.fold_left (fun acc (p, s) -> acc +. (p *. s)) 0.0 weighted /. total_pop)
  end

