type t = {
  schema : Schema.t;
  vtype : int array;
  esrc : int array;
  edst : int array;
  etype : int array;
  (* CSR, adjacency of each vertex sorted by (etype, neighbour, eid) *)
  out_off : int array;
  out_eid : int array;
  out_et : int array;
  out_dst : int array;
  in_off : int array;
  in_eid : int array;
  in_et : int array;
  in_src : int array;
  vprops : (string, Value.t array) Hashtbl.t;
  eprops : (string, Value.t array) Hashtbl.t;
  vertices_by_type : int array array;
  etype_counts : int array;
  triple_counts : (int * int * int, int) Hashtbl.t;
}

let schema t = t.schema
let n_vertices t = Array.length t.vtype
let n_edges t = Array.length t.etype
let vtype t v = t.vtype.(v)
let etype t e = t.etype.(e)
let esrc t e = t.esrc.(e)
let edst t e = t.edst.(e)

let out_degree t v = t.out_off.(v + 1) - t.out_off.(v)

(* First index in [lo,hi) whose etype is >= et (adjacency sorted by etype).
   The int annotations here and below keep comparisons off polymorphic
   compare. *)
let lower_bound_et (ets : int array) lo hi (et : int) =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ets.(mid) < et then lo := mid + 1 else hi := mid
  done;
  !lo

let etype_range off ets v et =
  let lo = off.(v) and hi = off.(v + 1) in
  let a = lower_bound_et ets lo hi et in
  let b = lower_bound_et ets lo hi (et + 1) in
  (a, b)

let out_degree_etype t v et =
  let a, b = etype_range t.out_off t.out_et v et in
  b - a

let in_degree_etype t v et =
  let a, b = etype_range t.in_off t.in_et v et in
  b - a

let iter_out t v f =
  for i = t.out_off.(v) to t.out_off.(v + 1) - 1 do
    f t.out_eid.(i)
  done

let iter_in t v f =
  for i = t.in_off.(v) to t.in_off.(v + 1) - 1 do
    f t.in_eid.(i)
  done

(* one search for the start of the etype run, then a walk to its end *)
let iter_etype_nbr off (ets : int array) eids nbrs v (et : int) f =
  let hi = off.(v + 1) in
  let i = ref (lower_bound_et ets off.(v) hi et) in
  while !i < hi && ets.(!i) = et do
    f eids.(!i) nbrs.(!i);
    incr i
  done

let iter_out_etype t v et f = iter_etype_nbr t.out_off t.out_et t.out_eid t.out_dst v et f
let iter_in_etype t v et f = iter_etype_nbr t.in_off t.in_et t.in_eid t.in_src v et f

let out_neighbors_etype t v et =
  let a, b = etype_range t.out_off t.out_et v et in
  Array.sub t.out_dst a (b - a)

let in_neighbors_etype t v et =
  let a, b = etype_range t.in_off t.in_et v et in
  Array.sub t.in_src a (b - a)

(* Within the etype range the neighbour column is sorted, so membership is a
   binary search. *)
let search_nbr (nbrs : int array) lo hi (x : int) =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if nbrs.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let has_out_edge t ~src ~etype ~dst =
  let a, b = etype_range t.out_off t.out_et src etype in
  let i = search_nbr t.out_dst a b dst in
  i < b && t.out_dst.(i) = dst

let iter_out_edges_to t ~src ~etype ~dst f =
  let a, b = etype_range t.out_off t.out_et src etype in
  let i = ref (search_nbr t.out_dst a b dst) in
  while !i < b && t.out_dst.(!i) = dst do
    f t.out_eid.(!i);
    incr i
  done

let find_out_edges t ~src ~etype ~dst =
  let acc = ref [] in
  iter_out_edges_to t ~src ~etype ~dst (fun e -> acc := e :: !acc);
  List.rev !acc

let vertices_of_vtype t vt = t.vertices_by_type.(vt)
let count_vtype t vt = Array.length t.vertices_by_type.(vt)
let count_etype t et = t.etype_counts.(et)

let triple_count t ~src ~etype ~dst =
  Option.value ~default:0 (Hashtbl.find_opt t.triple_counts (src, etype, dst))

let avg_out_degree t ~src_vtype ~etype =
  let nv = count_vtype t src_vtype in
  if nv = 0 then 0.0
  else begin
    let total = ref 0 in
    Hashtbl.iter
      (fun (s, e, _) c -> if s = src_vtype && e = etype then total := !total + c)
      t.triple_counts;
    float_of_int !total /. float_of_int nv
  end

let avg_in_degree t ~dst_vtype ~etype =
  let nv = count_vtype t dst_vtype in
  if nv = 0 then 0.0
  else begin
    let total = ref 0 in
    Hashtbl.iter
      (fun (_, e, d) c -> if d = dst_vtype && e = etype then total := !total + c)
      t.triple_counts;
    float_of_int !total /. float_of_int nv
  end

let vprop t v key =
  match Hashtbl.find_opt t.vprops key with
  | Some col -> col.(v)
  | None -> Value.Null

let eprop t e key =
  match Hashtbl.find_opt t.eprops key with
  | Some col -> col.(e)
  | None -> Value.Null

let vprop_column t key = Hashtbl.find_opt t.vprops key
let eprop_column t key = Hashtbl.find_opt t.eprops key

let pp_stats ppf t =
  Format.fprintf ppf "@[<v>|V|=%d |E|=%d@," (n_vertices t) (n_edges t);
  List.iter
    (fun vt ->
      Format.fprintf ppf "  %s: %d@," (Schema.vtype_name t.schema vt) (count_vtype t vt))
    (Schema.all_vtypes t.schema);
  List.iter
    (fun et ->
      Format.fprintf ppf "  -[%s]-: %d@," (Schema.etype_name t.schema et) (count_etype t et))
    (Schema.all_etypes t.schema);
  Format.fprintf ppf "@]"

module Builder = struct
  type t = {
    bschema : Schema.t;
    bvtype : int Gopt_util.Vec.t;
    besrc : int Gopt_util.Vec.t;
    bedst : int Gopt_util.Vec.t;
    betype : int Gopt_util.Vec.t;
    bvprops : (string, (int * Value.t) Gopt_util.Vec.t) Hashtbl.t;
    beprops : (string, (int * Value.t) Gopt_util.Vec.t) Hashtbl.t;
  }

  let create schema =
    {
      bschema = schema;
      bvtype = Gopt_util.Vec.create ();
      besrc = Gopt_util.Vec.create ();
      bedst = Gopt_util.Vec.create ();
      betype = Gopt_util.Vec.create ();
      bvprops = Hashtbl.create 16;
      beprops = Hashtbl.create 16;
    }

  let record_props tbl id props =
    List.iter
      (fun (key, v) ->
        let col =
          match Hashtbl.find_opt tbl key with
          | Some col -> col
          | None ->
            let col = Gopt_util.Vec.create () in
            Hashtbl.add tbl key col;
            col
        in
        Gopt_util.Vec.push col (id, v))
      props

  let add_vertex b ~vtype props =
    if vtype < 0 || vtype >= Schema.n_vtypes b.bschema then
      invalid_arg "Builder.add_vertex: vtype out of range";
    let id = Gopt_util.Vec.length b.bvtype in
    Gopt_util.Vec.push b.bvtype vtype;
    record_props b.bvprops id props;
    id

  let n_vertices b = Gopt_util.Vec.length b.bvtype

  let vtype b v = Gopt_util.Vec.get b.bvtype v

  let add_edge b ~src ~dst ~etype props =
    let n = n_vertices b in
    if src < 0 || src >= n || dst < 0 || dst >= n then
      invalid_arg "Builder.add_edge: endpoint out of range";
    let st = Gopt_util.Vec.get b.bvtype src and dt = Gopt_util.Vec.get b.bvtype dst in
    if not (Schema.triple_allowed b.bschema ~src:st ~etype ~dst:dt) then
      invalid_arg
        (Printf.sprintf "Builder.add_edge: triple (%s)-[%s]->(%s) not in schema"
           (Schema.vtype_name b.bschema st)
           (Schema.etype_name b.bschema etype)
           (Schema.vtype_name b.bschema dt));
    let id = Gopt_util.Vec.length b.betype in
    Gopt_util.Vec.push b.besrc src;
    Gopt_util.Vec.push b.bedst dst;
    Gopt_util.Vec.push b.betype etype;
    record_props b.beprops id props;
    id

  let freeze_props tbl n =
    let out = Hashtbl.create (Hashtbl.length tbl) in
    Hashtbl.iter
      (fun key cells ->
        let col = Array.make n Value.Null in
        Gopt_util.Vec.iter (fun (id, v) -> col.(id) <- v) cells;
        Hashtbl.add out key col)
      tbl;
    out

  (* Build one direction of CSR adjacency, sorted by (etype, neighbour, eid),
     via a per-vertex counting pass and an in-place sort of each slice. *)
  let build_csr ~n ~anchors ~etypes ~nbrs =
    let m = Array.length anchors in
    let off = Array.make (n + 1) 0 in
    Array.iter (fun v -> off.(v + 1) <- off.(v + 1) + 1) anchors;
    for v = 1 to n do
      off.(v) <- off.(v) + off.(v - 1)
    done;
    let cursor = Array.copy off in
    let eid_arr = Array.make m 0 in
    for e = 0 to m - 1 do
      let v = anchors.(e) in
      eid_arr.(cursor.(v)) <- e;
      cursor.(v) <- cursor.(v) + 1
    done;
    (* sort each vertex slice *)
    for v = 0 to n - 1 do
      let lo = off.(v) and hi = off.(v + 1) in
      if hi - lo > 1 then begin
        let slice = Array.sub eid_arr lo (hi - lo) in
        Array.sort
          (fun e1 e2 ->
            let c = Int.compare etypes.(e1) etypes.(e2) in
            if c <> 0 then c
            else
              let c = Int.compare nbrs.(e1) nbrs.(e2) in
              if c <> 0 then c else Int.compare e1 e2)
          slice;
        Array.blit slice 0 eid_arr lo (hi - lo)
      end
    done;
    let et_arr = Array.map (fun e -> etypes.(e)) eid_arr in
    let nbr_arr = Array.map (fun e -> nbrs.(e)) eid_arr in
    (off, eid_arr, et_arr, nbr_arr)

  let freeze b =
    let vtype = Gopt_util.Vec.to_array b.bvtype in
    let esrc = Gopt_util.Vec.to_array b.besrc in
    let edst = Gopt_util.Vec.to_array b.bedst in
    let etype = Gopt_util.Vec.to_array b.betype in
    let n = Array.length vtype in
    let out_off, out_eid, out_et, out_dst =
      build_csr ~n ~anchors:esrc ~etypes:etype ~nbrs:edst
    in
    let in_off, in_eid, in_et, in_src =
      build_csr ~n ~anchors:edst ~etypes:etype ~nbrs:esrc
    in
    let nvt = Schema.n_vtypes b.bschema and net = Schema.n_etypes b.bschema in
    let by_type = Array.make nvt [] in
    for v = n - 1 downto 0 do
      by_type.(vtype.(v)) <- v :: by_type.(vtype.(v))
    done;
    let etype_counts = Array.make net 0 in
    Array.iter (fun et -> etype_counts.(et) <- etype_counts.(et) + 1) etype;
    let triple_counts = Hashtbl.create 64 in
    Array.iteri
      (fun e et ->
        let key = (vtype.(esrc.(e)), et, vtype.(edst.(e))) in
        let c = Option.value ~default:0 (Hashtbl.find_opt triple_counts key) in
        Hashtbl.replace triple_counts key (c + 1))
      etype;
    {
      schema = b.bschema;
      vtype;
      esrc;
      edst;
      etype;
      out_off;
      out_eid;
      out_et;
      out_dst;
      in_off;
      in_eid;
      in_et;
      in_src;
      vprops = freeze_props b.bvprops n;
      eprops = freeze_props b.beprops (Array.length etype);
      vertices_by_type = Array.map Array.of_list by_type;
      etype_counts;
      triple_counts;
    }
end
