module G = Gopt_graph.Property_graph
module Schema = Gopt_graph.Schema
module Pattern = Gopt_pattern.Pattern
module Tc = Gopt_pattern.Type_constraint

(* Number of data edges realizing one pattern edge between two bound data
   vertices, honouring the edge's type constraint and orientation. Parallel
   edges each count once (homomorphism semantics). *)
let edge_multiplicity g euniv (e : Pattern.edge) u_data v_data =
  let count_dir src dst =
    List.fold_left
      (fun acc et -> acc + List.length (G.find_out_edges g ~src ~etype:et ~dst))
      0
      (Tc.to_list ~universe:euniv e.Pattern.e_con)
  in
  if e.Pattern.e_directed then count_dir u_data v_data
  else count_dir u_data v_data + count_dir v_data u_data

(* Search order: BFS across the pattern, starting new components as needed.
   Returns the vertex order and, for each position, the edges from that
   vertex to earlier-ordered vertices. *)
let search_order p =
  let n = Pattern.n_vertices p in
  let placed = Array.make n false in
  let order = ref [] in
  let count = ref 0 in
  let place v =
    placed.(v) <- true;
    order := v :: !order;
    incr count
  in
  while !count < n do
    (* prefer a vertex adjacent to an already placed one *)
    let next = ref (-1) in
    for v = n - 1 downto 0 do
      if (not placed.(v))
         && List.exists (fun (_, u) -> placed.(u)) (Pattern.neighbors p v)
      then next := v
    done;
    if !next < 0 then begin
      (* new component: pick the lowest unplaced vertex *)
      let v = ref 0 in
      while placed.(!v) do
        incr v
      done;
      next := !v
    end;
    place !next
  done;
  List.rev !order

let count_homomorphisms g p =
  if Pattern.has_var_length p then
    invalid_arg "Motif_counter.count_homomorphisms: variable-length edges unsupported";
  let schema = G.schema g in
  let vuniv = Schema.n_vtypes schema and euniv = Schema.n_etypes schema in
  let order = Array.of_list (search_order p) in
  let bind = Array.make (Pattern.n_vertices p) (-1) in
  let vertex_matches pv data_v =
    Tc.mem ~universe:vuniv (Pattern.vertex p pv).Pattern.v_con (G.vtype g data_v)
  in
  let rec go pos weight =
    if pos = Array.length order then weight
    else begin
      let pv = order.(pos) in
      let bound_edges =
        List.filter
          (fun (ei, u) ->
            ignore (ei : int);
            bind.(u) >= 0)
          (Pattern.neighbors p pv)
      in
      let total = ref 0.0 in
      let try_candidate c extra_weight skipped_edge =
        if vertex_matches pv c then begin
          (* multiply multiplicities of all other edges to bound vertices *)
          let w = ref extra_weight in
          List.iter
            (fun (ei, u) ->
              if !w > 0.0 && Some ei <> skipped_edge then begin
                let e = Pattern.edge p ei in
                let u_data = bind.(u) in
                let src, dst = if e.Pattern.e_src = pv then (c, u_data) else (u_data, c) in
                let m = edge_multiplicity g euniv e src dst in
                w := !w *. float_of_int m
              end)
            bound_edges;
          if !w > 0.0 then begin
            bind.(pv) <- c;
            total := !total +. go (pos + 1) (weight *. !w);
            bind.(pv) <- -1
          end
        end
      in
      (match bound_edges with
      | [] ->
        (* component start: scan vertices by type *)
        List.iter
          (fun t ->
            Array.iter
              (fun c -> try_candidate c 1.0 None)
              (G.vertices_of_vtype g t))
          (Tc.to_list ~universe:vuniv (Pattern.vertex p pv).Pattern.v_con)
      | (anchor_ei, anchor_u) :: _ ->
        let e = Pattern.edge p anchor_ei in
        let u_data = bind.(anchor_u) in
        let expand_dir out =
          List.iter
            (fun et ->
              let iter = if out then G.iter_out_etype else G.iter_in_etype in
              iter g u_data et (fun _ c -> try_candidate c 1.0 (Some anchor_ei)))
            (Tc.to_list ~universe:euniv e.Pattern.e_con)
        in
        if e.Pattern.e_directed then
          (* pattern edge direction relative to the anchored endpoint *)
          expand_dir (e.Pattern.e_src = anchor_u)
        else begin
          expand_dir true;
          expand_dir false
        end);
      !total
    end
  in
  go 0 1.0

type entry_key = int * [ `Out | `In ] * int * int

let wedge_counts g callback =
  let acc : (entry_key * entry_key, float) Hashtbl.t = Hashtbl.create 1024 in
  let n = G.n_vertices g in
  for b = 0 to n - 1 do
    let bt = G.vtype g b in
    (* incident-edge classes of b with their degrees *)
    let classes : (entry_key, int) Hashtbl.t = Hashtbl.create 8 in
    let bump key = Hashtbl.replace classes key (1 + Option.value ~default:0 (Hashtbl.find_opt classes key)) in
    G.iter_out g b (fun eid -> bump (bt, `Out, G.etype g eid, G.vtype g (G.edst g eid)));
    G.iter_in g b (fun eid -> bump (bt, `In, G.etype g eid, G.vtype g (G.esrc g eid)));
    let entries = Hashtbl.fold (fun k v l -> (k, v) :: l) classes [] in
    let entries = List.sort compare entries in
    let rec pairs = function
      | [] -> ()
      | (k1, d1) :: rest ->
        let contrib = float_of_int (d1 * d1) in
        let key = (k1, k1) in
        Hashtbl.replace acc key (contrib +. Option.value ~default:0.0 (Hashtbl.find_opt acc key));
        List.iter
          (fun (k2, d2) ->
            let key = (k1, k2) in
            let contrib = float_of_int (d1 * d2) in
            Hashtbl.replace acc key
              (contrib +. Option.value ~default:0.0 (Hashtbl.find_opt acc key)))
          rest;
        pairs rest
    in
    pairs entries
  done;
  Hashtbl.iter (fun key total -> callback key total) acc

(* Two-pointer intersection of sorted neighbour arrays, multiplying run
   lengths (parallel edges), restricted to candidates of type [tc]. *)
let intersect_mult g xs ys tc =
  let nx = Array.length xs and ny = Array.length ys in
  let i = ref 0 and j = ref 0 in
  let total = ref 0.0 in
  while !i < nx && !j < ny do
    let x = xs.(!i) and y = ys.(!j) in
    if x < y then incr i
    else if y < x then incr j
    else begin
      let run a k v =
        let r = ref 0 in
        let k = ref k in
        while !k < Array.length a && a.(!k) = v do
          incr r;
          incr k
        done;
        !r
      in
      let rx = run xs !i x and ry = run ys !j x in
      if G.vtype g x = tc then total := !total +. float_of_int (rx * ry);
      i := !i + rx;
      j := !j + ry
    end
  done;
  !total

let triangle_count g ~ab:(et_ab, fwd_ab) ~bc:(et_bc, fwd_bc) ~ac:(et_ac, fwd_ac) ~ta ~tb ~tc =
  let total = ref 0.0 in
  let process a b =
    if G.vtype g b = tb then begin
      let from_a = if fwd_ac then G.out_neighbors_etype g a et_ac else G.in_neighbors_etype g a et_ac in
      let from_b = if fwd_bc then G.out_neighbors_etype g b et_bc else G.in_neighbors_etype g b et_bc in
      total := !total +. intersect_mult g from_a from_b tc
    end
  in
  Array.iter
    (fun a ->
      let iter = if fwd_ab then G.iter_out_etype else G.iter_in_etype in
      iter g a et_ab (fun _ b -> process a b))
    (G.vertices_of_vtype g ta);
  !total
