module Pattern = Gopt_pattern.Pattern
module Canonical = Gopt_pattern.Canonical
module Gq = Gopt_glogue.Glogue_query

type op =
  | Scan
  | Expand of { sub : plan; new_vertex_alias : string; edges : Pattern.edge list }
  | Join of { left : plan; right : plan; keys : string list }

and plan = { pattern : Pattern.t; op : op; cost : float; freq : float }

type options = {
  use_greedy_init : bool;
  use_pruning : bool;
  max_join_edges : int;
  greedy_only : bool;
}

let default_options =
  { use_greedy_init = true; use_pruning = true; max_join_edges = 10; greedy_only = false }

type search_stats = {
  mutable nodes_searched : int;
  mutable candidates_considered : int;
  mutable candidates_pruned : int;
  mutable memo_hits : int;
}

(* A candidate transformation producing the target pattern. *)
type cand =
  | C_expand of {
      sub_pat : Pattern.t;
      new_vertex : int; (* index in target *)
      new_edges : int list; (* edge ids in target *)
      anchor : int; (* a vertex of the subpattern, for single-vertex subs *)
    }
  | C_join of { left_pat : Pattern.t; right_pat : Pattern.t; keys : string list }

let expand_candidates target =
  let nv = Pattern.n_vertices target in
  List.filter_map
    (fun v ->
      match Pattern.remove_vertex target v with
      | None -> None
      | Some sub_pat ->
        let new_edges = Pattern.incident_edges target v in
        (* anchor: any vertex of target that survives in sub *)
        let anchor =
          let rec find i = if i = v then find (i + 1) else i in
          find 0
        in
        Some (C_expand { sub_pat; new_vertex = v; new_edges; anchor }))
    (List.init nv Fun.id)

let join_candidates target ~max_join_edges =
  let ne = Pattern.n_edges target in
  if ne < 2 || ne > max_join_edges then []
  else begin
    let nv = Pattern.n_vertices target in
    let acc = ref [] in
    (* subsets containing edge 0, excluding the full set *)
    for mask = 1 to (1 lsl ne) - 2 do
      if mask land 1 = 1 then begin
        let left_edges = ref [] and right_edges = ref [] in
        for e = 0 to ne - 1 do
          if mask land (1 lsl e) <> 0 then left_edges := e :: !left_edges
          else right_edges := e :: !right_edges
        done;
        let left_pat, _ = Pattern.sub_by_edges target !left_edges in
        let right_pat, _ = Pattern.sub_by_edges target !right_edges in
        if Pattern.is_connected left_pat && Pattern.is_connected right_pat then begin
          let keys = Pattern.shared_aliases left_pat right_pat in
          let covered =
            Pattern.n_vertices left_pat + Pattern.n_vertices right_pat - List.length keys
          in
          if keys <> [] && covered = nv then
            acc := C_join { left_pat; right_pat; keys } :: !acc
        end
      end
    done;
    !acc
  end

let scan_plan gq pattern =
  let freq = Gq.get_freq gq pattern in
  { pattern; op = Scan; cost = freq; freq }

(* Order a new vertex's binding edges cheapest-first (by the frequency of the
   subpattern extended with just that edge). *)
let order_edges gq target anchor new_edges =
  match new_edges with
  | [] | [ _ ] -> new_edges
  | _ ->
    let sub_edges =
      (* edges of target present in the subpattern = all edges not incident
         to the new vertex *)
      List.filter
        (fun e -> not (List.mem e new_edges))
        (List.init (Pattern.n_edges target) Fun.id)
    in
    let keyed =
      List.map
        (fun e -> (Physical_spec.sub_freq gq target (e :: sub_edges) ~anchor, e))
        new_edges
    in
    List.map snd (List.sort (fun (a, _) (b, _) -> Float.compare a b) keyed)

(* [step_cost] is the spec's expand cost of the step, which the caller has
   already computed to rank or prune the candidate. *)
let make_expand_plan gq target ~sub_plan ~new_vertex ~new_edges ~anchor ~freq ~step_cost =
  let ordered = order_edges gq target anchor new_edges in
  let edges = List.map (Pattern.edge target) ordered in
  let alias = (Pattern.vertex target new_vertex).Pattern.v_alias in
  {
    pattern = target;
    op = Expand { sub = sub_plan; new_vertex_alias = alias; edges };
    cost = sub_plan.cost +. freq +. step_cost;
    freq;
  }

let rec greedy_opt gq spec target =
  if Pattern.n_vertices target = 1 then scan_plan gq target
  else begin
    let freq = Gq.get_freq gq target in
    let cands = expand_candidates target in
    let cands =
      List.map
        (fun c ->
          match c with
          | C_expand { sub_pat; new_edges; anchor; _ } ->
            let sub_edges =
              List.filter
                (fun e -> not (List.mem e new_edges))
                (List.init (Pattern.n_edges target) Fun.id)
            in
            let cost =
              spec.Physical_spec.expand_cost gq ~target ~sub_edges ~new_edges
                ~anchor_vertex:anchor
            in
            (cost, c, sub_pat)
          | C_join _ -> assert false)
        cands
    in
    match List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) cands with
    | [] ->
      (* a connected pattern always has a non-cut vertex *)
      invalid_arg
        "Cbo.greedy: no expand candidate — the pattern is disconnected, which PlanCheck \
         reports on the logical plan before the CBO runs"
    | (step_cost, C_expand { sub_pat; new_vertex; new_edges; anchor }, _) :: _ ->
      let sub_plan = greedy_opt gq spec sub_pat in
      make_expand_plan gq target ~sub_plan ~new_vertex ~new_edges ~anchor ~freq ~step_cost
    | (_, C_join _, _) :: _ -> assert false
  end

let greedy gq spec target =
  if Pattern.n_vertices target = 0 then invalid_arg "Cbo.greedy: empty pattern";
  if not (Pattern.is_connected target) then invalid_arg "Cbo.greedy: disconnected pattern";
  greedy_opt gq spec target

let optimize ?(options = default_options) gq spec target =
  if Pattern.n_vertices target = 0 then invalid_arg "Cbo.optimize: empty pattern";
  if not (Pattern.is_connected target) then invalid_arg "Cbo.optimize: disconnected pattern";
  let stats =
    { nodes_searched = 0; candidates_considered = 0; candidates_pruned = 0; memo_hits = 0 }
  in
  if options.greedy_only then (greedy_opt gq spec target, stats)
  else begin
  let memo : (string, plan) Hashtbl.t = Hashtbl.create 64 in
  let target_code = Canonical.keyed_code target in
  let bound = ref Float.infinity in
  if options.use_greedy_init then bound := (greedy_opt gq spec target).cost;
  let rec search p =
    let code = Canonical.keyed_code p in
    match Hashtbl.find_opt memo code with
    | Some plan ->
      stats.memo_hits <- stats.memo_hits + 1;
      plan
    | None ->
      stats.nodes_searched <- stats.nodes_searched + 1;
      let plan =
        if Pattern.n_vertices p = 1 then scan_plan gq p
        else begin
          let freq = Gq.get_freq gq p in
          let best = ref None in
          let consider plan' =
            match !best with
            | Some b when b.cost <= plan'.cost -> ()
            | _ -> best := Some plan'
          in
          let cands =
            expand_candidates p @ join_candidates p ~max_join_edges:options.max_join_edges
          in
          List.iter
            (fun cand ->
              stats.candidates_considered <- stats.candidates_considered + 1;
              match cand with
              | C_expand { sub_pat; new_vertex; new_edges; anchor } ->
                let sub_edges =
                  List.filter
                    (fun e -> not (List.mem e new_edges))
                    (List.init (Pattern.n_edges p) Fun.id)
                in
                let step_cost =
                  spec.Physical_spec.expand_cost gq ~target:p ~sub_edges ~new_edges
                    ~anchor_vertex:anchor
                in
                let memoized_sub =
                  Hashtbl.find_opt memo (Canonical.keyed_code sub_pat)
                in
                let lb =
                  freq +. step_cost
                  +. (match memoized_sub with Some s -> s.cost | None -> 0.0)
                in
                if options.use_pruning && lb >= !bound then
                  stats.candidates_pruned <- stats.candidates_pruned + 1
                else begin
                  let sub_plan = search sub_pat in
                  consider
                    (make_expand_plan gq p ~sub_plan ~new_vertex ~new_edges ~anchor ~freq
                       ~step_cost)
                end
              | C_join { left_pat; right_pat; keys } ->
                let step_cost =
                  spec.Physical_spec.join_cost gq ~left:left_pat ~right:right_pat ~target:p
                in
                let lb = freq +. step_cost in
                if options.use_pruning && lb >= !bound then
                  stats.candidates_pruned <- stats.candidates_pruned + 1
                else begin
                  let left = search left_pat and right = search right_pat in
                  consider
                    {
                      pattern = p;
                      op = Join { left; right; keys };
                      cost = left.cost +. right.cost +. freq +. step_cost;
                      freq;
                    }
                end)
            cands;
          match !best with
          | Some plan -> plan
          | None ->
            (* everything pruned: fall back to greedy under this subpattern *)
            greedy_opt gq spec p
        end
      in
      Hashtbl.replace memo code plan;
      if String.equal target_code code && plan.cost < !bound then bound := plan.cost;
      plan
  in
  let plan = search target in
  (plan, stats)
  end

(* --- compilation to physical operators --- *)

let step_of_edge target_plan_pattern new_vertex_alias (e : Pattern.edge) =
  let p = target_plan_pattern in
  let dst_v = Pattern.vertex p e.Pattern.e_dst and src_v = Pattern.vertex p e.Pattern.e_src in
  let forward = String.equal dst_v.Pattern.v_alias new_vertex_alias in
  let from_v, to_v = if forward then (src_v, dst_v) else (dst_v, src_v) in
  {
    Physical.s_edge = e;
    s_from = from_v.Pattern.v_alias;
    s_to = to_v.Pattern.v_alias;
    s_forward = forward;
    s_to_con = to_v.Pattern.v_con;
    s_to_pred = to_v.Pattern.v_pred;
  }

let rec to_physical spec plan =
  match plan.op with
  | Scan ->
    let v = Pattern.vertex plan.pattern 0 in
    Physical.Scan { alias = v.Pattern.v_alias; con = v.Pattern.v_con; pred = v.Pattern.v_pred }
  | Join { left; right; keys } ->
    Physical.Hash_join
      {
        left = to_physical spec left;
        right = to_physical spec right;
        keys;
        kind = Gopt_gir.Logical.Inner;
      }
  | Expand { sub; new_vertex_alias; edges } ->
    let input = to_physical spec sub in
    compile_expand spec input plan.pattern new_vertex_alias edges

and compile_expand spec input pat new_vertex_alias edges =
  let steps = List.map (step_of_edge pat new_vertex_alias) edges in
  let is_path s = s.Physical.s_edge.Pattern.e_hops <> None in
  match steps with
  | [] -> input
  | [ s ] -> if is_path s then Physical.Path_expand (input, s) else Physical.Expand_all (input, s)
  | s :: rest ->
    if spec.Physical_spec.use_intersect && not (List.exists is_path steps) then
      Physical.Expand_intersect (input, steps)
    else begin
      let first =
        if is_path s then Physical.Path_expand (input, s) else Physical.Expand_all (input, s)
      in
      List.fold_left
        (fun acc s ->
          if is_path s then Physical.Path_expand (acc, s) else Physical.Expand_into (acc, s))
        first rest
    end

let compile_expansion spec input pat ~new_vertex_alias edges =
  compile_expand spec input pat new_vertex_alias edges

let rec plan_order plan =
  match plan.op with
  | Scan -> [ (Pattern.vertex plan.pattern 0).Pattern.v_alias ]
  | Expand { sub; new_vertex_alias; _ } -> plan_order sub @ [ new_vertex_alias ]
  | Join { left; right; _ } -> plan_order left @ plan_order right
