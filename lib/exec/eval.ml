module G = Gopt_graph.Property_graph
module Value = Gopt_graph.Value
module Expr = Gopt_pattern.Expr

let lookup_of_row batch row tag =
  match Batch.pos_opt batch tag with Some i -> Some row.(i) | None -> None

let num_binop op x y =
  match x, y with
  | Value.Int a, Value.Int b -> begin
    match op with
    | Expr.Add -> Value.Int (a + b)
    | Expr.Sub -> Value.Int (a - b)
    | Expr.Mul -> Value.Int (a * b)
    | Expr.Div -> if b = 0 then Value.Null else Value.Int (a / b)
    | Expr.Mod -> if b = 0 then Value.Null else Value.Int (a mod b)
    | _ -> Value.Null
  end
  | _ -> begin
    match Value.as_float x, Value.as_float y with
    | Some a, Some b -> begin
      match op with
      | Expr.Add -> Value.Float (a +. b)
      | Expr.Sub -> Value.Float (a -. b)
      | Expr.Mul -> Value.Float (a *. b)
      | Expr.Div -> if b = 0.0 then Value.Null else Value.Float (a /. b)
      | _ -> Value.Null
    end
    | _ -> Value.Null
  end

(* Allocation-free substring scan: the naive [String.sub]-per-candidate
   version allocated a fresh string at every position (quadratic garbage on
   long haystacks). The empty needle is contained in everything, matching
   the SQL/openCypher convention. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  if n = 0 then true
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i + n <= m do
      let j = ref 0 in
      while !j < n && String.unsafe_get s (!i + !j) = String.unsafe_get sub !j do
        incr j
      done;
      if !j = n then found := true else incr i
    done;
    !found
  end

let string_binop op x y =
  match Value.as_string x, Value.as_string y with
  | Some a, Some b ->
    Value.Bool
      (match op with
      | Expr.Starts_with -> String.starts_with ~prefix:b a
      | Expr.Ends_with -> String.ends_with ~suffix:b a
      | Expr.Contains -> contains ~sub:b a
      | _ -> false)
  | _ -> Value.Null

let logic_and a b =
  match a, b with
  | Value.Bool false, _ | _, Value.Bool false -> Value.Bool false
  | Value.Bool true, Value.Bool true -> Value.Bool true
  | _ -> Value.Null

let logic_or a b =
  match a, b with
  | Value.Bool true, _ | _, Value.Bool true -> Value.Bool true
  | Value.Bool false, Value.Bool false -> Value.Bool false
  | _ -> Value.Null

let rec eval_rval g lookup e =
  match e with
  | Expr.Var tag -> ( match lookup tag with Some v -> v | None -> Rval.Rnull)
  | _ -> Rval.Rval (eval g lookup e)

and eval g lookup e =
  match e with
  | Expr.Const v -> v
  | Expr.Param name ->
    (* [$x] placeholders are substituted by [Physical.bind_params] before
       any operator evaluates; reaching one here means the plan was executed
       without its bindings. *)
    invalid_arg
      (Printf.sprintf
         "Eval: unresolved query parameter $%s — bind the plan's parameters with \
          Physical.bind_params, or run the query with Gopt.run_cypher ~params"
         name)
  | Expr.Var tag -> begin
    match lookup tag with Some v -> Rval.to_value g v | None -> Value.Null
  end
  | Expr.Prop (tag, key) -> begin
    match lookup tag with
    | Some (Rval.Rvertex v) -> G.vprop g v key
    | Some (Rval.Redge e) -> G.eprop g e key
    | _ -> Value.Null
  end
  | Expr.Label tag -> begin
    let schema = G.schema g in
    match lookup tag with
    | Some (Rval.Rvertex v) -> Value.Str (Gopt_graph.Schema.vtype_name schema (G.vtype g v))
    | Some (Rval.Redge e) -> Value.Str (Gopt_graph.Schema.etype_name schema (G.etype g e))
    | _ -> Value.Null
  end
  | Expr.Unop (op, inner) -> begin
    let v = eval g lookup inner in
    match op with
    | Expr.Not -> begin
      match v with Value.Bool b -> Value.Bool (not b) | _ -> Value.Null
    end
    | Expr.Neg -> begin
      match v with
      | Value.Int n -> Value.Int (-n)
      | Value.Float f -> Value.Float (-.f)
      | _ -> Value.Null
    end
    | Expr.Is_null -> Value.Bool (Value.is_null v)
    | Expr.Is_not_null -> Value.Bool (not (Value.is_null v))
  end
  | Expr.Binop (op, l, r) -> begin
    match op with
    | Expr.And -> logic_and (eval g lookup l) (eval g lookup r)
    | Expr.Or -> logic_or (eval g lookup l) (eval g lookup r)
    | Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Mod ->
      let x = eval g lookup l and y = eval g lookup r in
      if Value.is_null x || Value.is_null y then Value.Null else num_binop op x y
    | Expr.Eq | Expr.Neq | Expr.Lt | Expr.Leq | Expr.Gt | Expr.Geq ->
      (* graph values compare by identity without scalarization loss *)
      let xv = eval_rval g lookup l and yv = eval_rval g lookup r in
      let x = match xv with Rval.Rval v -> v | other -> Rval.to_value g other in
      let y = match yv with Rval.Rval v -> v | other -> Rval.to_value g other in
      if Value.is_null x || Value.is_null y then Value.Null
      else
        let c = Value.compare x y in
        Value.Bool
          (match op with
          | Expr.Eq -> c = 0
          | Expr.Neq -> c <> 0
          | Expr.Lt -> c < 0
          | Expr.Leq -> c <= 0
          | Expr.Gt -> c > 0
          | Expr.Geq -> c >= 0
          | _ -> false)
    | Expr.Starts_with | Expr.Ends_with | Expr.Contains ->
      let x = eval g lookup l and y = eval g lookup r in
      if Value.is_null x || Value.is_null y then Value.Null else string_binop op x y
  end
  | Expr.In_list (inner, vs) ->
    let v = eval g lookup inner in
    if Value.is_null v then Value.Null else Value.Bool (List.exists (Value.equal v) vs)

let is_true = function Value.Bool true -> true | _ -> false

(* --- vectorized predicate kernels ----------------------------------------- *)

(* A kernel narrows an array of candidate logical row indices to the rows on
   which the expression evaluates to [Bool true] — the selection-vector
   contract of the columnar engine. [compile] specializes the hot shapes
   (top-level AND-chains, [tag.key <op> const] comparisons, null tests,
   IN-lists over properties) into monomorphic loops that read the dense id
   columns directly and hoist the property-column hashtable lookup out of
   the per-row loop; every other shape falls back to the row interpreter
   above, evaluated per candidate row. Kernels are pure readers of the graph
   and the batch, so the parallel engine shares one compiled kernel across
   worker domains. *)

type kernel = { k_run : Batch.t -> int array -> int array; k_vectorized : bool }

let vectorized k = k.k_vectorized
let run_kernel k b cand = k.k_run b cand

(* narrow [cand] with [test : physical_row -> bool] *)
let narrow b cand test =
  let keep = Array.make (Array.length cand) 0 in
  let n = ref 0 in
  let sel = Batch.selection b in
  Array.iter
    (fun i ->
      let p = match sel with Some s -> s.(i) | None -> i in
      if test p then begin
        keep.(!n) <- i;
        incr n
      end)
    cand;
  if !n = Array.length cand then cand else Array.sub keep 0 !n

let fallback g e =
  {
    k_vectorized = false;
    k_run =
      (fun b cand ->
        let keep = Array.make (Array.length cand) 0 in
        let n = ref 0 in
        Array.iter
          (fun i ->
            let lk = Batch.lookup b i in
            if is_true (eval g lk e) then begin
              keep.(!n) <- i;
              incr n
            end)
          cand;
        Array.sub keep 0 !n);
  }

(* the comparison's truth condition as a predicate on [Value.compare] *)
let cmp_test op =
  match op with
  | Expr.Eq -> Some (fun c -> c = 0)
  | Expr.Neq -> Some (fun c -> c <> 0)
  | Expr.Lt -> Some (fun c -> c < 0)
  | Expr.Leq -> Some (fun c -> c <= 0)
  | Expr.Gt -> Some (fun c -> c > 0)
  | Expr.Geq -> Some (fun c -> c >= 0)
  | _ -> None

(* flip the operator for [const <op> prop] rewritten as [prop <op'> const] *)
let flip_op op =
  match op with
  | Expr.Lt -> Expr.Gt
  | Expr.Leq -> Expr.Geq
  | Expr.Gt -> Expr.Lt
  | Expr.Geq -> Expr.Leq
  | other -> other

let compile g ~fields e =
  let layout = Batch.create fields in
  let none_survives = { k_vectorized = true; k_run = (fun _ _ -> [||]) } in
  (* property-fetch kernel: [on_prop] decides survival from the (non-hoisted
     fallback only when the column holds mixed values) property value *)
  let prop_kernel tag key on_prop =
    (* the property of an unbound tag or a non-graph binding is Null; its
       survival verdict is a per-kernel constant *)
    let on_null = on_prop Value.Null in
    let all_or_nothing cand = if on_null then cand else [||] in
    match Batch.pos_opt layout tag with
    | None ->
      Some { k_vectorized = true; k_run = (fun _ cand -> all_or_nothing cand) }
    | Some j ->
      let run b cand =
        match Batch.col b j with
        | Batch.D_vertex ids -> begin
          match G.vprop_column g key with
          | None -> all_or_nothing cand (* property absent on every vertex *)
          | Some pa -> narrow b cand (fun p -> on_prop pa.(ids.(p)))
        end
        | Batch.D_edge ids -> begin
          match G.eprop_column g key with
          | None -> all_or_nothing cand
          | Some pa -> narrow b cand (fun p -> on_prop pa.(ids.(p)))
        end
        | Batch.D_boxed vals ->
          (* promoted/mixed column: resolve the binding per row *)
          narrow b cand (fun p ->
              match vals.(p) with
              | Rval.Rvertex v -> on_prop (G.vprop g v key)
              | Rval.Redge e -> on_prop (G.eprop g e key)
              | _ -> on_null)
      in
      Some { k_vectorized = true; k_run = run }
  in
  let rec build e =
    match specialize e with Some k -> k | None -> fallback g e
  and specialize e =
    match e with
    | Expr.Binop (Expr.And, a, b) ->
      (* Kleene AND is [Bool true] exactly when both sides are, so a
         conjunction narrows sequentially — the surviving set is identical
         to evaluating the whole conjunction per row. *)
      let ka = build a and kb = build b in
      Some
        {
          k_vectorized = ka.k_vectorized || kb.k_vectorized;
          k_run =
            (fun b cand ->
              let s = ka.k_run b cand in
              if Array.length s = 0 then s else kb.k_run b s);
        }
    | Expr.Binop (op, Expr.Prop (tag, key), Expr.Const c)
    | Expr.Binop (op, Expr.Const c, Expr.Prop (tag, key)) -> begin
      let op =
        match e with Expr.Binop (_, Expr.Const _, _) -> flip_op op | _ -> op
      in
      match cmp_test op with
      | None -> None
      | Some test ->
        if Value.is_null c then Some none_survives
        else
          prop_kernel tag key (fun pv ->
              match pv, c with
              (* monomorphic int loop for the hot case *)
              | Value.Int x, Value.Int y -> test (Int.compare x y)
              | Value.Null, _ -> false
              | _ -> test (Value.compare pv c))
    end
    | Expr.Unop (Expr.Is_not_null, Expr.Prop (tag, key)) ->
      prop_kernel tag key (fun pv -> not (Value.is_null pv))
    | Expr.Unop (Expr.Is_null, Expr.Prop (tag, key)) -> begin
      (* [Is_null] is true for unbound tags too: only specialize when the
         tag is bound in this layout (then the binding is a vertex/edge and
         the row path would fetch the property just the same) *)
      match Batch.pos_opt layout tag with
      | None -> None
      | Some _ -> prop_kernel tag key (fun pv -> Value.is_null pv)
    end
    | Expr.In_list (Expr.Prop (tag, key), vs) ->
      prop_kernel tag key (fun pv ->
          (not (Value.is_null pv)) && List.exists (Value.equal pv) vs)
    | _ -> None
  in
  build e

(* --- column evaluation ----------------------------------------------------- *)

(* [column g ~fields e] evaluates [e] over a whole chunk into a fresh
   column, one cell per logical row, each the value [eval_rval] gives. A
   bound variable copies its column (a dense id column stays dense); a
   property of a bound tag reads the graph's property column through the
   dense ids in one loop; any other expression runs through the row
   interpreter. An absent property is [Rval Null]. *)
let column g ~fields e =
  let layout = Batch.create fields in
  let null = Rval.Rval Value.Null in
  let cells chunk f =
    let sel = Batch.selection chunk in
    Batch.D_boxed
      (Array.init (Batch.n_rows chunk) (fun i -> f i (match sel with Some s -> s.(i) | None -> i)))
  in
  let boxed (col : Value.t array option) x =
    match col with
    | None -> null
    | Some col -> ( match col.(x) with Value.Null -> null | v -> Rval.Rval v)
  in
  match e with
  | Expr.Var tag -> (
    match Batch.pos_opt layout tag with
    | Some j -> fun chunk -> Batch.compact chunk j
    | None -> fun chunk -> Batch.D_boxed (Array.make (Batch.n_rows chunk) Rval.Rnull))
  | Expr.Prop (tag, key) -> (
    match Batch.pos_opt layout tag with
    | None -> fun chunk -> Batch.D_boxed (Array.make (Batch.n_rows chunk) null)
    | Some j -> (
      fun chunk ->
        match Batch.col chunk j with
        | Batch.D_vertex ids ->
          let col = G.vprop_column g key in
          cells chunk (fun _ p -> boxed col ids.(p))
        | Batch.D_edge ids ->
          let col = G.eprop_column g key in
          cells chunk (fun _ p -> boxed col ids.(p))
        | Batch.D_boxed vals ->
          cells chunk (fun _ p ->
              match vals.(p) with
              | Rval.Rvertex v -> boxed (G.vprop_column g key) v
              | Rval.Redge x -> boxed (G.eprop_column g key) x
              | _ -> null)))
  | e -> fun chunk -> cells chunk (fun i _ -> eval_rval g (Batch.lookup chunk i) e)
