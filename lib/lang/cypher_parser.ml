module L = Lexer
module Value = Gopt_graph.Value
module Expr = Gopt_pattern.Expr
module Logical = Gopt_gir.Logical
open Cypher_ast

exception Parse_error of string

type state = {
  toks : L.token array;
  mutable pos : int;
  params : (string * Value.t list) list;
  defer : bool;
      (* Deferred mode: scalar [$x] parses to [Expr.Param x] instead
         of being substituted from [params]; IN-lists and property maps still
         bind at parse time (they shape the pattern, not a runtime value). *)
}

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let peek st = st.toks.(st.pos)
let peek2 st = if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1) else L.Eof
let advance st = st.pos <- st.pos + 1

let expect st tok what =
  if peek st = tok then advance st
  else fail "expected %s but found %s" what (L.pp_token (peek st))

(* keyword check, case-insensitive *)
let is_kw st kw =
  match peek st with
  | L.Ident s -> String.uppercase_ascii s = kw
  | _ -> false

let eat_kw st kw =
  if is_kw st kw then begin
    advance st;
    true
  end
  else false

let expect_kw st kw = if not (eat_kw st kw) then fail "expected keyword %s" kw

let ident st =
  match peek st with
  | L.Ident s ->
    advance st;
    s
  | t -> fail "expected identifier, found %s" (L.pp_token t)

let param_values st name =
  match List.assoc_opt name st.params with
  | Some vs -> vs
  | None ->
    let supplied =
      match List.map fst st.params with
      | [] -> "none"
      | names -> String.concat ", " (List.map (fun n -> "$" ^ n) names)
    in
    fail "undefined parameter $%s (supplied: %s)" name supplied

(* --- literals and expressions ------------------------------------------- *)

let literal st =
  match peek st with
  | L.Int_lit n ->
    advance st;
    Value.Int n
  | L.Float_lit f ->
    advance st;
    Value.Float f
  | L.Str_lit s ->
    advance st;
    Value.Str s
  | L.Ident s when String.uppercase_ascii s = "TRUE" ->
    advance st;
    Value.Bool true
  | L.Ident s when String.uppercase_ascii s = "FALSE" ->
    advance st;
    Value.Bool false
  | L.Ident s when String.uppercase_ascii s = "NULL" ->
    advance st;
    Value.Null
  | L.Dash -> begin
    advance st;
    match peek st with
    | L.Int_lit n ->
      advance st;
      Value.Int (-n)
    | L.Float_lit f ->
      advance st;
      Value.Float (-.f)
    | t -> fail "expected number after '-', found %s" (L.pp_token t)
  end
  | t -> fail "expected literal, found %s" (L.pp_token t)

let value_list st =
  (* [v1, v2, ...] or $param *)
  match peek st with
  | L.Dollar -> begin
    advance st;
    let name = ident st in
    param_values st name
  end
  | L.Lbracket ->
    advance st;
    let acc = ref [] in
    if peek st <> L.Rbracket then begin
      acc := [ literal st ];
      while peek st = L.Comma do
        advance st;
        acc := literal st :: !acc
      done
    end;
    expect st L.Rbracket "]";
    List.rev !acc
  | t -> fail "expected list or parameter, found %s" (L.pp_token t)

let rec parse_or st =
  let left = parse_and st in
  if is_kw st "OR" then begin
    advance st;
    Expr.Binop (Expr.Or, left, parse_or st)
  end
  else left

and parse_and st =
  let left = parse_not st in
  if is_kw st "AND" then begin
    advance st;
    Expr.Binop (Expr.And, left, parse_and st)
  end
  else left

and parse_not st =
  if is_kw st "NOT" then begin
    advance st;
    Expr.Unop (Expr.Not, parse_not st)
  end
  else parse_comparison st

and parse_comparison st =
  let left = parse_additive st in
  match peek st with
  | L.Eq ->
    advance st;
    Expr.Binop (Expr.Eq, left, parse_additive st)
  | L.Neq ->
    advance st;
    Expr.Binop (Expr.Neq, left, parse_additive st)
  | L.Lt ->
    advance st;
    Expr.Binop (Expr.Lt, left, parse_additive st)
  | L.Leq ->
    advance st;
    Expr.Binop (Expr.Leq, left, parse_additive st)
  | L.Gt ->
    advance st;
    Expr.Binop (Expr.Gt, left, parse_additive st)
  | L.Geq ->
    advance st;
    Expr.Binop (Expr.Geq, left, parse_additive st)
  | L.Ident s when String.uppercase_ascii s = "IN" ->
    advance st;
    Expr.In_list (left, value_list st)
  | L.Ident s when String.uppercase_ascii s = "IS" -> begin
    advance st;
    if eat_kw st "NOT" then begin
      expect_kw st "NULL";
      Expr.Unop (Expr.Is_not_null, left)
    end
    else begin
      expect_kw st "NULL";
      Expr.Unop (Expr.Is_null, left)
    end
  end
  | L.Ident s when String.uppercase_ascii s = "STARTS" ->
    advance st;
    expect_kw st "WITH";
    Expr.Binop (Expr.Starts_with, left, parse_additive st)
  | L.Ident s when String.uppercase_ascii s = "ENDS" ->
    advance st;
    expect_kw st "WITH";
    Expr.Binop (Expr.Ends_with, left, parse_additive st)
  | L.Ident s when String.uppercase_ascii s = "CONTAINS" ->
    advance st;
    Expr.Binop (Expr.Contains, left, parse_additive st)
  | _ -> left

and parse_additive st =
  let left = ref (parse_multiplicative st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | L.Plus ->
      advance st;
      left := Expr.Binop (Expr.Add, !left, parse_multiplicative st)
    | L.Dash ->
      advance st;
      left := Expr.Binop (Expr.Sub, !left, parse_multiplicative st)
    | _ -> continue := false
  done;
  !left

and parse_multiplicative st =
  let left = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | L.Star ->
      advance st;
      left := Expr.Binop (Expr.Mul, !left, parse_unary st)
    | L.Slash ->
      advance st;
      left := Expr.Binop (Expr.Div, !left, parse_unary st)
    | L.Percent ->
      advance st;
      left := Expr.Binop (Expr.Mod, !left, parse_unary st)
    | _ -> continue := false
  done;
  !left

and parse_unary st =
  match peek st with
  | L.Dash ->
    advance st;
    Expr.Unop (Expr.Neg, parse_unary st)
  | _ -> parse_atom st

and parse_atom st =
  match peek st with
  | L.Int_lit _ | L.Float_lit _ | L.Str_lit _ -> Expr.Const (literal st)
  | L.Dollar -> begin
    advance st;
    let name = ident st in
    if st.defer then Expr.Param name
    else
      match param_values st name with
      | [ v ] -> Expr.Const v
      | _ -> fail "multi-value parameter $%s used as a scalar" name
  end
  | L.Lparen ->
    advance st;
    let e = parse_or st in
    expect st L.Rparen ")";
    e
  | L.Ident s -> begin
    let upper = String.uppercase_ascii s in
    if upper = "TRUE" || upper = "FALSE" || upper = "NULL" then Expr.Const (literal st)
    else begin
      advance st;
      match peek st with
      | L.Dot ->
        advance st;
        let key = ident st in
        Expr.Prop (s, key)
      | L.Lparen when String.lowercase_ascii s = "label" || String.lowercase_ascii s = "labels"
        ->
        advance st;
        let tag = ident st in
        expect st L.Rparen ")";
        Expr.Label tag
      | L.Lparen -> fail "unsupported function %s in scalar expression" s
      | _ -> Expr.Var s
    end
  end
  | t -> fail "unexpected token %s in expression" (L.pp_token t)

(* --- patterns ------------------------------------------------------------ *)

let props_map st =
  if peek st <> L.Lbrace then []
  else begin
    advance st;
    let acc = ref [] in
    if peek st <> L.Rbrace then begin
      let rec item () =
        let key = ident st in
        expect st L.Colon ":";
        let v =
          match peek st with
          | L.Dollar ->
            advance st;
            let name = ident st in
            (match param_values st name with
            | [ v ] -> v
            | _ -> fail "multi-value parameter $%s in a property map" name)
          | _ -> literal st
        in
        acc := (key, v) :: !acc;
        if peek st = L.Comma then begin
          advance st;
          item ()
        end
      in
      item ()
    end;
    expect st L.Rbrace "}";
    List.rev !acc
  end

let label_list st =
  if peek st <> L.Colon then []
  else begin
    advance st;
    let acc = ref [ ident st ] in
    while peek st = L.Pipe do
      advance st;
      (* allow optional ':' after '|' as in some Cypher dialects *)
      if peek st = L.Colon then advance st;
      acc := ident st :: !acc
    done;
    List.rev !acc
  end

let node_pattern st =
  expect st L.Lparen "(";
  let name =
    match peek st with
    | L.Ident s when peek2 st = L.Colon || peek2 st = L.Rparen || peek2 st = L.Lbrace ->
      advance st;
      Some s
    | _ -> None
  in
  let labels = label_list st in
  let props = props_map st in
  expect st L.Rparen ")";
  { n_name = name; n_labels = labels; n_props = props }

let hops_spec st =
  (* '*' [n ['..' m]] ; bare '*' means 1..default_max *)
  if peek st <> L.Star then None
  else begin
    advance st;
    match peek st with
    | L.Int_lit lo -> begin
      advance st;
      match peek st with
      | L.Dotdot -> begin
        advance st;
        match peek st with
        | L.Int_lit hi ->
          advance st;
          Some (max 1 lo, hi)
        | t -> fail "expected upper bound after '..', found %s" (L.pp_token t)
      end
      | _ -> Some (lo, lo)
    end
    | _ -> Some (1, 4)
  end

let rel_pattern st =
  (* leading '-' or '<-' already determines one side of the direction *)
  let from_left =
    match peek st with
    | L.Dash ->
      advance st;
      false (* no left arrowhead *)
    | L.Arrow_left ->
      advance st;
      true
    | t -> fail "expected relationship, found %s" (L.pp_token t)
  in
  let name, types, hops, props =
    if peek st = L.Lbracket then begin
      advance st;
      let name =
        match peek st with
        | L.Ident s
          when peek2 st = L.Colon || peek2 st = L.Rbracket || peek2 st = L.Star
               || peek2 st = L.Lbrace ->
          advance st;
          Some s
        | _ -> None
      in
      let types = label_list st in
      let hops = hops_spec st in
      let props = props_map st in
      expect st L.Rbracket "]";
      (name, types, hops, props)
    end
    else (None, [], None, [])
  in
  let to_right =
    match peek st with
    | L.Arrow_right ->
      advance st;
      true
    | L.Dash ->
      advance st;
      false
    | t -> fail "expected '->' or '-', found %s" (L.pp_token t)
  in
  let dir =
    match from_left, to_right with
    | false, true -> R_out
    | true, false -> R_in
    | false, false -> R_both
    | true, true -> fail "relationship cannot point both ways"
  in
  { r_name = name; r_types = types; r_dir = dir; r_hops = hops; r_props = props }

let path_pattern st =
  let head = node_pattern st in
  let tail = ref [] in
  while peek st = L.Dash || peek st = L.Arrow_left do
    let rel = rel_pattern st in
    let node = node_pattern st in
    tail := (rel, node) :: !tail
  done;
  { head; tail = List.rev !tail }

let path_pattern_list st =
  let acc = ref [ path_pattern st ] in
  while peek st = L.Comma do
    advance st;
    acc := path_pattern st :: !acc
  done;
  List.rev !acc

(* --- WHERE: scalar conjuncts and pattern predicates ---------------------- *)

let try_parse st f =
  let saved = st.pos in
  match f st with
  | v -> Some v
  | exception Parse_error _ ->
    st.pos <- saved;
    None

let looks_like_pattern st =
  (* '(' ident? (':' | ')') ... ')' ('-' | '<-') — cheap lookahead *)
  peek st = L.Lparen
  &&
  let saved = st.pos in
  let result =
    match try_parse st node_pattern with
    | Some _ -> peek st = L.Dash || peek st = L.Arrow_left
    | None -> false
  in
  st.pos <- saved;
  result

(* A scalar conjunct: an OR-chain of NOT-level expressions. Top-level ANDs
   must stay unconsumed so that pattern predicates can appear between
   them. *)
let where_scalar st =
  let rec ors left =
    if is_kw st "OR" then begin
      advance st;
      ors (Expr.Binop (Expr.Or, left, parse_not st))
    end
    else left
  in
  ors (parse_not st)

let where_conjunct st =
  if is_kw st "NOT" && (match peek2 st with L.Lparen -> true | _ -> false) then begin
    let saved = st.pos in
    advance st;
    if looks_like_pattern st then Wc_pattern (false, path_pattern_list st)
    else begin
      st.pos <- saved;
      Wc_expr (where_scalar st)
    end
  end
  else if is_kw st "EXISTS" then begin
    advance st;
    let wrapped = peek st = L.Lparen && not (looks_like_pattern st) in
    if wrapped then begin
      expect st L.Lparen "(";
      let pats = path_pattern_list st in
      expect st L.Rparen ")";
      Wc_pattern (true, pats)
    end
    else Wc_pattern (true, path_pattern_list st)
  end
  else if looks_like_pattern st then Wc_pattern (true, path_pattern_list st)
  else Wc_expr (where_scalar st)

let where_clause st =
  let acc = ref [ where_conjunct st ] in
  while is_kw st "AND" do
    advance st;
    acc := where_conjunct st :: !acc
  done;
  List.rev !acc

(* --- projections ---------------------------------------------------------- *)

let agg_fn_of_name name =
  match String.lowercase_ascii name with
  | "count" -> Some Logical.Count
  | "sum" -> Some Logical.Sum
  | "avg" -> Some Logical.Avg
  | "min" -> Some Logical.Min
  | "max" -> Some Logical.Max
  | "collect" -> Some Logical.Collect
  | _ -> None

let proj_item st =
  let item =
    match peek st, peek2 st with
    | L.Ident name, L.Lparen when agg_fn_of_name name <> None -> begin
      let fn = Option.get (agg_fn_of_name name) in
      advance st;
      advance st;
      let distinct = eat_kw st "DISTINCT" in
      if peek st = L.Star then begin
        advance st;
        expect st L.Rparen ")";
        if fn <> Logical.Count then fail "only count(*) is supported";
        Agg (Logical.Count, distinct, None)
      end
      else begin
        let arg = parse_or st in
        expect st L.Rparen ")";
        let fn = if fn = Logical.Count && distinct then Logical.Count_distinct else fn in
        Agg (fn, distinct, Some arg)
      end
    end
    | _ -> Scalar (parse_or st)
  in
  let alias = if eat_kw st "AS" then Some (ident st) else None in
  { item; alias }

let order_items st =
  let one () =
    let e = parse_or st in
    let dir =
      if eat_kw st "DESC" then Logical.Desc
      else begin
        ignore (eat_kw st "ASC");
        Logical.Asc
      end
    in
    (e, dir)
  in
  let acc = ref [ one () ] in
  while peek st = L.Comma do
    advance st;
    acc := one () :: !acc
  done;
  List.rev !acc

let projection st =
  let distinct = eat_kw st "DISTINCT" in
  let items = ref [ proj_item st ] in
  while peek st = L.Comma do
    advance st;
    items := proj_item st :: !items
  done;
  let order_by =
    if eat_kw st "ORDER" then begin
      expect_kw st "BY";
      order_items st
    end
    else []
  in
  let int_after kw =
    if eat_kw st kw then begin
      match peek st with
      | L.Int_lit n ->
        advance st;
        Some n
      | t -> fail "expected integer after %s, found %s" kw (L.pp_token t)
    end
    else None
  in
  let skip = int_after "SKIP" in
  let limit = int_after "LIMIT" in
  let where = if eat_kw st "WHERE" then Some (parse_or st) else None in
  { distinct; items = List.rev !items; order_by; skip; limit; where }

(* --- queries --------------------------------------------------------------- *)

let single_query st =
  let clauses = ref [] in
  let finished = ref false in
  while not !finished do
    if eat_kw st "OPTIONAL" then begin
      expect_kw st "MATCH";
      let paths = path_pattern_list st in
      let where = if eat_kw st "WHERE" then where_clause st else [] in
      clauses := C_match { optional = true; paths; where } :: !clauses
    end
    else if eat_kw st "MATCH" then begin
      let paths = path_pattern_list st in
      let where = if eat_kw st "WHERE" then where_clause st else [] in
      clauses := C_match { optional = false; paths; where } :: !clauses
    end
    else if eat_kw st "UNWIND" then begin
      let e = parse_or st in
      expect_kw st "AS";
      let name = ident st in
      clauses := C_unwind (e, name) :: !clauses
    end
    else if eat_kw st "WITH" then clauses := C_with (projection st) :: !clauses
    else if eat_kw st "RETURN" then begin
      clauses := C_return (projection st) :: !clauses;
      finished := true
    end
    else fail "expected MATCH, UNWIND, WITH or RETURN, found %s" (L.pp_token (peek st))
  done;
  List.rev !clauses

let parse ?(params = []) ?(defer_params = false) src =
  let st = { toks = Lexer.tokenize src; pos = 0; params; defer = defer_params } in
  let parts = ref [ single_query st ] in
  let union_all = ref false in
  while is_kw st "UNION" do
    advance st;
    if eat_kw st "ALL" then union_all := true;
    parts := single_query st :: !parts
  done;
  if peek st = L.Semi then advance st;
  if peek st <> L.Eof then fail "trailing input: %s" (L.pp_token (peek st));
  { parts = List.rev !parts; union_all = !union_all }

let parse_expression src =
  let st = { toks = Lexer.tokenize src; pos = 0; params = []; defer = false } in
  let e = parse_or st in
  if peek st <> L.Eof then fail "trailing input in expression";
  e
