(* Result checking against the materialized oracle. A request's result is
   reduced to a [digest] right after it returns (untimed); the oracle
   computes the same digest for each distinct (query, binding) after the
   measured pass, through an independent path: parse-time parameter
   substitution, no plan cache, and [Engine.run_materialized].

   Comparison follows the repository's differential suites: same fields and
   row count, and the same bag of rows unless the plan cuts at a possibly
   tied boundary (LIMIT, SKIP, top-k), where the kept rows may legitimately
   differ. Whenever the result is ordered, its ORDER BY key columns must
   also match the oracle's in order. *)

module Batch = Gopt_exec.Batch
module Rval = Gopt_exec.Rval
module Engine = Gopt_exec.Engine
module Physical = Gopt_opt.Physical
module Expr = Gopt_pattern.Expr

type digest = {
  fields : string list;
  rows : int;
  bag : string;  (** MD5 of the sorted rendered rows. *)
  ordered : string array array option;
      (** The rendered rows in result order, kept for small results only;
          every ordered result of the workloads is small. *)
}

let max_ordered_rows = 1000

let digest g b =
  let render v = Format.asprintf "%a" (Rval.pp g) v in
  let rows = ref [] in
  Batch.iter (fun row -> rows := Array.map render row :: !rows) b;
  let in_order = List.rev !rows in
  let bag =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.sort compare (List.map (fun r -> String.concat "|" (Array.to_list r)) in_order))))
  in
  let n = Batch.n_rows b in
  {
    fields = Batch.fields b;
    rows = n;
    bag;
    ordered = (if n <= max_ordered_rows then Some (Array.of_list in_order) else None);
  }

let rec has_tie_cut (p : Physical.t) =
  match p with
  | Physical.Limit _ | Physical.Skip _ -> true
  | Physical.Order (x, _, lim) -> lim <> None || has_tie_cut x
  | Physical.Scan _ | Physical.Common_ref _ | Physical.Empty _ -> false
  | Physical.Expand_all (x, _)
  | Physical.Expand_into (x, _)
  | Physical.Expand_intersect (x, _)
  | Physical.Path_expand (x, _)
  | Physical.Select (x, _)
  | Physical.Project (x, _)
  | Physical.Group (x, _, _)
  | Physical.Unfold (x, _, _)
  | Physical.Dedup (x, _)
  | Physical.All_distinct (x, _) ->
    has_tie_cut x
  | Physical.Hash_join { left; right; _ } | Physical.Union (left, right) ->
    has_tie_cut left || has_tie_cut right
  | Physical.With_common { common; left; right; _ } ->
    has_tie_cut common || has_tie_cut left || has_tie_cut right

(* ORDER BY keys of the outermost sort that are plain output columns. *)
let rec sort_key_columns (p : Physical.t) =
  match p with
  | Physical.Limit (x, _) | Physical.Skip (x, _) | Physical.Project (x, _) -> sort_key_columns x
  | Physical.Order (_, keys, _) ->
    List.filter_map (function Expr.Var v, _ -> Some v | _ -> None) keys
  | _ -> []

(* What the oracle knows about one (query, binding). *)
type expected = { want : digest; tie_cut : bool; keys : string list }

let expected g physical =
  let b, _ = Engine.run_materialized g physical in
  { want = digest g b; tie_cut = has_tie_cut physical; keys = sort_key_columns physical }

(* [None] when [got] matches, otherwise why not. *)
let compare_digest (e : expected) (got : digest) =
  let want = e.want in
  if got.fields <> want.fields then
    Some
      (Printf.sprintf "fields [%s], oracle [%s]" (String.concat "," got.fields)
         (String.concat "," want.fields))
  else if got.rows <> want.rows then
    Some (Printf.sprintf "%d rows, oracle %d" got.rows want.rows)
  else if (not e.tie_cut) && got.bag <> want.bag then Some "different rows than the oracle"
  else
    match (got.ordered, want.ordered) with
    | Some a, Some b ->
      let column rows f =
        match List.find_index (String.equal f) want.fields with
        | Some i -> Array.map (fun r -> r.(i)) rows
        | None -> [||]
      in
      if List.for_all (fun k -> column a k = column b k) e.keys then None
      else Some "ORDER BY key columns differ from the oracle"
    | _ when e.keys = [] -> None
    | _ -> Some (Printf.sprintf "ordered result of %d rows, too large to check its order" got.rows)
