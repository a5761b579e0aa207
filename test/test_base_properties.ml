(* Property-based tests for the foundation layers: type-constraint algebra,
   expression rewrites, canonical codes, and container/RNG invariants. *)

module Tc = Gopt_pattern.Type_constraint
module Expr = Gopt_pattern.Expr
module Pattern = Gopt_pattern.Pattern
module Canonical = Gopt_pattern.Canonical
module Value = Gopt_graph.Value
module Vec = Gopt_util.Vec
module Prng = Gopt_util.Prng
open Fixtures

let universe = 6

let gen_tc rng =
  match Prng.int rng 4 with
  | 0 -> Tc.All
  | 1 -> Tc.Basic (Prng.int rng universe)
  | _ -> (
    let k = 1 + Prng.int rng 4 in
    match Tc.of_list ~universe (List.init k (fun _ -> Prng.int rng universe)) with
    | Some c -> c
    | None -> Tc.All)

let prop_tc_inter_commutative =
  QCheck.Test.make ~name:"tc: inter commutative" ~count:300 QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let a = gen_tc rng and b = gen_tc rng in
      Option.equal Tc.equal (Tc.inter ~universe a b) (Tc.inter ~universe b a))

let prop_tc_inter_is_set_intersection =
  QCheck.Test.make ~name:"tc: inter = set intersection" ~count:300 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let a = gen_tc rng and b = gen_tc rng in
      let expected t =
        Tc.mem ~universe a t && Tc.mem ~universe b t
      in
      match Tc.inter ~universe a b with
      | Some c -> List.for_all (fun t -> Tc.mem ~universe c t = expected t) (List.init universe Fun.id)
      | None -> List.for_all (fun t -> not (expected t)) (List.init universe Fun.id))

let prop_tc_subset_antisymmetric =
  QCheck.Test.make ~name:"tc: subset antisymmetry" ~count:300 QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let a = gen_tc rng and b = gen_tc rng in
      if Tc.subset ~universe a b && Tc.subset ~universe b a then
        List.for_all
          (fun t -> Tc.mem ~universe a t = Tc.mem ~universe b t)
          (List.init universe Fun.id)
      else true)

let prop_tc_normalization =
  QCheck.Test.make ~name:"tc: of_list normalizes" ~count:300 QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let k = Prng.int rng 8 in
      let l = List.init k (fun _ -> Prng.int rng universe) in
      match Tc.of_list ~universe l with
      | None -> l = []
      | Some (Tc.Basic t) -> List.sort_uniq Int.compare l = [ t ]
      | Some (Tc.Union ts) ->
        ts = List.sort_uniq Int.compare l && List.length ts >= 2 && List.length ts < universe
      | Some Tc.All -> List.length (List.sort_uniq Int.compare l) = universe)

(* --- expressions --------------------------------------------------------- *)

let gen_expr rng =
  let rec go depth =
    if depth = 0 then
      match Prng.int rng 3 with
      | 0 -> Expr.Const (Value.Int (Prng.int rng 10))
      | 1 -> Expr.Var (Printf.sprintf "v%d" (Prng.int rng 3))
      | _ -> Expr.Prop (Printf.sprintf "v%d" (Prng.int rng 3), "age")
    else
      match Prng.int rng 4 with
      | 0 -> Expr.Binop (Expr.And, go (depth - 1), go (depth - 1))
      | 1 -> Expr.Binop (Expr.Add, go (depth - 1), go (depth - 1))
      | 2 -> Expr.Unop (Expr.Not, go (depth - 1))
      | _ -> Expr.In_list (go (depth - 1), [ Value.Int 1; Value.Int 2 ])
  in
  go (1 + Prng.int rng 3)

let prop_expr_conj_roundtrip =
  QCheck.Test.make ~name:"expr: conj (conjuncts e) = e (semantically)" ~count:200
    QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let e = gen_expr rng in
      match Expr.conj (Expr.conjuncts e) with
      | Some e' ->
        (* same set of conjuncts after re-splitting *)
        List.sort compare (List.map Expr.to_string (Expr.conjuncts e'))
        = List.sort compare (List.map Expr.to_string (Expr.conjuncts e))
      | None -> false)

let prop_expr_rename_involution =
  QCheck.Test.make ~name:"expr: renaming twice composes" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let e = gen_expr rng in
      let f t = t ^ "!" in
      let g t = "?" ^ t in
      Expr.equal
        (Expr.rename_tags g (Expr.rename_tags f e))
        (Expr.rename_tags (fun t -> g (f t)) e))

let prop_expr_const_fold_idempotent =
  QCheck.Test.make ~name:"expr: const_fold idempotent" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let e = gen_expr rng in
      let once = Expr.const_fold e in
      Expr.equal once (Expr.const_fold once))

let prop_expr_free_tags_stable_under_fold =
  QCheck.Test.make ~name:"expr: const_fold never adds tags" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let e = gen_expr rng in
      let before = Expr.free_tags e and after = Expr.free_tags (Expr.const_fold e) in
      List.for_all (fun t -> List.mem t before) after)

(* --- canonical codes ------------------------------------------------------- *)

let prop_keyed_code_injective_on_structure =
  QCheck.Test.make ~name:"canonical: different types give different keyed codes" ~count:200
    QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let t1 = Prng.int rng 3 and t2 = Prng.int rng 3 in
      let mk t =
        Pattern.create
          [| pv "a" (Tc.Basic t); pv "b" Tc.All |]
          [| pe "e" 0 1 Tc.All |]
      in
      (Canonical.keyed_code (mk t1) = Canonical.keyed_code (mk t2)) = (t1 = t2))

let prop_iso_code_detects_direction =
  QCheck.Test.make ~name:"canonical: direction changes iso code" ~count:100 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      ignore (Prng.int rng 2);
      let fwd =
        Pattern.create
          [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic city) |]
          [| pe "e" 0 1 (Tc.Basic lives_in) |]
      in
      let bwd =
        Pattern.create
          [| pv "a" (Tc.Basic person); pv "b" (Tc.Basic city) |]
          [| pe "e" 1 0 (Tc.Basic lives_in) |]
      in
      not (Canonical.iso_equal fwd bwd))

(* --- batches and chunking ---------------------------------------------------- *)

module Batch = Gopt_exec.Batch
module Rval = Gopt_exec.Rval
module Physical = Gopt_opt.Physical
module Engine = Gopt_exec.Engine

let rows_of b =
  let rows = ref [] in
  Batch.iter (fun row -> rows := Array.to_list row :: !rows) b;
  List.rev !rows

(* morsel-style splitting: chopping a batch into [sub] slices of any
   granularity and re-[concat]ing them is the identity (the parallel
   engine's partition step relies on exactly this) *)
let prop_batch_sub_concat_identity =
  QCheck.Test.make ~name:"batch: sub/concat roundtrip identity" ~count:300
    QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let fields = List.init (1 + Prng.int rng 4) (Printf.sprintf "f%d") in
      let b = Batch.create fields in
      let n = Prng.int rng 60 in
      for _ = 1 to n do
        Batch.add b
          (Array.of_list
             (List.map (fun _ -> Rval.Rval (Value.Int (Prng.int rng 100))) fields))
      done;
      let m = 1 + Prng.int rng 8 in
      let rec slices pos acc =
        if pos >= n then List.rev acc
        else
          let len = min m (n - pos) in
          slices (pos + len) (Batch.sub b ~pos ~len :: acc)
      in
      let back = Batch.concat fields (slices 0 []) in
      Batch.fields back = fields && rows_of back = rows_of b)

let prop_batch_pos_agree =
  QCheck.Test.make ~name:"batch: pos and pos_opt agree" ~count:300 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let fields = List.init (1 + Prng.int rng 5) (Printf.sprintf "f%d") in
      let b = Batch.create fields in
      List.for_all (fun f -> Batch.pos_opt b f = Some (Batch.pos b f)) fields
      && Batch.pos_opt b "absent" = None
      && (not (Batch.has_field b "absent"))
      && (match Batch.pos b "absent" with
         | exception Invalid_argument _ -> true
         | _ -> false))

(* a random mixed-column batch: vertex ids, scalars and nulls interleaved so
   adaptive columns promote from dense int arrays to boxed storage mid-build *)
let gen_mixed_batch rng fields =
  let b = Batch.create fields in
  let n = Prng.int rng 40 in
  for _ = 1 to n do
    Batch.add b
      (Array.of_list
         (List.map
            (fun _ ->
              match Prng.int rng 4 with
              | 0 -> Rval.Rvertex (Prng.int rng 8)
              | 1 -> Rval.Rval (Value.Int (Prng.int rng 100))
              | 2 -> Rval.Rval (Value.Str (Printf.sprintf "s%d" (Prng.int rng 5)))
              | _ -> Rval.Rnull)
            fields))
  done;
  b

(* [select] is a row-order-preserving gather (duplicates allowed), [project]
   a column permutation, and both compose with existing selection vectors;
   views refuse [add] *)
let prop_batch_select_project =
  QCheck.Test.make ~name:"batch: select/project views = row model" ~count:300
    QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let fields = List.init (1 + Prng.int rng 4) (Printf.sprintf "f%d") in
      let b = gen_mixed_batch rng fields in
      let n = Batch.n_rows b in
      if n = 0 then true
      else begin
        let idxs = Array.init (Prng.int rng (2 * n)) (fun _ -> Prng.int rng n) in
        let sel = Batch.select b idxs in
        let sel_ok =
          rows_of sel = List.map (fun i -> Array.to_list (Batch.row b i)) (Array.to_list idxs)
        in
        (* gather again on the view: selection vectors must compose *)
        let m = Batch.n_rows sel in
        let idxs2 = Array.init (min m 7) (fun k -> (k * 3) mod m) in
        let sel2 = Batch.select sel (Array.copy idxs2) in
        let sel2_ok =
          m = 0
          || rows_of sel2
             = List.map (fun i -> Array.to_list (Batch.row sel i)) (Array.to_list idxs2)
        in
        let perm = List.mapi (fun k f -> (List.length fields - 1 - k, f ^ "'")) fields in
        let proj = Batch.project b perm in
        let proj_ok =
          Batch.fields proj = List.map snd perm
          && rows_of proj
             = List.map
                 (fun row -> List.map (fun (j, _) -> List.nth row j) perm)
                 (rows_of b)
        in
        let view_refuses_add =
          match Batch.add proj (Array.make (List.length fields) Rval.Rnull) with
          | exception Invalid_argument _ -> true
          | () -> false
        in
        sel_ok && sel2_ok && proj_ok && view_refuses_add
      end)

(* vectorized kernels agree with the row interpreter on every predicate
   shape — specialized column loops, AND-composition, and the row fallback
   alike — including on selection-vector views and sparse candidate sets *)
module Eval = Gopt_exec.Eval
module G = Gopt_graph.Property_graph

let gen_pred rng =
  let cmp_ops = [| Expr.Eq; Expr.Neq; Expr.Lt; Expr.Leq; Expr.Gt; Expr.Geq |] in
  let leaf () =
    let tag = if Prng.int rng 5 = 0 then "z" else "a" in
    let key = if Prng.int rng 4 = 0 then "name" else "age" in
    let prop = Expr.Prop (tag, key) in
    match Prng.int rng 7 with
    | 0 -> Expr.Unop (Expr.Is_null, prop)
    | 1 -> Expr.Unop (Expr.Is_not_null, prop)
    | 2 ->
      Expr.In_list (prop, [ Value.Int (20 + Prng.int rng 4); Value.Str "p1" ])
    | 3 ->
      (* const on the left: the kernel must flip the comparison *)
      Expr.Binop
        (cmp_ops.(Prng.int rng 6), Expr.Const (Value.Int (20 + Prng.int rng 5)), prop)
    | 4 -> Expr.Label (if Prng.int rng 2 = 0 then "Person" else "City")
    | _ ->
      let c =
        match Prng.int rng 5 with
        | 0 -> Value.Null
        | 1 -> Value.Str "p2"
        | _ -> Value.Int (20 + Prng.int rng 5)
      in
      Expr.Binop (cmp_ops.(Prng.int rng 6), prop, Expr.Const c)
  in
  let rec go depth =
    if depth = 0 then leaf ()
    else
      match Prng.int rng 4 with
      | 0 | 1 -> Expr.Binop (Expr.And, go (depth - 1), go (depth - 1))
      | 2 -> Expr.Binop (Expr.Or, go (depth - 1), go (depth - 1))
      | _ -> Expr.Unop (Expr.Not, go (depth - 1))
  in
  go (Prng.int rng 3)

let prop_kernel_matches_row_filter =
  QCheck.Test.make ~name:"eval: vectorized kernel = row filter" ~count:500
    QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let pred = gen_pred rng in
      let nv = G.n_vertices graph in
      let ids = Array.init nv Fun.id in
      let b = Batch.of_vertex_ids "a" ids ~pos:0 ~len:nv in
      (* half the time, filter a view so the kernel sees a selection vector *)
      let b =
        if Prng.int rng 2 = 0 then Batch.sub b ~pos:(Prng.int rng 3) ~len:(nv - 3)
        else b
      in
      let n = Batch.n_rows b in
      let cand =
        Array.of_list
          (List.filter (fun _ -> Prng.int rng 4 > 0) (List.init n Fun.id))
      in
      let kern = Eval.compile graph ~fields:[ "a" ] pred in
      let got = Array.to_list (Eval.run_kernel kern b cand) in
      let layout = Batch.create [ "a" ] in
      let expect =
        List.filter
          (fun i ->
            Eval.is_true
              (Eval.eval graph (Eval.lookup_of_row layout (Batch.row b i)) pred))
          (Array.to_list cand)
      in
      got = expect)

(* chunk flushing at fuzzed granularities: the pipelined engine must emit
   the same rows at any chunk_size, and never push an empty chunk (the
   engine's sink guard raises Invalid_argument if one ever appears) *)
let prop_chunk_size_fuzz =
  QCheck.Test.make ~name:"engine: fuzzed chunk_size is behaviour-neutral" ~count:150
    QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let cs = 1 + Prng.int rng 9 in
      let scan = Physical.Scan { alias = "a"; con = Tc.Basic person; pred = None } in
      (* union doubles the 4 persons; limit forces mid-chunk cut-offs and
         close-time flushes right at chunk boundaries *)
      let k = Prng.int rng 10 in
      let plan = Physical.Limit (Physical.Union (scan, scan), k) in
      let b, _ = Engine.run ~chunk_size:cs graph plan in
      let bp, _ = Engine.run ~chunk_size:cs ~workers:2 graph plan in
      Batch.n_rows b = min k 8 && Batch.n_rows bp = min k 8)

(* --- containers and RNG ------------------------------------------------------ *)

let prop_vec_behaves_like_list =
  QCheck.Test.make ~name:"vec: push/pop/get model" ~count:200
    QCheck.(small_list small_int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      Vec.length v = List.length xs
      && List.for_all2 (fun i x -> Vec.get v i = x) (List.init (List.length xs) Fun.id) xs
      && Vec.to_list v = xs
      &&
      match Vec.pop v with
      | None -> xs = []
      | Some last -> last = List.nth xs (List.length xs - 1))

let prop_vec_sort =
  QCheck.Test.make ~name:"vec: sort agrees with List.sort" ~count:200
    QCheck.(small_list small_int)
    (fun xs ->
      let v = Vec.of_list xs in
      Vec.sort Int.compare v;
      Vec.to_list v = List.sort Int.compare xs)

let prop_prng_sample_distinct =
  QCheck.Test.make ~name:"prng: sample_distinct is distinct and in range" ~count:200
    QCheck.(pair small_int (pair (int_range 1 50) (int_range 0 60)))
    (fun (seed, (n, k)) ->
      let rng = Prng.create seed in
      let s = Prng.sample_distinct rng ~n ~k in
      List.length s = min k n
      && List.length (List.sort_uniq Int.compare s) = List.length s
      && List.for_all (fun x -> x >= 0 && x < n) s)

let prop_prng_shuffle_permutes =
  QCheck.Test.make ~name:"prng: shuffle is a permutation" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let arr = Array.init 20 Fun.id in
      Prng.shuffle rng arr;
      List.sort Int.compare (Array.to_list arr) = List.init 20 Fun.id)

let () =
  Alcotest.run "base_properties"
    [
      ( "type_constraint",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_tc_inter_commutative;
            prop_tc_inter_is_set_intersection;
            prop_tc_subset_antisymmetric;
            prop_tc_normalization;
          ] );
      ( "expr",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_expr_conj_roundtrip;
            prop_expr_rename_involution;
            prop_expr_const_fold_idempotent;
            prop_expr_free_tags_stable_under_fold;
          ] );
      ( "canonical",
        List.map QCheck_alcotest.to_alcotest
          [ prop_keyed_code_injective_on_structure; prop_iso_code_detects_direction ] );
      ( "batch",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_batch_sub_concat_identity;
            prop_batch_pos_agree;
            prop_batch_select_project;
            prop_kernel_matches_row_filter;
            prop_chunk_size_fuzz;
          ] );
      ( "containers",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_vec_behaves_like_list;
            prop_vec_sort;
            prop_prng_sample_distinct;
            prop_prng_shuffle_permutes;
          ] );
    ]
