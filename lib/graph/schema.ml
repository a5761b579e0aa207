type prop_kind = P_bool | P_int | P_float | P_string

type t = {
  vtype_names : string array;
  etype_names : string array;
  vtype_ids : (string, int) Hashtbl.t;
  etype_ids : (string, int) Hashtbl.t;
  vprop_decls : (string * prop_kind) list array;
  eprop_decls : (string * prop_kind) list array;
  triples : (int * int * int) array;
  triple_set : (int * int * int, unit) Hashtbl.t;
  out_adj : (int * int) list array; (* vtype -> (etype, dst vtype) *)
  in_adj : (int * int) list array; (* vtype -> (etype, src vtype) *)
}

let index_names kind names =
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun i name ->
      if Hashtbl.mem tbl name then
        invalid_arg (Printf.sprintf "Schema.create: duplicate %s type %S" kind name);
      Hashtbl.add tbl name i)
    names;
  tbl

let create ~vtypes ~etypes ~triples =
  let vtype_names = Array.of_list (List.map fst vtypes) in
  let etype_names = Array.of_list (List.map fst etypes) in
  let vtype_ids = index_names "vertex" (Array.to_list vtype_names) in
  let etype_ids = index_names "edge" (Array.to_list etype_names) in
  let lookup tbl kind name =
    match Hashtbl.find_opt tbl name with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Schema.create: unknown %s type %S" kind name)
  in
  let triples =
    Array.of_list
      (List.map
         (fun (s, e, d) ->
           (lookup vtype_ids "vertex" s, lookup etype_ids "edge" e, lookup vtype_ids "vertex" d))
         triples)
  in
  let nv = Array.length vtype_names in
  let out_adj = Array.make nv [] and in_adj = Array.make nv [] in
  let triple_set = Hashtbl.create (Array.length triples * 2) in
  Array.iter
    (fun (s, e, d) ->
      if not (Hashtbl.mem triple_set (s, e, d)) then begin
        Hashtbl.add triple_set (s, e, d) ();
        out_adj.(s) <- (e, d) :: out_adj.(s);
        in_adj.(d) <- (e, s) :: in_adj.(d)
      end)
    triples;
  {
    vtype_names;
    etype_names;
    vtype_ids;
    etype_ids;
    vprop_decls = Array.of_list (List.map snd vtypes);
    eprop_decls = Array.of_list (List.map snd etypes);
    triples;
    triple_set;
    out_adj;
    in_adj;
  }

let n_vtypes t = Array.length t.vtype_names
let n_etypes t = Array.length t.etype_names
let vtype_id t name = match Hashtbl.find_opt t.vtype_ids name with
  | Some i -> i
  | None -> raise Not_found
let etype_id t name = match Hashtbl.find_opt t.etype_ids name with
  | Some i -> i
  | None -> raise Not_found
let find_vtype t name = Hashtbl.find_opt t.vtype_ids name
let find_etype t name = Hashtbl.find_opt t.etype_ids name
let vtype_name t i = t.vtype_names.(i)
let etype_name t i = t.etype_names.(i)
let all_vtypes t = List.init (n_vtypes t) Fun.id
let all_etypes t = List.init (n_etypes t) Fun.id
let triples t = t.triples
let triple_allowed t ~src ~etype ~dst = Hashtbl.mem t.triple_set (src, etype, dst)
let out_schema t vt = t.out_adj.(vt)
let in_schema t vt = t.in_adj.(vt)
let vprops t vt = t.vprop_decls.(vt)
let eprops t et = t.eprop_decls.(et)

let pp ppf t =
  Format.fprintf ppf "@[<v>vertex types: %s@,edge types: %s@,triples:@,"
    (String.concat ", " (Array.to_list t.vtype_names))
    (String.concat ", " (Array.to_list t.etype_names));
  Array.iter
    (fun (s, e, d) ->
      Format.fprintf ppf "  (%s)-[%s]->(%s)@," t.vtype_names.(s) t.etype_names.(e)
        t.vtype_names.(d))
    t.triples;
  Format.fprintf ppf "@]"
