type t =
  | Basic of int
  | Union of int list
  | All

let of_list ~universe ts =
  let ts = List.sort_uniq Int.compare ts in
  match ts with
  | [] -> None
  | [ t ] -> Some (Basic t)
  | _ when List.length ts >= universe -> Some All
  | _ -> Some (Union ts)

let to_list ~universe = function
  | Basic t -> [ t ]
  | Union ts -> ts
  | All -> List.init universe Fun.id

let mem ~universe c x =
  match c with
  | Basic t -> t = x
  | Union ts -> List.mem x ts
  | All -> x >= 0 && x < universe

let inter ~universe a b =
  match a, b with
  | All, c | c, All -> Some c
  | _ ->
    let la = to_list ~universe a and lb = to_list ~universe b in
    of_list ~universe (List.filter (fun x -> List.mem x lb) la)

let subset ~universe a b =
  List.for_all (fun x -> mem ~universe b x) (to_list ~universe a)

let cardinality ~universe = function
  | Basic _ -> 1
  | Union ts -> List.length ts
  | All -> universe

let equal a b =
  match a, b with
  | Basic x, Basic y -> x = y
  | Union x, Union y -> x = y
  | All, All -> true
  | (Basic _ | Union _ | All), _ -> false

let compare a b =
  let tag = function Basic _ -> 0 | Union _ -> 1 | All -> 2 in
  match a, b with
  | Basic x, Basic y -> Int.compare x y
  | Union x, Union y -> List.compare Int.compare x y
  | All, All -> 0
  | _ -> Int.compare (tag a) (tag b)

let pp ~names ppf = function
  | Basic t -> Format.pp_print_string ppf (names t)
  | Union ts ->
    Format.pp_print_string ppf (String.concat "|" (List.map names ts))
  | All -> Format.pp_print_char ppf '*'

let fingerprint = function
  | Basic t -> "b" ^ string_of_int t
  | Union ts -> "u" ^ String.concat "," (List.map string_of_int ts)
  | All -> "a"
