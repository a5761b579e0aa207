type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Int and the equal integral Float must hash identically ([compare] treats
   them as equal). Both canonicalize through the int image of their float
   value: for |n| < 2^53 that is [n] itself, and for larger magnitudes two
   ints with the same float image collapse to the same hash — exactly the
   agreement [compare] requires. Unlike the previous [(tag, float)] tuple
   round-trip this allocates nothing: the intermediate float never escapes
   a register and [Hashtbl.hash] on an immediate int does not box. *)
let hash = function
  | Null -> 17
  | Bool b -> if b then 31 else 37
  | Int n -> Hashtbl.hash (int_of_float (float_of_int n))
  | Float f -> if Float.is_integer f then Hashtbl.hash (int_of_float f) else Hashtbl.hash f
  | Str s -> Hashtbl.hash s

let pp ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Bool b -> Format.pp_print_bool ppf b
  | Int n -> Format.pp_print_int ppf n
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s

let to_string v = Format.asprintf "%a" pp v

let as_float = function
  | Int n -> Some (float_of_int n)
  | Float f -> Some f
  | Null | Bool _ | Str _ -> None

let as_string = function Str s -> Some s | Null | Bool _ | Int _ | Float _ -> None

let is_null = function Null -> true | Bool _ | Int _ | Float _ | Str _ -> false
