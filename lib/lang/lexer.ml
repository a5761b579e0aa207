type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Lparen | Rparen
  | Lbracket | Rbracket
  | Lbrace | Rbrace
  | Colon | Semi | Comma | Dot | Dotdot | Pipe | Dollar | Underscore2
  | Dash
  | Arrow_right
  | Arrow_left
  | Eq | Neq | Lt | Leq | Gt | Geq
  | Plus | Star | Slash | Percent
  | Eof

exception Lex_error of string * int

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let toks = Gopt_util.Vec.create () in
  let pos = ref 0 in
  let peek off = if !pos + off < n then Some src.[!pos + off] else None in
  let push t = Gopt_util.Vec.push toks t in
  while !pos < n do
    let c = src.[!pos] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr pos
    else if c = '/' && peek 1 = Some '/' then begin
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done
    end
    else if is_ident_start c then begin
      let start = !pos in
      while !pos < n && is_ident_char src.[!pos] do
        incr pos
      done;
      let word = String.sub src start (!pos - start) in
      if word = "__" then push Underscore2 else push (Ident word)
    end
    else if is_digit c then begin
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do
        incr pos
      done;
      (* a '.' begins a fraction only when followed by a digit (so that
         ranges like 1..3 lex as Int Dotdot Int) *)
      if !pos < n && src.[!pos] = '.' && !pos + 1 < n && is_digit src.[!pos + 1] then begin
        incr pos;
        while !pos < n && is_digit src.[!pos] do
          incr pos
        done;
        push (Float_lit (float_of_string (String.sub src start (!pos - start))))
      end
      else
        match int_of_string_opt (String.sub src start (!pos - start)) with
        | Some n -> push (Int_lit n)
        | None -> raise (Lex_error ("integer literal out of range", start))
    end
    else if c = '\'' || c = '"' then begin
      let quote = c in
      incr pos;
      let buf = Buffer.create 16 in
      let rec consume () =
        if !pos >= n then raise (Lex_error ("unterminated string", !pos));
        let ch = src.[!pos] in
        if ch = quote then incr pos
        else if ch = '\\' && !pos + 1 < n then begin
          let next = src.[!pos + 1] in
          Buffer.add_char buf
            (match next with 'n' -> '\n' | 't' -> '\t' | other -> other);
          pos := !pos + 2;
          consume ()
        end
        else begin
          Buffer.add_char buf ch;
          incr pos;
          consume ()
        end
      in
      consume ();
      push (Str_lit (Buffer.contents buf))
    end
    else begin
      let two = if !pos + 1 < n then String.sub src !pos 2 else "" in
      let advance t k =
        push t;
        pos := !pos + k
      in
      match two with
      | "->" -> advance Arrow_right 2
      | "<-" -> advance Arrow_left 2
      | "<>" -> advance Neq 2
      | "!=" -> advance Neq 2
      | "<=" -> advance Leq 2
      | ">=" -> advance Geq 2
      | ".." -> advance Dotdot 2
      | _ -> (
        match c with
        | '(' -> advance Lparen 1
        | ')' -> advance Rparen 1
        | '[' -> advance Lbracket 1
        | ']' -> advance Rbracket 1
        | '{' -> advance Lbrace 1
        | '}' -> advance Rbrace 1
        | ':' -> advance Colon 1
        | ';' -> advance Semi 1
        | ',' -> advance Comma 1
        | '.' -> advance Dot 1
        | '|' -> advance Pipe 1
        | '$' -> advance Dollar 1
        | '-' -> advance Dash 1
        | '=' -> advance Eq 1
        | '<' -> advance Lt 1
        | '>' -> advance Gt 1
        | '+' -> advance Plus 1
        | '*' -> advance Star 1
        | '/' -> advance Slash 1
        | '%' -> advance Percent 1
        | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, !pos)))
    end
  done;
  push Eof;
  Gopt_util.Vec.to_array toks

let pp_token = function
  | Ident s -> s
  | Int_lit n -> string_of_int n
  | Float_lit f -> string_of_float f
  | Str_lit s -> Printf.sprintf "%S" s
  | Lparen -> "(" | Rparen -> ")"
  | Lbracket -> "[" | Rbracket -> "]"
  | Lbrace -> "{" | Rbrace -> "}"
  | Colon -> ":" | Semi -> ";" | Comma -> "," | Dot -> "." | Dotdot -> ".."
  | Pipe -> "|" | Dollar -> "$" | Underscore2 -> "__"
  | Dash -> "-" | Arrow_right -> "->" | Arrow_left -> "<-"
  | Eq -> "=" | Neq -> "<>" | Lt -> "<" | Leq -> "<=" | Gt -> ">" | Geq -> ">="
  | Plus -> "+" | Star -> "*" | Slash -> "/" | Percent -> "%"
  | Eof -> "<eof>"
