(** Recursive-descent parser for the Cypher subset.

    [$name] parameters are substituted at parse time from [params]: a
    single-value parameter becomes a constant, a multi-value parameter is
    only legal as the right-hand side of [IN]. An undefined [$name] raises
    {!Parse_error} naming the missing parameter and the supplied set.

    With [defer_params] (cached parameterized plans), scalar [$name] parses to
    {!Gopt_pattern.Expr.Param} — a placeholder carried through the whole
    optimization pipeline and bound at execution — while [IN]-list and
    property-map parameters still substitute at parse time from [params]
    (they shape the pattern itself, not a runtime scalar). *)

exception Parse_error of string

val parse :
  ?params:(string * Gopt_graph.Value.t list) list ->
  ?defer_params:bool ->
  string ->
  Cypher_ast.query
(** Raises {!Parse_error} (or {!Lexer.Lex_error}) on malformed input. *)

val parse_expression : string -> Gopt_pattern.Expr.t
(** Parse a standalone scalar expression (test/tooling helper). *)
