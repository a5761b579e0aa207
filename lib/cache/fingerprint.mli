(** Canonical cache keys for optimized queries.

    A fingerprint identifies everything that determines the optimizer's
    output for a query: the parsed AST (so formatting and whitespace never
    matter), a signature of the planner configuration (rule set, backend
    spec, CBO options, inference schema), and the session's {e stats epoch}
    — a counter bumped whenever the graph schema or GLogue statistics
    change, so stale plans can never be served after the cost model moved.

    Scalar [$x] parameters parsed in deferred mode stay [Expr.Param]
    placeholders in the AST, so queries differing only in their bindings
    share one key; literals are part of the key. *)

val digest : config:string -> epoch:int -> Gopt_lang.Cypher_ast.query -> string
(** Hex digest over the AST's structure, the planner-configuration
    signature [config], and the stats [epoch]. Equal digests mean the
    optimizer would produce the same plan. *)
