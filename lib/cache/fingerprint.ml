(* The AST is pure data (constructors over strings, ints and Value.t), so
   Marshal gives a canonical structural encoding; planner configuration is
   signed by the caller as a string because Planner.config holds cost-model
   closures that must never be serialized. *)
let digest ~config ~epoch (q : Gopt_lang.Cypher_ast.query) =
  let payload =
    String.concat "\x00" [ Marshal.to_string q []; config; string_of_int epoch ]
  in
  Digest.to_hex (Digest.string payload)
