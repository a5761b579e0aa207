(** LDBC SNB-like social network: schema and deterministic generator.

    Stands in for the paper's LDBC datasets G30..G1000 (Table 3): the same
    entity/relationship structure (Person/City/Country/University/Company/
    Forum/Post/Comment/Tag/TagClass with KNOWS, IS_LOCATED_IN, HAS_CREATOR,
    REPLY_OF, LIKES, HAS_TAG, ...) with Zipf-skewed degrees, at laptop
    scale. Generation is fully deterministic from the seed.

    Every vertex carries an integer [id] unique within its type; Persons
    carry [firstName]/[lastName]/[gender]/[birthday]/[creationDate]/
    [browserUsed]; messages carry [creationDate]/[length]/[content]; places
    and tags carry [name]. *)

val schema : Gopt_graph.Schema.t

val generate : ?seed:int -> persons:int -> unit -> Gopt_graph.Property_graph.t
(** Roughly [8 x persons] vertices and [55 x persons] edges. *)

val scale_ladder : (string * int) list
(** The four scale factors of the data-scale experiments (paper Fig. 10),
    standing in for G30, G100, G300, G1000. *)

