(** GLogueQuery — cardinality estimation for arbitrary patterns
    (paper §6.3.1).

    Provides the unified [get_freq] interface over a {!Glogue} store:

    - patterns whose motif (up to isomorphism, BasicTypes, within the
      store's [max_k]) is stored are answered exactly;
    - single-edge patterns with arbitrary (Union/All) constraints are
      answered by summing the compatible schema-triple frequencies — the
      UnionType summation of the paper's expand-ratio definition;
    - larger or union-typed patterns are estimated with Eq. 2: repeatedly
      peel a non-cut vertex [v] off the pattern, multiplying the frequency of
      the remainder by expand ratios [sigma] — the first incident edge
      introduces [v] (case 1), subsequent incident edges close cycles onto it
      (case 2);
    - in [High_order] mode, on patterns of more than 3 vertices, the rate at
      which a plain edge [e = (u, v)] extends a match from [u] is conditioned
      on an edge [e' = (w, u)] that the remainder already has:
      [F({e', e}) / F({e'})], a stored wedge over a stored edge, instead of
      the flat [F(e) / F(u)]. Where degrees correlate (on the LDBC
      generator, KNOWS in-degree, HAS_MEMBER and HAS_CREATOR follow one
      person rank) the flat rate underestimates; the maximum over the
      candidate [e'] is taken, as the edge that sees the correlation most.
      A closing edge divides the conditioned rate by [F(v)], as before.
      Patterns of 3 vertices keep the flat rate: their wedge is the pattern
      itself, so conditioning would recurse into the estimate being
      computed (an unanswerable All-typed or large-union 3-vertex pattern
      would never return). Variable-length edges and [Low_order] keep the
      flat rate;
    - disconnected patterns multiply their components' frequencies (the
      independence assumption of Eq. 1);
    - variable-length path edges contribute a product of per-hop ratios with
      unconstrained intermediate vertices;
    - predicates contribute a constant selectivity factor each
      (paper Remark 7.1; default 0.1).

    Estimates are memoized per isomorphism code. *)

type mode = High_order | Low_order

type t

val create :
  ?selectivity:float -> ?mode:mode -> ?histograms:Histograms.t -> Glogue.t -> t
(** [mode] defaults to [High_order]. [Low_order] restricts store lookups to
    single vertices and edges and uses the paper's flat Eq. 2 rates,
    estimating everything else — the baseline of the Fig. 8(d) experiment.
    When [histograms] are supplied, predicate selectivities come from them
    instead of the constant default. *)

val get_freq : t -> Gopt_pattern.Pattern.t -> float
(** Estimated (or exact, when stored) pattern frequency. *)

val glogue : t -> Glogue.t
val schema : t -> Gopt_graph.Schema.t
val mode : t -> mode
val selectivity : t -> float

val cache_size : t -> int
(** Number of memoized estimates (observability for benchmarks). *)
