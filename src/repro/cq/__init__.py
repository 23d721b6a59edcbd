"""Conjunctive queries over trees (Section 4 of the paper).

- :class:`~repro.cq.query.ConjunctiveQuery` — k-ary CQs over unary label
  predicates and binary axis relations,
- :mod:`~repro.cq.acyclic` — GYO reduction, acyclicity test, join trees,
- :mod:`~repro.cq.yannakakis` — Yannakakis' algorithm [77]: full reducer
  plus eager-projection joins, O(||A|| · |Q|) for Boolean/unary queries,
- :mod:`~repro.cq.treewidth` — query tree-width (exact for small queries,
  min-fill heuristic beyond) and tree decompositions,
- :mod:`~repro.cq.boundedtw` — the bounded-tree-width evaluation of
  Theorem 4.1: O((|A|^{k+1} + ||A||) · |Q|),
- :mod:`~repro.cq.naive` — exponential backtracking baseline.

``repro.cq.yannakakis`` is the submodule: import the function itself as
``from repro.cq.yannakakis import yannakakis``.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".query": ["ConjunctiveQuery", "parse_cq"],
    ".acyclic": ["is_acyclic", "gyo_reduction", "build_join_tree", "JoinTree"],
    ".yannakakis": ["yannakakis_boolean", "yannakakis_unary"],
    ".treewidth": ["query_treewidth", "tree_decomposition", "is_valid_decomposition"],
    ".boundedtw": ["evaluate_bounded_treewidth"],
    ".naive": ["evaluate_backtracking"],
    ".containment": [
        "contained_by_homomorphism", "decide_containment_sampled", "homomorphism",
        "refute_containment",
    ],
})
