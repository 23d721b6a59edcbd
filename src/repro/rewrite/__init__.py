"""Query rewriting (Section 5): conjunctive queries over trees into
unions of acyclic positive queries.

- :mod:`~repro.rewrite.table1` — the satisfiability matrix of Table 1
  for atom pairs R(x, z) ∧ S(y, z) ∧ x <pre y, plus the replacement rule,
- :mod:`~repro.rewrite.theorem51` — the rewriting algorithm of the proof
  of Theorem 5.1 (eager over all weak orders of the variables) and the
  lazy branching variant of [Gottlob, Koch & Schulz, JACM 2006],
- :func:`~repro.rewrite.theorem51.evaluate_via_rewriting` — Corollary
  5.2: evaluate positive queries by rewriting + Yannakakis.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".table1": ["TABLE_1", "axis_pair_satisfiable", "replacement_axis"],
    ".theorem51": [
        "rewrite_to_acyclic_union", "rewrite_lazy", "evaluate_via_rewriting",
        "RewriteStats",
    ],
})
