"""Global vs. arc-consistency (Section 6 of the paper).

- :mod:`~repro.consistency.arc` — maximal arc-consistent pre-valuations,
  via the Horn-SAT encoding of Proposition 6.2 and via a direct AC
  worklist algorithm (ablation A1),
- :mod:`~repro.consistency.xproperty` — the X-underbar property
  (Definition 6.3), checkers, and the Proposition 6.6 axis/order table,
- :mod:`~repro.consistency.minval` — minimum valuations (Lemma 6.4) and
  the X-property evaluation algorithm (Theorem 6.5),
- :mod:`~repro.consistency.dichotomy` — the Dichotomy Theorem 6.8
  classifier for axis signatures,
- :mod:`~repro.consistency.enumerate` — backtrack-free enumeration of all
  solutions of acyclic CQs from a pre-valuation (Figure 6, Propositions
  6.9/6.10, with the pointer refinement).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".arc": ["arc_consistency_hornsat", "arc_consistency_worklist", "is_arc_consistent"],
    ".xproperty": ["has_x_property", "axis_has_x_property", "x_property_table", "ORDERS"],
    ".minval": [
        "minimum_valuation", "evaluate_boolean_xproperty", "check_tuple_xproperty",
    ],
    ".dichotomy": ["classify_signature", "tractable_order"],
    ".enumerate": ["enumerate_satisfactions", "solutions_with_pointers", "is_tree_shaped"],
    ".counting": ["count_solutions", "count_answers_per_value"],
    ".abstract": ["ExplicitStructure"],
})
