"""Unranked ordered labeled trees — the data model of the paper (Section 2).

This package provides:

- :class:`~repro.trees.node.Node` / :class:`~repro.trees.tree.Tree` — the
  in-memory tree representation with precomputed pre/post/bflr orders,
- :mod:`~repro.trees.axes` — the XPath axis relations (Child, Child+,
  Child*, NextSibling, NextSibling+, NextSibling*, Following, Self and all
  their inverses) with O(1) membership tests via order arithmetic,
- :mod:`~repro.trees.orders` — the three total orders <pre, <post, <bflr,
- :mod:`~repro.trees.xmlio` — a parser/serializer for the XML subset the
  paper's data model captures (element structure only),
- :mod:`~repro.trees.generate` — deterministic random tree generators,
- :class:`~repro.trees.structure.TreeStructure` — the relational-structure
  view (signature of unary label predicates and binary axis relations) that
  logic-based evaluators consume.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".node": ["Node"],
    ".tree": ["Tree"],
    ".axes": [
        "AXES", "FORWARD_AXES", "REVERSE_AXES", "Axis", "axis_holds", "axis_pairs",
        "axis_targets", "inverse_axis",
    ],
    ".orders": ["bflr_order", "post_order", "pre_order"],
    ".xmlio": ["parse_xml", "to_xml"],
    ".generate": [
        "balanced_tree", "flat_tree", "path_tree", "random_tree", "caterpillar_tree",
    ],
    ".structure": ["TreeStructure"],
    ".edit": ["delete_subtree", "insert_leaf", "insert_subtree", "relabel", "splice"],
})
