"""Core XPath (the navigational fragment, Section 3 of the paper).

- :mod:`~repro.xpath.ast` — the expression grammar exactly as printed
  (paths, steps, axes and inverses, qualifiers with ∧/∨/¬),
- :mod:`~repro.xpath.parser` — concrete syntax,
- :mod:`~repro.xpath.semantics` — the denotational semantics P1–P4 /
  Q1–Q5, memoized (the dynamic-programming algorithm of [33]),
- :mod:`~repro.xpath.contextset` — the linear-time bottom-up evaluator:
  whole context *sets* are pushed through each step in O(|A|) per
  axis application, giving O(|Q| · ||A||) combined complexity,
- :mod:`~repro.xpath.translate` — Core XPath → monadic datalog (TMNF,
  [29]; negation handled by stratified complement marking) and the
  conjunctive-fragment → CQ bridge,
- :mod:`~repro.xpath.forward` — reverse-axis elimination ("XPath:
  Looking Forward" [62]) and forward-fragment detection for streaming.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".ast": [
        "AxisStep", "Path", "UnionExpr", "LabelTest", "PathQualifier", "AndQual",
        "OrQual", "NotQual", "XPathExpr", "Qualifier",
    ],
    ".parser": ["parse_xpath"],
    ".semantics": ["evaluate_nodeset", "evaluate_query", "qualifier_holds"],
    ".contextset": ["evaluate_query_linear", "apply_axis_to_set"],
    ".translate": ["xpath_to_cq", "xpath_to_datalog", "is_conjunctive"],
    ".forward": ["is_forward", "to_forward"],
    ".to_fo": ["xpath_to_fo2"],
})
