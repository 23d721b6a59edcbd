"""Holistic twig joins (Section 6, [Bruno–Koudas–Srivastava 2002]).

The paper's point: holistic twig joins are a special case of
arc-consistency-based constraint processing.  This package implements
both sides of that connection:

- :class:`~repro.twigjoin.pattern.TwigPattern` — tree patterns with
  ``/`` (Child) and ``//`` (Child+) edges, convertible to CQs,
- :func:`~repro.twigjoin.pathstack.path_stack` — PathStack for path
  patterns (stacks of (pre, post) intervals with parent pointers),
- :func:`~repro.twigjoin.twigstack.twig_stack` — TwigStack with the
  getNext head that only pushes elements with full twig support on
  ``//``-edges (the classic suboptimality on ``/``-edges is preserved
  and measured in experiment E14),
- :func:`~repro.twigjoin.twigstack.holistic_via_arc_consistency` — the
  paper's reading: maximal arc-consistent pre-valuation + pointer-based
  enumeration (Propositions 6.9/6.10),
- :func:`~repro.twigjoin.binaryjoin.binary_join_plan` — the baseline:
  one structural join per pattern edge with materialized intermediates.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".pattern": ["TwigPattern", "parse_twig"],
    ".pathstack": ["path_stack"],
    ".twigstack": ["twig_stack", "holistic_via_arc_consistency"],
    ".binaryjoin": ["binary_join_plan", "JoinPlanStats"],
    ".optimal": ["twig_stack_optimal"],
})
