"""Denotational semantics of Core XPath (rules P1–P4, Q1–Q5 of §3).

:func:`evaluate_nodeset` implements the semantic functions directly,
with memoization on (sub-expression, context node) — which turns the
naive exponential recursion into the polynomial dynamic-programming
algorithm of [Gottlob, Koch & Pichler, TODS 2005].  It is the executable
specification the fast evaluators are tested against.  Each axis
application ticks the active observation with its target count, so
deadlines and visit budgets bound the evaluation.
"""

from __future__ import annotations

from repro.obs.context import current as _obs_current
from repro.trees.axes import Axis, axis_targets
from repro.trees.tree import Tree
from repro.xpath.ast import (
    AndQual,
    AxisStep,
    LabelTest,
    NotQual,
    OrQual,
    Path,
    PathQualifier,
    PositionTest,
    Qualifier,
    UnionExpr,
    XPathExpr,
)

__all__ = ["evaluate_nodeset", "evaluate_query", "qualifier_holds"]


def _axis_sequence(tree: Tree, axis: Axis, context: int) -> list[int]:
    """Axis targets in XPath *axis order*: document order for forward
    axes, reverse document order (proximity order) for reverse axes."""
    targets = list(axis_targets(tree, axis, context))
    if axis is Axis.PRECEDING:
        targets.reverse()  # the other reverse axes already yield nearest-first
    return targets


def _position_ok(test: PositionTest, position: int, size: int) -> bool:
    value = size if test.value == "last" else test.value
    if test.op == "=":
        return position == value
    if test.op == "!=":
        return position != value
    if test.op == "<":
        return position < value
    if test.op == "<=":
        return position <= value
    if test.op == ">":
        return position > value
    return position >= value  # ">="


class _Memo:
    """Per-evaluation memo tables keyed by AST node identity, and the
    observation the evaluation charges."""

    def __init__(self):
        self.nodeset: dict[tuple[int, int], frozenset[int]] = {}
        self.qual: dict[tuple[int, int], bool] = {}
        self.ctx = _obs_current()


def evaluate_nodeset(
    expr: XPathExpr, tree: Tree, context: int, _memo: _Memo | None = None
) -> frozenset[int]:
    """[[p]]_NodeSet(context) — rules P1–P4."""
    memo = _memo or _Memo()
    key = (id(expr), context)
    cached = memo.nodeset.get(key)
    if cached is not None:
        return cached
    if isinstance(expr, AxisStep):
        # (P1) axis application, then (P2) qualifier filtering.  The
        # qualifiers run left to right over the *sequence* in axis order
        # so positional predicates (the full-XPath flavor of [33]) see
        # the correct positions; Core XPath qualifiers are insensitive
        # to the ordering, so this coincides with the paper's P2.
        targets = _axis_sequence(tree, expr.axis, context)
        if memo.ctx is not None:
            memo.ctx.tick(len(targets))
        for q in expr.qualifiers:
            if isinstance(q, PositionTest):
                size = len(targets)
                targets = [
                    v
                    for i, v in enumerate(targets, 1)
                    if _position_ok(q, i, size)
                ]
            else:
                targets = [
                    v for v in targets if qualifier_holds(q, tree, v, memo)
                ]
        result = frozenset(targets)
    elif isinstance(expr, Path):
        # (P3) composition
        result = frozenset(
            v
            for w in evaluate_nodeset(expr.left, tree, context, memo)
            for v in evaluate_nodeset(expr.right, tree, w, memo)
        )
    elif isinstance(expr, UnionExpr):
        # (P4) union
        result = evaluate_nodeset(
            expr.left, tree, context, memo
        ) | evaluate_nodeset(expr.right, tree, context, memo)
    else:  # pragma: no cover - exhaustive
        raise TypeError(f"not an XPath expression: {expr!r}")
    memo.nodeset[key] = result
    return result


def qualifier_holds(
    q: Qualifier, tree: Tree, node: int, _memo: _Memo | None = None
) -> bool:
    """[[q]]_Boolean(node) — rules Q1–Q5."""
    memo = _memo or _Memo()
    key = (id(q), node)
    cached = memo.qual.get(key)
    if cached is not None:
        return cached
    if isinstance(q, LabelTest):  # (Q1)
        result = tree.has_label(node, q.label)
    elif isinstance(q, PathQualifier):  # (Q2)
        result = bool(evaluate_nodeset(q.path, tree, node, memo))
    elif isinstance(q, AndQual):  # (Q3)
        result = qualifier_holds(q.left, tree, node, memo) and qualifier_holds(
            q.right, tree, node, memo
        )
    elif isinstance(q, OrQual):  # (Q4)
        result = qualifier_holds(q.left, tree, node, memo) or qualifier_holds(
            q.right, tree, node, memo
        )
    elif isinstance(q, NotQual):  # (Q5)
        result = not qualifier_holds(q.operand, tree, node, memo)
    else:  # pragma: no cover - exhaustive
        raise TypeError(f"not a qualifier: {q!r}")
    memo.qual[key] = result
    return result


def evaluate_query(expr: XPathExpr, tree: Tree) -> set[int]:
    """The unary Core XPath query [[p]]_NodeSet(root) (Section 3)."""
    return set(evaluate_nodeset(expr, tree, tree.root))
