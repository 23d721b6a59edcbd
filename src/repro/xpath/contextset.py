"""The linear-time Core XPath evaluator ("context sets at once").

The key idea behind the O(|Q| · ||A||) combined complexity of Core XPath
([Gottlob, Koch & Pichler]; §4 of the paper reaches the same bound via
FO² and via TMNF): never evaluate a step per context node.  Instead:

- every qualifier denotes a context-independent *satisfaction set*,
  computed bottom-up with set operations (negation is complementation —
  the feature datalog lacks but sets give for free),
- a path qualifier ``p`` is satisfied by the nodes from which ``p``
  reaches at least one node: the *reverse image* of the full domain,
  computed by applying inverted axes to whole sets,
- the top-level query pushes {root} *forward* through the steps.

:func:`apply_axis_to_set` applies one axis to an entire node set in
O(|A|) time (amortized, using the pre/post interval arithmetic of §2) —
that single primitive is what makes the whole evaluator linear.  It
counts the set image :func:`~repro.trees.axes.axis_image`, which the
semi-join dispatcher of :mod:`repro.storage.structural_join`, shared by
the acyclic CQ evaluator and the twig streams, uses for the axes its
interval kernels do not cover.

The sets stay as small as the query allows.  A label test's set is its
label partition, so ``[Child[lab() = L]]`` is the parent gather of L's
posting list.  A ``Child``/``Child+``/``Child*`` step with a positive
qualifier does not expand its axis: it starts from the intersection of
its qualifier sets, smallest first, and keeps the candidates below a
source with one call to that dispatcher,
:func:`~repro.storage.structural_join.axis_semijoin`.  A ``not(q)`` in a
step's qualifier list is subtracted from the step's candidates.  So the full
domain is built only where a query needs every node: a ``not`` nested
inside a qualifier, or a qualifier path whose last step has no positive
qualifier, such as ``[Child]``.

A seeded step hands its sorted semi-join output to the next step as it
is, and a lone label test's candidates are its posting array, so a
label path boxes no id into a set.  Sets are built and sorted only
where qualifier sets are combined or an axis was expanded, and an empty
frontier ends the path.
"""

from __future__ import annotations

from functools import cached_property
from typing import Collection

from repro.obs.context import current as _obs_current
from repro.storage.structural_join import axis_semijoin
from repro.trees.axes import Axis, axis_image, inverse_axis
from repro.trees.tree import Tree
from repro.errors import QueryError
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

__all__ = ["apply_axis_to_set", "evaluate_query_linear", "reverse_image"]


def apply_axis_to_set(
    tree: Tree, axis: "str | Axis", nodes: Collection[int]
) -> set[int]:
    """{ v : ∃u ∈ nodes, axis(u, v) } in O(||A||) amortized time: the set
    image, counted as one of the evaluator's axis applications."""
    ctx = _obs_current()
    if ctx is None:
        return axis_image(tree, axis, nodes)
    # the axis application is the evaluator's unit of work: charge the
    # input frontier before the scan, the produced set after it
    ctx.count("linear.axis_applications")
    ctx.tick(len(nodes))
    result = axis_image(tree, axis, nodes)
    ctx.tick(len(result))
    return result


class _LinearEvaluator:
    """Bottom-up evaluation with per-AST-node memoized qualifier sets."""

    def __init__(self, tree: Tree):
        self.tree = tree
        self._qual_sets: dict[int, set[int]] = {}

    @cached_property
    def domain(self) -> set[int]:
        """Every node of the tree, built on first use only."""
        return set(range(self.tree.n))

    # -- qualifiers: context-independent satisfaction sets --------------------

    def qualifier_set(self, q: Qualifier) -> set[int]:
        key = id(q)
        cached = self._qual_sets.get(key)
        if cached is not None:
            return cached
        if isinstance(q, LabelTest):
            result = set(self.tree.nodes_with_label(q.label))
        elif isinstance(q, PathQualifier):
            result = self.reverse_image(q.path, None)
        elif isinstance(q, AndQual):
            result = self.qualifier_set(q.left) & self.qualifier_set(q.right)
        elif isinstance(q, OrQual):
            result = self.qualifier_set(q.left) | self.qualifier_set(q.right)
        elif isinstance(q, NotQual):
            result = self.domain - self.qualifier_set(q.operand)
        elif isinstance(q, PositionTest):
            raise QueryError(
                "the linear context-set evaluator covers Core XPath only; "
                "position() needs the denotational evaluator ([33])"
            )
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"not a qualifier: {q!r}")
        self._qual_sets[key] = result
        return result

    def _satisfying(
        self, qualifiers: "tuple[Qualifier, ...]", nodes: "set[int] | None"
    ) -> set[int]:
        """The nodes of ``nodes`` (all nodes when None) that satisfy every
        qualifier: positive sets intersected smallest first, then each
        top-level ``not(q)`` subtracted.  The result may be a memoized
        set, so callers never mutate it."""
        positive = [] if nodes is None else [nodes]
        negated = []
        for q in qualifiers:
            if isinstance(q, NotQual):
                negated.append(self.qualifier_set(q.operand))
            else:
                positive.append(self.qualifier_set(q))
        if not positive:
            result = self.domain
        elif len(positive) == 1:
            result = positive[0]
        else:
            positive.sort(key=len)
            result = positive[0].intersection(*positive[1:])
        return result.difference(*negated) if negated else result

    # -- paths -----------------------------------------------------------------

    def _filtered_step_targets(
        self, step: AxisStep, sources: Collection[int]
    ) -> Collection[int]:
        downward = step.axis in (Axis.CHILD, Axis.CHILD_PLUS, Axis.CHILD_STAR)
        if downward and not all(isinstance(q, NotQual) for q in step.qualifiers):
            return self._seeded_step(step, sources)
        targets = apply_axis_to_set(self.tree, step.axis, sources)
        return self._satisfying(step.qualifiers, targets)

    def _seeded_step(
        self, step: AxisStep, sources: Collection[int]
    ) -> Collection[int]:
        """The step's candidates that its axis reaches from some source,
        as a sorted sequence: one semi-join, which charges both inputs
        before it scans, instead of expanding the axis from the sources.
        A lone label test's candidates are its posting array."""
        ctx = _obs_current()
        if ctx is not None:
            ctx.count("linear.axis_applications")
        frontier = sorted(sources) if isinstance(sources, set) else sources
        qualifiers = step.qualifiers
        if len(qualifiers) == 1 and isinstance(qualifiers[0], LabelTest):
            candidates = self.tree.nodes_with_label(qualifiers[0].label)
        else:
            candidates = sorted(self._satisfying(qualifiers, None))
        return axis_semijoin(self.tree, step.axis, frontier, candidates)

    def forward(
        self, expr: XPathExpr, sources: Collection[int]
    ) -> Collection[int]:
        """{ v : ∃u ∈ sources, v ∈ [[expr]](u) }: a set, or the sorted
        sequence a seeded step produced.  An empty frontier ends a path."""
        if isinstance(expr, AxisStep):
            return self._filtered_step_targets(expr, sources)
        if isinstance(expr, Path):
            middle = self.forward(expr.left, sources)
            return self.forward(expr.right, middle) if middle else middle
        if isinstance(expr, UnionExpr):
            return set(self.forward(expr.left, sources)).union(
                self.forward(expr.right, sources)
            )
        raise TypeError(f"not an XPath expression: {expr!r}")  # pragma: no cover

    def reverse_image(
        self, expr: XPathExpr, targets: "set[int] | None"
    ) -> set[int]:
        """{ u : [[expr]](u) ∩ targets ≠ ∅ } — axes applied inverted;
        ``targets`` None stands for every node."""
        if isinstance(expr, AxisStep):
            return apply_axis_to_set(
                self.tree,
                inverse_axis(expr.axis),
                self._satisfying(expr.qualifiers, targets),
            )
        if isinstance(expr, Path):
            return self.reverse_image(
                expr.left, self.reverse_image(expr.right, targets)
            )
        if isinstance(expr, UnionExpr):
            return self.reverse_image(expr.left, targets) | self.reverse_image(
                expr.right, targets
            )
        raise TypeError(f"not an XPath expression: {expr!r}")  # pragma: no cover


def evaluate_query_linear(expr: XPathExpr, tree: Tree) -> set[int]:
    """[[p]]_NodeSet(root) in O(|Q| · ||A||) — experiment E7/E17's fast
    evaluator (ablation A3 against the memoized denotational one)."""
    answer = _LinearEvaluator(tree).forward(expr, {tree.root})
    return answer if isinstance(answer, set) else set(answer)


def reverse_image(expr: XPathExpr, tree: Tree, targets: set[int]) -> set[int]:
    """Public wrapper over the reverse evaluation primitive."""
    return _LinearEvaluator(tree).reverse_image(expr, targets)
