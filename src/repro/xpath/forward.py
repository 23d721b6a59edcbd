"""Forward XPath (Section 5: "Evaluating Positive Queries using XPath").

A *forward* query uses only Child, Child+, Child*, NextSibling,
NextSibling+, NextSibling*, Following (and Self) — no Parent/Ancestor/
Preceding.  Streaming algorithms (Section 5, [61, 65, 50]) need forward
queries; the paper notes that the Theorem 5.1 rewriting produces acyclic
queries that are forest-shaped in a strong sense, so every acyclic
positive query can be rewritten into an equivalent *forward* Core XPath
query [62].

:func:`to_forward` implements exactly that route for the conjunctive
fragment: XPath → CQ → lazy Theorem 5.1 rewriting → each acyclic
forest disjunct rendered back as a forward path with path qualifiers →
union of the disjuncts.
"""

from __future__ import annotations

from repro.cq.query import ConjunctiveQuery, atom_axis
from repro.errors import QueryError
from repro.rewrite.theorem51 import rewrite_lazy
from repro.trees.axes import FORWARD_AXES, REFLEXIVE, Axis
from repro.xpath.ast import (
    AxisStep,
    LabelTest,
    NotQual,
    Path,
    PathQualifier,
    Qualifier,
    UnionExpr,
    XPathExpr,
    walk_expr,
)
from repro.xpath.translate import is_conjunctive, xpath_to_cq

__all__ = ["is_forward", "to_forward", "disjunct_to_forward_xpath", "EMPTY_QUERY"]


class UnsatisfiableDisjunct(QueryError):
    """The disjunct can never match (e.g. something strictly above the
    document root); it contributes nothing to the union."""

#: A canonical always-empty forward query: Self[not(Self)].
EMPTY_QUERY: XPathExpr = AxisStep(Axis.SELF, (NotQual(PathQualifier(AxisStep(Axis.SELF))),))


def is_forward(expr: "XPathExpr | Qualifier") -> bool:
    """Does the expression use forward axes only?"""
    return all(
        node.axis in FORWARD_AXES
        for node in walk_expr(expr)
        if isinstance(node, AxisStep)
    )


def _chain(path_steps: list[XPathExpr]) -> XPathExpr:
    expr = path_steps[0]
    for step in path_steps[1:]:
        expr = Path(expr, step)
    return expr


def disjunct_to_forward_xpath(disjunct: ConjunctiveQuery) -> XPathExpr:
    """Render one acyclic forest disjunct (as produced by the Theorem 5.1
    rewriting: forward atoms only, every variable with at most one
    incoming atom) as a forward Core XPath expression selecting the head
    variable."""
    if len(disjunct.head) != 1:
        raise QueryError("forward rendering needs a unary disjunct")
    head_var = disjunct.head[0]

    children: dict[str, list[tuple[Axis, str]]] = {}
    incoming: dict[str, tuple[Axis, str]] = {}
    unary: dict[str, list[str]] = {}
    variables: set[str] = set(disjunct.variables())
    for atom in disjunct.atoms:
        if atom.arity == 1:
            unary.setdefault(atom.args[0], []).append(atom.pred)
            continue
        axis = atom_axis(atom)
        if axis not in FORWARD_AXES:
            raise QueryError(f"non-forward atom {atom} in disjunct")
        x, y = atom.args
        if y in incoming:
            raise QueryError(f"variable {y} has two incoming atoms")
        incoming[y] = (axis, x)
        children.setdefault(x, []).append((axis, y))

    def var_qualifiers(v: str, skip_child: str | None = None) -> list[Qualifier]:
        quals: list[Qualifier] = []
        for pred in unary.get(v, ()):
            if pred.startswith("Lab:"):
                quals.append(LabelTest(pred[4:]))
            elif pred in ("Dom", "Root"):
                continue  # Root is positional, handled by the caller
            elif pred == "FirstSibling":
                raise QueryError(
                    "FirstSibling survived un-fused; cannot render forward"
                )
            else:
                raise QueryError(f"cannot render unary predicate {pred} in XPath")
        for axis, c in children.get(v, ()):
            if c == skip_child:
                continue
            quals.append(PathQualifier(_branch(axis, c)))
        return quals

    def step_for(axis: Axis, v: str, skip_child: str | None) -> AxisStep:
        # fuse Child + FirstSibling(target) into FirstChild
        preds = unary.get(v, ())
        if "FirstSibling" in preds and axis is Axis.CHILD:
            axis = Axis.FIRST_CHILD
            unary[v] = [p for p in preds if p != "FirstSibling"]
        return AxisStep(axis, tuple(var_qualifiers(v, skip_child)))

    def _branch(axis: Axis, v: str) -> XPathExpr:
        return step_for(axis, v, skip_child=None)

    def component_root(v: str) -> str:
        seen = {v}
        while v in incoming:
            v = incoming[v][1]
            if v in seen:
                raise QueryError("cycle in disjunct")
            seen.add(v)
        return v

    def path_down(src: str, dst: str) -> list[tuple[Axis, str]]:
        """The chain of (axis, var) edges from src down to dst."""
        chain: list[tuple[Axis, str]] = []
        v = dst
        while v != src:
            axis, p = incoming[v]
            chain.append((axis, v))
            v = p
        chain.reverse()
        return chain

    root_of_head = component_root(head_var)
    has_root_pred = {v for v in variables if "Root" in unary.get(v, ())}
    for v in has_root_pred:
        if v in incoming:
            # every incoming atom asserts a node strictly before v exists
            # on a vertical/horizontal axis — impossible for the document
            # root, so the whole disjunct is dead (star atoms would have
            # allowed equality, but the rewriting leaves stars only on
            # edges it never needed to orient; treat conservatively)
            axis, src = incoming[v]
            if axis in REFLEXIVE:
                # the root has no proper ancestor and no left sibling, so
                # a reflexive edge into it forces equality: merge and re-render
                from repro.datalog.syntax import Atom as _Atom

                new_atoms = []
                for atom in disjunct.atoms:
                    if atom.arity == 2 and atom.args == (src, v) and atom_axis(
                        atom
                    ) is axis:
                        continue
                    new_atoms.append(
                        _Atom(
                            atom.pred,
                            tuple(v if t == src else t for t in atom.args),
                        )
                    )
                merged = ConjunctiveQuery(
                    tuple(v if h == src else h for h in disjunct.head),
                    tuple(new_atoms),
                )
                return disjunct_to_forward_xpath(merged)
            raise UnsatisfiableDisjunct(str(disjunct))

    # the spine: document root -> component root -> head variable
    spine = path_down(root_of_head, head_var)
    spine_vars = {v for _ax, v in spine} | {root_of_head}

    steps: list[XPathExpr] = []
    if root_of_head in has_root_pred:
        # the component starts at the document root: a Self step carries
        # the root variable's qualifiers
        first_skip = spine[0][1] if spine else None
        steps.append(AxisStep(Axis.SELF, tuple(var_qualifiers(root_of_head, first_skip))))
    else:
        first_skip = spine[0][1] if spine else None
        steps.append(
            AxisStep(
                Axis.CHILD_STAR, tuple(var_qualifiers(root_of_head, first_skip))
            )
        )
    for i, (axis, v) in enumerate(spine):
        next_skip = spine[i + 1][1] if i + 1 < len(spine) else None
        steps.append(step_for(axis, v, next_skip))

    # other components become guards on the very first step
    guards: list[Qualifier] = []
    other_roots = {
        component_root(v) for v in variables
    } - {root_of_head}
    for r in sorted(other_roots):
        if r in has_root_pred:
            guard_path: XPathExpr = AxisStep(
                Axis.SELF, tuple(var_qualifiers(r))
            )
        else:
            guard_path = AxisStep(Axis.CHILD_STAR, tuple(var_qualifiers(r)))
        guards.append(PathQualifier(guard_path))
    if guards:
        first = steps[0]
        assert isinstance(first, AxisStep)
        steps[0] = AxisStep(first.axis, first.qualifiers + tuple(guards))
    return _chain(steps)


def to_forward(expr: XPathExpr) -> XPathExpr:
    """Rewrite a conjunctive Core XPath query (reverse axes allowed) into
    an equivalent *forward* Core XPath query, via Theorem 5.1.

    The result can be exponentially larger (a union of forest disjuncts)
    — the lower bound of [35] says this is unavoidable in general.
    """
    if is_forward(expr):
        return expr
    if not is_conjunctive(expr):
        raise QueryError(
            "to_forward handles the conjunctive fragment (no union/or/not)"
        )
    cq = xpath_to_cq(expr)
    disjuncts = rewrite_lazy(cq)
    paths = []
    for d in disjuncts:
        try:
            paths.append(disjunct_to_forward_xpath(d))
        except UnsatisfiableDisjunct:
            continue
    if not paths:
        return EMPTY_QUERY
    result = paths[0]
    for p in paths[1:]:
        result = UnionExpr(result, p)
    return result
