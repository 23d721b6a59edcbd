"""XPath axis relations over :class:`~repro.trees.tree.Tree`.

The paper (Section 2) works with the binary *navigational relations*
(axes): Child, Child+ (Descendant), Child* (Descendant-or-self),
NextSibling, NextSibling+ (Following-Sibling), NextSibling*, Following,
Self, and their inverses (Parent, Ancestor, ...).

Every axis supports four operations:

- ``axis_holds(tree, axis, u, v)`` — O(1) membership test via the
  pre/post interval arithmetic of Section 2,
- ``axis_targets(tree, axis, u)`` — iterate all ``v`` with ``R(u, v)``,
- ``axis_image(tree, axis, nodes)`` — the targets of a whole node set at
  once, in O(n) amortized,
- ``axis_pairs(tree, axis)`` — iterate the full relation (used by
  materializing algorithms; transitive axes are quadratic to enumerate,
  which is exactly the cost the labeling schemes of Section 2 avoid).

Axis names follow the paper: ``"Child+"`` is Descendant, ``"Child*"`` is
Descendant-or-self, ``"NextSibling+"`` is Following-Sibling.  This module
is the one place that reads an axis name (:func:`resolve_axis`, which
also takes ``X^-1`` for the inverse of any axis X) and states a fact
about axes: their inverses, the forward ones, which are reflexive, and
which imply which.
"""

from __future__ import annotations

from enum import Enum
from typing import Collection, Iterator

from repro.errors import UnsupportedAxisError
from repro.trees.tree import Tree

__all__ = [
    "Axis",
    "AXES",
    "FORWARD_AXES",
    "REVERSE_AXES",
    "REFLEXIVE",
    "IMPLIES",
    "INVERSE_SUFFIX",
    "axis_holds",
    "axis_targets",
    "axis_image",
    "axis_pairs",
    "axis_sources",
    "forward_axis",
    "inverse_axis",
    "resolve_axis",
]

#: The suffix that names the inverse of an axis (``Child^-1`` is Parent).
INVERSE_SUFFIX = "^-1"


class Axis(str, Enum):
    """Canonical axis names.

    The string values are the names used throughout the paper; XPath
    surface names (``descendant``, ``following-sibling``, ...) are accepted
    as aliases by :func:`resolve_axis`.
    """

    SELF = "Self"
    CHILD = "Child"
    CHILD_PLUS = "Child+"          # Descendant
    CHILD_STAR = "Child*"          # Descendant-or-self
    NEXT_SIBLING = "NextSibling"
    NEXT_SIBLING_PLUS = "NextSibling+"  # Following-Sibling
    NEXT_SIBLING_STAR = "NextSibling*"
    FOLLOWING = "Following"
    FIRST_CHILD = "FirstChild"
    # inverse axes
    PARENT = "Parent"
    ANCESTOR = "Ancestor"                # (Child+)^-1
    ANCESTOR_OR_SELF = "Ancestor-or-self"  # (Child*)^-1
    PREV_SIBLING = "PrevSibling"
    PRECEDING_SIBLING = "PrecedingSibling"  # (NextSibling+)^-1
    PREV_SIBLING_STAR = "PrevSibling*"
    PRECEDING = "Preceding"              # Following^-1
    FIRST_CHILD_INV = "FirstChild^-1"

    def __str__(self) -> str:
        return self.value


_ALIASES: dict[str, Axis] = {
    "self": Axis.SELF,
    "child": Axis.CHILD,
    "descendant": Axis.CHILD_PLUS,
    "child+": Axis.CHILD_PLUS,
    "descendant-or-self": Axis.CHILD_STAR,
    "child*": Axis.CHILD_STAR,
    "nextsibling": Axis.NEXT_SIBLING,
    "next-sibling": Axis.NEXT_SIBLING,
    "following-sibling": Axis.NEXT_SIBLING_PLUS,
    "nextsibling+": Axis.NEXT_SIBLING_PLUS,
    "nextsibling*": Axis.NEXT_SIBLING_STAR,
    "following": Axis.FOLLOWING,
    "firstchild": Axis.FIRST_CHILD,
    "first-child": Axis.FIRST_CHILD,
    "parent": Axis.PARENT,
    "ancestor": Axis.ANCESTOR,
    "ancestor-or-self": Axis.ANCESTOR_OR_SELF,
    "prevsibling": Axis.PREV_SIBLING,
    "previous-sibling": Axis.PREV_SIBLING,
    "preceding-sibling": Axis.PRECEDING_SIBLING,
    "prevsibling*": Axis.PREV_SIBLING_STAR,
    "preceding": Axis.PRECEDING,
    "firstchild^-1": Axis.FIRST_CHILD_INV,
}
for _axis in Axis:
    _ALIASES[_axis.value.lower()] = _axis


def resolve_axis(name: "str | Axis") -> Axis:
    """Turn a user-supplied axis name (paper name or XPath alias, or
    either followed by ``^-1`` for the inverse) into an :class:`Axis`,
    raising :class:`UnsupportedAxisError` otherwise.  The names are
    tried first, so ``FirstChild^-1`` is an axis of its own."""
    if isinstance(name, Axis):
        return name
    axis = _ALIASES.get(name.lower())
    if axis is None and name.endswith(INVERSE_SUFFIX):
        axis = _INVERSES.get(_ALIASES.get(name[: -len(INVERSE_SUFFIX)].lower()))
    if axis is None:
        raise UnsupportedAxisError(f"unknown axis {name!r}")
    return axis


_INVERSES: dict[Axis, Axis] = {
    Axis.SELF: Axis.SELF,
    Axis.CHILD: Axis.PARENT,
    Axis.CHILD_PLUS: Axis.ANCESTOR,
    Axis.CHILD_STAR: Axis.ANCESTOR_OR_SELF,
    Axis.NEXT_SIBLING: Axis.PREV_SIBLING,
    Axis.NEXT_SIBLING_PLUS: Axis.PRECEDING_SIBLING,
    Axis.NEXT_SIBLING_STAR: Axis.PREV_SIBLING_STAR,
    Axis.FOLLOWING: Axis.PRECEDING,
    Axis.FIRST_CHILD: Axis.FIRST_CHILD_INV,
}
_INVERSES.update({v: k for k, v in _INVERSES.items()})


def inverse_axis(axis: "str | Axis") -> Axis:
    """The inverse relation of an axis (Parent for Child, ...)."""
    return _INVERSES[resolve_axis(axis)]


#: Axes that only relate a node to nodes at larger pre-order positions
#: or itself — the "forward" axes of Section 5.
FORWARD_AXES: frozenset[Axis] = frozenset(
    {
        Axis.SELF,
        Axis.CHILD,
        Axis.FIRST_CHILD,
        Axis.CHILD_PLUS,
        Axis.CHILD_STAR,
        Axis.NEXT_SIBLING,
        Axis.NEXT_SIBLING_PLUS,
        Axis.NEXT_SIBLING_STAR,
        Axis.FOLLOWING,
    }
)

#: The inverses of the forward axes.
REVERSE_AXES: frozenset[Axis] = frozenset(_INVERSES[a] for a in FORWARD_AXES) - {
    Axis.SELF
}


def forward_axis(axis: "str | Axis") -> Axis:
    """The forward axis of an axis: its inverse if it is a reverse axis
    (``R(u, v)`` is then ``forward_axis(R)(v, u)``), else itself."""
    axis = resolve_axis(axis)
    return _INVERSES[axis] if axis in REVERSE_AXES else axis


#: The reflexive axes R, with R(v, v) for every node v, each mapped to
#: the strict axis it extends: R = REFLEXIVE[R] ∪ Self (None for Self).
REFLEXIVE: dict[Axis, "Axis | None"] = {
    Axis.SELF: None,
    Axis.CHILD_STAR: Axis.CHILD_PLUS,
    Axis.NEXT_SIBLING_STAR: Axis.NEXT_SIBLING_PLUS,
    Axis.ANCESTOR_OR_SELF: Axis.ANCESTOR,
    Axis.PREV_SIBLING_STAR: Axis.PRECEDING_SIBLING,
}

#: All supported axes.
AXES: tuple[Axis, ...] = tuple(Axis)

#: IMPLIES[a] = the forward axes b such that b(u, v) implies a(u, v) on
#: every tree.
IMPLIES: dict[Axis, frozenset[Axis]] = {
    Axis.CHILD: frozenset({Axis.CHILD, Axis.FIRST_CHILD}),
    Axis.CHILD_PLUS: frozenset({Axis.CHILD_PLUS, Axis.CHILD, Axis.FIRST_CHILD}),
    Axis.CHILD_STAR: frozenset(
        {Axis.CHILD_STAR, Axis.CHILD_PLUS, Axis.CHILD, Axis.FIRST_CHILD, Axis.SELF}
    ),
    Axis.NEXT_SIBLING: frozenset({Axis.NEXT_SIBLING}),
    Axis.NEXT_SIBLING_PLUS: frozenset(
        {Axis.NEXT_SIBLING_PLUS, Axis.NEXT_SIBLING}
    ),
    Axis.NEXT_SIBLING_STAR: frozenset(
        {Axis.NEXT_SIBLING_STAR, Axis.NEXT_SIBLING_PLUS, Axis.NEXT_SIBLING, Axis.SELF}
    ),
    Axis.FOLLOWING: frozenset(
        {Axis.FOLLOWING, Axis.NEXT_SIBLING_PLUS, Axis.NEXT_SIBLING}
    ),
    Axis.SELF: frozenset({Axis.SELF}),
    Axis.FIRST_CHILD: frozenset({Axis.FIRST_CHILD}),
}


def axis_holds(tree: Tree, axis: "str | Axis", u: int, v: int) -> bool:
    """Decide ``R(u, v)`` for axis ``R`` in O(1) using order arithmetic."""
    axis = resolve_axis(axis)
    if axis is Axis.SELF:
        return u == v
    if axis is Axis.CHILD:
        return tree.parent[v] == u
    if axis is Axis.FIRST_CHILD:
        return v == u + 1 and tree.parent[v] == u
    if axis is Axis.CHILD_PLUS:
        return tree.is_descendant(u, v)
    if axis is Axis.CHILD_STAR:
        return u == v or tree.is_descendant(u, v)
    if axis is Axis.NEXT_SIBLING:
        return tree.next_sibling[u] == v
    if axis is Axis.NEXT_SIBLING_PLUS:
        return (
            u != v
            and tree.parent[u] == tree.parent[v]
            and tree.parent[u] != -1
            and tree.sibling_index[u] < tree.sibling_index[v]
        )
    if axis is Axis.NEXT_SIBLING_STAR:
        return u == v or axis_holds(tree, Axis.NEXT_SIBLING_PLUS, u, v)
    if axis is Axis.FOLLOWING:
        return tree.is_following(u, v)
    # Inverse axes: flip the arguments.
    return axis_holds(tree, _INVERSES[axis], v, u)


def axis_targets(tree: Tree, axis: "str | Axis", u: int) -> Iterator[int]:
    """Iterate all ``v`` with ``R(u, v)``, in document order where natural."""
    axis = resolve_axis(axis)
    if axis is Axis.SELF:
        yield u
    elif axis is Axis.CHILD:
        yield from tree.children[u]
    elif axis is Axis.FIRST_CHILD:
        if tree.subtree_end[u] > u + 1:
            yield u + 1
    elif axis is Axis.CHILD_PLUS:
        yield from tree.descendants(u)
    elif axis is Axis.CHILD_STAR:
        yield from range(u, tree.subtree_end[u])
    elif axis is Axis.NEXT_SIBLING:
        if tree.next_sibling[u] >= 0:
            yield tree.next_sibling[u]
    elif axis is Axis.NEXT_SIBLING_PLUS:
        v = tree.next_sibling[u]
        while v >= 0:
            yield v
            v = tree.next_sibling[v]
    elif axis is Axis.NEXT_SIBLING_STAR:
        yield u
        yield from axis_targets(tree, Axis.NEXT_SIBLING_PLUS, u)
    elif axis is Axis.FOLLOWING:
        # Everything after u in pre-order that is not a descendant of u.
        post_u = tree.post[u]
        for v in range(tree.subtree_end[u], tree.n):
            if tree.post[v] > post_u:
                yield v
    elif axis is Axis.PARENT:
        if tree.parent[u] >= 0:
            yield tree.parent[u]
    elif axis is Axis.FIRST_CHILD_INV:
        p = tree.parent[u]
        if p >= 0 and u == p + 1:
            yield p
    elif axis is Axis.ANCESTOR:
        yield from tree.ancestors(u)
    elif axis is Axis.ANCESTOR_OR_SELF:
        yield u
        yield from tree.ancestors(u)
    elif axis is Axis.PREV_SIBLING:
        if tree.prev_sibling[u] >= 0:
            yield tree.prev_sibling[u]
    elif axis is Axis.PRECEDING_SIBLING:
        v = tree.prev_sibling[u]
        while v >= 0:
            yield v
            v = tree.prev_sibling[v]
    elif axis is Axis.PREV_SIBLING_STAR:
        yield u
        yield from axis_targets(tree, Axis.PRECEDING_SIBLING, u)
    elif axis is Axis.PRECEDING:
        post_u = tree.post[u]
        for v in range(u):
            if tree.post[v] < post_u:
                yield v
    else:  # pragma: no cover - exhaustive over Axis
        raise UnsupportedAxisError(f"axis {axis} has no target iterator")


def axis_image(tree: Tree, axis: "str | Axis", nodes: Collection[int]) -> set[int]:
    """{ v : ∃u ∈ nodes, R(u, v) } in O(n) amortized time: one interval
    sweep for the vertical and document-order axes, and each node
    reached once along a link column for the others."""
    axis = resolve_axis(axis)
    n = tree.n
    if axis is Axis.SELF:
        return set(nodes)
    if axis is Axis.CHILD:
        result: set[int] = set()
        for u in nodes:
            result.update(tree.children[u])
        return result
    if axis is Axis.FIRST_CHILD:
        return {u + 1 for u in nodes if tree.subtree_end[u] > u + 1}
    if axis in (Axis.CHILD_PLUS, Axis.CHILD_STAR):
        first = 1 if axis is Axis.CHILD_PLUS else 0
        result = set()
        covered = -1
        for u in sorted(nodes):
            if u >= covered:  # not inside an earlier node's subtree
                covered = tree.subtree_end[u]
                result.update(range(u + first, covered))
        return result
    if axis is Axis.FOLLOWING:  # Following(u, v) iff v >= subtree_end[u]
        end = tree.subtree_end
        return set(range(min((end[u] for u in nodes), default=n), n))
    if axis is Axis.PRECEDING:  # Preceding(u, v) iff u >= subtree_end[v]
        end, last = tree.subtree_end, max(nodes, default=-1)
        return {v for v in range(last) if end[v] <= last}
    if axis is Axis.FIRST_CHILD_INV:
        return {u - 1 for u in nodes if u and tree.parent[u] == u - 1}
    if axis in _LINKS:
        column, closure = _LINKS[axis]
        return _follow(getattr(tree, column), nodes, closure)
    # a reflexive closure: the nodes and what the strict closure reaches
    return axis_image(tree, REFLEXIVE[axis], nodes).union(nodes)


#: the axes that follow one link column: (column, whether to its closure)
_LINKS = {
    Axis.NEXT_SIBLING: ("next_sibling", False),
    Axis.PARENT: ("parent", False),
    Axis.PREV_SIBLING: ("prev_sibling", False),
    Axis.NEXT_SIBLING_PLUS: ("next_sibling", True),
    Axis.ANCESTOR: ("parent", True),
    Axis.PRECEDING_SIBLING: ("prev_sibling", True),
}


def _follow(column, nodes: Collection[int], closure: bool) -> set[int]:
    """The nodes one link of ``column`` (-1: none) leads to from
    ``nodes``, or, for the ``closure``, every node a chain of links
    leads to: a chain stops at a node already reached, whose own chain
    is in the result, so each node is reached once."""
    result: set[int] = set()
    for u in nodes:
        v = column[u]
        while v >= 0 and v not in result:
            result.add(v)
            v = column[v] if closure else -1
    return result


def axis_sources(tree: Tree, axis: "str | Axis", v: int) -> Iterator[int]:
    """Iterate all ``u`` with ``R(u, v)`` (targets of the inverse axis)."""
    return axis_targets(tree, inverse_axis(axis), v)


def axis_pairs(tree: Tree, axis: "str | Axis") -> Iterator[tuple[int, int]]:
    """Enumerate the full relation ``{(u, v) : R(u, v)}``.

    Non-transitive axes are linear-size; transitive ones can be
    quadratic.  Materializing a transitive axis is exactly what the
    structural-join technique of Section 2 is designed to avoid — this
    enumerator exists to serve as that baseline.
    """
    axis = resolve_axis(axis)
    for u in range(tree.n):
        for v in axis_targets(tree, axis, u):
            yield u, v
