"""The relational-structure view of a tree (signatures of Sections 2–3).

Logic-based evaluators (conjunctive queries, datalog, arc-consistency) do
not want a pointer tree; they want a finite structure: a domain plus named
unary and binary relations.  :class:`TreeStructure` provides exactly that
over a :class:`~repro.trees.tree.Tree`:

- unary relations: ``Root``, ``Leaf``, ``FirstSibling``, ``LastSibling``,
  ``Dom``, one label predicate ``Lab:a`` per label ``a`` and one
  singleton ``Const:c`` per node ``c``, which stands for a node-id
  constant (use :func:`lab` and :func:`const` to build those names), and
- binary relations: every axis of :mod:`repro.trees.axes`, under any name
  :func:`~repro.trees.axes.resolve_axis` reads.

This module is the one place that evaluates a unary predicate name:
:meth:`TreeStructure.holds_unary` per node, and
:meth:`TreeStructure.members` for a conjunction of them at once, from a
label posting list or one column of the tree.

Binary relations are *virtual*: membership, successor, and predecessor
queries are answered from the tree's index arrays without materializing
pairs.  ``pairs(name)`` enumerates them on demand (the expensive
operation the structural-join technique avoids).  ``relation_size``
returns pair counts analytically where possible, so that ``size()``
reports the paper's ||A|| without enumeration.

The τ⁺ signature of Section 3 (monadic datalog) is the restriction to
``Root/Leaf/LastSibling/Lab:a`` plus ``FirstChild`` and ``NextSibling``;
:meth:`TreeStructure.tau_plus` builds it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.errors import QueryError
from repro.obs.context import current as _obs_current
from repro.trees.axes import (
    REFLEXIVE,
    Axis,
    axis_holds,
    axis_pairs,
    axis_sources,
    axis_targets,
    forward_axis,
    inverse_axis,
    resolve_axis,
)
from repro.trees.tree import Tree

__all__ = [
    "TreeStructure",
    "lab",
    "const",
    "const_value",
    "is_unary",
    "TAU_PLUS_AXES",
    "TAU_PLUS_BINARY",
    "TAU_PLUS_UNARY",
]

_LABEL_PREFIX = "Lab:"
_CONST_PREFIX = "Const:"


def lab(a: str) -> str:
    """The name of the label predicate for label ``a`` (``Lab:a``)."""
    return _LABEL_PREFIX + a


def const(c: int) -> str:
    """The name of the singleton predicate ``{c}`` (``Const:c``)."""
    return f"{_CONST_PREFIX}{c}"


def const_value(name: str) -> "int | None":
    """The node a ``Const:c`` name stands for; None for any other name."""
    return int(name[len(_CONST_PREFIX):]) if name.startswith(_CONST_PREFIX) else None


#: Binary relation names of the τ⁺ signature (Section 3).
TAU_PLUS_BINARY: tuple[str, ...] = (Axis.FIRST_CHILD.value, Axis.NEXT_SIBLING.value)

#: The axes a τ⁺ datalog rule may use: TAU_PLUS_BINARY and their inverses.
TAU_PLUS_AXES: frozenset[Axis] = frozenset(
    axis for name in TAU_PLUS_BINARY for axis in (resolve_axis(name), inverse_axis(name))
)

#: Non-label unary relation names of the τ⁺ signature.
TAU_PLUS_UNARY: tuple[str, ...] = ("Root", "Leaf", "FirstSibling", "LastSibling")

#: the unary predicates true of the nodes whose link in a column is -1
_NO_LINK = {"FirstSibling": "prev_sibling", "LastSibling": "next_sibling"}


def is_unary(name: str) -> bool:
    """Is ``name`` a unary predicate of the tree signature: ``Dom``, one
    of TAU_PLUS_UNARY, a label ``Lab:a`` or a constant ``Const:c``?"""
    return (
        name == "Dom"
        or name in TAU_PLUS_UNARY
        or name.startswith(_LABEL_PREFIX)
        or name.startswith(_CONST_PREFIX)
    )


class TreeStructure:
    """A tree viewed as a finite relational structure.

    Parameters
    ----------
    tree:
        The underlying tree.
    binary_names:
        Which binary relations (axis names) the signature exposes.  By
        default all axes are available.  Restricting the signature matters
        for the dichotomy results of Section 6.
    """

    def __init__(self, tree: Tree, binary_names: Iterable[str] | None = None):
        self.tree = tree
        if binary_names is None:
            self._axes: dict[str, Axis] = {axis.value: axis for axis in Axis}
        else:
            self._axes = {}
            for name in binary_names:
                axis = resolve_axis(name)
                self._axes[axis.value] = axis

    @classmethod
    def tau_plus(cls, tree: Tree) -> "TreeStructure":
        """The τ⁺ structure of Section 3 over ``tree``."""
        return cls(tree, binary_names=TAU_PLUS_BINARY)

    # -- signature ----------------------------------------------------------

    @property
    def domain(self) -> range:
        """The domain: node ids in document order."""
        return self.tree.nodes()

    def binary_names(self) -> list[str]:
        return list(self._axes)

    def has_binary(self, name: str) -> bool:
        try:
            return resolve_axis(name).value in self._axes
        except QueryError:
            return False

    def _axis(self, name: str) -> Axis:
        axis = self._axes.get(name)  # a canonical name: the common case
        if axis is not None:
            return axis
        axis = resolve_axis(name)
        if axis.value not in self._axes:
            raise QueryError(f"relation {name!r} is not in this structure's signature")
        return axis

    # -- unary relations ------------------------------------------------------

    def holds_unary(self, name: str, v: int) -> bool:
        tree = self.tree
        if name.startswith(_LABEL_PREFIX):
            return tree.has_label(v, name[len(_LABEL_PREFIX):])
        if name == "Dom":
            return 0 <= v < tree.n
        if name == "Root":
            return v == tree.root
        if name == "Leaf":
            return tree.is_leaf(v)
        if name == "FirstSibling":
            return tree.prev_sibling[v] == -1
        if name == "LastSibling":
            return tree.next_sibling[v] == -1
        c = const_value(name)
        if c is None:
            raise QueryError(f"unknown unary relation {name!r}")
        return v == c

    def unary_members(self, name: str) -> Iterator[int]:
        """All ``v`` with ``name(v)``, in document order."""
        return iter(self.members((name,)))

    def members(self, names: Iterable[str]) -> Sequence[int]:
        """The nodes that satisfy every unary predicate in ``names``, in
        document order.

        The candidates are the smallest label posting list among the
        names, else one column test: ``Root`` and ``Const:c`` give at
        most one node, ``Leaf``, ``FirstSibling`` and ``LastSibling`` a
        scan of ``subtree_end`` or a sibling column, and ``Dom`` (which
        filters nothing) every node.  Each other name is tested per
        candidate.  A lone label's posting list is returned as it is,
        not copied.  Each scan is charged to the active observation
        before it runs.
        """
        rest = set(names)
        rest.discard("Dom")
        if not rest:
            return range(self.tree.n)
        first = min(rest, key=self._bound)
        rest.discard(first)
        candidates = self._column(first)
        if rest:
            _charge(len(candidates))
            holds = self.holds_unary
            candidates = [v for v in candidates if all(holds(p, v) for p in rest)]
        return candidates

    def _bound(self, name: str) -> int:
        """How many nodes ``name`` can hold of, read without a scan."""
        if name.startswith(_LABEL_PREFIX):
            return len(self.tree.nodes_with_label(name[len(_LABEL_PREFIX):]))
        return 1 if name == "Root" or name.startswith(_CONST_PREFIX) else self.tree.n

    def _column(self, name: str) -> Sequence[int]:
        """The nodes of one unary predicate other than ``Dom``."""
        tree = self.tree
        if name.startswith(_LABEL_PREFIX):
            return tree.nodes_with_label(name[len(_LABEL_PREFIX):])
        if name == "Root":
            return [tree.root]
        c = const_value(name)
        if c is not None:
            return [c] if 0 <= c < tree.n else []
        if name == "Leaf":
            _charge(tree.n)
            return [v for v, end in enumerate(tree.subtree_end) if end == v + 1]
        column = _NO_LINK.get(name)
        if column is None:
            raise QueryError(f"unknown unary relation {name!r}")
        _charge(tree.n)
        return [v for v, link in enumerate(getattr(tree, column)) if link < 0]

    # -- binary relations -------------------------------------------------------

    def holds_binary(self, name: str, u: int, v: int) -> bool:
        return axis_holds(self.tree, self._axis(name), u, v)

    def successors(self, name: str, u: int) -> Iterator[int]:
        """All ``v`` with ``R(u, v)``."""
        return axis_targets(self.tree, self._axis(name), u)

    def predecessors(self, name: str, v: int) -> Iterator[int]:
        """All ``u`` with ``R(u, v)``."""
        return axis_sources(self.tree, self._axis(name), v)

    def pairs(self, name: str) -> Iterator[tuple[int, int]]:
        """Enumerate ``{(u, v) : R(u, v)}`` (quadratic for transitive axes)."""
        return axis_pairs(self.tree, self._axis(name))

    def relation_size(self, name: str) -> int:
        """|R| — computed analytically (no enumeration) where possible."""
        return self._size(forward_axis(self._axis(name)))

    def _size(self, axis: Axis) -> int:
        """|R| of a forward axis; its inverse has the same size."""
        tree, n = self.tree, self.tree.n
        if axis in REFLEXIVE:
            strict = REFLEXIVE[axis]
            return n + (0 if strict is None else self._size(strict))
        if axis is Axis.CHILD:
            return n - 1
        if axis is Axis.FIRST_CHILD:
            return sum(1 for v in range(n) if tree.children[v])
        if axis is Axis.CHILD_PLUS:
            return sum(tree.depth)
        if axis is Axis.NEXT_SIBLING:
            return sum(1 for v in range(n) if tree.next_sibling[v] >= 0)
        if axis is Axis.NEXT_SIBLING_PLUS:
            return sum(len(kids) * (len(kids) - 1) // 2 for kids in tree.children)
        if axis is Axis.FOLLOWING:
            return n * (n - 1) // 2 - sum(tree.depth)
        raise QueryError(f"no size formula for {axis}")  # pragma: no cover

    def size(self) -> int:
        """||A|| — domain size plus the sizes of all signature relations
        and the number of label facts."""
        total = self.tree.n
        total += sum(len(labs) for labs in self.tree.labels)
        for name in self._axes:
            total += self.relation_size(name)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TreeStructure(n={self.tree.n}, "
            f"binary={sorted(self._axes)})"
        )


def _charge(nodes: int) -> None:
    """Tick ``nodes`` visited nodes on the active observation, if any."""
    ctx = _obs_current()
    if ctx is not None:
        ctx.tick(nodes)
