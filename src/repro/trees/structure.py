"""The relational-structure view of a tree (signatures of Sections 2–3).

Logic-based evaluators (conjunctive queries, datalog, arc-consistency) do
not want a pointer tree; they want a finite structure: a domain plus named
unary and binary relations.  :class:`TreeStructure` provides exactly that
over a :class:`~repro.trees.tree.Tree`:

- unary relations: ``Root``, ``Leaf``, ``FirstSibling``, ``LastSibling``,
  ``Dom`` and one label predicate ``Lab:a`` per label ``a``
  (use :func:`lab` to build those names), and
- binary relations: every axis of :mod:`repro.trees.axes`.

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

from typing import Iterable, Iterator

from repro.errors import QueryError
from repro.trees.axes import (
    Axis,
    axis_holds,
    axis_pairs,
    axis_sources,
    axis_targets,
    resolve_axis,
)
from repro.trees.tree import Tree

__all__ = ["TreeStructure", "lab", "TAU_PLUS_BINARY", "TAU_PLUS_UNARY"]

_LABEL_PREFIX = "Lab:"


def lab(a: str) -> str:
    """The name of the label predicate for label ``a`` (``Lab:a``)."""
    return _LABEL_PREFIX + a


#: Binary relation names of the τ⁺ signature (Section 3).
TAU_PLUS_BINARY: tuple[str, ...] = (Axis.FIRST_CHILD.value, Axis.NEXT_SIBLING.value)

#: Non-label unary relation names of the τ⁺ signature.
TAU_PLUS_UNARY: tuple[str, ...] = ("Root", "Leaf", "FirstSibling", "LastSibling")


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

    def unary_names(self) -> list[str]:
        """All non-label unary relation names, plus one per occurring label."""
        names = list(TAU_PLUS_UNARY) + ["Dom"]
        names.extend(lab(a) for a in sorted(self.tree.alphabet()))
        return names

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
        raise QueryError(f"unknown unary relation {name!r}")

    def unary_members(self, name: str) -> Iterator[int]:
        """All ``v`` with ``name(v)``, in document order."""
        tree = self.tree
        if name.startswith(_LABEL_PREFIX):
            yield from tree.nodes_with_label(name[len(_LABEL_PREFIX):])
            return
        for v in tree.nodes():
            if self.holds_unary(name, v):
                yield v

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
        tree = self.tree
        axis = self._axis(name)
        n = tree.n
        if axis is Axis.SELF:
            return n
        if axis in (Axis.CHILD, Axis.PARENT):
            return n - 1
        if axis in (Axis.FIRST_CHILD, Axis.FIRST_CHILD_INV):
            return sum(1 for v in range(n) if tree.children[v])
        if axis in (Axis.CHILD_PLUS, Axis.ANCESTOR):
            return sum(tree.depth)
        if axis in (Axis.CHILD_STAR, Axis.ANCESTOR_OR_SELF):
            return sum(tree.depth) + n
        if axis in (Axis.NEXT_SIBLING, Axis.PREV_SIBLING):
            return sum(1 for v in range(n) if tree.next_sibling[v] >= 0)
        if axis in (Axis.NEXT_SIBLING_PLUS, Axis.PRECEDING_SIBLING):
            return sum(
                len(kids) * (len(kids) - 1) // 2 for kids in tree.children if kids
            )
        if axis is Axis.NEXT_SIBLING_STAR or axis is Axis.PREV_SIBLING_STAR:
            return (
                sum(len(kids) * (len(kids) - 1) // 2 for kids in tree.children) + n
            )
        if axis in (Axis.FOLLOWING, Axis.PRECEDING):
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
