"""The frozen :class:`Tree` structure and the one pass that derives it.

A :class:`Tree` assigns every node an integer identifier equal to its
position in the pre-order traversal (so ``pre(v) == v``) and precomputes
the index arrays that make all axis checks O(1):

- ``parent[v]`` — parent id, ``-1`` for the root,
- ``children[v]`` — list of child ids in sibling order,
- ``post[v]`` — position in post-order,
- ``bflr[v]`` — position in the breadth-first left-to-right order,
- ``depth[v]`` — root depth 0,
- ``sibling_index[v]`` — position among the parent's children,
- ``next_sibling[v]`` / ``prev_sibling[v]`` — sibling links (-1 if none),
- ``subtree_end[v]`` — one past the largest pre-index in v's subtree, so
  the descendants of ``v`` are exactly ``range(v + 1, subtree_end[v])``.

This is precisely the (<pre, <post, label) triple representation of
Section 2 of the paper, augmented with the sibling structure needed for
the NextSibling axes and <bflr.

Section 2 also says how to compute it in one scan: pre-order is the
order of opening tags and post-order the order of closing tags.
:class:`TreeBuilder` is that scan and the only code that derives the
arrays.  A node gets its id, parent, depth, sibling links and child-list
slot when it opens, and its post rank and subtree end when it closes;
<bflr follows from the depths in one counting pass at the end.  The XML
parser feeds it tags as it reads them, :meth:`Tree.build` walks a
:class:`Node` tree into it, and the :class:`Tree` constructor walks
given child lists into it.  Equal tag strings and equal label sets
become one shared object per tree.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from repro.trees.node import Node

__all__ = ["Tree", "TreeBuilder"]

_T = TypeVar("_T")


class TreeBuilder:
    """Open/close tag events in document order -> the arrays of a Tree.

    Call :meth:`open` for every opening tag and :meth:`close` for every
    closing tag, then :meth:`finish`.  The events must describe exactly
    one root element; a builder fills one tree, in place.
    """

    __slots__ = ("tree", "_open", "_next", "_closed", "_shared", "_plain")

    def __init__(self, tree: "Tree | None" = None) -> None:
        self.tree = tree = Tree.__new__(Tree) if tree is None else tree
        tree.label, tree.labels, tree.parent, tree.children = [], [], [], []
        tree.post, tree.depth, tree.subtree_end = [], [], []
        tree.sibling_index, tree.next_sibling, tree.prev_sibling = [], [], []
        tree._label_index = None
        self._open: list[int] = []  # ids of the open nodes, root first
        # the id the next open tag gets; a closing node's subtree_end is
        # this very int object, so the two arrays share it
        self._next = 0
        self._closed = 0  # post rank of the next closing tag
        self._shared: dict = {}  # one object per distinct tag and label set
        self._plain: dict[str, tuple[str, frozenset[str]]] = {}

    def __len__(self) -> int:
        """Number of nodes opened so far (the id of the next one)."""
        return self._next

    def open(self, tag: str, labels: "Iterable[str] | None" = None) -> None:
        """Open a node tagged ``tag`` carrying ``labels`` (default: just
        ``{tag}``) as the last child of the innermost open node."""
        if labels is None:
            shared = self._plain.get(tag)
            if shared is None:
                shared = self._plain[tag] = self._share(tag, frozenset((tag,)))
            tag, labels = shared
        else:
            tag, labels = self._share(tag, frozenset(labels))
        t = self.tree
        v = self._next
        self._next = v + 1
        stack = self._open
        if stack:
            p = stack[-1]
            kids = t.children[p]
            if kids:
                prev = kids[-1]
                t.next_sibling[prev] = v
            else:
                prev = -1
            t.sibling_index.append(len(kids))
            kids.append(v)
        elif v:
            raise ValueError("a tree has exactly one root")
        else:
            p = prev = -1
            t.sibling_index.append(0)
        t.label.append(tag)
        t.labels.append(labels)
        t.parent.append(p)
        t.children.append([])
        t.depth.append(len(stack))
        t.prev_sibling.append(prev)
        t.next_sibling.append(-1)
        t.post.append(-1)
        t.subtree_end.append(-1)
        stack.append(v)

    def close(self) -> None:
        """Close the innermost open node."""
        v = self._open.pop()
        self.tree.post[v] = self._closed
        self._closed += 1
        self.tree.subtree_end[v] = self._next

    def walk(
        self,
        root: _T,
        children: "Callable[[_T], Iterable[_T]]",
        visit: "Callable[[_T], object]",
    ) -> None:
        """Depth-first from ``root``: ``visit(node)`` opens each node (it
        calls :meth:`open`), ``children(node)`` gives its children in
        sibling order, and each node closes after its last child."""
        visit(root)
        stack = [iter(children(root))]
        while stack:
            for node in stack[-1]:
                visit(node)
                stack.append(iter(children(node)))
                break
            else:
                stack.pop()
                self.close()

    def _share(self, tag: str, labels: frozenset[str]):
        shared = self._shared
        return shared.setdefault(tag, tag), shared.setdefault(labels, labels)

    def finish(self) -> "Tree":
        """Derive <bflr and return the finished tree."""
        t = self.tree
        if not self._next:
            raise ValueError("a tree must have at least one node (the root)")
        if self._open:
            raise ValueError(f"{len(self._open)} nodes were never closed")
        # <bflr visits level by level, and within a level in document
        # order: count each level, then hand out ranks in pre-order
        first = [0] * (max(t.depth) + 1)
        for d in t.depth:
            first[d] += 1
        rank = 0
        for d, width in enumerate(first):
            first[d] = rank
            rank += width
        t.bflr = bflr = [0] * self._next
        for v, d in enumerate(t.depth):
            bflr[v] = first[d]
            first[d] += 1
        t.n = self._next
        return t


class Tree:
    """An immutable unranked ordered labeled tree over node ids 0..n-1.

    Construct with :meth:`Tree.build` from a root :class:`Node`, with
    :meth:`Tree.from_tuple` / :func:`repro.trees.xmlio.parse_xml`, or
    from pre-order ``label``/``labels``/``parent``/``children`` arrays.
    """

    __slots__ = (
        "n",
        "label",
        "labels",
        "parent",
        "children",
        "post",
        "bflr",
        "depth",
        "sibling_index",
        "next_sibling",
        "prev_sibling",
        "subtree_end",
        "_label_index",
    )

    def __init__(
        self,
        label: Sequence[str],
        labels: Sequence[frozenset[str]],
        parent: Sequence[int],
        children: Sequence[Sequence[int]],
    ):
        n = len(label)
        if n == 0:
            raise ValueError("a tree must have at least one node (the root)")
        builder = TreeBuilder(self)

        def visit(v: int) -> None:
            if v != len(builder):
                raise ValueError(
                    "node ids must equal pre-order positions "
                    f"(node {v} visited at pre-position {len(builder)})"
                )
            builder.open(label[v], labels[v])

        builder.walk(0, children.__getitem__, visit)
        builder.finish()
        if self.n != n:
            raise ValueError(f"the child lists reach {self.n} of {n} nodes")
        if not isinstance(parent, list):
            parent = list(parent)
        if parent != self.parent:
            raise ValueError("the parent array disagrees with the child lists")

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, root: Node) -> "Tree":
        """Freeze a :class:`Node` tree into a :class:`Tree` (pre-order ids)."""
        builder = TreeBuilder(cls.__new__(cls))
        builder.walk(
            root,
            lambda node: node.children,
            lambda node: builder.open(node.label, node.labels),
        )
        return builder.finish()

    @classmethod
    def from_tuple(cls, spec: tuple | str) -> "Tree":
        """Build directly from a nested ``(label, [children...])`` spec."""
        return cls.build(Node.from_tuple(spec))

    # -- basic accessors -------------------------------------------------

    @property
    def root(self) -> int:
        """The root node id (always 0: the root is first in pre-order)."""
        return 0

    def pre(self, v: int) -> int:
        """The <pre index of ``v`` (equals the node id by construction)."""
        return v

    def height(self) -> int:
        """Maximum depth over all nodes (a single-node tree has height 0)."""
        return max(self.depth)

    def nodes(self) -> range:
        """All node ids in pre-order (document order)."""
        return range(self.n)

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]

    def leaves(self) -> Iterator[int]:
        return (v for v in range(self.n) if not self.children[v])

    def first_child(self, v: int) -> int:
        """The first child of ``v``, or -1 if ``v`` is a leaf."""
        kids = self.children[v]
        return kids[0] if kids else -1

    def last_child(self, v: int) -> int:
        kids = self.children[v]
        return kids[-1] if kids else -1

    def has_label(self, v: int, a: str) -> bool:
        """Lab_a(v): does node ``v`` carry label ``a``?"""
        return a in self.labels[v]

    def nodes_with_label(self, a: str) -> list[int]:
        """All node ids carrying label ``a``, in document order (cached)."""
        if self._label_index is None:
            index: dict[str, list[int]] = {}
            for v in range(self.n):
                for lab in self.labels[v]:
                    index.setdefault(lab, []).append(v)
            self._label_index = index
        return self._label_index.get(a, [])

    def alphabet(self) -> frozenset[str]:
        """The set of labels occurring in this tree."""
        result: set[str] = set()
        for labs in self.labels:
            result.update(labs)
        return frozenset(result)

    # -- structural predicates (O(1) each) --------------------------------

    def is_descendant(self, u: int, v: int) -> bool:
        """Child+(u, v): is ``v`` a proper descendant of ``u``?

        Uses the interval characterization from Section 2 of the paper:
        ``u <pre v  and  v <post u``.
        """
        return u < v < self.subtree_end[u]

    def is_following(self, u: int, v: int) -> bool:
        """Following(u, v): ``u <pre v and u <post v`` (Section 2)."""
        return u < v and self.post[u] < self.post[v]

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of ``u`` and ``v`` (by depth walking)."""
        while u != v:
            if self.depth[u] >= self.depth[v]:
                u = self.parent[u]
            else:
                v = self.parent[v]
        return u

    # -- relation enumeration ---------------------------------------------

    def child_pairs(self) -> Iterator[tuple[int, int]]:
        """All (u, v) with Child(u, v)."""
        for v in range(1, self.n):
            yield self.parent[v], v

    def next_sibling_pairs(self) -> Iterator[tuple[int, int]]:
        """All (u, v) with NextSibling(u, v)."""
        for u in range(self.n):
            v = self.next_sibling[u]
            if v >= 0:
                yield u, v

    # -- misc --------------------------------------------------------------

    def subtree_size(self, v: int) -> int:
        return self.subtree_end[v] - v

    def descendants(self, v: int) -> range:
        """Proper descendants of ``v`` — a contiguous pre-order range."""
        return range(v + 1, self.subtree_end[v])

    def ancestors(self, v: int) -> Iterator[int]:
        """Proper ancestors of ``v``, nearest first."""
        v = self.parent[v]
        while v >= 0:
            yield v
            v = self.parent[v]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tree(n={self.n}, height={self.height()})"

    def __eq__(self, other: object) -> bool:
        """Structural equality: same shape and same label sets."""
        if not isinstance(other, Tree):
            return NotImplemented
        return (
            self.n == other.n
            and self.parent == other.parent
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.parent), tuple(self.labels)))
