"""The frozen :class:`Tree` structure and the one pass that derives it.

A :class:`Tree` assigns every node an integer identifier equal to its
position in the pre-order traversal (so ``pre(v) == v``) and precomputes
the index arrays that make all axis checks O(1):

- ``parent[v]`` — parent id, ``-1`` for the root,
- ``children[v]`` — list of child ids in sibling order (every leaf
  shares one empty tuple),
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
arrays.  A node gets its id, parent, depth and sibling links when it
opens, and its post rank, subtree end and child list when it closes;
<bflr follows from a stable sort of the ids by depth at the end.  The
same scan fills the label partition (label -> ids in document order)
that :meth:`Tree.nodes_with_label` and the engine's index read.  The
XML parser feeds it tags as it reads them, :meth:`Tree.build` walks a
:class:`Node` tree into it, and the :class:`Tree` constructor walks
given child lists into it.

Every value is stored once.  Equal tag strings and equal label sets
are one shared object per tree.  The arrays, child lists and posting
lists hold one int object per value, the id of the node with that
number (``n``, where the last subtrees end, is one object too), and
every leaf's child list is one shared empty tuple.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from repro.trees.node import Node

__all__ = ["Tree", "TreeBuilder"]

_T = TypeVar("_T")

#: the child list of every leaf
_LEAF: "tuple[int, ...]" = ()


class TreeBuilder:
    """Open/close tag events in document order -> the arrays of a Tree.

    Call :meth:`open` for every opening tag and :meth:`close` for every
    closing tag, then :meth:`finish`.  The events must describe exactly
    one root element; a builder fills one tree, in place.
    """

    __slots__ = (
        "tree", "_ids", "_open", "_next", "_last", "_closed", "_kinds", "_shared",
    )

    def __init__(self, tree: "Tree | None" = None) -> None:
        self.tree = tree = Tree.__new__(Tree) if tree is None else tree
        tree.label, tree.labels, tree.parent, tree.children = [], [], [], []
        tree.post, tree.depth, tree.subtree_end = [], [], []
        tree.sibling_index, tree.next_sibling, tree.prev_sibling = [], [], []
        tree._label_index = {}
        # the id object of every node, by value: each array entry and
        # posting-list entry of a value refers to this one object
        self._ids: list[int] = []
        self._open: list[int] = []  # ids of the open nodes, root first
        # the id the next open tag gets; a closing node's subtree_end is
        # this very int object, so the two arrays share it
        self._next = 0
        # the node closed last: when a node opens or closes, this is the
        # last child of the innermost open node if that node has one (the
        # root's parent, -1, is nobody's id, so 0 also means "none yet")
        self._last = 0
        self._closed = 0  # post rank of the next closing tag
        # tag or (tag, label set) -> its shared tag, its shared label set,
        # and the label partition's posting lists of those labels
        self._kinds: dict = {}
        self._shared: dict = {}  # one object per distinct tag and label set

    def __len__(self) -> int:
        """Number of nodes opened so far (the id of the next one)."""
        return self._next

    def open(self, tag: str, labels: "Iterable[str] | None" = None) -> str:
        """Open a node tagged ``tag`` carrying ``labels`` (default: just
        ``{tag}``) as the last child of the innermost open node, and
        return the tree's shared copy of ``tag``."""
        key = tag if labels is None else (tag, frozenset(labels))
        kind = self._kinds.get(key)
        if kind is None:
            kind = self._kinds[key] = self._kind(
                tag, frozenset((tag,)) if labels is None else key[1]
            )
        tag, labels, postings = kind
        t = self.tree
        ids = self._ids
        v = self._next
        self._next = v + 1
        ids.append(v)
        stack = self._open
        if stack:
            p = stack[-1]
            prev = self._last
            if t.parent[prev] == p:
                t.next_sibling[prev] = v
                t.sibling_index.append(ids[t.sibling_index[prev] + 1])
            else:
                prev = -1
                t.sibling_index.append(0)
            t.depth.append(ids[len(stack)])
        elif v:
            raise ValueError("a tree has exactly one root")
        else:
            p = prev = -1
            t.sibling_index.append(0)
            t.depth.append(0)
        t.label.append(tag)
        t.labels.append(labels)
        t.parent.append(p)
        t.children.append(_LEAF)
        t.prev_sibling.append(prev)
        t.next_sibling.append(-1)
        t.post.append(-1)
        t.subtree_end.append(-1)
        for posting in postings:
            posting.append(v)
        stack.append(v)
        return tag

    def close(self) -> None:
        """Close the innermost open node."""
        t = self.tree
        v = self._open.pop()
        t.post[v] = self._ids[self._closed]
        self._closed += 1
        t.subtree_end[v] = self._next
        last = self._last
        if t.parent[last] == v:
            # v's child list, exactly as long as its last child's sibling
            # index says, filled back along the sibling links
            i = t.sibling_index[last]
            if i:
                kids = [last] * (i + 1)
                prev = t.prev_sibling
                while i:
                    i -= 1
                    last = kids[i] = prev[last]
                t.children[v] = kids
            else:
                t.children[v] = [last]
        self._last = v

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

    def _kind(self, tag: str, labels: frozenset[str]):
        shared = self._shared
        labels = shared.setdefault(labels, labels)
        partition = self.tree._label_index
        postings = tuple(partition.setdefault(label, []) for label in labels)
        return shared.setdefault(tag, tag), labels, postings

    def finish(self) -> "Tree":
        """Derive <bflr and return the finished tree."""
        t = self.tree
        if not self._next:
            raise ValueError("a tree must have at least one node (the root)")
        if self._open:
            raise ValueError(f"{len(self._open)} nodes were never closed")
        # <bflr visits level by level, and within a level in document
        # order, which is the order a stable sort of the ids by depth
        # leaves them in; the ranks are the id objects of their values
        ids = self._ids
        order = sorted(ids, key=t.depth.__getitem__)
        t.bflr = bflr = [0] * self._next
        for rank, v in zip(ids, order):
            bflr[v] = rank
        self._ids = []
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
        """All node ids carrying label ``a``, in document order (the
        label partition the builder filled)."""
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
