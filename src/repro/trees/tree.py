"""The frozen :class:`Tree` structure and the one pass that derives it.

A :class:`Tree` assigns every node an integer identifier equal to its
position in the pre-order traversal (so ``pre(v) == v``) and precomputes
the index columns that make all axis checks O(1):

- ``parent[v]`` — parent id, ``-1`` for the root,
- ``children[v]`` — the child ids in sibling order, a slice of one CSR
  pair (:class:`Children`),
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
columns.  A node gets its id, parent and depth when it opens, and its
subtree end when it closes; ``post`` and the child lists follow from
those at the end.  The same scan fills the label partition (label ->
ids in document order) that :meth:`Tree.nodes_with_label` and the
engine's index read.  The builder takes tags in batches of tuples, one
loop per batch: the XML parser feeds it each batch of tags it reads,
:meth:`Tree.build` walks a :class:`Node` tree into it, and the
:class:`Tree` constructor walks given child lists into it.

Every integer column and posting list is an ``array('i')``: four bytes
per value, no object per value, the layout the ``.rtre`` store writes.
The sibling columns and ``bflr`` are derived from the stored columns
the first time they are read, and kept.  Equal tag strings and equal
label sets are one shared object per tree.
"""

from __future__ import annotations

import sys
import threading
from array import array
from itertools import accumulate, count, repeat
from operator import add, attrgetter, length_hint, ne, sub
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from repro.trees.node import Node

__all__ = ["Children", "Tree", "TreeBuilder"]

_T = TypeVar("_T")

#: tag tuples :meth:`TreeBuilder.walk` collects per :meth:`TreeBuilder.feed`
_WALK_BATCH = 2048


def _column(n: int, fill: int) -> array:
    """An int32 column of ``n`` copies of ``fill``."""
    return array("i", (fill,)) * n


class Children:
    """The child lists of a :class:`Tree` as one CSR pair: the children
    of ``v`` are ``ids[offsets[v]:offsets[v + 1]]``, in sibling order.

    ``children[v]`` is that int32 slice.  The view is read-only, and two
    views are equal when their child lists are.
    """

    __slots__ = ("ids", "offsets")

    def __init__(self, ids: array, offsets: array) -> None:
        self.ids = ids
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, v: int) -> array:
        offsets = self.offsets
        return self.ids[offsets[v]:offsets[v + 1]]

    def __iter__(self) -> Iterator[array]:
        ids, offsets = self.ids, self.offsets
        for v in range(len(offsets) - 1):
            yield ids[offsets[v]:offsets[v + 1]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Children):
            return NotImplemented
        return self.offsets == other.offsets and self.ids == other.ids


class TreeBuilder:
    """Tag tuples in document order -> the columns of a Tree.

    A tag tuple is ``(close, tag, extra, selfclose, garbage)``, the
    groups of the XML parser's token regex: ``tag`` names an opening
    tag, or a closing one when ``close`` is non-empty, and a non-empty
    ``selfclose`` closes the opened node at once.  A tuple with no
    ``tag`` is skipped (text, a comment), unless ``garbage`` marks input
    that is no token at all.  :meth:`feed` applies a batch of them,
    :meth:`walk` feeds a tree of other objects through it, and
    :meth:`finish` derives the rest.  The tags must describe exactly one
    root element; a builder fills one tree, in place.  ``top`` is the
    innermost open node (-1 when none is open): the ``parent`` column is
    the stack of open nodes, because the node that is innermost once
    ``v`` closes is ``parent[v]``.
    """

    __slots__ = ("tree", "top", "_kinds", "_shared")

    def __init__(self, tree: "Tree | None" = None) -> None:
        self.tree = tree = Tree.__new__(Tree) if tree is None else tree
        tree.label, tree.labels = [], []
        tree.parent, tree.depth, tree.subtree_end = array("i"), array("i"), array("i")
        tree._label_index = {}
        tree._next_sibling = tree._prev_sibling = None
        tree._sibling_index = tree._bflr = None
        self.top = -1
        # tag or (tag, extra) -> its shared tag, its shared label set,
        # and the appends of the label partition's posting lists of those
        # labels
        self._kinds: dict = {}
        self._shared: dict = {}  # one object per distinct tag and label set

    def __len__(self) -> int:
        """Number of nodes opened so far (the id of the next one)."""
        return len(self.tree.parent)

    def feed(
        self,
        tokens: "list[tuple]",
        i: int = 0,
        max_depth: int = sys.maxsize,
        labels: "Callable[[str, Any], Iterable[str]] | None" = None,
    ) -> int:
        """Apply the tag tuples ``tokens[i:]`` in order; return the index
        of the first one it cannot apply, or ``len(tokens)``.

        It cannot apply garbage, a closing tag that does not name the
        innermost open node or finds none open, a second root, and an
        opening tag with ``max_depth`` nodes already open.  The caller
        decides what such a tuple means and resumes after it.  A node's
        label set is ``{tag}``, or ``labels(tag, extra)`` when given.
        This loop is the only code that writes the columns the scan
        fills.
        """
        t = self.tree
        parent, depth, end, tags = t.parent, t.depth, t.subtree_end, t.label
        push, deepen, mark = parent.append, depth.append, end.append
        add_tag, add_set = tags.append, t.labels.append
        kinds = self._kinds
        kind_of = kinds.get
        top = self.top
        v = len(parent)
        d = depth[top] + 1 if top >= 0 else 0  # the number of open nodes
        it = iter(tokens)
        it.__setstate__(i)
        for close, name, extra, selfclose, garbage in it:
            if not name:
                if garbage:
                    break
                continue
            if close:
                if top < 0 or tags[top] != name:
                    break
                end[top] = v
                top = parent[top]
                d -= 1
                continue
            if d >= max_depth or (top < 0 and v):
                break
            key = name if labels is None else (name, extra)
            kind = kind_of(key)
            if kind is None:
                kind = kinds[key] = self._kind(
                    name,
                    frozenset((name,))
                    if labels is None
                    else frozenset(labels(name, extra)),
                )
            tag, label_set, postings = kind
            push(top)
            deepen(d)
            add_tag(tag)
            add_set(label_set)
            for posting in postings:
                posting(v)
            if selfclose:
                mark(v + 1)
            else:
                mark(0)  # set when v closes
                top = v
                d += 1
            v += 1
        else:
            self.top = top
            return len(tokens)
        self.top = top
        return len(tokens) - length_hint(it) - 1

    def walk(
        self,
        root: _T,
        children: "Callable[[_T], Sequence[_T]]",
        tag: "Callable[[_T], str]",
        labels: "Callable[[_T], Iterable[str]] | None" = None,
    ) -> None:
        """Feed the tree below ``root``, depth first: ``children(node)``
        gives a node's children in sibling order, ``tag(node)`` its tag,
        and ``labels(node)``, when given, its labels."""
        tokens: list = []
        emit = tokens.append
        given = None if labels is None else _given

        def flush() -> None:
            self.feed(tokens, labels=given)
            tokens.clear()

        # per open node, its closing tag (one tuple per tag) under an
        # iterator over its remaining children; the sentinel's closing
        # tag names nothing, and the builder skips it
        stack = [("/", "", "", "", ""), iter((root,))]
        push, pop = stack.append, stack.pop
        close_of: dict = {}
        batch = _WALK_BATCH
        while stack:
            if len(tokens) >= batch:
                flush()
            for node in stack[-1]:
                name = tag(node)
                extra = "" if labels is None else frozenset(labels(node))
                kids = children(node)
                if kids:
                    emit(("", name, extra, "", ""))
                    close = close_of.get(name)
                    if close is None:
                        close = close_of[name] = ("/", name, "", "", "")
                    push(close)
                    push(iter(kids))
                    break
                emit(("", name, extra, "/", ""))
                if len(tokens) >= batch:  # a node with many leaves
                    flush()
            else:
                pop()
                emit(pop())
        flush()

    def _kind(self, tag: str, labels: frozenset[str]):
        shared = self._shared
        labels = shared.setdefault(labels, labels)
        partition = self.tree._label_index
        postings = tuple(
            partition.setdefault(label, array("i")).append for label in labels
        )
        return shared.setdefault(tag, tag), labels, postings

    def finish(self) -> "Tree":
        """Derive ``post`` and the child lists; return the finished tree."""
        t = self.tree
        parent, end = t.parent, t.subtree_end
        n = len(parent)
        if not n:
            raise ValueError("a tree must have at least one node (the root)")
        if self.top >= 0:
            raise ValueError(f"{t.depth[self.top] + 1} nodes were never closed")
        # the v - depth[v] nodes before v that are not its ancestors close
        # before it, and so do its subtree_end[v] - v - 1 descendants
        t.post = array("i", map(sub, end, map(add, t.depth, repeat(1))))
        # the CSR pair: v's first child is v + 1 and each next sibling
        # starts where the previous child's subtree ends
        ids = array("i")
        offsets = array("i", (0,))
        append, mark = ids.append, offsets.append
        count = 0
        for v, e in enumerate(end):
            c = v + 1
            while c < e:
                append(c)
                c = end[c]
                count += 1
            mark(count)
        t.children = Children(ids, offsets)
        t.n = n
        return t


def _given(tag: str, labels: frozenset[str]) -> frozenset[str]:
    """The label set a walked node brings along."""
    return labels


def _sibling_pairs(t: "Tree") -> Iterator[tuple[int, int]]:
    """Each ``(v, s)`` where ``s`` is v's next sibling: v's subtree ends
    where its next sibling starts, if it has one."""
    n, parent = t.n, t.parent
    for v, s in enumerate(t.subtree_end):
        if s < n and parent[s] == parent[v]:
            yield v, s


def _next_sibling(t: "Tree") -> array:
    """``next_sibling[v]``, -1 for a last child."""
    column = _column(t.n, -1)
    for v, s in _sibling_pairs(t):
        column[v] = s
    return column


def _prev_sibling(t: "Tree") -> array:
    """``prev_sibling[v]``, -1 for a first child."""
    column = _column(t.n, -1)
    for v, s in _sibling_pairs(t):
        column[s] = v
    return column


def _sibling_index(t: "Tree") -> array:
    """``sibling_index[v]``: one more than the previous sibling's, which
    is final first because the previous sibling has the smaller id."""
    column = _column(t.n, 0)
    for v, s in _sibling_pairs(t):
        column[s] = column[v] + 1
    return column


def _bflr(t: "Tree") -> array:
    """``bflr[v]``: level by level, and in document order within a
    level, which is a counting sort of the ids by depth."""
    depth = t.depth
    free = _column(max(depth) + 2, 0)
    for d in depth:
        free[d + 1] += 1
    free = array("i", accumulate(free))
    column = _column(t.n, 0)
    for v, d in enumerate(depth):
        column[v] = free[d]
        free[d] += 1
    return column


_DERIVING = threading.Lock()


def _derived(slot: str, derive: "Callable[[Tree], array]") -> property:
    """A column derived from the stored ones on its first read, kept in
    ``slot``; the lock makes racing first reads derive it once."""

    def read(tree: "Tree") -> array:
        column = getattr(tree, slot)
        if column is None:
            with _DERIVING:
                column = getattr(tree, slot)
                if column is None:
                    column = derive(tree)
                    setattr(tree, slot, column)
        return column

    return property(read, doc=derive.__doc__)


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
        "depth",
        "subtree_end",
        "_label_index",
        "_next_sibling",
        "_prev_sibling",
        "_sibling_index",
        "_bflr",
    )

    next_sibling = _derived("_next_sibling", _next_sibling)
    prev_sibling = _derived("_prev_sibling", _prev_sibling)
    sibling_index = _derived("_sibling_index", _sibling_index)
    bflr = _derived("_bflr", _bflr)

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
        visited = count()

        def tag(v: int) -> str:
            position = next(visited)
            if v != position:
                raise ValueError(
                    "node ids must equal pre-order positions "
                    f"(node {v} visited at pre-position {position})"
                )
            return label[v]

        builder.walk(0, children.__getitem__, tag, labels.__getitem__)
        builder.finish()
        if self.n != n:
            raise ValueError(f"the child lists reach {self.n} of {n} nodes")
        if len(parent) != n or any(map(ne, parent, self.parent)):
            raise ValueError("the parent array disagrees with the child lists")

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, root: Node) -> "Tree":
        """Freeze a :class:`Node` tree into a :class:`Tree` (pre-order ids)."""
        builder = TreeBuilder(cls.__new__(cls))
        builder.walk(
            root, attrgetter("children"), attrgetter("label"), attrgetter("labels")
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
        return self.subtree_end[v] == v + 1

    def leaves(self) -> Iterator[int]:
        return (v for v, end in enumerate(self.subtree_end) if end == v + 1)

    def first_child(self, v: int) -> int:
        """The first child of ``v``, or -1 if ``v`` is a leaf."""
        return v + 1 if self.subtree_end[v] > v + 1 else -1

    def last_child(self, v: int) -> int:
        kids = self.children
        end = kids.offsets[v + 1]
        return kids.ids[end - 1] if end > kids.offsets[v] else -1

    def has_label(self, v: int, a: str) -> bool:
        """Lab_a(v): does node ``v`` carry label ``a``?"""
        return a in self.labels[v]

    def nodes_with_label(self, a: str) -> array:
        """All node ids carrying label ``a``, in document order (the
        label partition the builder filled)."""
        posting = self._label_index.get(a)
        return array("i") if posting is None else posting

    def alphabet(self) -> frozenset[str]:
        """The set of labels occurring in this tree."""
        return frozenset(self._label_index)

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
        """A digest of the columns ``__eq__`` compares, read through the
        buffer protocol: the parent column, and each label's posting
        list in sorted label order (equal label sets per node give equal
        postings).  No id is boxed."""
        from hashlib import blake2b

        digest = blake2b(digest_size=8)
        digest.update(self.n.to_bytes(8, "little"))
        digest.update(self.parent)
        partition = self._label_index
        for label in sorted(partition):
            name = label.encode("utf-8", "surrogatepass")
            posting = partition[label]
            digest.update(len(name).to_bytes(8, "little"))
            digest.update(name)
            digest.update(len(posting).to_bytes(8, "little"))
            digest.update(posting)
        return int.from_bytes(digest.digest(), "little", signed=True)
