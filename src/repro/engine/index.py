"""The engine index: the one per-document structure every strategy shares.

Every §2 algorithm is defined over the (pre, post, level) interval
encoding, and the immutable :class:`~repro.trees.tree.Tree` already
holds it.  A :class:`DocumentIndex` therefore copies nothing: ``pre``
is ``range(n)`` (node ids are pre-order positions), and ``post``,
``level``, ``parent`` and ``subtree_end`` are the Tree's own int32
columns.  So is the **label partition**, label → int32 array of node
ids in document order, the posting lists of structural joins, twig
streams and datalog label predicates: the Tree's builder fills it in
the same scan as the columns, so building an index costs O(labels),
and *every* evaluator in the library, including ones called directly
rather than through the facade, reads the same arrays.  What the index
adds, once per document:

- per-label membership ``bytearray`` masks in a bounded, lock-guarded
  LRU (derived on demand, shared across query threads);
- the int-scanning kernels the engine's strategies run on:

  - :meth:`descendant_semijoin` — the structural join of §2 specialized
    to what the XPath spine needs, the set of *descendant targets*.
    The frontier collapses to maximal disjoint pre-intervals (ancestor
    intervals nest, so a sorted sweep suffices) and each interval
    slices the candidate posting list by binary search —
    O(|A| + |D| + |out|), no (ancestor, descendant) pairs at all, and
    the slices are copied whole into an int32 result;
  - :meth:`child_semijoin` — a parent-array filter;
  - :meth:`twig_streams` — arc-consistency-style pruning of the
    per-pattern-node candidate streams before PathStack/TwigStack run;
  - :meth:`automaton` — the two automaton passes of
    :mod:`repro.automata.xpathrun` over ``bytearray`` state vectors,
    aggregating children through the parent array.

The paper's object algorithms (:mod:`repro.storage.structural_join`,
:mod:`repro.twigjoin`, :mod:`repro.automata.xpathrun`) stay as they
are; the differential suite runs them as oracles against these kernels.

``hits`` / ``nodes_streamed`` count posting-list traffic; the
:class:`~repro.engine.database.Database` snapshots them around each
call to report per-query index usage in
:class:`~repro.engine.stats.ExecutionStats`.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Callable

from repro.errors import QueryError
from repro.faults import faultpoint, register_site
from repro.obs.context import current as _obs_current
from repro.storage.structural_join import JOIN_SITE
from repro.trees.axes import Axis
from repro.trees.tree import Tree

__all__ = ["DocumentIndex"]

register_site("index.build", "DocumentIndex construction")


class DocumentIndex:
    """The interval encoding, label partition and kernels of one Tree."""

    __slots__ = (
        "tree",
        "n",
        "pre",
        "post",
        "level",
        "parent",
        "subtree_end",
        "label_partition",
        "hits",
        "nodes_streamed",
        "mask_cache_size",
        "mask_evictions",
        "_masks",
        "_masks_lock",
        "_fingerprint",
    )

    #: bound on the membership-mask LRU (one bytearray per label)
    MASK_CACHE_SIZE = 64

    def __init__(self, tree: Tree, mask_cache_size: int = MASK_CACHE_SIZE):
        faultpoint("index.build")
        self.tree = tree
        self.n = tree.n
        self.pre = range(tree.n)
        self.post = tree.post
        self.level = tree.depth
        self.parent = tree.parent
        self.subtree_end = tree.subtree_end
        self.label_partition = partition = tree._label_index
        self.hits = 0
        self.nodes_streamed = 0
        self.mask_cache_size = max(1, int(mask_cache_size))
        self.mask_evictions = 0
        self._masks: "OrderedDict[str, bytearray]" = OrderedDict()
        self._masks_lock = threading.Lock()
        self._fingerprint = None
        ctx = _obs_current()
        if ctx is not None:
            ctx.count("index.nodes_indexed", tree.n)
            ctx.count("index.labels_indexed", len(partition))

    @property
    def fingerprint(self) -> int:
        """A structural fingerprint of the indexed document, computed
        once — the document half of the planner's plan-cache key.  It
        is ``hash(tree)``, a digest read through the buffer protocol, so
        it boxes no id."""
        if self._fingerprint is None:
            self._fingerprint = hash(self.tree)
        return self._fingerprint

    # -- label partition ----------------------------------------------------

    def labels(self) -> "frozenset[str]":
        return frozenset(self.label_partition)

    def label_count(self, label: str) -> int:
        """Partition size without streaming the nodes (planner use)."""
        self.hits += 1
        return len(self.label_partition.get(label, ()))

    def nodes_with_label(self, label: str) -> array:
        """All nodes carrying ``label``, sorted in document order."""
        self.hits += 1
        nodes = self.tree.nodes_with_label(label)
        self.nodes_streamed += len(nodes)
        return nodes

    def mask(self, label: str) -> bytearray:
        """A per-node membership bytearray for ``label``, LRU-cached."""
        # the LRU is shared across query threads; holding the lock over
        # the build keeps each mask built exactly once and the
        # OrderedDict reordering/eviction consistent.  A build is one
        # pass over a posting list, so this is not a contention point.
        with self._masks_lock:
            mask = self._masks.get(label)
            if mask is not None:
                self._masks.move_to_end(label)
                return mask
            mask = bytearray(self.n)
            for v in self.label_partition.get(label, ()):
                mask[v] = 1
            self._masks[label] = mask
            while len(self._masks) > self.mask_cache_size:
                self._masks.popitem(last=False)
                self.mask_evictions += 1
            return mask

    def masks_cached(self) -> int:
        """Current mask-cache occupancy (tests and introspection)."""
        return len(self._masks)

    # -- semi-joins ----------------------------------------------------------

    def descendant_semijoin(self, frontier, candidates) -> array:
        """Sorted ids from ``candidates`` that are proper descendants of
        some node in ``frontier`` (both sorted by pre id), as an int32
        column.

        Ancestor intervals nest, so collapsing the frontier to maximal
        disjoint intervals is one sweep; each interval then slices the
        candidate list with two binary searches and appends the slice
        whole.  Output is at most |candidates| — no (ancestor,
        descendant) pairs are built, and no id is boxed.
        """
        ctx = _scan(frontier, candidates)
        out = array("i")
        end = self.subtree_end
        cur_end = -1
        for u in frontier:
            if u < cur_end:
                continue  # nested inside the previous maximal interval
            cur_end = end[u]
            lo = bisect_right(candidates, u)
            hi = bisect_left(candidates, cur_end, lo)
            if hi > lo:
                out.extend(candidates[lo:hi])
        if ctx is not None:
            ctx.tick(len(out))
        return out

    def child_semijoin(self, frontier, candidates) -> list[int]:
        """Sorted ids from ``candidates`` whose parent is in ``frontier``."""
        _scan(frontier, candidates)
        parent = self.parent
        members = set(frontier)
        return [c for c in candidates if parent[c] in members]

    # -- twig streams --------------------------------------------------------

    def twig_streams(self, pattern) -> list[list[int]]:
        """Per twig-pattern node, its candidate stream in document order,
        pruned to the elements that can take part in a match.

        The returned lists feed PathStack/TwigStack/binary plans
        unchanged.  Both passes relax every edge to descendant
        containment, which keeps a superset of the elements of any real
        match — sound for ``/`` edges too, since a child is a
        descendant — while unproductive document regions never reach the
        stack machinery.  ``*`` streams the whole document.

        Patterns of at most two nodes keep their raw label streams: one
        edge is a single structural join, and pruning it first would
        run that join twice.
        """
        faultpoint(JOIN_SITE)
        end = self.subtree_end
        streams: list[list[int]] = []
        for node in pattern.nodes:
            if node.label == "*":
                self.hits += 1
                self.nodes_streamed += self.n
                streams.append(list(range(self.n)))
            else:
                streams.append(self.nodes_with_label(node.label))
        order = pattern.nodes
        if len(order) <= 2:
            return streams
        # bottom-up: keep elements with a surviving candidate below every
        # child (pattern nodes are pre-order indexed: children come later)
        for qi in range(len(order) - 1, -1, -1):
            for child in order[qi].children:
                cs = streams[child.index]
                kept = []
                for e in streams[qi]:
                    lo = bisect_right(cs, e)
                    if lo < len(cs) and cs[lo] < end[e]:
                        kept.append(e)
                streams[qi] = kept
        # top-down: keep elements inside some surviving parent interval —
        # a merge sweep with a stack of open (nested) ancestor intervals
        for qi in range(1, len(order)):
            parents = streams[pattern.parent[qi]]
            kept = []
            open_ends: list[int] = []
            pi = 0
            n_parents = len(parents)
            for e in streams[qi]:
                while pi < n_parents and parents[pi] < e:
                    a = parents[pi]
                    pi += 1
                    while open_ends and open_ends[-1] <= a:
                        open_ends.pop()
                    open_ends.append(end[a])
                while open_ends and open_ends[-1] <= e:
                    open_ends.pop()
                if open_ends:
                    kept.append(e)
            streams[qi] = kept
        return streams

    # -- the downward-XPath automaton ---------------------------------------

    def automaton(self, expr) -> set[int]:
        """[[expr]](root) for downward Core XPath over bytearray state.

        Observationally identical to
        :func:`repro.automata.xpathrun.evaluate_xpath_automaton` — same
        fragment check, same two passes — but the per-node state lives
        in bytearrays and the bottom-up pass aggregates through the
        parent array instead of iterating children lists.
        """
        from repro.automata.xpathrun import is_downward
        from repro.xpath.ast import steps_of

        if not is_downward(expr):
            raise QueryError(
                "the automaton evaluator covers the downward fragment only "
                "(axes Self/Child/Child+/Child*, no position())"
            )
        ctx = _obs_current()
        n = self.n
        parent = self.parent
        registry: list[_MaskPath] = []
        spine = steps_of(expr)
        spine_quals = [
            [_compile_qualifier(q, self, registry) for q in s.qualifiers]
            for s in spine
        ]

        # pass 1: bottom-up automaton run (children have larger pre ids)
        for v in range(n - 1, -1, -1):
            p = parent[v]
            for down in registry:
                down.update(v, p)

        if ctx is not None:
            ctx.count("automaton.passes", 2)
            ctx.tick(n * max(len(registry), 1))
            ctx.tick(n)

        # pass 2: top-down context pass through the spine
        m = len(spine)
        F = [bytearray(n) for _ in range(m + 1)]
        A = [bytearray(n) for _ in range(m + 1)]
        root = self.tree.root
        answer: set[int] = set()
        Fm = F[m]
        for v in range(n):
            p = parent[v]
            F[0][v] = 1 if v == root else 0
            for j in range(1, m + 1):
                axis = spine[j - 1].axis
                anc = 1 if (p >= 0 and (F[j - 1][p] or A[j][p])) else 0
                A[j][v] = anc
                qual_ok = all(q(v) for q in spine_quals[j - 1])
                if axis is Axis.CHILD:
                    f = p >= 0 and F[j - 1][p] and qual_ok
                elif axis is Axis.CHILD_PLUS:
                    f = anc and qual_ok
                elif axis is Axis.CHILD_STAR:
                    f = (F[j - 1][v] or anc) and qual_ok
                else:  # Self
                    f = F[j - 1][v] and qual_ok
                F[j][v] = 1 if f else 0
            if Fm[v]:
                answer.add(v)
        return answer


def _scan(frontier, candidates):
    """Trip the semi-join fault site and charge both inputs up front, so
    a visit budget can refuse a join before the scan starts; returns
    the active observation context."""
    faultpoint(JOIN_SITE)
    ctx = _obs_current()
    if ctx is not None:
        ctx.count("sj.elements_scanned", len(frontier) + len(candidates))
        ctx.tick(len(frontier) + len(candidates))
    return ctx


class _MaskPath:
    """Bytearray automaton state for one qualifier path (steps 0..k-1).

    The bytearray twin of :class:`repro.automata.xpathrun._DownPath`:
    the OK/S/R bit-vectors become bytearrays, and the per-node
    children-list scans become parent-array accumulation — when node v
    is processed (reverse pre-order, children first), its S/OK bits are
    ORed into ``aggS``/``aggOK`` at ``parent[v]``, so by the time the
    parent is processed its accumulator slots already hold the
    disjunction over all children.
    """

    __slots__ = ("axes", "quals", "k", "OK", "S", "R", "aggOK", "aggS")

    def __init__(self, expr, index: DocumentIndex, registry: "list[_MaskPath]"):
        from repro.xpath.ast import steps_of

        steps = steps_of(expr)
        # compiling the qualifiers first appends nested paths to the
        # registry before this one, so the sweep updates inner before outer
        self.quals = [
            [_compile_qualifier(q, index, registry) for q in s.qualifiers]
            for s in steps
        ]
        self.axes = [s.axis for s in steps]
        n = index.n
        k = len(steps)
        self.k = k
        self.OK = [bytearray(n) for _ in range(k)]
        self.S = [bytearray(n) for _ in range(k)]
        self.R = [bytearray(n) for _ in range(k)]
        self.aggOK = [bytearray(n) for _ in range(k)]
        self.aggS = [bytearray(n) for _ in range(k)]

    def update(self, v: int, p: int) -> None:
        """Transition at ``v``; children already accumulated into agg*."""
        k = self.k
        for i in range(k - 1, -1, -1):
            ok = 1
            for q in self.quals[i]:
                if not q(v):
                    ok = 0
                    break
            if ok and i + 1 < k and not self.R[i + 1][v]:
                ok = 0
            self.OK[i][v] = ok
            s = 1 if (ok or self.aggS[i][v]) else 0
            self.S[i][v] = s
            axis = self.axes[i]
            if axis is Axis.CHILD:
                r = self.aggOK[i][v]
            elif axis is Axis.CHILD_PLUS:
                r = self.aggS[i][v]
            elif axis is Axis.CHILD_STAR:
                r = s
            else:  # Self
                r = ok
            self.R[i][v] = 1 if r else 0
            if p >= 0:
                if s:
                    self.aggS[i][p] = 1
                if ok:
                    self.aggOK[i][p] = 1


def _compile_qualifier(
    q, index: DocumentIndex, registry: "list[_MaskPath]"
) -> Callable[[int], bool]:
    """A per-node boolean view of one qualifier over the bytearray state."""
    from repro.xpath.ast import AndQual, LabelTest, NotQual, OrQual, PathQualifier

    if isinstance(q, LabelTest):
        m = index.mask(q.label)
        return lambda v: m[v]
    if isinstance(q, AndQual):
        left = _compile_qualifier(q.left, index, registry)
        right = _compile_qualifier(q.right, index, registry)
        return lambda v: left(v) and right(v)
    if isinstance(q, OrQual):
        left = _compile_qualifier(q.left, index, registry)
        right = _compile_qualifier(q.right, index, registry)
        return lambda v: left(v) or right(v)
    if isinstance(q, NotQual):
        inner = _compile_qualifier(q.operand, index, registry)
        return lambda v: not inner(v)
    if isinstance(q, PathQualifier):
        down = _MaskPath(q.path, index, registry)
        registry.append(down)
        reach = down.R[0]
        return lambda v: reach[v]
    raise QueryError(
        "position() predicates are outside the downward automaton fragment"
    )
