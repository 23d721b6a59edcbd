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
adds, once per document, is :meth:`twig_streams` — arc-consistency-style
pruning of the per-pattern-node candidate streams before
PathStack/TwigStack run.  The ``linear`` XPath route's interval
semi-joins live in :mod:`repro.storage.structural_join`, beside the
paper's pair joins.

``hits`` / ``nodes_streamed`` count posting-list traffic; the
:class:`~repro.engine.database.Database` snapshots them around each
call to report per-query index usage in
:class:`~repro.engine.stats.ExecutionStats`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

from repro.faults import faultpoint, register_site
from repro.obs.context import current as _obs_current
from repro.storage.structural_join import JOIN_SITE
from repro.trees.tree import Tree

__all__ = ["DocumentIndex"]

register_site("index.build", "DocumentIndex construction")


class DocumentIndex:
    """The interval encoding, label partition and twig streams of one Tree."""

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
        "_fingerprint",
    )

    def __init__(self, tree: Tree):
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
