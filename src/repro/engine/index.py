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
adds is :meth:`twig_streams`: the per-pattern-node candidate streams,
pruned exactly to the elements that take part in a match before any
twig join runs.  Its top-down pass runs on the §2 interval semi-joins of
:mod:`repro.storage.structural_join`, the kernels the ``linear`` XPath
route runs on too.

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
from repro.storage.structural_join import (
    JOIN_SITE,
    child_semijoin,
    descendant_semijoin,
)
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
        ctx = _obs_current()
        if ctx is not None:
            ctx.count("index.nodes_indexed", tree.n)
            ctx.count("index.labels_indexed", len(partition))

    # -- label partition ----------------------------------------------------

    def labels(self) -> "frozenset[str]":
        return frozenset(self.label_partition)

    def nodes_with_label(self, label: str) -> array:
        """All nodes carrying ``label``, sorted in document order."""
        self.hits += 1
        nodes = self.tree.nodes_with_label(label)
        self.nodes_streamed += len(nodes)
        return nodes

    # -- twig streams --------------------------------------------------------

    def twig_streams(self, pattern) -> "list[array | list[int]]":
        """Per twig-pattern node, its candidate stream in document order,
        pruned to exactly the elements that take part in a match.

        The bottom-up pass (reverse pre-order: child streams first)
        keeps an element only if every pattern child has a surviving
        candidate as a child (``/``) or a proper descendant (``//``).
        That is the full reducer of an acyclic query (Props. 6.9/6.10):
        every surviving element extends to a match below it, so a binary
        join plan over these streams never materializes a partial match
        that fails.  The top-down pass keeps only candidates under a
        surviving parent, on the §2 semi-joins, which charge the call's
        budget.  ``*`` streams the whole document.

        Patterns of at most two nodes keep their raw label streams: one
        edge is a single structural join, and pruning it first would
        run that join twice.
        """
        faultpoint(JOIN_SITE)
        end = self.subtree_end
        parent = self.parent
        streams: "list[array | list[int]]" = []
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
        for qi in range(len(order) - 1, -1, -1):
            for child in order[qi].children:
                cs = streams[child.index]
                if child.edge == "/":
                    parents = {parent[c] for c in cs}
                    streams[qi] = [e for e in streams[qi] if e in parents]
                    continue
                kept = []
                for e in streams[qi]:
                    lo = bisect_right(cs, e)
                    if lo < len(cs) and cs[lo] < end[e]:
                        kept.append(e)
                streams[qi] = kept
        # lists, not int32 columns: the joins read each id once per row
        tree = self.tree
        for qi in range(1, len(order)):
            frontier, candidates = streams[pattern.parent[qi]], streams[qi]
            if order[qi].edge == "/":
                streams[qi] = child_semijoin(tree, frontier, candidates)
            else:
                streams[qi] = descendant_semijoin(tree, frontier, candidates).tolist()
        return streams
