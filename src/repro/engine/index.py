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
twig join runs.  The pruning is the full reducer of
:mod:`repro.storage.structural_join`, the one acyclic conjunctive
queries run on, over the §2 semi-joins the ``linear`` XPath route runs
on too.

``hits`` / ``nodes_streamed`` count posting-list traffic; the
:class:`~repro.engine.database.Database` snapshots them around each
call to report per-query index usage in
:class:`~repro.engine.stats.ExecutionStats`.
"""

from __future__ import annotations

from array import array

from repro.faults import faultpoint, register_site
from repro.obs.context import current as _obs_current
from repro.storage.structural_join import JOIN_SITE, reduce_down, reduce_up
from repro.trees.tree import Tree

__all__ = ["DocumentIndex"]

register_site("index.build", "DocumentIndex construction")

#: a twig edge's axes, down (parent to child) and up
_TWIG_EDGES = {"/": ("Child", "Parent"), "//": ("Child+", "Ancestor")}


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

        A twig is an acyclic conjunctive query over ``Child`` (``/``)
        and ``Child+`` (``//``) edges, so its streams go through the
        full reducer (Props. 6.9/6.10), ``*`` as every node: a binary
        join plan over them never materializes a partial match that
        fails.  Each semi-join charges the call's budget.

        Patterns of at most two nodes keep their raw label streams: one
        edge is a single structural join, and pruning it first would
        run that join twice.
        """
        faultpoint(JOIN_SITE)
        streams: "list[array | list[int] | None]" = []
        for node in pattern.nodes:
            if node.label == "*":
                self.hits += 1
                self.nodes_streamed += self.n
                streams.append(None)
            else:
                streams.append(self.nodes_with_label(node.label))
        if len(streams) > 2:
            edges = [
                (pattern.parent[node.index], node.index, *_TWIG_EDGES[node.edge])
                for node in pattern.nodes[1:]
            ]
            reduce_up(self.tree, streams, edges)
            reduce_down(self.tree, streams, edges)
            # lists, not int32 columns: the joins read each id once per row
            return [s.tolist() if isinstance(s, array) else s for s in streams]
        return [list(range(self.n)) if s is None else s for s in streams]
