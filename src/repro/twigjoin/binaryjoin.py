"""The binary structural-join baseline for twig matching (Section 2 + 6).

Before holistic twig joins, twigs were evaluated one edge at a time:
each pattern edge is a structural join, and partial matches are
materialized between joins.  Output-equivalent to TwigStack, but the
intermediate relations can be much larger than the final result — the
asymmetry experiment E14 measures via :class:`JoinPlanStats`.  Over the
engine index's exactly pruned streams every partial match extends to an
answer, so no relation after the first edge outgrows the result.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.obs.context import current as _obs_current
from repro.twigjoin.pathstack import _streams
from repro.twigjoin.pattern import TwigPattern
from repro.trees.tree import Tree

__all__ = ["binary_join_plan", "JoinPlanStats"]


@dataclass
class JoinPlanStats:
    """Intermediate-result accounting for one plan execution."""

    intermediate_sizes: list[int] = field(default_factory=list)

    @property
    def max_intermediate(self) -> int:
        return max(self.intermediate_sizes, default=0)

    @property
    def total_intermediate(self) -> int:
        return sum(self.intermediate_sizes)


def binary_join_plan(
    pattern: TwigPattern,
    tree: Tree,
    stats: JoinPlanStats | None = None,
    streams: list[list[int]] | None = None,
) -> set[tuple[int, ...]]:
    """Evaluate the twig edge by edge in pattern pre-order, materializing
    the partial-match relation after every structural join.

    ``streams`` optionally supplies pre-materialized candidate streams.
    Under an observation it charges the root stream, then per edge the
    candidate stream before the scan and the partial rows it produced
    after it.
    """
    ctx = _obs_current()
    stats = stats if stats is not None else JoinPlanStats()
    if streams is None:
        streams = _streams(pattern, tree)
    nodes = pattern.nodes

    # partial matches over pattern nodes 0..i (pre-order means each new
    # node's parent is already bound)
    root_stream = streams[0]
    if nodes[0].edge == "/":
        root_stream = [v for v in root_stream if v == tree.root]
    if ctx is not None:
        ctx.tick(len(root_stream))
    partial: list[tuple[int, ...]] = [(v,) for v in root_stream]
    stats.intermediate_sizes.append(len(partial))

    for i in range(1, len(nodes)):
        p = pattern.parent[i]
        child_edge = nodes[i].edge
        # index the candidate children once; then one pass over partials
        candidates = streams[i]
        if ctx is not None:
            ctx.tick(len(candidates))
        new_partial: list[tuple[int, ...]] = []
        if child_edge == "/":
            by_parent: dict[int, list[int]] = {}
            for c in candidates:
                by_parent.setdefault(tree.parent[c], []).append(c)
            for row in partial:
                for c in by_parent.get(row[p], ()):
                    new_partial.append(row + (c,))
        else:
            # the stream is in pre-order, so the descendants of an anchor
            # are one slice of it: O(input + output) for the edge
            end = tree.subtree_end
            for row in partial:
                anchor = row[p]
                lo = bisect_right(candidates, anchor)
                hi = bisect_left(candidates, end[anchor], lo)
                for c in candidates[lo:hi]:
                    new_partial.append(row + (c,))
        partial = new_partial
        if ctx is not None:
            ctx.tick(len(partial))
        stats.intermediate_sizes.append(len(partial))
    return set(partial)
