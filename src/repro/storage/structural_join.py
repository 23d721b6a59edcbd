"""Structural joins and their baselines (Section 2, [Al-Khalifa et al.]).

Given two node lists A ("ancestor side") and D ("descendant side"), the
structural join computes all pairs (a, d) with a an ancestor of d.  On
(pre, post)-labeled inputs sorted by pre this is:

- :func:`stack_structural_join` — the stack-based Stack-Tree-Desc
  algorithm: O(|A| + |D| + |output|),
- :func:`merge_structural_join` — a simpler merge variant that skips
  A-nodes that can no longer match (same asymptotics on tree inputs),
- :func:`nested_loop_join` — the O(|A| · |D|) baseline,
- :func:`transitive_closure_pairs` — the baseline the paper calls out:
  materialize Child+ by iterating Child-joins, "performing an arbitrary
  number of joins" (quadratic output in the worst case).

When only one side of the join is wanted, the semi-joins skip the pairs
altogether, on the Tree's own int32 columns:

- :func:`descendant_semijoin` — the candidates below some frontier
  node.  Ancestor intervals nest, so the sorted frontier collapses to
  maximal disjoint pre-intervals in one sweep, and each interval
  slices the candidate list with two binary searches:
  O(|A| + |D| + |out|);
- :func:`ancestor_semijoin` — the candidates above some frontier node,
  one binary search each;
- :func:`child_semijoin` / :func:`parent_semijoin` — the candidates
  whose parent is in the frontier / that are the parent of a frontier
  node, through the ``parent`` column.

:func:`axis_semijoin` runs one semi-join over any axis, and
:func:`reduce_up` / :func:`reduce_down` are the two passes of
Yannakakis' full reducer over one node set per query node, one
semi-join per edge: acyclic CQs and the engine index's twig streams
run on them, and ``linear``'s seeded steps on the dispatcher.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Sequence

from repro.faults import faultpoint, register_site
from repro.obs.context import current as _obs_current
from repro.trees.tree import Tree

__all__ = [
    "stack_structural_join",
    "merge_structural_join",
    "nested_loop_join",
    "transitive_closure_pairs",
    "following_join",
    "descendant_semijoin",
    "ancestor_semijoin",
    "child_semijoin",
    "parent_semijoin",
    "axis_semijoin",
    "reduce_up",
    "reduce_down",
]

# Nodes enter the joins as (pre, post) pairs; a is an ancestor of d iff
# a.pre < d.pre and d.post < a.post.

Label = tuple[int, int]

#: the fault site of every structural join over two sorted streams:
#: these pair joins and semi-joins, and so the full reducer
JOIN_SITE = register_site(
    "join.merge", "structural joins over two streams (pair and semi-joins)"
)


def stack_structural_join(
    ancestors: Sequence[Label], descendants: Sequence[Label]
) -> list[tuple[Label, Label]]:
    """Stack-Tree-Desc: both inputs sorted by pre; output sorted by the
    descendant's pre.  Runs in O(|A| + |D| + |output|)."""
    faultpoint(JOIN_SITE)
    ctx = _obs_current()
    if ctx is not None:
        # both streams will be scanned once — charge them up front so a
        # visit budget can refuse a join before the scan starts
        ctx.count("sj.elements_scanned", len(ancestors) + len(descendants))
        ctx.tick(len(ancestors) + len(descendants))
    out: list[tuple[Label, Label]] = []
    stack: list[Label] = []
    ai = 0
    n_anc = len(ancestors)
    for d in descendants:
        d_pre, d_post = d
        # Push every ancestor-side node that starts before d, popping the
        # ones whose interval closed already.  Because the inputs come
        # from one tree, the stack is always a chain of nested intervals.
        while ai < n_anc and ancestors[ai][0] < d_pre:
            a = ancestors[ai]
            while stack and stack[-1][1] < a[1]:
                stack.pop()
            stack.append(a)
            ai += 1
        # Pop ancestors that do not contain d.
        while stack and stack[-1][1] < d_post:
            stack.pop()
        for a in stack:
            out.append((a, d))
    if ctx is not None:
        ctx.count("sj.stack_pushes", ai)
        ctx.count("sj.pairs", len(out))
        ctx.tick(len(out))
    return out


def _contains(a: Label, d: Label) -> bool:
    return a[0] < d[0] and d[1] < a[1]


def merge_structural_join(
    ancestors: Sequence[Label], descendants: Sequence[Label]
) -> list[tuple[Label, Label]]:
    """A simpler two-cursor variant: for each d, scan the currently-open
    ancestors.  On tree-shaped inputs the open set is a chain, so the
    cost matches the stack algorithm; kept as the ablation partner."""
    faultpoint(JOIN_SITE)
    ctx = _obs_current()
    if ctx is not None:
        ctx.count("sj.elements_scanned", len(ancestors) + len(descendants))
        ctx.tick(len(ancestors) + len(descendants))
    out: list[tuple[Label, Label]] = []
    open_anc: list[Label] = []
    ai = 0
    n_anc = len(ancestors)
    for d in descendants:
        d_pre, _d_post = d
        while ai < n_anc and ancestors[ai][0] < d_pre:
            open_anc.append(ancestors[ai])
            ai += 1
        # prune closed ancestors (post < d_pre means the interval ended)
        open_anc = [a for a in open_anc if a[1] > d_pre or _contains(a, d)]
        for a in open_anc:
            if _contains(a, d):
                out.append((a, d))
    if ctx is not None:
        ctx.count("sj.pairs", len(out))
        ctx.tick(len(out))
    return out


def nested_loop_join(
    ancestors: Sequence[Label], descendants: Sequence[Label]
) -> list[tuple[Label, Label]]:
    """The quadratic baseline."""
    return [
        (a, d) for a in ancestors for d in descendants if _contains(a, d)
    ]


def following_join(
    lefts: Sequence[Label], rights: Sequence[Label]
) -> list[tuple[Label, Label]]:
    """All pairs (l, r) with Following(l, r): l.pre < r.pre, l.post < r.post."""
    return [
        (left, right)
        for left in lefts
        for right in rights
        if left[0] < right[0] and left[1] < right[1]
    ]


def _scan(frontier, candidates):
    """Trip the join fault site and charge both inputs up front, so a
    visit budget can refuse a semi-join before the scan starts; returns
    the active observation context."""
    faultpoint(JOIN_SITE)
    ctx = _obs_current()
    if ctx is not None:
        ctx.count("sj.elements_scanned", len(frontier) + len(candidates))
        ctx.tick(len(frontier) + len(candidates))
    return ctx


def descendant_semijoin(tree: Tree, frontier, candidates) -> array:
    """Sorted ids from ``candidates`` that are proper descendants of some
    node in ``frontier`` (both sorted by pre id), as an int32 column.

    Each maximal frontier interval appends its slice of the candidates
    whole: no (ancestor, descendant) pair is built, and an int32
    posting list is copied without boxing an id.
    """
    ctx = _scan(frontier, candidates)
    out = array("i")
    end = tree.subtree_end
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


def ancestor_semijoin(tree: Tree, frontier, candidates) -> list[int]:
    """Sorted ids from ``candidates`` that are proper ancestors of some
    node in ``frontier`` (both sorted): the first frontier node after a
    candidate lies in its subtree if any does."""
    _scan(frontier, candidates)
    end = tree.subtree_end
    size = len(frontier)
    kept = []
    lo = 0
    for e in candidates:
        lo = bisect_right(frontier, e, lo)
        if lo < size and frontier[lo] < end[e]:
            kept.append(e)
    return kept


def child_semijoin(tree: Tree, frontier, candidates) -> list[int]:
    """Sorted ids from ``candidates`` whose parent is in ``frontier``."""
    _scan(frontier, candidates)
    parent = tree.parent
    members = set(frontier)
    return [c for c in candidates if parent[c] in members]


def parent_semijoin(tree: Tree, frontier, candidates) -> list[int]:
    """Sorted ids from ``candidates`` that are the parent of some node in
    ``frontier``: one byte per node marks the frontier's parents (the
    root's parent, -1, marks the spare last byte)."""
    _scan(frontier, candidates)
    parent = tree.parent
    marked = bytearray(tree.n + 1)
    for c in frontier:
        marked[parent[c]] = 1
    return [p for p in candidates if marked[p]]


#: the semi-join kernels by axis name, for two given node sets
_KERNELS = {
    "Child": child_semijoin,
    "Child+": descendant_semijoin,
    "Parent": parent_semijoin,
    "Ancestor": ancestor_semijoin,
}

def axis_semijoin(tree: Tree, axis, sources, targets):
    """The nodes of ``targets`` that ``axis`` (an ``Axis`` or its name)
    reaches from some node of ``sources``, in document order; either
    side is a sorted id sequence, or None for every node.

    Vertical axes run on the kernels above; the other axes, and a None
    ``targets``, on the set image :func:`~repro.trees.axes.axis_image`.
    When every node is a source, each target takes one O(1) test on the
    Tree's columns, and a reflexive axis keeps the targets, None too.
    Each scan charges its inputs first, so a budget overruns by one O(n)
    batch at most.
    """
    # imported here: ``repro serve`` boots on this module without them
    from repro.trees.axes import REFLEXIVE, axis_image

    name = str(axis)  # an Axis equals its name, as a key too
    if sources is None:
        if name in REFLEXIVE:
            return targets
        nodes = range(tree.n) if targets is None else targets
        _scan((), nodes)
        return _with_source(tree, name, nodes)
    if targets is not None:
        kernel = _KERNELS.get(name)
        if kernel is not None:
            return kernel(tree, sources, targets)
        strict = REFLEXIVE.get(name)
        if strict is not None:
            strictly = axis_semijoin(tree, strict, sources, targets)
            return sorted(set(sources).intersection(targets).union(strictly))
        if not targets:
            return []
    if not sources:
        return []
    ctx = _scan(sources, () if targets is None else targets)
    image = axis_image(tree, name, sources)
    out = sorted(image) if targets is None else [v for v in targets if v in image]
    if ctx is not None:
        ctx.tick(len(out))
    return out


def _with_source(tree: Tree, name: str, nodes) -> list[int]:
    """The ``nodes`` that some node reaches over a non-reflexive axis:
    one test per node on the Tree's columns."""
    if name in ("Child", "Child+"):  # every node but the root
        return [v for v in nodes if v]
    if name in ("NextSibling", "NextSibling+"):
        prev = tree.prev_sibling
        return [v for v in nodes if prev[v] >= 0]
    if name == "FirstChild":
        parent = tree.parent
        return [v for v in nodes if v and parent[v] == v - 1]
    if name == "Following":  # more nodes precede v than its ancestors
        depth = tree.depth
        return [v for v in nodes if v > depth[v]]
    if name in ("Parent", "Ancestor", "FirstChild^-1"):
        end = tree.subtree_end
        return [v for v in nodes if end[v] > v + 1]
    if name in ("PrevSibling", "PrecedingSibling"):
        following = tree.next_sibling
        return [v for v in nodes if following[v] >= 0]
    if name == "Preceding":
        end, n = tree.subtree_end, tree.n
        return [v for v in nodes if end[v] < n]
    raise ValueError(f"no semi-join for axis {name!r}")


def reduce_up(tree: Tree, sets, edges) -> None:
    """The bottom-up pass of the full reducer, in place: ``sets[q]`` is
    query node q's node set, and ``edges`` are the ``(parent, child,
    down, up)`` edges of a rooted forest over the query nodes, each
    after the edge into its parent, ``down`` the axis from a parent's
    node to its child's and ``up`` back.  Afterwards a set holds the
    nodes that extend to a match of the subtree below its query node,
    so a root's set answers the query with that root as its head."""
    for parent, child, _down, up in reversed(edges):
        sets[parent] = axis_semijoin(tree, up, sets[child], sets[parent])


def reduce_down(tree: Tree, sets, edges) -> None:
    """The top-down pass, after :func:`reduce_up`: afterwards every node
    left takes part in a match of the whole forest."""
    for parent, child, down, _up in edges:
        sets[child] = axis_semijoin(tree, down, sets[parent], sets[child])


def transitive_closure_pairs(tree: Tree) -> set[tuple[int, int]]:
    """Materialize Child+ from the Child relation by iterated joins
    (semi-naive).  This is the approach the structural join replaces:
    its output alone is Θ(n·depth), and computing it performs one join
    round per tree level."""
    closure: set[tuple[int, int]] = set(tree.child_pairs())
    frontier = set(closure)
    while frontier:
        next_frontier: set[tuple[int, int]] = set()
        for u, v in frontier:
            for w in tree.children[v]:
                pair = (u, w)
                if pair not in closure:
                    closure.add(pair)
                    next_frontier.add(pair)
        frontier = next_frontier
    return closure
