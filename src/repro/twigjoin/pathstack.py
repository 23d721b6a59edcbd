"""PathStack [Bruno et al. 2002] for path patterns.

One stack per pattern node; elements are pushed in global document
order, each carrying a pointer to the top of its parent's stack at push
time.  Stacks always hold chains of nested intervals, and solutions are
read out through the pointers whenever a leaf element is pushed — no
intermediate result lists (the contrast measured in E14).

Intervals are (pre, subtree_end) pairs, so containment and disjointness
are comparable in one coordinate system: a contains v iff
``a.pre < v.pre < a.end``; a is finished before v iff ``a.end <= v.pre``.
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.obs.context import current as _obs_current
from repro.twigjoin.pattern import TwigPattern
from repro.trees.tree import Tree

__all__ = ["path_stack"]


def _streams(pattern: TwigPattern, tree: Tree) -> list[list[int]]:
    """Per pattern node, the matching tree nodes in document order."""
    out = []
    for node in pattern.nodes:
        if node.label == "*":
            out.append(list(tree.nodes()))
        else:
            out.append(list(tree.nodes_with_label(node.label)))
    return out


def path_stack(
    pattern: TwigPattern,
    tree: Tree,
    streams: list[list[int]] | None = None,
) -> set[tuple[int, ...]]:
    """All matches of a *path* pattern (each pattern node ≤ 1 child).

    Returns tuples of tree nodes, one per pattern node in index order.
    ``streams`` optionally supplies pre-materialized candidate streams.
    """
    chain = [pattern.root]
    while chain[-1].children:
        if len(chain[-1].children) > 1:
            raise QueryError("path_stack needs a path pattern; use twig_stack")
        chain.append(chain[-1].children[0])
    order = [node.index for node in chain]
    k = len(order)
    position_of = {idx: i for i, idx in enumerate(order)}

    ctx = _obs_current()
    pushes = 0
    if streams is None:
        streams = _streams(pattern, tree)
    cursors = [0] * len(pattern.nodes)
    # stacks[i]: list of (tree_node, pointer into stacks[i-1] at push time)
    stacks: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    results: set[tuple[int, ...]] = set()

    def next_pre(i: int) -> int | None:
        idx = order[i]
        if cursors[idx] >= len(streams[idx]):
            return None
        return streams[idx][cursors[idx]]

    def clean(v: int) -> None:
        for stack in stacks:
            while stack and tree.subtree_end[stack[-1][0]] <= v:
                stack.pop()

    def emit(leaf_elem: int, leaf_ptr: int) -> None:
        """Enumerate all chains ending at the freshly pushed leaf element."""
        partial: list[int] = [0] * k

        def expand(i: int, elem: int, ptr: int) -> None:
            partial[i] = elem
            if i == 0:
                if chain[0].edge == "/" and elem != tree.root:
                    return
                results.add(tuple(partial))
                return
            edge = chain[i].edge
            for pos in range(ptr):
                parent_elem, parent_ptr = stacks[i - 1][pos]
                if parent_elem >= elem:
                    continue  # // and / are strict: skip the element itself
                if edge == "/" and tree.parent[elem] != parent_elem:
                    continue
                expand(i - 1, parent_elem, parent_ptr)

        expand(k - 1, leaf_elem, leaf_ptr)

    while True:
        # pick the pattern node whose next element is globally smallest
        best_i, best_v = -1, None
        for i in range(k):
            v = next_pre(i)
            if v is not None and (best_v is None or v < best_v):
                best_i, best_v = i, v
        if best_v is None or next_pre(k - 1) is None:
            break
        if ctx is not None:
            ctx.tick()
        pushes += 1
        clean(best_v)
        idx = order[best_i]
        cursors[idx] += 1
        ptr = len(stacks[best_i - 1]) if best_i > 0 else 0
        if best_i == k - 1:
            emit(best_v, ptr)
            # leaf elements never serve as ancestors of later leaf elements
            # in a path match, so they are not kept on the stack
        else:
            stacks[best_i].append((best_v, ptr))
    if ctx is not None:
        ctx.count("pathstack.pushes", pushes)
        ctx.count("pathstack.solutions", len(results))
        ctx.tick(len(results))
    return results
