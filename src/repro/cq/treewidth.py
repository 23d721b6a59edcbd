"""Tree-width of queries and tree decompositions (Section 4, Figure 4).

The tree-width of a CQ is the tree-width of its query graph.  We compute
it exactly for small graphs with the elimination-order subset DP, and
fall back to the min-fill-in heuristic (an upper bound) beyond that.
Decompositions come out as a tree over bags (frozensets of variables);
:func:`is_valid_decomposition` checks the three defining conditions,
which is how the test suite certifies e.g. that (Child, NextSibling)-
trees have tree-width two (Figure 4).

networkx is imported inside the functions that build graphs, so only
an explicit request for the ``treewidth`` strategy, or a budget
fallback to it, loads it: no auto plan computes a tree-width.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

from repro.cq.query import ConjunctiveQuery
from repro.trees.tree import Tree

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "query_graph",
    "query_treewidth",
    "tree_decomposition",
    "is_valid_decomposition",
    "treewidth_exact",
    "tree_structure_graph",
]

_EXACT_LIMIT = 13


def query_graph(query: ConjunctiveQuery) -> nx.Graph:
    """The query graph: variables as vertices, one edge per binary atom
    over two distinct variables (Section 4)."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(query.variables())
    for v, ws in query.adjacency().items():
        for w in ws:
            graph.add_edge(v, w)
    return graph


def tree_structure_graph(tree: Tree) -> nx.Graph:
    """The Gaifman graph of the (Child, NextSibling)-structure of a tree
    — the graph Figure 4 shows has tree-width two."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(tree.nodes())
    graph.add_edges_from(tree.child_pairs())
    graph.add_edges_from(tree.next_sibling_pairs())
    return graph


def treewidth_exact(graph: nx.Graph) -> int:
    """Exact tree-width via the elimination-order subset DP,
    O(2^n · n · m); restricted to ≤ 13 vertices."""
    nodes = list(graph.nodes)
    n = len(nodes)
    if n == 0:
        return 0
    if n > _EXACT_LIMIT:
        raise ValueError(f"exact tree-width limited to {_EXACT_LIMIT} vertices")
    index = {v: i for i, v in enumerate(nodes)}
    adj = [0] * n
    for u, v in graph.edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]

    full = (1 << n) - 1

    def q_value(eliminated: int, v: int) -> int:
        """Number of vertices outside ``eliminated`` (and != v) reachable
        from v along paths whose interior lies inside ``eliminated``."""
        seen = 1 << v
        stack = [v]
        reach = 0
        while stack:
            u = stack.pop()
            nbrs = adj[u] & ~seen
            seen |= nbrs
            reach |= nbrs & ~eliminated
            inside = nbrs & eliminated
            while inside:
                low = inside & -inside
                stack.append(low.bit_length() - 1)
                inside ^= low
        return (reach & ~(1 << v)).bit_count()

    best = {0: -1}
    for _size in range(n):
        nxt_best: dict[int, int] = {}
        for eliminated, width in best.items():
            rest = full & ~eliminated
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                rest ^= low
                new_set = eliminated | low
                cost = max(width, q_value(eliminated, v))
                old = nxt_best.get(new_set)
                if old is None or cost < old:
                    nxt_best[new_set] = cost
        best = nxt_best
    return best[full]


def query_treewidth(query: ConjunctiveQuery, exact: bool | None = None) -> int:
    """Tree-width of a query's graph.

    ``exact=None`` (default) uses the exact DP when the query is small
    enough and the heuristic upper bound otherwise.
    """
    graph = query_graph(query)
    return graph_treewidth(graph, exact=exact)


def graph_treewidth(graph: nx.Graph, exact: bool | None = None) -> int:
    import networkx as nx

    if graph.number_of_nodes() == 0:
        return 0
    use_exact = exact if exact is not None else (
        graph.number_of_nodes() <= _EXACT_LIMIT
    )
    if use_exact:
        return treewidth_exact(graph)
    width, _tree = nx.algorithms.approximation.treewidth_min_fill_in(graph)
    return width


def tree_decomposition(
    graph_or_query: "nx.Graph | ConjunctiveQuery",
) -> tuple[int, nx.Graph]:
    """A tree decomposition ``(width, tree-of-bags)`` (min-fill-in
    heuristic; bags are frozensets of vertices)."""
    import networkx as nx

    graph = (
        query_graph(graph_or_query)
        if isinstance(graph_or_query, ConjunctiveQuery)
        else graph_or_query
    )
    if graph.number_of_nodes() == 0:
        tree = nx.Graph()
        tree.add_node(frozenset())
        return 0, tree
    width, tree = nx.algorithms.approximation.treewidth_min_fill_in(graph)
    return width, tree


def is_valid_decomposition(graph: nx.Graph, decomposition: nx.Graph) -> bool:
    """Check the three conditions of the definition in Section 4:
    every vertex is covered, every edge is covered, and each vertex's
    bags induce a connected subtree."""
    import networkx as nx

    bags = list(decomposition.nodes)
    covered = set().union(*bags) if bags else set()
    if set(graph.nodes) - covered:
        return False
    for u, v in graph.edges:
        if not any(u in bag and v in bag for bag in bags):
            return False
    for v in graph.nodes:
        holding = [bag for bag in bags if v in bag]
        sub = decomposition.subgraph(holding)
        if holding and not nx.is_connected(sub):
            return False
    return True
