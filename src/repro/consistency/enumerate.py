"""Backtrack-free enumeration of CQ solutions (Figure 6, Props 6.9/6.10).

For an *acyclic, tree-shaped* conjunctive query, the maximal
arc-consistent pre-valuation Θ is a compact representation of exactly
the solutions (Proposition 6.9 — this is the full-reducer property of
Yannakakis' algorithm, and the idea underlying holistic twig joins).

- :func:`enumerate_satisfactions` is the recursive algorithm of Figure 6
  verbatim (generalized to yield instead of output): variables numbered
  in pre-order of the query tree; each candidate value is checked only
  against the atom connecting the variable to its parent — by
  Proposition 6.9 no backtracking ever occurs.
- :func:`solutions_with_pointers` is the refinement after Prop. 6.10:
  compatibility pointers between Θ(parent)-values and Θ(child)-values
  are precomputed, so enumeration touches only elements that participate
  in solutions, giving O(|Q| · ||A|| + ||Q(A)||) total.  Under an
  observation it charges the call's budget once per pointer table and
  once per root value's batch of emitted solutions.
"""

from __future__ import annotations

from typing import Iterator

from repro.consistency.arc import arc_consistency_worklist
from repro.cq.query import ConjunctiveQuery, atom_axis
from repro.datalog.syntax import is_variable
from repro.errors import QueryError
from repro.obs.context import current as _obs_current
from repro.trees.structure import TreeStructure
from repro.trees.tree import Tree

__all__ = [
    "is_tree_shaped",
    "query_tree",
    "enumerate_satisfactions",
    "solutions_with_pointers",
]


def is_tree_shaped(query: ConjunctiveQuery) -> bool:
    """Connected, and the query graph is a tree with exactly one binary
    atom per edge (the shape Figure 6 operates on)."""
    adj = query.adjacency()
    variables = query.variables()
    if not variables:
        return False
    edges = set()
    for atom in query.binary_atoms():
        s, t = atom.args
        if not (is_variable(s) and is_variable(t)) or s == t:
            return False
        pair = frozenset((s, t))
        if pair in edges:
            return False
        edges.add(pair)
    if len(edges) != len(variables) - 1:
        return False
    return query.is_connected()


def query_tree(
    query: ConjunctiveQuery, root: str | None = None
) -> tuple[list[str], dict[str, str], dict[str, tuple]]:
    """Root the query graph: returns (variables in query-tree pre-order,
    parent map, and for each non-root variable the atom connecting it to
    its parent as ``(axis_value, parent_is_source)``)."""
    if not is_tree_shaped(query):
        raise QueryError(f"query is not tree-shaped: {query}")
    atom_of: dict[frozenset, tuple] = {}
    for atom in query.binary_atoms():
        s, t = atom.args
        atom_of[frozenset((s, t))] = (atom_axis(atom).value, s, t)
    adj = query.adjacency()
    variables = query.variables()
    root = root if root is not None else (
        query.head[0] if query.head else variables[0]
    )
    order: list[str] = []
    parent: dict[str, str] = {}
    connecting: dict[str, tuple] = {}
    stack = [root]
    seen = {root}
    while stack:
        x = stack.pop()
        order.append(x)
        for y in sorted(adj[x]):
            if y not in seen:
                seen.add(y)
                parent[y] = x
                axis, s, _t = atom_of[frozenset((x, y))]
                connecting[y] = (axis, s == x)
                stack.append(y)
    return order, parent, connecting


def enumerate_satisfactions(
    query: ConjunctiveQuery,
    tree: Tree,
    theta: dict[str, set[int]] | None = None,
    structure: TreeStructure | None = None,
) -> Iterator[dict[str, int]]:
    """Figure 6, as a generator of full valuations.

    ``theta`` defaults to the maximal arc-consistent pre-valuation; pass
    one explicitly to enumerate from a pre-computed representation.
    """
    query = query.canonicalized().validate()
    structure = structure or TreeStructure(tree)
    if theta is None:
        theta = arc_consistency_worklist(query, tree, structure)
        if theta is None:
            return
    order, parent, connecting = query_tree(query)
    n_vars = len(order)
    valuation: dict[str, int] = {}

    # Figure 6 checks each candidate only against the atom connecting
    # x_i to parent(x_i); in query-tree pre-order the parent is always
    # already assigned, and Proposition 6.9 guarantees no dead ends.
    def recurse(i: int) -> Iterator[dict[str, int]]:
        x = order[i]
        for v in sorted(theta[x]):
            if i == 0:
                compatible = True
            else:
                axis, parent_is_source = connecting[x]
                p_val = valuation[parent[x]]
                if parent_is_source:
                    compatible = structure.holds_binary(axis, p_val, v)
                else:
                    compatible = structure.holds_binary(axis, v, p_val)
            if compatible:
                valuation[x] = v
                if i == n_vars - 1:
                    yield dict(valuation)
                else:
                    yield from recurse(i + 1)

    yield from recurse(0)


def solutions_with_pointers(
    query: ConjunctiveQuery,
    tree: Tree,
    structure: TreeStructure | None = None,
    project_to_head: bool = True,
) -> "set[tuple[int, ...]] | list[dict[str, int]]":
    """Proposition 6.10: output-sensitive enumeration.

    After arc consistency, build for every variable y with parent x the
    pointer lists ``compatible[y][v] = [w in Θ(y) : R(v, w)]`` for each
    v ∈ Θ(x) — by Proposition 6.9 every listed w extends to a full
    solution, so the recursion below never dead-ends and its work is
    proportional to the output.

    Returns the set of head tuples (or, with ``project_to_head=False``,
    the list of full valuations).
    """
    query = query.canonicalized().validate()
    structure = structure or TreeStructure(tree)
    theta = arc_consistency_worklist(query, tree, structure)
    if theta is None:
        return set() if project_to_head else []
    order, parent, connecting = query_tree(query)
    ctx = _obs_current()

    compatible: dict[str, dict[int, list[int]]] = {}
    for y in order[1:]:
        axis, parent_is_source = connecting[y]
        x = parent[y]
        if ctx is not None:
            ctx.tick(len(theta[x]))
        table: dict[int, list[int]] = {}
        for v in theta[x]:
            if parent_is_source:
                ws = [
                    w for w in structure.successors(axis, v) if w in theta[y]
                ]
            else:
                ws = [
                    w for w in structure.predecessors(axis, v) if w in theta[y]
                ]
            table[v] = ws
        compatible[y] = table

    valuations: list[dict[str, int]] = []
    valuation: dict[str, int] = {}
    n_vars = len(order)

    def recurse(i: int) -> None:
        if i == n_vars:
            valuations.append(dict(valuation))
            return
        y = order[i]
        for w in compatible[y][valuation[parent[y]]]:
            valuation[y] = w
            recurse(i + 1)

    root = order[0]
    for w in sorted(theta[root]):
        emitted = len(valuations)
        valuation[root] = w
        recurse(1)
        if ctx is not None:
            ctx.tick(len(valuations) - emitted)
    if not project_to_head:
        return valuations
    return {tuple(v[x] for x in query.head) for v in valuations}
