"""Bounded-tree-width CQ evaluation — Theorem 4.1 [Chekuri & Rajaraman].

Given a tree decomposition of the query graph of width k:

1. assign each atom to a bag containing all its variables,
2. for every bag, materialize the *bag relation*: all assignments of the
   bag's variables satisfying the atoms assigned to it — at most
   |A|^{k+1} rows, enumerated with pruning,
3. the bags, joined on their shared variables along the decomposition
   tree, form an acyclic query: finish with Yannakakis' full reducer and
   eager-projection joins.

Total: O((|A|^{k+1} + ||A||) · |Q|) — the bound Theorem 4.1 states, and
the route by which FO^{k+1} queries (tree-width ≤ k, [54]) are tractable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cq.query import ConjunctiveQuery, atom_axis
from repro.cq.treewidth import query_graph, tree_decomposition
from repro.cq.yannakakis import _Relation
from repro.datalog.syntax import Atom, is_variable
from repro.errors import EvaluationError, QueryError
from repro.obs.context import current as _obs_current
from repro.trees.structure import TreeStructure
from repro.trees.tree import Tree

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["evaluate_bounded_treewidth"]


def _bag_relation(
    bag: tuple[str, ...],
    atoms: list[Atom],
    structure: TreeStructure,
) -> _Relation:
    """All assignments of ``bag`` satisfying ``atoms`` (depth-first with
    pruning; at most |A|^{|bag|} assignments are visited).  Each level's
    scan of the domain charges it to the active observation in one
    tick, so deadlines and visit budgets bound the enumeration."""
    rows: list[tuple[int, ...]] = []
    domain = list(structure.domain)
    ctx = _obs_current()

    # atoms checkable once their variables are all bound
    var_pos = {v: i for i, v in enumerate(bag)}

    def atom_ready(atom: Atom, bound: int) -> bool:
        return all(
            not is_variable(t) or var_pos[t] < bound for t in atom.args
        )

    checks_at: list[list[Atom]] = [[] for _ in range(len(bag) + 1)]
    for atom in atoms:
        level = 0
        for t in atom.args:
            if is_variable(t):
                level = max(level, var_pos[t] + 1)
        checks_at[level].append(atom)

    def satisfied(atom: Atom, assignment: list[int]) -> bool:
        def val(t):
            return assignment[var_pos[t]] if is_variable(t) else t

        if atom.arity == 1:
            return structure.holds_unary(atom.pred, val(atom.args[0]))
        axis = atom_axis(atom).value
        return structure.holds_binary(axis, val(atom.args[0]), val(atom.args[1]))

    assignment: list[int] = [0] * len(bag)

    def descend(level: int) -> None:
        if level == len(bag):
            rows.append(tuple(assignment))
            return
        if ctx is not None:
            ctx.tick(len(domain))
        for v in domain:
            assignment[level] = v
            if all(satisfied(a, assignment) for a in checks_at[level + 1]):
                descend(level + 1)

    # constant-only atoms gate the whole bag
    if all(satisfied(a, assignment) for a in checks_at[0]):
        descend(0)
    return _Relation(tuple(bag), rows)


def evaluate_bounded_treewidth(
    query: ConjunctiveQuery,
    tree: Tree,
    structure: TreeStructure | None = None,
    decomposition: "nx.Graph | None" = None,
) -> set[tuple[int, ...]]:
    """Evaluate any CQ via a tree decomposition of its query graph
    (Theorem 4.1).  Returns the set of head tuples (``{()}``/``set()``
    for Boolean queries)."""
    query = query.canonicalized().validate()
    structure = structure or TreeStructure(tree)
    if decomposition is None:
        _width, decomposition = tree_decomposition(query)
    bags = list(decomposition.nodes)
    if not bags:
        raise EvaluationError("empty tree decomposition")
    # head variables must live somewhere; add them to a bag if the query
    # graph misses them (e.g. variable occurring only in unary atoms)
    all_bag_vars = set().union(*bags)
    loose = [v for v in query.variables() if v not in all_bag_vars]
    if loose:
        import networkx as nx

        enriched = frozenset(bags[0] | set(loose))
        decomposition = nx.relabel_nodes(decomposition, {bags[0]: enriched})
        bags = list(decomposition.nodes)

    # assign each atom to one covering bag
    assigned: dict[frozenset, list[Atom]] = {bag: [] for bag in bags}
    for atom in query.atoms:
        vs = set(atom.variables())
        for bag in bags:
            if vs <= bag:
                assigned[bag].append(atom)
                break
        else:
            raise QueryError(
                f"decomposition does not cover atom {atom} (invalid input)"
            )

    relations = {
        bag: _bag_relation(tuple(sorted(bag)), atoms, structure)
        for bag, atoms in assigned.items()
    }
    if any(not rel.rows for rel in relations.values()):
        return set()

    # Yannakakis over the (acyclic by construction) bag join tree.
    root = bags[0]
    order: list[frozenset] = []
    parent: dict[frozenset, frozenset] = {}
    stack = [root]
    seen = {root}
    while stack:
        bag = stack.pop()
        order.append(bag)
        for nb in decomposition.neighbors(bag):
            if nb not in seen:
                seen.add(nb)
                parent[nb] = bag
                stack.append(nb)
    # bottom-up semijoins
    for bag in reversed(order):
        if bag in parent:
            relations[parent[bag]] = relations[parent[bag]].semijoin(
                relations[bag]
            )
            if not relations[parent[bag]].rows:
                return set()
    if query.is_boolean():
        return {()}
    # top-down semijoins, then eager-projection joins toward the root
    for bag in order:
        if bag in parent:
            relations[bag] = relations[bag].semijoin(relations[parent[bag]])
    head = set(query.head)
    acc = {bag: relations[bag] for bag in order}
    for bag in reversed(order):
        if bag in parent:
            p = parent[bag]
            keep = head | set(acc[p].schema)
            acc[p] = acc[p].join_project(acc[bag], keep=keep)
    result = acc[root]
    idx = [result.schema.index(v) for v in query.head]
    return {tuple(r[i] for i in idx) for r in result.rows}
