"""Yannakakis' algorithm for acyclic conjunctive queries [77] (§4).

Three phases over a join tree:

1. *materialize* the relation of each atom from the tree structure,
   starting from the label posting lists of its variables (§2's
   structural joins feeding §4), so a relation holds only rows whose
   variables carry their labels,
2. *full reducer*: semijoin children into parents bottom-up, then
   parents into children top-down — afterwards every remaining tuple
   participates in at least one answer,
3. *join with eager projection*: joining bottom-up while projecting away
   all columns not needed above keeps every intermediate result within
   O(||input|| + ||output||), which is where the O(||A|| · |Q|) bound for
   Boolean and unary queries (Proposition 4.2) comes from.

Every materialized relation and every semijoin/join pass charges its
rows to the active observation (``nodes.visited``), so deadlines and
visit budgets bound these phases.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Mapping

from repro.cq.acyclic import JoinTree, build_join_tree
from repro.cq.query import ConjunctiveQuery, atom_axis
from repro.datalog.syntax import Atom, is_variable
from repro.errors import EvaluationError
from repro.obs.context import current as _obs_current
from repro.trees.axes import Axis
from repro.trees.structure import TreeStructure, lab
from repro.trees.tree import Tree

__all__ = [
    "materialize_atom",
    "yannakakis",
    "yannakakis_boolean",
    "yannakakis_unary",
]

_LAB = lab("")


def _label_seeds(query: ConjunctiveQuery, tree: Tree) -> dict[str, str]:
    """Each variable's most selective label: the one with the shortest
    posting list among the variable's ``Lab:`` atoms."""
    seeds: dict[str, str] = {}
    for atom in query.atoms:
        if atom.arity == 1 and atom.pred.startswith(_LAB) and is_variable(atom.args[0]):
            var, label = atom.args[0], atom.pred[len(_LAB):]
            best = seeds.get(var)
            if best is None or len(tree.nodes_with_label(label)) < len(
                tree.nodes_with_label(best)
            ):
                seeds[var] = label
    return seeds


def materialize_atom(
    atom: Atom,
    structure: TreeStructure,
    seeds: "Mapping[str, str] | None" = None,
) -> tuple[tuple[str, ...], list[tuple[int, ...]]]:
    """The relation of one atom: (variable schema, rows).

    Constants are filtered out of the schema; a repeated variable
    (``R(x, x)``) produces a unary relation of the diagonal.

    ``seeds`` maps variables to labels (:func:`_label_seeds`).  A
    unary atom, or a binary atom over two distinct variables, then
    drops rows whose seeded variable lacks its label, and enumeration
    starts from that label's posting list rather than the domain.
    Without seeds every pair of the axis is enumerated.
    """
    seeds = seeds or {}
    tree = structure.tree
    if atom.arity == 1:
        t = atom.args[0]
        if not is_variable(t):
            ok = structure.holds_unary(atom.pred, t)
            return (), [()] if ok else []
        label = seeds.get(t)
        if label is None:
            return (t,), [(v,) for v in structure.unary_members(atom.pred)]
        posting = tree.nodes_with_label(label)
        if atom.pred == _LAB + label:
            return (t,), [(v,) for v in posting]
        return (t,), [(v,) for v in posting if structure.holds_unary(atom.pred, v)]
    axis = atom_axis(atom)
    s, t = atom.args
    if is_variable(s) and is_variable(t):
        if s == t:
            rows = [
                (u,)
                for u in structure.domain
                if structure.holds_binary(axis.value, u, u)
            ]
            return (s,), rows
        return (s, t), _seeded_pairs(structure, axis, seeds.get(s), seeds.get(t))
    if is_variable(t):  # R(c, y)
        return (t,), [(v,) for v in structure.successors(axis.value, s)]
    if is_variable(s):  # R(x, c)
        return (s,), [(u,) for u in structure.predecessors(axis.value, t)]
    ok = structure.holds_binary(axis.value, s, t)
    return (), [()] if ok else []


def _seeded_pairs(
    structure: TreeStructure, axis: Axis, src: "str | None", dst: "str | None"
) -> list[tuple[int, int]]:
    """The pairs ``(u, v)`` of ``axis`` with ``u`` labeled ``src`` and
    ``v`` labeled ``dst`` (None: any node).

    Each strategy enumerates a subset of what the unseeded loop over the
    domain would: a labeled source walks its successors; a labeled
    target walks its predecessors, except under ``Following``, whose
    inverse scans a pre-order prefix per node and so is not bounded by
    the pairs it yields; with both ends labeled, ``Child+``/``Child*``
    slice the target posting list by each source's descendant range.
    """
    tree = structure.tree
    labels = tree.labels
    name = axis.value
    if src is not None and dst is not None and axis in (Axis.CHILD_PLUS, Axis.CHILD_STAR):
        targets = tree.nodes_with_label(dst)
        end = tree.subtree_end
        first = 0 if axis is Axis.CHILD_STAR else 1
        return [
            (u, targets[i])
            for u in tree.nodes_with_label(src)
            for i in range(bisect_left(targets, u + first), bisect_left(targets, end[u]))
        ]
    if dst is not None and axis is not Axis.FOLLOWING and (
        src is None
        or len(tree.nodes_with_label(dst)) < len(tree.nodes_with_label(src))
    ):
        return [
            (u, v)
            for v in tree.nodes_with_label(dst)
            for u in structure.predecessors(name, v)
            if src is None or src in labels[u]
        ]
    sources = structure.domain if src is None else tree.nodes_with_label(src)
    return [
        (u, v)
        for u in sources
        for v in structure.successors(name, u)
        if dst is None or dst in labels[v]
    ]


def _charge(rows: int) -> None:
    """Tick ``rows`` visited nodes on the active observation, if any."""
    ctx = _obs_current()
    if ctx is not None:
        ctx.tick(rows)


class _Relation:
    """A variable-schema relation with semijoin/join/project primitives."""

    __slots__ = ("schema", "rows")

    def __init__(self, schema: tuple[str, ...], rows: list[tuple[int, ...]]):
        self.schema = schema
        self.rows = rows

    def key_index(self, shared: tuple[str, ...]) -> list[int]:
        return [self.schema.index(v) for v in shared]

    def semijoin(self, other: "_Relation") -> "_Relation":
        """Keep rows of self that join with some row of other."""
        _charge(len(self.rows) + len(other.rows))
        shared = tuple(v for v in self.schema if v in other.schema)
        if not shared:
            return self if other.rows else _Relation(self.schema, [])
        mine = self.key_index(shared)
        theirs = other.key_index(shared)
        keys = {tuple(r[i] for i in theirs) for r in other.rows}
        rows = [r for r in self.rows if tuple(r[i] for i in mine) in keys]
        return _Relation(self.schema, rows)

    def join_project(
        self, other: "_Relation", keep: set[str]
    ) -> "_Relation":
        """Hash join followed by projection onto ``keep`` (dedup)."""
        _charge(len(self.rows) + len(other.rows))
        shared = tuple(v for v in self.schema if v in other.schema)
        out_schema = tuple(
            v for v in self.schema + other.schema
            if v in keep
        )
        # deduplicate schema preserving order
        seen_vars: dict[str, None] = {}
        out_schema = tuple(
            seen_vars.setdefault(v, None) or v
            for v in out_schema
            if v not in seen_vars
        )
        mine = self.key_index(shared)
        theirs = other.key_index(shared)
        buckets: dict[tuple, list[tuple]] = {}
        for r in other.rows:
            buckets.setdefault(tuple(r[i] for i in theirs), []).append(r)
        self_pos = {v: i for i, v in enumerate(self.schema)}
        other_pos = {v: i for i, v in enumerate(other.schema)}
        out_rows: set[tuple[int, ...]] = set()
        for lrow in self.rows:
            key = tuple(lrow[i] for i in mine)
            for rrow in buckets.get(key, ()):
                out_rows.add(
                    tuple(
                        lrow[self_pos[v]] if v in self_pos else rrow[other_pos[v]]
                        for v in out_schema
                    )
                )
        return _Relation(out_schema, list(out_rows))

    def project(self, keep: list[str]) -> "_Relation":
        idx = [self.schema.index(v) for v in keep]
        rows = list({tuple(r[i] for i in idx) for r in self.rows})
        return _Relation(tuple(keep), rows)


def _materialize(
    query: ConjunctiveQuery, structure: TreeStructure
) -> list[_Relation]:
    """Phase 1: each atom's relation, seeded by :func:`_label_seeds`.
    A seeded label with no node empties the answer before any atom
    is materialized: one empty relation stands for all of them."""
    seeds = _label_seeds(query, structure.tree)
    if any(not structure.tree.nodes_with_label(label) for label in seeds.values()):
        return [_Relation((), [])]
    relations = []
    for atom in query.atoms:
        relation = _Relation(*materialize_atom(atom, structure, seeds))
        _charge(len(relation.rows))
        relations.append(relation)
    return relations


def _full_reduce(
    tree: JoinTree, relations: list[_Relation]
) -> list[_Relation]:
    """Phases 1–2: the full reducer (both semijoin sweeps)."""
    order = tree.postorder()
    for i in order:  # bottom-up: parent ⋉ child
        parent = tree.parent.get(i)
        if parent is not None:
            relations[parent] = relations[parent].semijoin(relations[i])
    for i in reversed(order):  # top-down: child ⋉ parent
        parent = tree.parent.get(i)
        if parent is not None:
            relations[i] = relations[i].semijoin(relations[parent])
    return relations


def _needed_above(tree: JoinTree, query: ConjunctiveQuery) -> dict[int, set[str]]:
    """For each atom, the variables that its subtree must export: head
    variables plus variables shared with atoms outside the subtree."""
    atom_vars = [set(a.variables()) for a in query.atoms]
    subtree_vars: dict[int, set[str]] = {}
    for i in tree.postorder():
        vs = set(atom_vars[i])
        for c in tree.children.get(i, ()):
            vs |= subtree_vars[c]
        subtree_vars[i] = vs
    head = set(query.head)
    needed: dict[int, set[str]] = {}
    all_indices = set(range(len(query.atoms)))
    for i in all_indices:
        inside = {j for j in tree.postorder() if _in_subtree(tree, i, j)}
        outside_vars: set[str] = set()
        for j in all_indices - inside:
            outside_vars |= atom_vars[j]
        needed[i] = (subtree_vars[i] & outside_vars) | (head & subtree_vars[i])
    return needed


def _in_subtree(tree: JoinTree, root: int, node: int) -> bool:
    while node != root and node in tree.parent:
        node = tree.parent[node]
    return node == root


def yannakakis(
    query: ConjunctiveQuery,
    tree: Tree,
    structure: TreeStructure | None = None,
) -> set[tuple[int, ...]]:
    """Evaluate an acyclic CQ of any arity.  Boolean queries return
    ``{()}`` (true) or ``set()`` (false)."""
    query = query.canonicalized().validate()
    structure = structure or TreeStructure(tree)
    root_var = query.head[0] if len(query.head) == 1 else None
    jtree = build_join_tree(query, root_var=root_var)
    relations = _materialize(query, structure)
    if any(not r.rows for r in relations):
        return set()
    relations = _full_reduce(jtree, relations)
    if any(not r.rows for r in relations):
        return set()
    if query.is_boolean():
        return {()}
    needed = _needed_above(jtree, query)
    # join bottom-up with eager projection
    acc: dict[int, _Relation] = {}
    for i in jtree.postorder():
        rel = relations[i]
        for c in jtree.children.get(i, ()):
            rel = rel.join_project(
                acc[c], keep=needed[i] | set(rel.schema) | set(query.head)
            )
        keep = [v for v in rel.schema if v in needed[i]]
        acc[i] = rel.project(keep) if set(keep) != set(rel.schema) else rel
    result = acc[jtree.root]
    missing = [v for v in query.head if v not in result.schema]
    if missing:
        raise EvaluationError(
            f"head variables {missing} lost during join (internal error)"
        )
    idx = [result.schema.index(v) for v in query.head]
    return {tuple(r[i] for i in idx) for r in result.rows}


def yannakakis_boolean(
    query: ConjunctiveQuery, tree: Tree, structure: TreeStructure | None = None
) -> bool:
    """Boolean acyclic CQ in O(||A|| · |Q|): only the bottom-up semijoin
    sweep is needed."""
    query = query.with_head(()).canonicalized().validate()
    structure = structure or TreeStructure(tree)
    jtree = build_join_tree(query)
    relations = _materialize(query, structure)
    if any(not r.rows for r in relations):
        return False
    for i in jtree.postorder():
        parent = jtree.parent.get(i)
        if parent is not None:
            relations[parent] = relations[parent].semijoin(relations[i])
            if not relations[parent].rows:
                return False
    return bool(relations[jtree.root].rows)


def yannakakis_unary(
    query: ConjunctiveQuery,
    tree: Tree,
    structure: TreeStructure | None = None,
) -> set[int]:
    """Unary acyclic CQ in O(||A|| · |Q|) (Proposition 4.2): root the join
    tree at an atom containing the output variable and run the full
    reducer; the answer is a column of the reduced root relation."""
    if len(query.head) != 1:
        raise EvaluationError("yannakakis_unary needs exactly one head variable")
    query = query.canonicalized().validate()
    structure = structure or TreeStructure(tree)
    out_var = query.head[0]
    jtree = build_join_tree(query, root_var=out_var)
    relations = _materialize(query, structure)
    if any(not r.rows for r in relations):
        return set()
    relations = _full_reduce(jtree, relations)
    root_rel = relations[jtree.root]
    if any(not r.rows for r in relations):
        return set()
    col = root_rel.schema.index(out_var)
    return {r[col] for r in root_rel.rows}
