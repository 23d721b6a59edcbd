"""Yannakakis' algorithm for acyclic conjunctive queries [77] (§4).

Over trees every atom is unary or binary, so once the atoms over one
pair of variables are folded into one edge, an acyclic CQ's query graph
is a forest, and the full reducer needs one node set per variable, not
one relation per atom:

1. *seed*: a variable's set holds the nodes that satisfy its unary
   atoms (:meth:`~repro.trees.structure.TreeStructure.members`: its
   smallest ``Lab:`` posting list, or one column of the tree for
   ``Root``, ``Leaf``, ..., filtered by the rest), and each atom with a
   node-id constant filters it with one semi-join from that node.  A
   variable that nothing constrains stays ``None``, every node, and a
   semi-join with a neighbour reduces it without building it,
2. *full reducer*: each component is rooted at a head variable if it
   has one, and one semi-join per edge
   (:func:`~repro.storage.structural_join.axis_semijoin`, §2's kernels)
   reduces the sets bottom-up.  A unary or Boolean head reads its answer
   off the roots, in O(||A|| · |Q|) with no pair built (Proposition
   4.2).  A k-ary head also runs the top-down pass, after which every
   node left takes part in some answer,
3. *join with eager projection*, k-ary heads only: the edges on paths
   between head variables are built over their two reduced sets
   (:func:`materialize_atom`) and joined bottom-up, projecting away
   every variable not needed above.

The engine index's twig streams run the same two passes.  Every
semi-join charges its inputs to the active observation before it scans,
and every built relation and join its rows (``nodes.visited``), so a
deadline or visit budget overruns by one O(n) batch at most.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Mapping

from repro.cq.query import ConjunctiveQuery, atom_axis
from repro.datalog.syntax import Atom, is_variable
from repro.errors import EvaluationError, NotAcyclicError
from repro.obs.context import current as _obs_current
from repro.storage.structural_join import axis_semijoin, reduce_down, reduce_up
from repro.trees.axes import IMPLIES, REFLEXIVE, Axis, inverse_axis
from repro.trees.structure import TreeStructure, const
from repro.trees.tree import Tree

__all__ = [
    "materialize_atom",
    "yannakakis",
    "yannakakis_boolean",
    "yannakakis_unary",
]

#: the forward axes whose targets from u are one interval of pre ids
_INTERVAL = frozenset({Axis.CHILD_PLUS, Axis.CHILD_STAR, Axis.FOLLOWING})


def materialize_atom(
    atom: Atom,
    structure: TreeStructure,
    sets: "Mapping[str, object] | None" = None,
) -> tuple[tuple[str, ...], list[tuple[int, ...]]]:
    """The relation of a binary atom over two variables: (schema, rows).

    ``sets`` maps variables to sorted node sets (a missing or None entry
    is every node), and the rows range over those sets only.
    """
    sets = sets or {}

    def nodes(var: str):
        column = sets.get(var)
        return range(structure.tree.n) if column is None else column

    s, t = atom.args
    return atom.args, _pairs(structure, atom_axis(atom), nodes(s), nodes(t))


def _pairs(
    structure: TreeStructure, axis: Axis, sources, targets
) -> list[tuple[int, int]]:
    """The pairs ``(u, v)`` of ``axis`` with ``u`` in ``sources`` and
    ``v`` in ``targets`` (sorted): a slice of the targets per source
    where the axis reaches an interval of pre ids, else the source's
    successors that are targets."""
    tree = structure.tree
    if axis not in _INTERVAL:
        members = set(targets)
        return [
            (u, v) for u in sources
            for v in structure.successors(axis.value, u) if v in members
        ]
    end = tree.subtree_end
    pairs = []
    for u in sources:
        if axis is Axis.FOLLOWING:
            lo, hi = end[u], tree.n
        else:
            lo, hi = u + (axis is Axis.CHILD_PLUS), end[u]
        i = bisect_left(targets, lo)
        pairs.extend((u, v) for v in targets[i:bisect_left(targets, hi, i)])
    return pairs


def _charge(rows: int) -> None:
    """Tick ``rows`` visited nodes on the active observation, if any."""
    ctx = _obs_current()
    if ctx is not None:
        ctx.tick(rows)


class _Relation:
    """A variable-schema relation with semijoin and join primitives."""

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


def _meet(r: Axis, s: Axis) -> "Axis | None":
    """The axis that holds exactly where forward axes ``r`` and ``s``
    both do, on every tree: the most general one implying both, or None
    when no pair satisfies both."""
    common = IMPLIES[r] & IMPLIES[s]
    return next((a for a in common if common <= IMPLIES[a]), None)


def _forest(query: ConjunctiveQuery):
    """The query graph as a rooted forest, ``(roots, edges)`` with the
    edges as :func:`reduce_up` takes them, each component rooted at its
    first head variable if it has one.

    The atoms over one pair of variables fold into one edge: the meet of
    their axes, or ``Self`` for two reflexive axes in opposite
    directions (otherwise forward axes never lead back).  Returns None
    when a fold leaves no axis; raises :class:`NotAcyclicError` when the
    folded graph has a cycle.
    """
    folded: dict[frozenset, tuple] = {}
    for atom in query.binary_atoms():
        s, t = atom.args
        if s == t or not (is_variable(s) and is_variable(t)):
            continue
        pair, axis = frozenset(atom.args), atom_axis(atom)
        args, met = folded.get(pair, (atom.args, axis))
        if met is not None and args == atom.args:
            met = _meet(met, axis)
        elif met is not None:
            met = Axis.SELF if Axis.SELF in IMPLIES[met] & IMPLIES[axis] else None
        folded[pair] = (args, met)
    neighbours = query.adjacency()
    roots: list[str] = []
    spanning: list[tuple[str, str]] = []
    seen: set[str] = set()
    for root in dict.fromkeys(query.head + tuple(neighbours)):
        if root in seen:
            continue
        roots.append(root)
        seen.add(root)
        stack = [root]
        while stack:
            v = stack.pop()
            for w in sorted(neighbours[v]):
                if w not in seen:
                    seen.add(w)
                    spanning.append((v, w))
                    stack.append(w)
    if len(spanning) < len(folded):
        raise NotAcyclicError(f"query is cyclic: {query}")
    if any(axis is None for _args, axis in folded.values()):
        return None
    edges = []
    for v, w in spanning:
        (s, _t), axis = folded[frozenset((v, w))]
        down = axis if s == v else inverse_axis(axis)
        edges.append((v, w, down, inverse_axis(down)))
    return roots, edges


def _seed(query: ConjunctiveQuery, structure: TreeStructure):
    """Each term's node set before the reducer: the nodes that satisfy
    its unary atoms (:meth:`TreeStructure.members`), a node-id
    constant's only that node; then every atom over a constant filters
    the other term's set with one semi-join from the constant's.  None
    for a variable nothing constrains.  Returns None when a self-loop
    over an irreflexive axis never holds."""
    names: dict = {
        t: [const(t)] for atom in query.atoms for t in atom.args if not is_variable(t)
    }
    for atom in query.unary_atoms():
        names.setdefault(atom.args[0], []).append(atom.pred)
    sets: dict = dict.fromkeys(query.variables())
    sets.update((t, structure.members(preds)) for t, preds in names.items())
    tree = structure.tree
    for atom in query.binary_atoms():
        s, t = atom.args
        axis = atom_axis(atom)
        if s == t:
            if axis not in REFLEXIVE:
                return None  # an irreflexive forward axis never leads back
        elif not is_variable(s):
            sets[t] = axis_semijoin(tree, axis, sets[s], sets[t])
        elif not is_variable(t):
            sets[s] = axis_semijoin(tree, inverse_axis(axis), sets[t], sets[s])
    return sets


def _join(query, structure, sets, roots, edges) -> set[tuple[int, ...]]:
    """Phase 3 for a k-ary head, after both reducer passes: join the
    edges on paths between head variables, projecting every variable
    not needed above away as soon as its subtree is joined."""
    n = structure.tree.n
    head = set(query.head)

    def column(var: str) -> _Relation:
        nodes = range(n) if sets[var] is None else sets[var]
        return _Relation((var,), [(v,) for v in nodes])

    joined: dict[str, _Relation] = {}
    for parent, child, down, _up in reversed(edges):
        if child not in head and child not in joined:
            continue  # no head below: every node left extends to a match
        below = joined.pop(child, None) or column(child)
        atom = Atom(down.value, (parent, child))
        edge = _Relation(*materialize_atom(atom, structure, sets))
        _charge(len(edge.rows))
        keep = head | {parent}
        below = edge.join_project(below, keep)
        joined[parent] = (
            joined[parent].join_project(below, keep) if parent in joined else below
        )
    result = None
    for root in roots:
        if root in head or root in joined:
            part = joined.get(root) or column(root)
            result = part if result is None else result.join_project(part, head)
    idx = [result.schema.index(v) for v in query.head]
    return {tuple(r[i] for i in idx) for r in result.rows}


def yannakakis(
    query: ConjunctiveQuery,
    tree: Tree,
    structure: TreeStructure | None = None,
) -> set[tuple[int, ...]]:
    """Evaluate an acyclic CQ of any arity.  Boolean queries return
    ``{()}`` (true) or ``set()`` (false)."""
    query = query.canonicalized().validate()
    structure = structure or TreeStructure(tree)
    forest = _forest(query)
    sets = _seed(query, structure)
    if forest is None or sets is None:
        return set()
    if any(s is not None and not s for s in sets.values()):
        return set()
    roots, edges = forest
    reduce_up(tree, sets, edges)
    if any(sets[root] is not None and not sets[root] for root in roots):
        return set()
    if not query.head:
        return {()}
    if len(query.head) == 1:
        nodes = sets[query.head[0]]
        return {(v,) for v in (range(tree.n) if nodes is None else nodes)}
    reduce_down(tree, sets, edges)
    return _join(query, structure, sets, roots, edges)


def yannakakis_boolean(
    query: ConjunctiveQuery, tree: Tree, structure: TreeStructure | None = None
) -> bool:
    """Boolean acyclic CQ in O(||A|| · |Q|): only the bottom-up pass is
    needed."""
    return bool(yannakakis(query.with_head(()), tree, structure))


def yannakakis_unary(
    query: ConjunctiveQuery,
    tree: Tree,
    structure: TreeStructure | None = None,
) -> set[int]:
    """Unary acyclic CQ in O(||A|| · |Q|) (Proposition 4.2): rooted at
    the output variable, the bottom-up pass leaves the answer as the
    root's set."""
    if len(query.head) != 1:
        raise EvaluationError("yannakakis_unary needs exactly one head variable")
    return {v for (v,) in yannakakis(query, tree, structure)}
