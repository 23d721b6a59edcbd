"""Arc-consistent pre-valuations (Section 6, Proposition 6.2).

A *pre-valuation* Θ maps every query variable to a nonempty node set;
it is arc-consistent iff every value in every Θ(x) is supported through
every atom touching x.  :func:`arc_consistency_hornsat` is the paper's
reduction to Horn-SAT (computing, for each (x, v), whether v must be
*excluded*), solved with Minoux' algorithm; total time O(||A|| · |Q|).
:func:`arc_consistency_worklist` is the classical AC worklist algorithm
with support counters — same bound, different constants (ablation A1).

Both return the unique subset-maximal arc-consistent pre-valuation, or
``None`` if none exists (then the query is unsatisfiable).  Under an
observation the worklist algorithm charges the call's budget once per
batch: each domain scan and each worklist pop.
"""

from __future__ import annotations

from collections import deque

from repro.cq.query import ConjunctiveQuery, atom_axis
from repro.datalog.syntax import Atom, is_variable
from repro.errors import QueryError
from repro.hornsat.minoux import minoux
from repro.hornsat.program import HornClause, HornProgram
from repro.obs.context import current as _obs_current
from repro.trees.structure import TreeStructure, const
from repro.trees.tree import Tree

__all__ = [
    "arc_consistency_hornsat",
    "arc_consistency_worklist",
    "is_arc_consistent",
]

PreValuation = "dict[str, set[int]]"


def _rel_name(atom: Atom) -> str:
    """Binary relation name: the canonical axis for tree atoms, the raw
    predicate name for abstract structures (Example 6.1 style)."""
    try:
        return atom_axis(atom).value
    except QueryError:
        return atom.pred


def _normalize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Canonicalize and replace constants by fresh guarded variables so
    the AC algorithms only see variables."""
    try:
        query = query.canonicalized().validate()
    except QueryError:
        pass  # abstract (non-axis) relations: keep atoms as written
    counter = 0
    new_atoms: list[Atom] = []
    for atom in query.atoms:
        args = []
        for t in atom.args:
            if is_variable(t):
                args.append(t)
            else:
                fresh = f"_k{counter}"
                counter += 1
                new_atoms.append(Atom(const(t), (fresh,)))
                args.append(fresh)
        new_atoms.append(Atom(atom.pred, tuple(args)))
    return ConjunctiveQuery(query.head, tuple(new_atoms))


def arc_consistency_hornsat(
    query: ConjunctiveQuery,
    tree: Tree,
    structure: TreeStructure | None = None,
) -> "PreValuation | None":
    """Proposition 6.2, literally: propositional atoms ``Theta(x, v)``
    mean "v is NOT in Θ(x)"; the Horn clauses are

    - ``Theta(x, v) <-``                        for P(x) in Q with ¬P(v),
    - ``Theta(x, v) <- ∧ {Theta(y, w) | R(v, w)}``  for R(x, y) in Q,
    - ``Theta(y, w) <- ∧ {Theta(x, v) | R(v, w)}``  for R(x, y) in Q.

    The minimal model is computed by Minoux' algorithm and complemented.
    """
    query = _normalize(query)
    structure = structure or TreeStructure(tree)
    domain = list(structure.domain)
    program = HornProgram()
    for atom in query.atoms:
        if atom.arity == 1:
            x = atom.args[0]
            for v in domain:
                if not structure.holds_unary(atom.pred, v):
                    program.fact(("T", x, v))
        else:
            axis = _rel_name(atom)
            x, y = atom.args
            if x == y:
                # R(x, x): v survives only if R(v, v)
                for v in domain:
                    if not structure.holds_binary(axis, v, v):
                        program.fact(("T", x, v))
                continue
            for v in domain:
                body = tuple(
                    ("T", y, w) for w in structure.successors(axis, v)
                )
                program.rule(("T", x, v), *body)
            for w in domain:
                body = tuple(
                    ("T", x, v) for v in structure.predecessors(axis, w)
                )
                program.rule(("T", y, w), *body)
    excluded, _sat = minoux(program)
    theta: dict[str, set[int]] = {}
    for x in query.variables():
        theta[x] = {v for v in domain if ("T", x, v) not in excluded}
        if not theta[x]:
            return None
    return theta


def arc_consistency_worklist(
    query: ConjunctiveQuery,
    tree: Tree,
    structure: TreeStructure | None = None,
) -> "PreValuation | None":
    """Direct AC with support counters (AC-4 style).

    For every binary atom R(x, y) and every v ∈ Θ(x) we track the number
    of supports |{w ∈ Θ(y) : R(v, w)}|; deleting a value decrements the
    counters of the values it supported, cascading via a deque.
    """
    query = _normalize(query)
    structure = structure or TreeStructure(tree)
    domain = list(structure.domain)
    variables = query.variables()
    ctx = _obs_current()

    # Phase 1 — node consistency: unary atoms and R(x, x) self-loops.
    if ctx is not None:
        ctx.tick(len(domain) * len(variables))
    theta: dict[str, set[int]] = {x: set(domain) for x in variables}
    for atom in query.unary_atoms():
        x = atom.args[0]
        if ctx is not None:
            ctx.tick(len(theta[x]))
        theta[x] = {
            v for v in theta[x] if structure.holds_unary(atom.pred, v)
        }
    for atom in query.binary_atoms():
        x, y = atom.args
        if x == y:
            axis = _rel_name(atom)
            theta[x] = {
                v for v in theta[x] if structure.holds_binary(axis, v, v)
            }

    # Phase 2 — build directed support structures over the (now stable)
    # initial domains.  For the arc (x -> y) of atom R(x, y):
    #   support_count[v] = |{w in Θ(y) : R(v, w)}|,
    #   supporters[w]    = the v's whose support set contains w.
    arcs: list[tuple[str, str]] = []
    support_count: list[dict[int, int]] = []
    supporters: list[dict[int, list[int]]] = []
    arcs_into: dict[str, list[int]] = {x: [] for x in variables}

    for atom in query.binary_atoms():
        axis = _rel_name(atom)
        x, y = atom.args
        if x == y:
            continue
        if ctx is not None:
            ctx.tick(len(theta[x]) + len(theta[y]))
        fwd_count: dict[int, int] = {}
        fwd_sup: dict[int, list[int]] = {}
        for v in theta[x]:
            ws = [w for w in structure.successors(axis, v) if w in theta[y]]
            fwd_count[v] = len(ws)
            for w in ws:
                fwd_sup.setdefault(w, []).append(v)
        arcs_into[y].append(len(arcs))
        arcs.append((x, y))
        support_count.append(fwd_count)
        supporters.append(fwd_sup)
        bwd_count: dict[int, int] = {}
        bwd_sup: dict[int, list[int]] = {}
        for w in theta[y]:
            vs = [v for v in structure.predecessors(axis, w) if v in theta[x]]
            bwd_count[w] = len(vs)
            for v in vs:
                bwd_sup.setdefault(v, []).append(w)
        arcs_into[x].append(len(arcs))
        arcs.append((y, x))
        support_count.append(bwd_count)
        supporters.append(bwd_sup)

    # Phase 3 — delete unsupported values and cascade.  Values removed in
    # phase 1 never entered any support structure, so they need no queue
    # entries of their own.
    queue: deque[tuple[str, int]] = deque()

    def delete(x: str, v: int) -> None:
        if v in theta[x]:
            theta[x].discard(v)
            queue.append((x, v))

    for i, (x, _y) in enumerate(arcs):
        for v in list(theta[x]):
            if support_count[i].get(v, 0) == 0:
                delete(x, v)

    while queue:
        y, w = queue.popleft()
        if ctx is not None:
            ctx.tick()
        for i in arcs_into[y]:
            x = arcs[i][0]
            for v in supporters[i].get(w, ()):
                if v in theta[x]:
                    support_count[i][v] -= 1
                    if support_count[i][v] == 0:
                        delete(x, v)

    for x in variables:
        if not theta[x]:
            return None
    return theta


def is_arc_consistent(
    query: ConjunctiveQuery,
    tree: Tree,
    theta: "PreValuation",
    structure: TreeStructure | None = None,
) -> bool:
    """Check the definition of arc-consistency directly (used in tests
    and by hypothesis properties)."""
    query = _normalize(query)
    structure = structure or TreeStructure(tree)
    for x in query.variables():
        if not theta.get(x):
            return False
    for atom in query.unary_atoms():
        x = atom.args[0]
        if any(not structure.holds_unary(atom.pred, v) for v in theta[x]):
            return False
    for atom in query.binary_atoms():
        axis = _rel_name(atom)
        x, y = atom.args
        if x == y:
            if any(not structure.holds_binary(axis, v, v) for v in theta[x]):
                return False
            continue
        for v in theta[x]:
            if not any(w in theta[y] for w in structure.successors(axis, v)):
                return False
        for w in theta[y]:
            if not any(v in theta[x] for v in structure.predecessors(axis, w)):
                return False
    return True
