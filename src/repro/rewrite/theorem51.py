"""Theorem 5.1: every conjunctive query over trees has an equivalent
union of acyclic positive queries, computable in exponential time.

Two implementations of the proof's rewriting:

- :func:`rewrite_to_acyclic_union` — the *eager* algorithm exactly as in
  the proof: enumerate every weak order ψ of the query variables (the
  consistent disjuncts of the CNF over {=, <pre, >pre}), specialize Q by
  ψ, and run the Table-1 replacement loop on each Qψ;
- :func:`rewrite_lazy` — the improvement discussed after the proof
  ([35]): only branch on the order of x and y when a pair of atoms
  R(x, z), S(y, z) actually needs it, and only expand a Child*/
  NextSibling* atom when it participates in such a pair.

Both return a list of acyclic :class:`ConjunctiveQuery` disjuncts whose
union is equivalent to the input.  :func:`evaluate_via_rewriting`
finishes the job with Yannakakis' algorithm (Corollary 5.2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.cq.acyclic import is_acyclic
from repro.cq.query import ConjunctiveQuery, atom_axis
from repro.cq.yannakakis import yannakakis
from repro.datalog.syntax import Atom, is_variable
from repro.errors import QueryError
from repro.obs.context import current as _obs_current
from repro.rewrite.table1 import TABLE_1, REWRITE_AXES
from repro.trees.axes import FORWARD_AXES, REFLEXIVE, Axis
from repro.trees.structure import const
from repro.trees.tree import Tree

__all__ = [
    "rewrite_to_acyclic_union",
    "rewrite_lazy",
    "evaluate_via_rewriting",
    "RewriteStats",
    "MAX_EAGER_VARIABLES",
]

MAX_EAGER_VARIABLES = 7

#: the forward star axes, each with the strict axis it extends
_STAR_OF = {
    star: strict for star, strict in REFLEXIVE.items()
    if star in FORWARD_AXES and strict is not None
}
_VERTICAL = {Axis.CHILD, Axis.CHILD_PLUS}
_HORIZONTAL = {Axis.NEXT_SIBLING, Axis.NEXT_SIBLING_PLUS}


@dataclass
class RewriteStats:
    """Work counters for experiment E9 (eager vs lazy, ablation A2)."""

    orders_considered: int = 0
    branches: int = 0
    replacements: int = 0
    disjuncts_dropped: int = 0
    disjuncts_produced: int = 0


# ---------------------------------------------------------------------------
# preprocessing shared by both variants
# ---------------------------------------------------------------------------


def _preprocess(
    query: ConjunctiveQuery,
) -> tuple[tuple[str, ...], list[tuple[str, str]], list[tuple[Axis, str, str]], dict[str, str]]:
    """Canonicalize; expand Following and FirstChild; merge Self atoms;
    turn constants into Const: unary guards.

    Returns (head, unary list [(pred, var)], binary list [(axis, x, y)],
    initial representative map from Self-merging).
    """
    query = query.canonicalized().validate()
    counter = itertools.count()
    unary: list[tuple[str, str]] = []
    binary: list[tuple[Axis, str, str]] = []
    merges: list[tuple[str, str]] = []

    def freshen(t) -> str:
        if is_variable(t):
            return t
        v = f"_k{next(counter)}"
        unary.append((const(t), v))
        return v

    for atom in query.atoms:
        if atom.arity == 1:
            unary.append((atom.pred, freshen(atom.args[0])))
            continue
        axis = atom_axis(atom)
        x, y = (freshen(t) for t in atom.args)
        if axis is Axis.SELF:
            merges.append((x, y))
        elif axis is Axis.FIRST_CHILD:
            binary.append((Axis.CHILD, x, y))
            unary.append(("FirstSibling", y))
        elif axis is Axis.FOLLOWING:
            x0 = f"_f{next(counter)}"
            y0 = f"_f{next(counter)}"
            binary.append((Axis.NEXT_SIBLING_PLUS, x0, y0))
            binary.append((Axis.CHILD_STAR, x0, x))
            binary.append((Axis.CHILD_STAR, y0, y))
        else:
            binary.append((axis, x, y))

    # union-find for the Self merges
    rep: dict[str, str] = {}

    def find(v: str) -> str:
        while rep.get(v, v) != v:
            rep[v] = rep.get(rep[v], rep[v])
            v = rep[v]
        return v

    for a, b in merges:
        ra, rb = find(a), find(b)
        if ra != rb:
            rep[ra] = rb
    unary = [(p, find(v)) for p, v in unary]
    binary = [(ax, find(x), find(y)) for ax, x, y in binary]
    rep_full = {}
    for v in set(query.head) | {v for _p, v in unary} | {
        v for _ax, x, y in binary for v in (x, y)
    }:
        rep_full[v] = find(v)
    return query.head, unary, binary, rep_full


# ---------------------------------------------------------------------------
# a disjunct under a fixed strict total order
# ---------------------------------------------------------------------------


class _Unsat(Exception):
    """The disjunct turned out unsatisfiable."""


def _specialize(
    unary: list[tuple[str, str]],
    binary: list[tuple[Axis, str, str]],
    block_of: dict[str, int],
    rep_of_block: dict[int, str],
) -> tuple[set[tuple[str, str]], set[tuple[Axis, str, str]]]:
    """Specialize the atoms under a weak order: merge same-block
    variables, expand star axes, check order-consistency.
    Raises :class:`_Unsat` if the disjunct dies."""

    def rep(v: str) -> str:
        return rep_of_block[block_of[v]]

    new_unary = {(p, rep(v)) for p, v in unary}
    new_binary: set[tuple[Axis, str, str]] = set()
    for axis, x, y in binary:
        rx, ry = rep(x), rep(y)
        if axis in _STAR_OF:
            if rx == ry:
                continue  # R*(x, x) is always true
            axis = _STAR_OF[axis]
        if rx == ry:
            raise _Unsat  # irreflexive axis on one node
        if block_of[x] > block_of[y]:
            raise _Unsat  # forward axis against the chosen <pre order
        new_binary.add((axis, rx, ry))
    return new_unary, new_binary


def _absorb_and_check(
    binary: set[tuple[Axis, str, str]],
) -> set[tuple[Axis, str, str]]:
    """Drop R+(x, y) when R(x, y) is present; fail on a vertical and a
    horizontal atom over the same ordered pair; resolve self-loops
    (reflexive star loops vanish, irreflexive ones are unsatisfiable)."""
    by_pair: dict[tuple[str, str], set[Axis]] = {}
    for axis, x, y in binary:
        if x == y:
            if axis in _STAR_OF:
                continue
            raise _Unsat
        by_pair.setdefault((x, y), set()).add(axis)
    result: set[tuple[Axis, str, str]] = set()
    for (x, y), axes in by_pair.items():
        if axes & _VERTICAL and axes & _HORIZONTAL:
            raise _Unsat
        if Axis.CHILD in axes:
            axes.discard(Axis.CHILD_PLUS)
        if Axis.NEXT_SIBLING in axes:
            axes.discard(Axis.NEXT_SIBLING_PLUS)
        for axis in axes:
            result.add((axis, x, y))
    return result


def _replacement_loop(
    binary: set[tuple[Axis, str, str]],
    pos: dict[str, int],
    stats: RewriteStats,
) -> set[tuple[Axis, str, str]]:
    """The core loop of the Theorem 5.1 proof: while some z has two
    incoming atoms, pick z maximal and x minimal, consult Table 1, and
    either drop the disjunct or replace R(x, z) by R(x, y)."""
    binary = _absorb_and_check(binary)
    while True:
        incoming: dict[str, list[tuple[Axis, str]]] = {}
        for axis, x, z in binary:
            incoming.setdefault(z, []).append((axis, x))
        candidates = [
            z for z, atoms in incoming.items() if len(atoms) >= 2
        ]
        if not candidates:
            return binary
        z = max(candidates, key=lambda v: pos[v])
        atoms = sorted(incoming[z], key=lambda ax: pos[ax[1]])
        (r_axis, x), (s_axis, y) = atoms[0], atoms[1]
        if pos[x] == pos[y]:  # two atoms from the same source variable
            # same (x, z) pair with different axes — absorb/conflict rules
            # already ran, so this is Child+ and NextSibling+ etc. conflict
            raise _Unsat
        if not TABLE_1[(r_axis, s_axis)]:
            raise _Unsat
        stats.replacements += 1
        binary.discard((r_axis, x, z))
        binary.add((r_axis, x, y))
        binary = _absorb_and_check(binary)


def _to_query(
    head: tuple[str, ...],
    rep: dict[str, str],
    unary: set[tuple[str, str]],
    binary: set[tuple[Axis, str, str]],
) -> ConjunctiveQuery:
    atoms: list[Atom] = [Atom(p, (v,)) for p, v in sorted(unary)]
    atoms.extend(
        Atom(axis.value, (x, y)) for axis, x, y in sorted(binary, key=str)
    )
    mapped_head = tuple(rep.get(v, v) for v in head)
    body_vars = {t for a in atoms for t in a.variables()}
    for v in mapped_head:
        if v not in body_vars:
            atoms.append(Atom("Dom", (v,)))
            body_vars.add(v)
    return ConjunctiveQuery(mapped_head, tuple(atoms))


# ---------------------------------------------------------------------------
# eager enumeration of weak orders (the proof's Ψ)
# ---------------------------------------------------------------------------


def _weak_orders(variables: list[str]):
    """All weak orders (ordered set partitions) of the variables."""

    def partitions(items: list[str]):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i, block in enumerate(part):
                yield part[:i] + [block + [first]] + part[i + 1:]
            yield [[first]] + part

    for part in partitions(variables):
        for ordering in itertools.permutations(part):
            yield ordering


def rewrite_to_acyclic_union(
    query: ConjunctiveQuery, stats: RewriteStats | None = None
) -> list[ConjunctiveQuery]:
    """The eager Theorem 5.1 rewriting.  Exponential: one candidate
    disjunct per weak order of the variables (capped at
    :data:`MAX_EAGER_VARIABLES` variables)."""
    stats = stats if stats is not None else RewriteStats()
    head, unary, binary, rep0 = _preprocess(query)
    variables = sorted(
        {rep0.get(v, v) for v in rep0.values()}
        | {v for _p, v in unary}
        | {v for _ax, x, y in binary for v in (x, y)}
        | {rep0.get(v, v) for v in head}
    )
    if len(variables) > MAX_EAGER_VARIABLES:
        raise QueryError(
            f"eager rewriting is capped at {MAX_EAGER_VARIABLES} variables "
            f"({len(variables)} present); use rewrite_lazy"
        )
    out: list[ConjunctiveQuery] = []
    seen: set = set()
    for ordering in _weak_orders(variables):
        stats.orders_considered += 1
        block_of = {
            v: i for i, block in enumerate(ordering) for v in block
        }
        rep_of_block = {i: min(block) for i, block in enumerate(ordering)}
        pos = {rep_of_block[i]: i for i in rep_of_block}
        try:
            u, b = _specialize(unary, binary, block_of, rep_of_block)
            b = _replacement_loop(b, pos, stats)
        except _Unsat:
            stats.disjuncts_dropped += 1
            continue
        rep = {v: rep_of_block[block_of[v]] for v in block_of}
        rep.update({v: rep.get(rep0.get(v, v), rep0.get(v, v)) for v in head})
        result = _to_query(head, rep, u, b)
        key = (result.head, frozenset(result.atoms))
        if key not in seen:
            seen.add(key)
            out.append(result)
            stats.disjuncts_produced += 1
    for disjunct in out:
        assert is_acyclic(disjunct), f"non-acyclic disjunct: {disjunct}"
    return out


# ---------------------------------------------------------------------------
# lazy branching variant ([35])
# ---------------------------------------------------------------------------


def _lazy_reachable(order: frozenset, a: str, b: str) -> bool:
    """Is a <pre b entailed (transitively) by the recorded constraints?"""
    frontier = [a]
    seen = {a}
    succ: dict[str, list[str]] = {}
    for u, v in order:
        succ.setdefault(u, []).append(v)
    while frontier:
        u = frontier.pop()
        for v in succ.get(u, ()):
            if v == b:
                return True
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return False


def _star_on_cycle(
    binary: set[tuple[Axis, str, str]]
) -> tuple[Axis, str, str] | None:
    """A star atom lying on an undirected cycle of the atom graph, or
    None if the graph is a forest (or only concrete atoms form cycles,
    which cannot happen for order-consistent states)."""

    def connected_without(skip, a, b) -> bool:
        adj: dict[str, list[str]] = {}
        for atom in binary:
            if atom == skip:
                continue
            _ax, x, y = atom
            adj.setdefault(x, []).append(y)
            adj.setdefault(y, []).append(x)
        frontier, seen = [a], {a}
        while frontier:
            u = frontier.pop()
            if u == b:
                return True
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return False

    for atom in sorted(binary):
        axis, x, y = atom
        if axis in _STAR_OF and connected_without(atom, x, y):
            return atom
    return None


def rewrite_lazy(
    query: ConjunctiveQuery, stats: RewriteStats | None = None
) -> list[ConjunctiveQuery]:
    """The lazy variant: branch on the relative order of two variables
    only when a pair R(x, z), S(y, z) requires it, and expand a star
    atom only when it participates in such a pair.  Produces (often far)
    fewer disjuncts than the eager algorithm — experiment E9/A2.  Each
    branch ticks the active observation once, so deadlines and visit
    budgets bound the rewriting itself."""
    stats = stats if stats is not None else RewriteStats()
    ctx = _obs_current()
    head, unary0, binary0, rep0 = _preprocess(query)
    out: list[ConjunctiveQuery] = []
    seen: set = set()

    def merge(state_unary, state_binary, order, rep, a, b):
        """Merge variables a and b (b becomes representative)."""
        if a == b:
            raise _Unsat  # nothing to merge: the caller's branch is void
        if _lazy_reachable(order, a, b) or _lazy_reachable(order, b, a):
            raise _Unsat
        def m(v):
            return b if v == a else v
        new_unary = frozenset((p, m(v)) for p, v in state_unary)
        new_binary = set()
        for axis, x, y in state_binary:
            x, y = m(x), m(y)
            if x == y:
                if axis in _STAR_OF:
                    continue
                raise _Unsat
            new_binary.add((axis, x, y))
        new_order = frozenset((m(u), m(v)) for u, v in order)
        new_rep = {k: m(v) for k, v in rep.items()}
        new_rep[a] = b
        return new_unary, frozenset(new_binary), new_order, new_rep

    def recurse(state_unary, state_binary, order, rep):
        stats.branches += 1
        if ctx is not None:
            ctx.tick()
        try:
            binary = _absorb_and_check(set(state_binary))
        except _Unsat:
            stats.disjuncts_dropped += 1
            return
        # find a target with two incoming atoms, visiting the atoms in a
        # fixed order so the branching never follows the hash seed
        incoming: dict[str, list[tuple[Axis, str]]] = {}
        for axis, x, z in sorted(binary):
            incoming.setdefault(z, []).append((axis, x))
        conflict = None
        for z, atoms in incoming.items():
            if len(atoms) >= 2:
                conflict = (z, atoms)
                break
        if conflict is None:
            # No shared targets — but a star atom may still close an
            # undirected cycle in the atom graph (concrete atoms cannot:
            # a concrete cycle is a directed <pre cycle, pruned earlier).
            cyclic_star = _star_on_cycle(binary)
            if cyclic_star is not None:
                axis, src, dst = cyclic_star
                try:
                    nu, nb, no, nr = merge(
                        state_unary, frozenset(binary), order, rep, src, dst
                    )
                    recurse(nu, nb, no, nr)
                except _Unsat:
                    stats.disjuncts_dropped += 1
                if _lazy_reachable(order, dst, src):
                    stats.disjuncts_dropped += 1
                    return
                nb = (frozenset(binary) - {cyclic_star}) | {
                    (_STAR_OF[axis], src, dst)
                }
                recurse(state_unary, nb, order | {(src, dst)}, rep)
                return
            rep_final = dict(rep)
            result = _to_query(head, rep_final, set(state_unary), binary)
            key = (result.head, frozenset(result.atoms))
            if key not in seen:
                seen.add(key)
                out.append(result)
                stats.disjuncts_produced += 1
            return
        z, atoms = conflict
        (a_axis, x), (b_axis, y) = atoms[0], atoms[1]
        # expand stars first
        for axis, src in ((a_axis, x), (b_axis, y)):
            if axis in _STAR_OF:
                # branch 1: src = z
                try:
                    nu, nb, no, nr = merge(
                        state_unary, frozenset(binary), order, rep, src, z
                    )
                    recurse(nu, nb, no, nr)
                except _Unsat:
                    stats.disjuncts_dropped += 1
                # branch 2: proper R+ (and src <pre z becomes known)
                if _lazy_reachable(order, z, src):
                    stats.disjuncts_dropped += 1
                    return
                nb = (frozenset(binary) - {(axis, src, z)}) | {
                    (_STAR_OF[axis], src, z)
                }
                recurse(state_unary, nb, order | {(src, z)}, rep)
                return
        # both atoms concrete: order x vs y
        if x == y:
            stats.disjuncts_dropped += 1  # absorb left a true conflict
            return
        if _lazy_reachable(order, x, y):
            lo, hi, lo_axis = x, y, a_axis
        elif _lazy_reachable(order, y, x):
            lo, hi, lo_axis = y, x, b_axis
        else:
            # branch on the three order relations
            try:
                nu, nb, no, nr = merge(
                    state_unary, frozenset(binary), order, rep, x, y
                )
                recurse(nu, nb, no, nr)
            except _Unsat:
                stats.disjuncts_dropped += 1
            recurse(state_unary, frozenset(binary), order | {(x, y)}, rep)
            recurse(state_unary, frozenset(binary), order | {(y, x)}, rep)
            return
        other_axis = b_axis if lo == x else a_axis
        if not TABLE_1[(lo_axis, other_axis)]:
            stats.disjuncts_dropped += 1
            return
        stats.replacements += 1
        nb = (frozenset(binary) - {(lo_axis, lo, z)}) | {(lo_axis, lo, hi)}
        recurse(state_unary, nb, order | {(lo, hi)}, rep)

    # seed order constraints: every concrete forward atom implies x <pre y
    order0 = frozenset(
        (x, y) for axis, x, y in binary0 if axis not in _STAR_OF
    )
    if any(_lazy_reachable(order0, v, u) for u, v in order0):
        return []  # the seeded constraints are already cyclic: unsatisfiable
    rep_init = {v: rep0.get(v, v) for v in set(head) | set(rep0)}
    recurse(frozenset(unary0), frozenset(binary0), order0, rep_init)
    for disjunct in out:
        assert is_acyclic(disjunct), f"non-acyclic disjunct: {disjunct}"
    return out


# ---------------------------------------------------------------------------
# Corollary 5.2
# ---------------------------------------------------------------------------


def evaluate_via_rewriting(
    query: ConjunctiveQuery,
    tree: Tree,
    lazy: bool = True,
    stats: RewriteStats | None = None,
) -> set[tuple[int, ...]]:
    """Evaluate a CQ by rewriting to a union of acyclic queries and
    running Yannakakis on each disjunct (Corollary 5.2: linear data
    complexity for fixed positive queries)."""
    disjuncts = (
        rewrite_lazy(query, stats) if lazy else rewrite_to_acyclic_union(query, stats)
    )
    result: set[tuple[int, ...]] = set()
    for disjunct in disjuncts:
        result |= yannakakis(disjunct, tree)
    return result
