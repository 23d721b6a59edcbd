"""Naive backtracking evaluation of conjunctive queries.

The exponential baseline: depth-first search over variable assignments,
one atom at a time, choosing the most-bound atom next.  Works for *any*
CQ (cyclic ones included) over any signature — this is the algorithm
whose worst case the tractability results of Sections 4–6 beat, and the
exact solver used on the NP-complete side of the Dichotomy Theorem 6.8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cq.query import ConjunctiveQuery, atom_axis
from repro.datalog.syntax import Atom, is_variable
from repro.errors import EvaluationError
from repro.obs.context import current as _obs_current
from repro.trees.structure import TreeStructure
from repro.trees.tree import Tree

__all__ = ["evaluate_backtracking", "BacktrackStats"]


@dataclass
class BacktrackStats:
    """Search-effort counters for the scaling benchmarks."""

    nodes_expanded: int = 0
    solutions: int = 0


def evaluate_backtracking(
    query: ConjunctiveQuery,
    tree: Tree,
    structure: TreeStructure | None = None,
    max_steps: int | None = None,
    stats: BacktrackStats | None = None,
    first_only: bool = False,
) -> set[tuple[int, ...]]:
    """All head tuples, by backtracking search.

    ``max_steps`` bounds the number of expanded search nodes; exceeding
    it raises :class:`EvaluationError` (used to cap the NP-hard side of
    benchmark runs).  ``first_only`` stops at the first solution (the
    Boolean-query mode).  Each candidate loop charges its candidates to
    the active observation in one tick, so deadlines and visit budgets
    bound the search.
    """
    query = query.canonicalized().validate()
    structure = structure or TreeStructure(tree)
    stats = stats if stats is not None else BacktrackStats()
    results: set[tuple[int, ...]] = set()
    atoms = list(query.atoms)
    head = query.head
    ctx = _obs_current()

    def charged(candidates):
        """A candidate loop's candidates, ticked as one batch."""
        if ctx is None:
            return candidates
        candidates = list(candidates)
        ctx.tick(len(candidates))
        return candidates

    def value(binding: dict[str, int], t):
        return binding.get(t) if is_variable(t) else t

    def boundness(atom: Atom, binding: dict[str, int]) -> int:
        return sum(1 for t in atom.args if value(binding, t) is not None)

    class _Done(Exception):
        pass

    def extend(binding: dict[str, int], remaining: list[Atom]) -> None:
        stats.nodes_expanded += 1
        if max_steps is not None and stats.nodes_expanded > max_steps:
            raise EvaluationError(
                f"backtracking exceeded {max_steps} steps on {query}"
            )
        if not remaining:
            # free head variables not occurring in any atom are impossible
            # (validate() rejects them), so the binding is total on head
            results.add(tuple(binding[v] for v in head))
            stats.solutions += 1
            if first_only:
                raise _Done
            return
        remaining = sorted(
            remaining, key=lambda a: -boundness(a, binding)
        )
        atom, rest = remaining[0], remaining[1:]
        if atom.arity == 1:
            t = atom.args[0]
            v = value(binding, t)
            if v is not None:
                if structure.holds_unary(atom.pred, v):
                    extend(binding, rest)
            else:
                for v in charged(structure.unary_members(atom.pred)):
                    extend({**binding, t: v}, rest)
            return
        axis = atom_axis(atom).value
        s, t = atom.args
        sv, tv = value(binding, s), value(binding, t)
        if sv is not None and tv is not None:
            if structure.holds_binary(axis, sv, tv):
                extend(binding, rest)
        elif sv is not None:
            for w in charged(structure.successors(axis, sv)):
                if s == t and w != sv:
                    continue
                extend({**binding, t: w}, rest)
        elif tv is not None:
            for u in charged(structure.predecessors(axis, tv)):
                if s == t and u != tv:
                    continue
                extend({**binding, s: u}, rest)
        else:
            if s == t:
                for u in charged(structure.domain):
                    if structure.holds_binary(axis, u, u):
                        extend({**binding, s: u}, rest)
            else:
                for u in charged(structure.domain):
                    for w in charged(structure.successors(axis, u)):
                        extend({**binding, s: u, t: w}, rest)

    try:
        extend({}, atoms)
    except _Done:
        pass
    return results
