"""Evaluation of monadic datalog programs over trees.

:func:`evaluate_program` is the paper's pipeline (Section 3):
TMNF-normalize, ground (Theorem 3.2), run Minoux (Figure 3); total time
O(|P| · |Dom|) for τ⁺ programs.  :func:`evaluate_naive` is a bottom-up
rule-matching fixpoint used as a correctness oracle and as the slow
baseline of experiments E4/E5 — its per-iteration cost depends on the
materialized axis relations and it may take O(|Dom|) iterations.  Each
candidate loop of a rule match charges its candidates to the active
observation in one tick before it runs, and each match its size, so a
deadline or visit budget overruns by one candidate loop at most.
"""

from __future__ import annotations

from typing import Iterable

from repro.datalog.ground import ground
from repro.datalog.syntax import Program, Rule, is_variable
from repro.datalog.tmnf import to_tmnf
from repro.errors import QueryError
from repro.hornsat.minoux import minoux
from repro.obs.context import charged, current as _obs_current
from repro.trees.structure import TreeStructure
from repro.trees.tree import Tree

__all__ = ["evaluate", "evaluate_program", "evaluate_naive"]


def evaluate_program(
    program: Program, tree: Tree, normalize: bool = True
) -> dict[str, set[int]]:
    """Compute the extensions of *all* intensional predicates.

    With ``normalize`` (default), the program is first brought into TMNF
    so that arbitrary axes are allowed; pass ``normalize=False`` for a
    program that is already TMNF-shaped (any axis still accepted — the
    grounding cost is then the size of the used relations).
    """
    program = program.canonicalized().validate()
    if normalize:
        program = to_tmnf(program)
    structure = TreeStructure(tree)
    horn = ground(program, structure)
    model, _sat = minoux(horn)
    result: dict[str, set[int]] = {p: set() for p in program.intensional_preds()}
    for atom in model:
        pred, v = atom  # atoms are (pred, node) pairs by construction
        if pred in result:
            result[pred].add(v)
    return result


def evaluate(program: Program, tree: Tree, normalize: bool = True) -> set[int]:
    """Evaluate the program's distinguished query predicate over ``tree``."""
    if program.query_pred is None:
        raise QueryError("program has no query predicate")
    return evaluate_program(program, tree, normalize=normalize)[program.query_pred]


# -- naive baseline -----------------------------------------------------------


def _match_rule(
    rule: Rule,
    structure: TreeStructure,
    extensions: dict[str, set[int]],
) -> Iterable[int]:
    """All values of the head variable under satisfying assignments of
    ``rule``'s body — naive backtracking join, used only by the baseline."""
    head_var = rule.head.args[0]
    if not is_variable(head_var):
        if all(not atom.args for atom in rule.body):
            yield head_var
        return

    idb = set(extensions)
    atoms = list(rule.body)

    def lookup_unary(pred: str, v: int) -> bool:
        if pred in idb:
            return v in extensions[pred]
        return structure.holds_unary(pred, v)

    def candidates_unary(pred: str) -> Iterable[int]:
        if pred in idb:
            return extensions[pred]
        return structure.members((pred,))

    results: set[int] = set()

    def extend(binding: dict[str, int], remaining: list) -> None:
        if not remaining:
            results.add(binding[head_var])
            return
        # pick the most-bound atom next (cheap heuristic)
        remaining = sorted(
            remaining,
            key=lambda a: -sum(
                1 for t in a.args if not is_variable(t) or t in binding
            ),
        )
        atom, rest = remaining[0], remaining[1:]

        def value_of(t):
            return binding.get(t, None) if is_variable(t) else t

        if atom.arity == 1:
            t = atom.args[0]
            v = value_of(t)
            if v is not None:
                if lookup_unary(atom.pred, v):
                    extend(binding, rest)
            else:
                for v in charged(candidates_unary(atom.pred)):
                    extend({**binding, t: v}, rest)
            return
        s, t = atom.args
        sv, tv = value_of(s), value_of(t)
        if sv is not None and tv is not None:
            if structure.holds_binary(atom.pred, sv, tv):
                extend(binding, rest)
        elif sv is not None:
            for v in charged(structure.successors(atom.pred, sv)):
                extend({**binding, t: v}, rest)
        elif tv is not None:
            for u in charged(structure.predecessors(atom.pred, tv)):
                extend({**binding, s: u}, rest)
        else:
            for u, v in charged(structure.pairs(atom.pred)):
                extend({**binding, s: u, t: v}, rest)

    extend({}, atoms)
    yield from results


def evaluate_naive(program: Program, tree: Tree) -> dict[str, set[int]]:
    """Bottom-up naive fixpoint over the original (non-normalized) rules."""
    program = program.canonicalized().validate()
    structure = TreeStructure(tree)
    extensions: dict[str, set[int]] = {p: set() for p in program.intensional_preds()}
    ctx = _obs_current()
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            target = extensions[rule.head.pred]
            matched = list(_match_rule(rule, structure, extensions))
            if ctx is not None:
                ctx.tick(len(matched))
            for v in matched:
                if v not in target:
                    target.add(v)
                    changed = True
    return extensions
