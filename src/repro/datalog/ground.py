"""Grounding monadic datalog programs to propositional Horn programs.

Theorem 3.2: given a program P over τ⁺, an equivalent ground program can
be computed in time O(|P| · |Dom|), because every binary relation of τ⁺
has bidirectional functional dependencies (at most one FirstChild /
NextSibling partner per node).  Combined with Minoux' algorithm this
gives O(|P| · |Dom|) evaluation.

The grounder accepts any program whose rules are in the three TMNF
shapes (possibly with non-τ⁺ axes as the binary B, in which case the
cost of that rule is at most the size of the axis relation — the
grounder is shared with the naive baselines).  Extensional unary
predicates are evaluated during grounding rather than being emitted as
propositional facts.

Grounding runs forward from the facts: rules with an extensional body
are grounded over the nodes :meth:`TreeStructure.members` gives (a label
posting list, or one column of the tree), and every derived atom then
grounds only the rules whose intensional body it completes.  A clause
is emitted once each of its intensional body atoms heads an emitted
clause, so the ground program covers just the part of P the facts can
reach, and Theorem 3.2's O(|P| · |Dom|) is the worst case (every atom
derivable) rather than the cost of every call.
"""

from __future__ import annotations

from repro.datalog.syntax import Program, is_variable
from repro.errors import QueryError
from repro.hornsat.program import HornClause, HornProgram
from repro.obs.context import current as _obs_current
from repro.trees.axes import resolve_axis
from repro.trees.structure import TreeStructure

__all__ = ["ground"]

#: emitted clauses charged to the active observation per tick
_TICK_BATCH = 1024


def ground(program: Program, structure: TreeStructure) -> HornProgram:
    """Ground the reachable part of a TMNF-shaped program over ``structure``.

    Propositional atoms are ``(pred, node)`` pairs for intensional
    predicates.  Facts for extensional predicates are folded in during
    grounding (an extensional conjunct either filters the clause out or
    vanishes), exactly as in Example 3.3 after "let us drop the rules
    d1..d5".  Clauses whose intensional body can never be derived are
    not emitted: they cannot fire, so the least model is unchanged.
    """
    idb = program.intensional_preds()
    horn = HornProgram()
    clauses = horn.clauses
    # rules waiting on an intensional body predicate p: form (2) as
    # p -> [(head, axis)]; forms (1)/(3) as p -> [(head, intensional
    # body, the body's other intensional predicates, extensional body)]
    chains: dict[str, list[tuple[str, str]]] = {}
    conjunctions: dict[str, list[tuple[str, tuple, tuple, list[str]]]] = {}
    pending: list[tuple[str, int]] = []  # derived atoms not yet propagated
    ctx = _obs_current()
    charged = 0

    def emit(head: tuple[str, int], body: tuple = ()) -> None:
        nonlocal charged
        clauses.append(HornClause(head, body))
        pending.append(head)
        if ctx is not None and len(clauses) - charged >= _TICK_BATCH:
            ctx.tick(len(clauses) - charged)
            charged = len(clauses)

    for rule in program.rules:
        head = rule.head
        if not rule.body:
            if is_variable(head.args[0]):
                raise QueryError(f"unsafe fact with variable head: {rule}")
            emit((head.pred, head.args[0]))
            continue
        unary = [a for a in rule.body if a.arity == 1]
        binary = [a for a in rule.body if a.arity == 2]
        x = head.args[0]
        if not binary:
            # forms (1) and (3): all body atoms on the head variable
            if any(a.args != (x,) for a in unary):
                raise QueryError(f"rule not in TMNF: {rule}")
            ext = [a.pred for a in unary if a.pred not in idb]
            intensional = tuple(dict.fromkeys(a.pred for a in unary if a.pred in idb))
            if not intensional:
                for v in structure.members(ext):
                    emit((head.pred, v))
            for p in intensional:
                others = tuple(q for q in intensional if q != p)
                conjunctions.setdefault(p, []).append(
                    (head.pred, intensional, others, ext)
                )
            continue
        # form (2): p(x) <- p0(x0), B(x0, x)
        if len(binary) != 1 or len(unary) != 1:
            raise QueryError(f"rule not in TMNF: {rule}")
        b_atom, p0 = binary[0], unary[0]
        x0 = p0.args[0]
        if b_atom.args != (x0, x) or x0 == x:
            raise QueryError(f"rule not in TMNF: {rule}")
        axis = resolve_axis(b_atom.pred)
        if p0.pred in idb:
            chains.setdefault(p0.pred, []).append((head.pred, axis))
        else:
            for u in structure.members((p0.pred,)):
                for v in structure.successors(axis, u):
                    emit((head.pred, v))

    derived: set[tuple[str, int]] = set()
    while pending:
        atom = pending.pop()
        if atom in derived:
            continue
        derived.add(atom)
        p, u = atom
        for head_pred, axis in chains.get(p, ()):
            for v in structure.successors(axis, u):
                emit((head_pred, v), (atom,))
        for head_pred, intensional, others, ext in conjunctions.get(p, ()):
            # fires once, when the last of its intensional atoms arrives
            if others and not all((q, u) in derived for q in others):
                continue
            if ext and not all(structure.holds_unary(e, u) for e in ext):
                continue
            emit((head_pred, u), tuple((q, u) for q in intensional))
    if ctx is not None and len(clauses) > charged:
        ctx.tick(len(clauses) - charged)
    return horn
