"""Minimum valuations and X-property-based evaluation (Lemma 6.4,
Theorem 6.5).

If every relation used by a conjunctive query has the X-property w.r.t.
a total order <, then the valuation picking the <-minimal element of
each Θ(x) of an arc-consistent pre-valuation Θ is *consistent* — so a
Boolean CQ is evaluated in O(||A|| · |Q|): compute the maximal
arc-consistent pre-valuation, succeed iff it exists.
"""

from __future__ import annotations

from repro.consistency.arc import arc_consistency_worklist
from repro.cq.query import ConjunctiveQuery, atom_axis
from repro.consistency.xproperty import order_position
from repro.datalog.syntax import Atom, is_variable
from repro.errors import IntractableSignatureError
from repro.trees.structure import TreeStructure, const
from repro.trees.tree import Tree

__all__ = [
    "minimum_valuation",
    "evaluate_boolean_xproperty",
    "check_tuple_xproperty",
    "is_consistent_valuation",
]


def minimum_valuation(
    theta: dict[str, set[int]], tree: Tree, order: str
) -> dict[str, int]:
    """θ(x) = the <-minimal node of Θ(x) (Lemma 6.4's witness)."""
    position = order_position(tree, order)
    return {x: min(vs, key=lambda v: position[v]) for x, vs in theta.items()}


def is_consistent_valuation(
    query: ConjunctiveQuery,
    tree: Tree,
    valuation: dict[str, int],
    structure: TreeStructure | None = None,
) -> bool:
    """Does θ satisfy every atom of the query?"""
    query = query.canonicalized()
    structure = structure or TreeStructure(tree)

    def val(t):
        return valuation[t] if is_variable(t) else t

    for atom in query.atoms:
        if atom.arity == 1:
            if not structure.holds_unary(atom.pred, val(atom.args[0])):
                return False
        else:
            axis = atom_axis(atom).value
            if not structure.holds_binary(axis, val(atom.args[0]), val(atom.args[1])):
                return False
    return True


def evaluate_boolean_xproperty(
    query: ConjunctiveQuery,
    tree: Tree,
    order: str | None = None,
    structure: TreeStructure | None = None,
    return_witness: bool = False,
):
    """Theorem 6.5: evaluate a Boolean CQ over a structure with the
    X-property w.r.t. ``order`` in time O(||A|| · |Q|).

    With ``order=None`` the order is inferred from the query's signature
    via the Dichotomy classifier (raising
    :class:`IntractableSignatureError` if the signature is NP-complete).
    With ``return_witness`` a satisfying valuation (the minimum
    valuation) is returned instead of a bare bool.
    """
    from repro.consistency.dichotomy import tractable_order

    query = query.canonicalized().validate()
    if order is None:
        order = tractable_order(query.signature())
        if order is None:
            raise IntractableSignatureError(
                f"signature {sorted(a.value for a in query.signature())} has "
                f"no X-property order (Theorem 6.8: NP-complete)"
            )
    theta = arc_consistency_worklist(query, tree, structure)
    if theta is None:
        return (False, None) if return_witness else False
    if not return_witness:
        return True
    witness = minimum_valuation(theta, tree, order)
    return True, witness


def check_tuple_xproperty(
    query: ConjunctiveQuery,
    tree: Tree,
    candidate: tuple[int, ...],
    order: str | None = None,
) -> bool:
    """Membership of a tuple in a k-ary CQ answer (the paragraph after
    Theorem 6.5): conjoin singleton predicates X_i = {a_i} to the query
    and evaluate the resulting Boolean query."""
    if len(candidate) != len(query.head):
        raise ValueError("candidate arity does not match query head")
    extra = tuple(
        Atom(const(a), (x,)) for x, a in zip(query.head, candidate)
    )
    boolean = ConjunctiveQuery((), query.atoms + extra)
    return evaluate_boolean_xproperty(boolean, tree, order=order)
