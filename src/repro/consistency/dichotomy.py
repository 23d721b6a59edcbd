"""The Dichotomy Theorem 6.8 classifier.

Conjunctive queries over a signature of unary relations plus a set F of
axis relations are in P iff some total order gives every relation in F
the X-property — and by Proposition 6.6 (plus the paper's remark that
6.6 is exhaustive for <pre, <post, <bflr) this holds exactly when F is
contained in one of::

    τ1 = {Child+, Child*}                                  (order <pre)
    τ2 = {Following}                                       (order <post)
    τ3 = {Child, NextSibling, NextSibling*, NextSibling+}  (order <bflr)

(Self is harmless in every class: its arcs never cross.)  Otherwise the
evaluation problem is NP-complete.
"""

from __future__ import annotations

from typing import Iterable

from repro.consistency.xproperty import PROP_6_6
from repro.trees.axes import Axis, forward_axis

__all__ = [
    "TAU_1",
    "TAU_2",
    "TAU_3",
    "classify_signature",
    "tractable_order",
]

#: τ1, τ2, τ3 of Corollary 6.7.
TAU_1: frozenset[Axis] = PROP_6_6["pre"]
TAU_2: frozenset[Axis] = PROP_6_6["post"]
TAU_3: frozenset[Axis] = PROP_6_6["bflr"]

_HARMLESS: frozenset[Axis] = frozenset({Axis.SELF})


def _canonical(axes: Iterable["str | Axis"]) -> set[Axis]:
    """Fold inverse axes onto their forward versions (a CQ atom over an
    inverse axis is the forward atom with swapped arguments, so the
    classification is invariant under inversion... *except* that the
    X-property is about the relation itself; see note below)."""
    return {forward_axis(a) for a in axes}


def tractable_order(axes: Iterable["str | Axis"]) -> str | None:
    """The order (``"pre"``/``"post"``/``"bflr"``) under which every axis
    in the signature has the X-property, or None if there is none.

    Note the FirstChild special case: FirstChild is a *subset* of Child
    that is functional in both directions, hence X w.r.t. <bflr like
    Child itself.
    """
    axes = _canonical(axes) - _HARMLESS
    if axes <= TAU_1:
        return "pre"
    if axes <= TAU_2:
        return "post"
    if axes <= (TAU_3 | {Axis.FIRST_CHILD}):
        return "bflr"
    return None


def classify_signature(axes: Iterable["str | Axis"]) -> tuple[str, str | None]:
    """Theorem 6.8 verdict for a signature: ``("P", order)`` or
    ``("NP-complete", None)``."""
    order = tractable_order(axes)
    if order is None:
        return ("NP-complete", None)
    return ("P", order)
