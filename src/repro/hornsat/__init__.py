"""Linear-time propositional Horn-SAT — the "datalog technique" (§3).

The paper reproduces Minoux' algorithm verbatim in its Figure 3; this
package implements it (:func:`~repro.hornsat.minoux.minoux`) along
with the quadratic naive fixpoint iteration (:func:`naive_fixpoint`)
used as the baseline in experiment E3, and a :class:`HornProgram`
container shared with the datalog grounder and the arc-consistency
encoder.

``repro.hornsat.minoux`` is the submodule: import the function itself
as ``from repro.hornsat.minoux import minoux``.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".program": ["HornClause", "HornProgram"],
    ".minoux": ["MinouxTrace"],
    ".naive": ["naive_fixpoint"],
})
