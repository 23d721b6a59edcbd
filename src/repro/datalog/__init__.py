"""Monadic datalog over trees (Section 3 of the paper).

Pipeline reproduced here::

    program over τ⁺ (+ arbitrary axes)
        --to_tmnf-->   TMNF program over τ⁺      (Definition 3.4, [31])
        --ground-->    propositional Horn program (Theorem 3.2)
        --minoux-->    minimal model              (Figure 3)

giving O(|P| · |Dom|) combined complexity.  A naive rule-matching
evaluator (:func:`evaluate_naive`) serves as the baseline for E4/E5.

``repro.datalog.ground`` and ``repro.datalog.evaluate`` are the
submodules: import the functions as ``from repro.datalog.evaluate import
evaluate`` and ``from repro.datalog.ground import ground``.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".syntax": ["Atom", "Rule", "Program", "var", "is_variable"],
    ".parser": ["parse_program", "parse_rule"],
    ".tmnf": ["to_tmnf", "is_tmnf", "is_tmnf_rule"],
    ".evaluate": ["evaluate_naive", "evaluate_program"],
})
