"""First-order logic over tree structures (Section 3's FO / FOᵏ layer).

Provides an FO formula AST (with ∃/∀/∧/∨/¬/= over unary and binary tree
relations), a naive model checker (data complexity O(nᵏ) for k nested
quantifiers — the PSpace-combined-complexity baseline of Figure 7), the
FOᵏ variable-width measure (FOᵏ⁺¹ conjunctive queries have tree-width
≤ k, [54]), and conversions from conjunctive queries.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".fo": [
        "FO", "Exists", "Forall", "And", "Or", "Not", "RelAtom", "Eq", "fo_eval",
        "variable_width", "is_positive", "cq_to_fo",
    ],
})
