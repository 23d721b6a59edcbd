"""Tests for Minoux' algorithm (Figure 3) and the naive baseline."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hornsat import HornClause, HornProgram, MinouxTrace, naive_fixpoint
from repro.hornsat.minoux import minoux
from repro.workloads import random_horn_program


class TestProgramContainer:
    def test_builders(self):
        p = HornProgram().fact("a").rule("b", "a").constraint("b", "c")
        assert len(p) == 3
        assert p.clauses[0].is_fact()
        assert p.clauses[2].is_constraint()

    def test_atoms(self):
        p = HornProgram().rule("b", "a", "c")
        assert p.atoms() == {"a", "b", "c"}

    def test_size_counts_atom_occurrences(self):
        p = HornProgram().fact("a").rule("b", "a", "c").constraint("b")
        assert p.size() == 1 + 3 + 1

    def test_clause_str(self):
        assert str(HornClause("a", ("b", "c"))) == "'a' <- 'b', 'c'"
        assert str(HornClause("a")) == "'a' <-"


class TestMinoux:
    def test_example_3_3(self):
        """The worked example from the paper: rules r1..r6 over atoms 1..6."""
        p = HornProgram()
        p.fact(1).fact(2).fact(3)
        p.rule(4, 1)
        p.rule(5, 3, 4)
        p.rule(6, 2, 5)
        trace = MinouxTrace()
        model, sat = minoux(p, trace=trace)
        assert sat
        assert model == {1, 2, 3, 4, 5, 6}
        # the paper's first iteration pops 1, outputs it, then fires r4
        assert trace.derivation_order[:3] == [1, 2, 3]
        assert trace.derivation_order.index(4) < trace.derivation_order.index(5)
        assert trace.derivation_order.index(5) < trace.derivation_order.index(6)

    def test_empty_program(self):
        model, sat = minoux(HornProgram())
        assert model == set() and sat

    def test_non_derivable_head(self):
        p = HornProgram().rule("b", "a")
        model, sat = minoux(p)
        assert model == set() and sat

    def test_duplicate_body_atoms_do_not_fire_early(self):
        # b <- a, a must wait for a (once), not fire at count 2
        p = HornProgram()
        p.clauses.append(HornClause("b", ("a", "a")))
        model, sat = minoux(p)
        assert model == set()
        p.fact("a")
        model, sat = minoux(p)
        assert model == {"a", "b"}

    def test_constraint_violated(self):
        p = HornProgram().fact("a").constraint("a")
        _, sat = minoux(p)
        assert not sat

    def test_constraint_not_violated(self):
        p = HornProgram().fact("a").constraint("b")
        model, sat = minoux(p)
        assert sat and model == {"a"}

    def test_empty_constraint_unsat(self):
        p = HornProgram().constraint()
        _, sat = minoux(p)
        assert not sat

    def test_linear_work_bound(self):
        """Total size[] decrements are bounded by the program size."""
        p = random_horn_program(200, 500, seed=1)
        trace = MinouxTrace()
        minoux(p, trace=trace)
        assert trace.decrements <= p.size()

    def test_cyclic_rules_terminate(self):
        p = HornProgram().rule("a", "b").rule("b", "a")
        model, sat = minoux(p)
        assert model == set() and sat
        p.fact("a")
        model, sat = minoux(p)
        assert model == {"a", "b"}


class TestAgainstNaive:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_programs_agree(self, seed):
        rng = random.Random(seed)
        p = HornProgram()
        n_atoms = rng.randint(1, 15)
        for _ in range(rng.randint(0, 40)):
            head = rng.randrange(n_atoms)
            body = [rng.randrange(n_atoms) for _ in range(rng.randint(0, 3))]
            p.rule(head, *body)
        m1, s1 = minoux(p)
        m2, s2 = naive_fixpoint(p)
        assert (m1, s1) == (m2, s2)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_minimal_model_property(self, seed):
        """Every derived atom has a derivation; no underivable atom is in
        the model (checked via the naive oracle and via supports)."""
        p = random_horn_program(30, 60, seed=seed)
        model, _ = minoux(p)
        for atom in model:
            assert any(
                c.head == atom and all(b in model for b in c.body)
                for c in p.clauses
            )

    def test_chain_program(self):
        p = HornProgram().fact(0)
        for i in range(999):
            p.rule(i + 1, i)
        model, _ = minoux(p)
        assert len(model) == 1000
