"""Tests for monadic datalog: parsing, TMNF, grounding, evaluation (§3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    Atom,
    Program,
    Rule,
    evaluate_naive,
    evaluate_program,
    is_tmnf,
    parse_program,
    parse_rule,
    to_tmnf,
)
from repro.datalog.evaluate import evaluate
from repro.datalog.ground import ground
from repro.errors import ParseError, QueryError
from repro.hornsat.minoux import minoux
from repro.trees import Tree, TreeStructure, random_tree
from repro.trees.axes import Axis, axis_holds

from conftest import trees

EXAMPLE_3_1 = """
P0(x) :- Lab:L(x).
P0(x0) :- NextSibling(x0, x), P0(x).
P(x0) :- FirstChild(x0, x), P0(x).
P0(x) :- P(x).
% query: P
"""


class TestParser:
    def test_example_3_1_parses(self):
        prog = parse_program(EXAMPLE_3_1)
        assert len(prog.rules) == 4
        assert prog.query_pred == "P"

    def test_rule_str_round_trip(self):
        r = parse_rule("P(x) :- FirstChild(x, y), Lab:a(y)")
        assert str(r) == "P(x) :- FirstChild(x, y), Lab:a(y)."

    def test_constants(self):
        r = parse_rule("P(3)")
        assert r.head.args == (3,)

    def test_axis_aliases_canonicalized(self):
        prog = parse_program("Q(x) :- descendant(y, x). % query: Q")
        assert prog.rules[0].body[0].pred == "Child+"

    def test_bad_term(self):
        with pytest.raises(ParseError):
            parse_rule("P(X!)")

    def test_unsafe_rule_rejected(self):
        with pytest.raises(QueryError):
            parse_program("P(x) :- Lab:a(y).")

    def test_unknown_binary_rejected(self):
        with pytest.raises(QueryError):
            parse_program("P(x) :- Sideways(x, y), Dom(y).")

    def test_non_monadic_rejected(self):
        with pytest.raises(QueryError):
            parse_program("E(x, y) :- FirstChild(x, y).")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(QueryError):
            parse_program("P(x) :- P(x, x).")

    def test_multiline_rule(self):
        prog = parse_program("P(x) :-\n  Lab:a(x),\n  Leaf(x).")
        assert len(prog.rules[0].body) == 2


class TestExample31:
    def test_semantics_on_figure_tree(self, paper_tree):
        # paper_tree has no L labels: empty result
        prog = parse_program(EXAMPLE_3_1)
        assert evaluate(prog, paper_tree) == set()

    def test_marks_ancestors_of_L(self):
        t = Tree.from_tuple(("a", [("b", [("L", ["c"])]), "d"]))
        prog = parse_program(EXAMPLE_3_1)
        # P computes nodes with a descendant labeled L (the program walks
        # from an L node to the first sibling and then to the parent)
        assert evaluate(prog, t) == {0, 1}

    def test_naive_agrees(self):
        t = Tree.from_tuple(("a", [("b", [("L", ["c"])]), "L"]))
        prog = parse_program(EXAMPLE_3_1)
        assert evaluate(prog, t) == evaluate_naive(prog, t)["P"]


class TestTMNF:
    def test_tmnf_shape(self):
        prog = parse_program(EXAMPLE_3_1)
        out = to_tmnf(prog)
        assert is_tmnf(out)
        # rules 1, 3 and 4 are TMNF already; rule 2 points its binary
        # atom out of the head variable, so it is re-oriented (constant
        # blow-up only)
        assert len(out.rules) <= len(prog.rules) + 2

    def test_axis_elimination_produces_tau_plus(self):
        prog = parse_program("Q(x) :- Following(y, x), Lab:a(y). % query: Q")
        out = to_tmnf(prog)
        assert is_tmnf(out)
        assert out.is_tau_plus()

    def test_output_size_linear(self):
        """TMNF translation is O(|P|): each derived-axis atom costs a
        bounded number of marking predicates."""
        base = "Q(x) :- Following(y, x), Lab:a(y). % query: Q"
        small = to_tmnf(parse_program(base))
        rules = "\n".join(
            f"Q{i}(x) :- Following(y, x), Lab:a(y)." for i in range(10)
        )
        big = to_tmnf(parse_program(rules + "% query: Q0"))
        assert len(big.rules) <= 10 * len(small.rules)

    def test_cyclic_body_rejected(self):
        prog = parse_program(
            "Q(x) :- Child(x, y), Child(y, z), Child+(x, z). % query: Q"
        )
        with pytest.raises(QueryError):
            to_tmnf(prog)

    def test_parallel_edges_rejected(self):
        prog = parse_program("Q(x) :- Child(x, y), Child+(x, y). % query: Q")
        with pytest.raises(QueryError):
            to_tmnf(prog)

    def test_irreflexive_self_loop_drops_rule(self):
        prog = parse_program("Q(x) :- Child(x, x). % query: Q")
        out = to_tmnf(prog)
        t = random_tree(10)
        assert evaluate(out, t, normalize=False) == set()

    def test_reflexive_self_loop_is_noop(self):
        prog = parse_program("Q(x) :- Child*(x, x), Lab:a(x). % query: Q")
        t = random_tree(20, seed=1)
        expected = set(t.nodes_with_label("a"))
        assert evaluate(prog, t) == expected

    def test_self_atom_merges_variables(self):
        prog = parse_program("Q(x) :- Self(x, y), Lab:a(y). % query: Q")
        t = random_tree(20, seed=2)
        assert evaluate(prog, t) == set(t.nodes_with_label("a"))

    def test_disconnected_body_broadcasts(self):
        # Q(x) holds at every a-node iff some b-node exists anywhere
        prog = parse_program("Q(x) :- Lab:a(x), Lab:b(y), Dom(y). % query: Q")
        t_with = Tree.from_tuple(("a", ["b"]))
        t_without = Tree.from_tuple(("a", ["c"]))
        assert evaluate(prog, t_with) == {0}
        assert evaluate(prog, t_without) == set()

    @pytest.mark.parametrize("axis", [a for a in Axis])
    def test_every_axis_eliminated_correctly(self, axis):
        prog = parse_program(f"Q(x) :- {axis.value}(y, x), Lab:a(y). % query: Q")
        for seed in range(3):
            t = random_tree(30, seed=seed, alphabet=("a", "b"))
            expected = {
                x
                for x in t.nodes()
                for y in t.nodes()
                if axis_holds(t, axis, y, x) and t.has_label(y, "a")
            }
            assert evaluate(prog, t) == expected, (axis, seed)


class TestGrounding:
    def test_ground_program_size_linear_in_domain(self):
        """Theorem 3.2's worst case: every node is labeled L, so every
        atom of Example 3.1 is derivable and nothing can be pruned."""
        prog = to_tmnf(parse_program(EXAMPLE_3_1))
        sizes = []
        for n in (20, 40, 80):
            t = random_tree(n, seed=0, alphabet=("L",))
            horn = ground(prog, TreeStructure(t))
            sizes.append(horn.size())
        assert sizes[0] > 0
        # linear: doubling n roughly doubles the ground size
        assert sizes[1] < sizes[0] * 2.6
        assert sizes[2] < sizes[1] * 2.6

    def test_ground_program_empty_when_no_fact_reaches_it(self):
        """Without any L-labeled node no atom of Example 3.1 is
        derivable, so grounding emits no clause at all."""
        prog = to_tmnf(parse_program(EXAMPLE_3_1))
        for n in (20, 40, 80):
            t = random_tree(n, seed=0)
            assert "L" not in t.alphabet()
            assert ground(prog, TreeStructure(t)).size() == 0
            assert evaluate(parse_program(EXAMPLE_3_1), t) == set()

    def test_ground_matches_example_3_3_structure(self):
        """Grounding on a 3-node chain produces the r4/r5/r6 pattern of
        Example 3.3 (after folding extensional facts)."""
        t = Tree.from_tuple(("r", [("m", ["L"])]))
        # ids: 0=r, 1=m, 2=L; FirstChild(0,1), FirstChild(1,2)
        prog = parse_program(EXAMPLE_3_1)
        horn = ground(to_tmnf(prog), TreeStructure(t))
        model, sat = minoux(horn)
        assert sat
        assert ("P", 1) in model and ("P", 0) in model

    def test_non_tmnf_rule_rejected_by_grounder(self):
        prog = parse_program("Q(x) :- Child(y, x), Child(z, y). % query: Q")
        with pytest.raises(QueryError):
            ground(prog, TreeStructure(random_tree(5)))


class TestEvaluation:
    @given(trees(max_size=30), st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_pipeline_vs_naive(self, t, which):
        programs = [
            "Q(x) :- Child+(y, x), Lab:a(y). % query: Q",
            "Q(x) :- Lab:a(x). Q(x) :- NextSibling(x, y), Q(y). % query: Q",
            "Q(x) :- FirstChild(x, y), Lab:b(y). % query: Q",
            "Q(x) :- Following(x, y), Lab:c(y). % query: Q",
            "Q(x) :- Leaf(x), Child(y, x), Lab:a(y). % query: Q",
            EXAMPLE_3_1.replace("Lab:L", "Lab:a"),
        ]
        prog = parse_program(programs[which])
        assert evaluate(prog, t) == evaluate_naive(prog, t)[prog.query_pred]

    def test_recursion_transitive_closure(self):
        """Datalog recursion: all ancestors of a-labeled nodes, written
        with non-transitive axes only."""
        prog = parse_program(
            """
            Anc(x) :- Child(x, y), Lab:a(y).
            Anc(x) :- Child(x, y), Anc(y).
            % query: Anc
            """
        )
        t = random_tree(40, seed=5)
        expected = {
            x
            for x in t.nodes()
            for y in t.descendants(x)
            if t.has_label(y, "a")
        }
        assert evaluate(prog, t) == expected

    def test_constants_in_rules(self):
        prog = parse_program("Q(x) :- Child+(0, x). % query: Q")
        t = random_tree(15, seed=1)
        assert evaluate(prog, t) == set(range(1, 15))

    def test_ground_fact(self):
        prog = parse_program("Q(3). Q(x) :- Q(y), FirstChild(y, x). % query: Q")
        t = Tree.from_tuple(("a", [("b", ["c"]), "d"]))
        result = evaluate(prog, t)
        assert 3 in result

    def test_missing_query_pred(self):
        prog = parse_program("P(x) :- Dom(x).")
        with pytest.raises(QueryError):
            evaluate(prog, random_tree(5))

    def test_evaluate_program_returns_all_idb(self):
        prog = parse_program(EXAMPLE_3_1)
        result = evaluate_program(prog, random_tree(20, seed=3, alphabet=("L", "m")))
        assert set(result) >= {"P", "P0"}
