"""Tests for bottom-up tree automata on the binary encoding (§4)."""

from hypothesis import given, settings
import pytest

from repro.automata import (
    accepts,
    child_pattern_automaton,
    complement_automaton,
    label_count_mod_automaton,
    label_exists_automaton,
    product_automaton,
    run_automaton,
    selecting_run,
)
from repro.automata.bottomup import BOTTOM, BottomUpTreeAutomaton
from repro.trees import Tree, path_tree, random_tree

from conftest import trees


class TestExistsAutomaton:
    @given(trees(max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_check(self, t):
        for target in ("a", "b", "zz"):
            automaton = label_exists_automaton(target)
            expected = any(t.has_label(v, target) for v in t.nodes())
            assert accepts(automaton, t) == expected

    def test_single_node(self):
        t = Tree.from_tuple("a")
        assert accepts(label_exists_automaton("a"), t)
        assert not accepts(label_exists_automaton("b"), t)


class TestCountModAutomaton:
    @given(trees(max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_counts_mod_m(self, t):
        for m in (2, 3):
            automaton = label_count_mod_automaton("a", m)
            count = sum(1 for v in t.nodes() if t.has_label(v, "a"))
            assert accepts(automaton, t) == (count % m == 0)


class TestChildPattern:
    @given(trees(max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_selection(self, t):
        automaton = child_pattern_automaton("a", "b")
        expected = {
            v
            for v in t.nodes()
            if t.has_label(v, "a")
            and any(t.has_label(c, "b") for c in t.children[v])
        }
        assert selecting_run(automaton, t) == expected
        assert accepts(automaton, t) == bool(expected)

    def test_selection_requires_selecting(self):
        with pytest.raises(ValueError):
            selecting_run(label_exists_automaton("a"), random_tree(5))


class TestClosures:
    @given(trees(max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_product_and_or(self, t):
        a = label_exists_automaton("a")
        b = label_count_mod_automaton("b", 2)
        assert accepts(product_automaton(a, b, "and"), t) == (
            accepts(a, t) and accepts(b, t)
        )
        assert accepts(product_automaton(a, b, "or"), t) == (
            accepts(a, t) or accepts(b, t)
        )

    @given(trees(max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_complement(self, t):
        a = label_exists_automaton("c")
        assert accepts(complement_automaton(a), t) == (not accepts(a, t))

    def test_bad_mode(self):
        a = label_exists_automaton("a")
        with pytest.raises(ValueError):
            product_automaton(a, a, "xor")


class TestRuns:
    def test_run_assigns_all_states(self):
        t = random_tree(100, seed=1)
        states = run_automaton(label_exists_automaton("a"), t)
        assert len(states) == t.n
        assert all(s in ("yes", "no") for s in states)

    def test_run_on_deep_tree(self):
        t = path_tree(20_000)
        automaton = label_count_mod_automaton("a", 2)
        run_automaton(automaton, t)  # must not recurse

    def test_custom_automaton(self):
        """Height parity via the binary encoding: an ad-hoc automaton."""

        def delta(left, right, label):
            l_height = -1 if left == BOTTOM else left
            return l_height + 1  # height along FirstChild spine

        automaton = BottomUpTreeAutomaton(
            "fc-spine-height", delta, accepting=lambda q: q % 2 == 0
        )
        t = path_tree(5)
        states = run_automaton(automaton, t)
        assert states[0] == 4


class TestXPathAutomaton:
    """The downward-XPath automaton of ``repro.automata.xpathrun``, which
    the engine's ``automaton`` strategy runs: outside its fragment it
    refuses with a QueryError, directly and through the engine."""

    def test_rejects_non_downward(self):
        from repro.automata.xpathrun import evaluate_xpath_automaton
        from repro.engine import Database
        from repro.errors import QueryError
        from repro.xpath.parser import parse_xpath

        tree = random_tree(30, seed=9, alphabet=("a", "b", "c", "d"))
        expr = parse_xpath("Parent[lab() = a]")
        with pytest.raises(QueryError, match="downward fragment"):
            evaluate_xpath_automaton(expr, tree)
        with pytest.raises(QueryError, match="not applicable"):
            Database(tree).xpath(expr, "automaton")

    def test_rejects_position(self):
        from repro.automata.xpathrun import evaluate_xpath_automaton
        from repro.engine import Database
        from repro.errors import QueryError
        from repro.xpath.parser import parse_xpath

        tree = random_tree(30, seed=9, alphabet=("a", "b", "c", "d"))
        expr = parse_xpath("Child[position() = 1]")
        with pytest.raises(QueryError):
            evaluate_xpath_automaton(expr, tree)
        with pytest.raises(QueryError, match="not applicable"):
            Database(tree).xpath(expr, "automaton")
