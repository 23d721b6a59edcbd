"""Tests for the extension modules: counting, FO², buffered streaming,
tree edits, the disk store, containment, and the CLI."""

import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.consistency import (
    ExplicitStructure,
    count_answers_per_value,
    count_solutions,
    is_tree_shaped,
)
from repro.cq import (
    ConjunctiveQuery,
    contained_by_homomorphism,
    decide_containment_sampled,
    evaluate_backtracking,
    homomorphism,
    parse_cq,
    refute_containment,
)
from repro.errors import ParseError
from repro.logic import variable_width
from repro.logic.fo import fo_query
from repro.storage import dump_tree, dumps_tree, load_tree, loads_tree
from repro.streaming import (
    MemoryMeter,
    split_lookahead,
    stream_select_lookahead,
    tree_events,
)
from repro.trees import (
    Tree,
    delete_subtree,
    insert_leaf,
    insert_subtree,
    parse_xml,
    random_tree,
    relabel,
    splice,
    to_xml,
)
from repro.trees.generate import tree_from_parents
from repro.workloads import random_cq, random_xpath
from repro.xpath import evaluate_query, parse_xpath, xpath_to_fo2

from conftest import trees


class TestCounting:
    @given(trees(max_size=18), st.integers(min_value=0, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_count_matches_enumeration(self, t, seed):
        q = random_cq(4, 3, seed=seed, head_arity=1)
        if not is_tree_shaped(q):
            return
        full = ConjunctiveQuery(tuple(q.variables()), q.atoms)
        solutions = evaluate_backtracking(full, t)
        assert count_solutions(q, t) == len(solutions)

    @given(trees(max_size=18), st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_per_value_counts(self, t, seed):
        q = random_cq(3, 2, seed=seed, head_arity=1)
        if not is_tree_shaped(q):
            return
        full = ConjunctiveQuery(tuple(q.variables()), q.atoms)
        idx = q.variables().index(q.head[0])
        expected = Counter(s[idx] for s in evaluate_backtracking(full, t))
        assert count_answers_per_value(q, t, q.head[0]) == dict(expected)

    def test_unsatisfiable_counts_zero(self):
        t = random_tree(10, seed=1, alphabet=("a",))
        q = parse_cq("ans(x) :- Child+(x, y), Lab:zzz(y)")
        assert count_solutions(q, t) == 0
        assert count_answers_per_value(q, t) == {}

    def test_large_counts_without_enumeration(self):
        """Counting stays cheap when the output would be huge: a chain
        x < y < z on a 100-node path has C(100, 3) = 161 700 solutions."""
        from repro.trees import path_tree

        t = path_tree(100)
        q = parse_cq("ans(x) :- Child+(x, y), Child+(y, z)")
        assert count_solutions(q, t) == 161_700


class TestFO2:
    QUERIES = [
        "Child/Child+[lab() = a]",
        "Child*[not(Child[lab() = b])]",
        "(Child union Following)[lab() = a]/Child",
        "Child+[Parent[lab() = a] or lab() = b]",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_width_two(self, text):
        formula = xpath_to_fo2(parse_xpath(text))
        assert variable_width(formula) <= 2

    @pytest.mark.parametrize("text", QUERIES)
    def test_semantics(self, text):
        expr = parse_xpath(text)
        formula = xpath_to_fo2(expr)
        for seed in range(3):
            t = random_tree(12, seed=seed)
            assert fo_query(formula, t, "y") == evaluate_query(expr, t)

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_random_queries(self, seed):
        expr = parse_xpath(random_xpath(2, seed=seed))
        formula = xpath_to_fo2(expr)
        assert variable_width(formula) <= 2
        t = random_tree(9, seed=seed)
        assert fo_query(formula, t, "y") == evaluate_query(expr, t)


class TestBufferedStreaming:
    def test_split_lookahead(self):
        expr = parse_xpath("Child*[lab() = a][NextSibling+[lab() = b]]")
        core, lookahead = split_lookahead(expr)
        assert lookahead == {"b"}
        assert "NextSibling" not in str(core)

    QUERIES = [
        "Child*[lab() = a][NextSibling+[lab() = b]]",
        "Child[lab() = a]/Child*[lab() = b][NextSibling+[lab() = c]]",
        "Child+[NextSibling+[lab() = a]][NextSibling+[lab() = b]]",
        "Child*[lab() = a]",  # no lookahead: falls through to stream_select
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_vs_in_memory(self, text, small_trees):
        expr = parse_xpath(text)
        for t in small_trees:
            got = set(stream_select_lookahead(expr, tree_events(t)))
            assert got == evaluate_query(expr, t), text

    @given(trees(max_size=40), st.sampled_from(QUERIES))
    @settings(max_examples=40, deadline=None)
    def test_fuzz(self, t, text):
        expr = parse_xpath(text)
        got = set(stream_select_lookahead(expr, tree_events(t)))
        assert got == evaluate_query(expr, t)

    def test_concurrency_forces_buffering(self):
        """[Bar-Yossef et al.]: memory must scale with the number of
        concurrently alive candidate answers — here on a depth-1 tree."""
        expr = parse_xpath("Child[lab() = a][NextSibling+[lab() = b]]")
        n = 1_001
        wide = tree_from_parents(
            [-1] + [0] * (n - 1), ["r"] + ["a"] * (n - 2) + ["b"]
        )
        meter = MemoryMeter()
        result = list(stream_select_lookahead(expr, tree_events(wide), meter=meter))
        assert len(result) == n - 2
        assert meter.peak_units > (n - 2)  # >> depth, which is 1


class TestEdits:
    def test_insert_leaf_positions(self):
        t = Tree.from_tuple(("r", ["a", "b"]))
        assert to_xml(insert_leaf(t, 0, 0, "x")) == "<r><x/><a/><b/></r>"
        assert to_xml(insert_leaf(t, 0, 2, "x")) == "<r><a/><b/><x/></r>"

    def test_insert_leaf_bad_position(self):
        t = Tree.from_tuple(("r", ["a"]))
        with pytest.raises(IndexError):
            insert_leaf(t, 0, 5, "x")

    def test_insert_subtree(self):
        t = Tree.from_tuple(("r", ["a"]))
        sub = Tree.from_tuple(("s", ["u", "v"]))
        out = insert_subtree(t, 1, 0, sub)
        assert to_xml(out) == "<r><a><s><u/><v/></s></a></r>"

    def test_delete_subtree(self):
        t = Tree.from_tuple(("r", [("a", ["x"]), "b"]))
        assert to_xml(delete_subtree(t, 1)) == "<r><b/></r>"
        with pytest.raises(ValueError):
            delete_subtree(t, 0)

    def test_relabel(self):
        t = Tree.from_tuple(("r", ["a"]))
        out = relabel(t, 1, "z")
        assert out.label[1] == "z" and out.has_label(1, "z")
        assert not out.has_label(1, "a")

    def test_splice(self):
        t = Tree.from_tuple(("r", [("a", ["x", "y"]), "b"]))
        assert to_xml(splice(t, 1)) == "<r><x/><y/><b/></r>"
        with pytest.raises(ValueError):
            splice(t, 0)

    @given(trees(max_size=20), st.integers(min_value=0, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_insert_then_delete_roundtrip(self, t, seed):
        parent = seed % t.n
        position = seed % (len(t.children[parent]) + 1)
        grown = insert_leaf(t, parent, position, "fresh")
        assert grown.n == t.n + 1
        new_node = next(
            v for v in grown.nodes() if grown.label[v] == "fresh"
        )
        assert delete_subtree(grown, new_node) == t


class TestDiskStore:
    @given(trees(max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, t):
        assert loads_tree(dumps_tree(t)) == t

    def test_multi_label_round_trip(self):
        t = parse_xml('<r id="1"><a/></r>', attributes_as_labels=True)
        assert loads_tree(dumps_tree(t)) == t

    def test_file_round_trip(self, tmp_path):
        t = random_tree(500, seed=3)
        path = os.path.join(tmp_path, "tree.rtre")
        size = dump_tree(t, path)
        assert size == os.path.getsize(path)
        assert load_tree(path) == t

    def test_compactness(self):
        """The store is a small constant number of bytes per node."""
        t = random_tree(10_000, seed=4)
        data = dumps_tree(t)
        assert len(data) < 24 * t.n

    def test_bad_magic(self):
        with pytest.raises(ParseError):
            loads_tree(b"NOPE" + b"\x00" * 32)


class TestContainment:
    def test_child_in_descendant(self):
        q_child = parse_cq("ans(y) :- Child(x, y), Lab:a(x)")
        q_desc = parse_cq("ans(y) :- Child+(x, y), Lab:a(x)")
        assert contained_by_homomorphism(q_child, q_desc)
        assert not contained_by_homomorphism(q_desc, q_child)
        assert decide_containment_sampled(q_desc, q_child)[0] is False

    def test_refutation_returns_counterexample(self):
        # binary heads: the grandparent pair separates Child+ from Child
        q1 = parse_cq("ans(x, y) :- Child+(x, y)")
        q2 = parse_cq("ans(x, y) :- Child(x, y)")
        witness = refute_containment(q1, q2)
        assert witness is not None
        r1 = evaluate_backtracking(q1, witness)
        r2 = evaluate_backtracking(q2, witness)
        assert not r1 <= r2

    def test_unary_projection_equivalence_not_refuted(self):
        """ans(y) :- Child+(x, y) ≡ ans(y) :- Child(x, y): having an
        ancestor is having a parent — the bounded refuter finds no
        counterexample (correctly), though no homomorphism exists:
        the incompleteness band of the Chandra–Merlin test over trees."""
        q1 = parse_cq("ans(y) :- Child+(x, y)")
        q2 = parse_cq("ans(y) :- Child(x, y)")
        assert not contained_by_homomorphism(q1, q2)
        assert refute_containment(q1, q2) is None
        assert decide_containment_sampled(q1, q2) == (
            True,
            "no-small-counterexample",
        )

    def test_homomorphism_respects_labels(self):
        q1 = parse_cq("ans(y) :- Child(x, y), Lab:a(x)")
        q2 = parse_cq("ans(y) :- Child(x, y), Lab:b(x)")
        assert not contained_by_homomorphism(q1, q2)
        assert decide_containment_sampled(q1, q2)[0] is False

    def test_equivalent_renamings(self):
        q1 = parse_cq("ans(y) :- Child(x, y)")
        q2 = parse_cq("ans(w) :- Child(z, w)")
        assert contained_by_homomorphism(q1, q2)
        assert contained_by_homomorphism(q2, q1)

    def test_extra_atom_containment(self):
        smaller = parse_cq("ans(y) :- Child(x, y), Lab:a(y), Leaf(y)")
        larger = parse_cq("ans(y) :- Child(x, y), Lab:a(y)")
        assert contained_by_homomorphism(smaller, larger)
        assert decide_containment_sampled(larger, smaller)[0] is False

    def test_implication_table_is_exact_on_trees(self):
        """``IMPLIES[a]`` holds exactly the forward axes b with b ⊆ a on
        all 42 random trees of 1-14 nodes: each entry holds on every
        tree, and every missing one fails on some tree."""
        from repro.cq.containment import IMPLIES
        from repro.trees.axes import FORWARD_AXES, axis_pairs

        trees = [random_tree(1 + seed % 14, seed=seed) for seed in range(42)]
        relations = [{a: set(axis_pairs(t, a)) for a in FORWARD_AXES} for t in trees]
        derived = {
            a: frozenset(
                b for b in FORWARD_AXES if all(r[b] <= r[a] for r in relations)
            )
            for a in FORWARD_AXES
        }
        assert derived == IMPLIES

    def test_next_sibling_is_contained_in_following(self):
        for sibling in ("NextSibling", "NextSibling+"):
            assert contained_by_homomorphism(
                parse_cq(f"ans(x) :- {sibling}(x, y)"),
                parse_cq("ans(x) :- Following(x, y)"),
            )

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_homomorphism_soundness(self, seed):
        """Whenever the homomorphism test fires, containment really holds
        on sampled trees."""
        q1 = random_cq(3, 2, seed=seed, head_arity=1)
        q2 = random_cq(3, 2, seed=seed + 1000, head_arity=1)
        if not contained_by_homomorphism(q1, q2):
            return
        for tree_seed in range(4):
            t = random_tree(12, seed=tree_seed)
            assert evaluate_backtracking(q1, t) <= evaluate_backtracking(q2, t)


class TestCLI:
    @pytest.fixture
    def doc(self, tmp_path):
        path = os.path.join(tmp_path, "doc.xml")
        with open(path, "w") as fh:
            fh.write("<site><item><name/><keyword/></item><item><name/></item></site>")
        return path

    def test_stats(self, doc, capsys):
        assert cli_main(["stats", doc]) == 0
        out = capsys.readouterr().out
        assert "nodes   : 6" in out

    def test_xpath_all_engines(self, doc, capsys):
        code = cli_main(
            ["xpath", "Child*[lab() = item]/Child[lab() = name]", doc, "--engine", "all"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.split() == ["2", "5"]

    def test_cq(self, doc, capsys):
        code = cli_main(
            ["cq", "ans(x) :- Child(y, x), Lab:item(y)", doc, "--engine", "all"]
        )
        assert code == 0

    def test_twig(self, doc, capsys):
        assert cli_main(["twig", "//item[keyword]", doc]) == 0
        out = capsys.readouterr().out
        assert "1" in out

    def test_classify(self, capsys):
        assert cli_main(["classify", "Child+", "Following"]) == 0
        assert "NP-complete" in capsys.readouterr().out
        assert cli_main(["classify", "descendant"]) == 0
        assert "<pre" in capsys.readouterr().out

    def test_convert_round_trip(self, doc, tmp_path, capsys):
        store = os.path.join(tmp_path, "doc.rtre")
        assert cli_main(["convert", doc, store]) == 0
        assert cli_main(["stats", store]) == 0
        assert "nodes   : 6" in capsys.readouterr().out

    def test_datalog(self, doc, tmp_path, capsys):
        program = os.path.join(tmp_path, "p.dl")
        with open(program, "w") as fh:
            fh.write("Q(x) :- Lab:keyword(x).\n% query: Q\n")
        assert cli_main(["datalog", program, doc]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_error_path(self, capsys):
        assert cli_main(["stats", "/nonexistent/file.xml"]) == 1

    def test_bad_engine(self, doc, capsys):
        assert cli_main(["xpath", "Child", doc, "--engine", "warp"]) == 2


class TestExplicitStructureExports:
    def test_example_6_1_through_public_api(self):
        from repro.consistency import arc_consistency_worklist
        from repro.datalog.syntax import Atom

        q = ConjunctiveQuery((), (Atom("R", ("x", "y")), Atom("S", ("x", "y"))))
        s = ExplicitStructure(
            [1, 2, 3, 4], binary={"R": [(1, 2), (3, 4)], "S": [(3, 2), (1, 4)]}
        )
        assert arc_consistency_worklist(q, None, s) == {
            "x": {1, 3},
            "y": {2, 4},
        }
