"""Cross-engine differential tests: every strategy, same answers.

The paper's algorithms are different *costs* for the same semantics, so
any disagreement between two registered strategies is a bug by
construction.  This harness pins that invariant down property-style:
random documents from :func:`repro.trees.generate.random_tree`, random
queries from :mod:`repro.workloads.queries`, every applicable strategy
run through one shared :class:`repro.engine.Database`, answer sets
compared pairwise.  Everything is seeded — a failure message carries
the (tree seed, query seed, query) triple needed to replay it.

Volume: 120 XPath + 60 twig + 40 CQ cases = 220 random (tree, query)
pairs, each checked under at least 3 strategies.
"""

from __future__ import annotations

import pytest

from repro.engine import Database
from repro.trees.generate import random_tree
from repro.workloads.queries import random_cq, random_twig, random_xpath

LABELS = ("a", "b", "c", "d")

# one Database (→ one DocumentIndex) per document, shared by every
# query case on that document — the differential sweep doubles as an
# index-reuse soak test
_DB_CACHE: dict[tuple, Database] = {}
# the ExecutionStats of every call the sweep made, per shared Database
_CALL_STATS: dict[Database, list] = {}


def _db(n: int, seed: int, alphabet=LABELS) -> Database:
    key = (n, seed, alphabet)
    if key not in _DB_CACHE:
        _DB_CACHE[key] = Database(random_tree(n, seed=seed, alphabet=alphabet))
    return _DB_CACHE[key]


def _assert_agreement(db: Database, kind: str, query, context: str) -> int:
    """Run every applicable strategy; fail loudly on any mismatch.

    Returns the number of strategies exercised.
    """
    results = db.cross_check(kind, query)
    _CALL_STATS.setdefault(db, []).extend(r.stats for r in results.values())
    assert len(results) >= 3, (
        f"{context}: only {len(results)} applicable strategies "
        f"({', '.join(results)}) — expected at least 3"
    )
    reference_name, reference = next(iter(results.items()))
    for name, result in results.items():
        assert set(result.answer) == set(reference.answer), (
            f"{context}: strategy {name!r} disagrees with "
            f"{reference_name!r}\n"
            f"  {name}: {sorted(set(result.answer) - set(reference.answer))} extra, "
            f"{sorted(set(reference.answer) - set(result.answer))} missing"
        )
    return len(results)


# ---------------------------------------------------------------------------
# Core XPath: 120 cases (30 documents × 4 queries)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tree_seed", range(30))
def test_xpath_strategies_agree(tree_seed):
    n = 20 + 7 * tree_seed
    db = _db(n, tree_seed)
    for query_seed in range(4):
        text = random_xpath(
            n_steps=1 + query_seed % 3,
            labels=LABELS,
            qualifier_prob=0.5,
            negation_prob=0.2,
            seed=100 * tree_seed + query_seed,
        )
        context = f"tree(n={n}, seed={tree_seed}) xpath seed=" \
                  f"{100 * tree_seed + query_seed} {text!r}"
        _assert_agreement(db, "xpath", text, context)


# ---------------------------------------------------------------------------
# twig patterns: 60 cases (20 documents × 3 patterns)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tree_seed", range(20))
def test_twig_strategies_agree(tree_seed):
    n = 15 + 9 * tree_seed
    db = _db(n, 1000 + tree_seed)
    for query_seed in range(3):
        pattern = random_twig(
            n_nodes=2 + query_seed,
            labels=LABELS,
            seed=100 * tree_seed + query_seed,
        )
        context = f"tree(n={n}, seed={1000 + tree_seed}) twig seed=" \
                  f"{100 * tree_seed + query_seed} {pattern!r}"
        _assert_agreement(db, "twig", pattern, context)


# ---------------------------------------------------------------------------
# conjunctive queries: 40 cases (20 documents × 2 queries)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tree_seed", range(20))
def test_cq_strategies_agree(tree_seed):
    n = 12 + 5 * tree_seed
    db = _db(n, 2000 + tree_seed)
    for query_seed in range(2):
        query = random_cq(
            n_vars=2 + query_seed,
            n_binary=1 + query_seed,
            labels=LABELS,
            seed=100 * tree_seed + query_seed,
        )
        context = f"tree(n={n}, seed={2000 + tree_seed}) cq seed=" \
                  f"{100 * tree_seed + query_seed} {query!r}"
        _assert_agreement(db, "cq", query, context)


# ---------------------------------------------------------------------------
# the sweep doubles as an index-reuse soak: per shared Database, the
# index must have been built exactly once
# ---------------------------------------------------------------------------


def test_differential_sweep_reused_indexes():
    """Runs after the sweeps above (same module): every cached Database
    built its DocumentIndex exactly once across all of its queries."""
    if not _DB_CACHE:
        pytest.skip("differential sweeps did not run in this selection")
    total_reuse_hits = 0
    for (n, seed, _alphabet), db in _DB_CACHE.items():
        stats = _CALL_STATS.get(db, [])
        builds = sum(s.index_built for s in stats)
        assert builds <= 1, f"Database(n={n}, seed={seed}) rebuilt its index"
        total_reuse_hits += sum(s.index_hits for s in stats if not s.index_built)
    # individual label-free queries legitimately consult no partitions,
    # but across the whole sweep the cached indexes must be visibly hit
    assert total_reuse_hits > 0


def _random_queries():
    """The differential's random queries of all four kinds, as
    (kind, query) pairs, plus random cyclic CQs; datalog has no
    generator, so its fixed programs stand in."""
    for tree_seed in range(30):
        for query_seed in range(4):
            yield "xpath", random_xpath(
                n_steps=1 + query_seed % 3,
                labels=LABELS,
                qualifier_prob=0.5,
                negation_prob=0.2,
                seed=100 * tree_seed + query_seed,
            )
    for tree_seed in range(5):
        for query_seed in range(3):
            yield "xpath", random_xpath(
                n_steps=2, labels=LABELS, seed=10 * tree_seed + query_seed
            )
    for tree_seed in range(20):
        for query_seed in range(3):
            yield "twig", random_twig(
                n_nodes=2 + query_seed, labels=LABELS, seed=100 * tree_seed + query_seed
            )
        for query_seed in range(2):
            yield "cq", random_cq(
                n_vars=2 + query_seed,
                n_binary=1 + query_seed,
                labels=LABELS,
                seed=100 * tree_seed + query_seed,
            )
    for program in _DATALOG_PROGRAMS:
        yield "datalog", program
    # the sweep's CQs are all acyclic: one binary atom more than there
    # are variables closes a cycle in most of these
    for seed in range(40):
        n_vars = 3 + seed % 4
        yield "cq", random_cq(
            n_vars=n_vars, n_binary=n_vars + 1, labels=LABELS, seed=seed
        )


def test_planner_choice_always_among_applicable():
    """Every auto plan is the first strategy, in registry order, whose
    applicability gate accepts the query; cyclic CQs plan `rewrite`."""
    from repro.cq.acyclic import is_acyclic
    from repro.engine.strategies import strategies_for

    db = _db(40, 3000)
    cyclic = 0
    for kind, query in _random_queries():
        parsed = db._compiled(kind, query).parsed
        applicable = [s.name for s in strategies_for(kind, parsed, db.index)]
        plan = db.plan(kind, parsed)
        assert plan.strategy == applicable[0], (kind, str(query), applicable)
        if kind == "cq" and not is_acyclic(parsed):
            cyclic += 1
            assert plan.strategy == "rewrite", str(query)
    assert cyclic, "no cyclic CQ among the random queries"


# ---------------------------------------------------------------------------
# fault injection: a strategy that always blows the visit budget must be
# transparently downgraded away from, with identical answers
# ---------------------------------------------------------------------------


def _register_budget_hog():
    """Install an xpath strategy whose first act is to charge a visit
    count no budget survives; returns an uninstall callback."""
    from repro import faults
    from repro.engine.strategies import STRATEGIES, Strategy, _register
    from repro.obs.context import current

    def hog_execute(query, index):
        ctx = current()
        if ctx is not None:
            ctx.tick(10**9)
        raise AssertionError(
            "the hog must only ever run under a budget that stops it"
        )

    _register(
        Strategy(
            kind="xpath",
            name="budget-hog",
            summary="fault injection: always exceeds max_visited",
            applicable=lambda query, index: True,
            execute=hog_execute,
        )
    )

    def uninstall():
        # drop the strategy and the ``strategy.budget-hog`` fault site it
        # registered, so later tests (the chaos sweep's every-site
        # coverage check) never see a site with no strategy behind it
        del STRATEGIES["xpath"]["budget-hog"]
        faults._SITES.pop("strategy.budget-hog", None)

    return uninstall


def test_budget_fallback_is_differentially_transparent():
    """Seeded sweep: with a fault-injected strategy at the head of the
    xpath registry, so that every auto plan chooses it, every budgeted
    auto query downgrades to the next route and returns exactly the
    unbudgeted answer, recording the hog in ``fallback_from``."""
    from repro.engine.strategies import STRATEGIES

    cases = []
    for tree_seed in range(10):
        tree = random_tree(20 + 5 * tree_seed, seed=tree_seed, alphabet=LABELS)
        texts = [
            random_xpath(
                n_steps=1 + query_seed,
                labels=LABELS,
                seed=100 * tree_seed + query_seed,
            )
            for query_seed in range(3)
        ]
        # unbudgeted, before the hog exists
        cases.append(
            (tree_seed, tree, texts, [Database(tree).xpath(t).answer for t in texts])
        )

    uninstall = _register_budget_hog()
    try:
        # move the hog from the end of the registry list to its head
        xpath = STRATEGIES["xpath"]
        for name in [name for name in xpath if name != "budget-hog"]:
            xpath[name] = xpath.pop(name)
        for tree_seed, tree, texts, expected_answers in cases:
            # this Database plans the hog and caches that plan: the
            # second pass runs on the cached hog plans
            db = Database(tree)
            for _ in range(2):
                for query_seed, text in enumerate(texts):
                    context = (
                        f"tree seed={tree_seed} query seed="
                        f"{100 * tree_seed + query_seed} {text!r}"
                    )
                    expected = expected_answers[query_seed]
                    result = db.xpath(text, max_visited=1_000_000)
                    assert set(result.answer) == set(expected), (
                        f"{context}: budget fallback changed the answer"
                    )
                    assert result.stats.fallback_from == ("budget-hog",), (
                        f"{context}: expected a recorded downgrade, got "
                        f"{result.stats.fallback_from!r}"
                    )
                    assert result.stats.strategy != "budget-hog", context
            assert db.plan_cache.hits == len(texts)
    finally:
        uninstall()


def test_budget_fallback_preserves_cross_strategy_agreement():
    """After a forced downgrade the surviving strategies still agree —
    the differential invariant holds under resource governance too."""
    uninstall = _register_budget_hog()
    try:
        db = _db(40, 4000)
        text = "Child+[lab() = a]/Child[lab() = b]"
        # explicitly requested strategies never fall back, so the hog
        # itself must be excluded from the budgeted sweep
        survivors = [
            name for name in db.strategies("xpath", text)
            if name != "budget-hog"
        ]
        budgeted = db.cross_check(
            "xpath", text, survivors, max_visited=1_000_000
        )
        unbudgeted = db.cross_check("xpath", text, survivors)
        for name, result in budgeted.items():
            assert set(result.answer) == set(unbudgeted[name].answer), (
                f"strategy {name!r} changed its answer under a generous budget"
            )
    finally:
        uninstall()


# ---------------------------------------------------------------------------
# the engine's column kernels vs the paper's object algorithms: every
# registered strategy, run through the engine (interval semi-joins,
# pruned twig streams), must return exactly what the paper's algorithm
# computes on a separate copy of the bare Tree — ≥ 200 seeded pairs
# spanning every registered strategy.  Routes that run a paper
# algorithm unchanged (`automaton` runs `evaluate_xpath_automaton`) are
# judged by the denotational semantics, never by themselves.
# ---------------------------------------------------------------------------

# (engine Database, oracle Tree): equal documents, distinct objects, so
# the oracles never read the engine's index or its shared partition
_PAIR_CACHE: dict[tuple, tuple[Database, object]] = {}

# (kind, strategy) pairs exercised by the oracle sweep, checked for
# full registry coverage by the final test of this module
_ORACLE_STRATEGIES_SEEN: set[tuple[str, str]] = set()

# label-only spines on which the §2 stack join judged `linear`
_STACK_JOIN_SPINES: list[str] = []


def _db_pair(n: int, seed: int, alphabet=LABELS) -> tuple[Database, object]:
    key = (n, seed, alphabet)
    if key not in _PAIR_CACHE:
        _PAIR_CACHE[key] = (
            Database(random_tree(n, seed=seed, alphabet=alphabet)),
            random_tree(n, seed=seed, alphabet=alphabet),
        )
    return _PAIR_CACHE[key]


def _label_spine(expr) -> "list[tuple[object, list[str]]] | None":
    """A union-free Child/Child+/Child* step sequence whose qualifiers
    are all plain label tests, as (axis, labels) per step; else None."""
    from repro.trees.axes import Axis
    from repro.xpath.ast import LabelTest, steps_of

    try:
        steps = steps_of(expr)
    except ValueError:
        return None
    spine = []
    for step in steps:
        if step.axis not in (Axis.CHILD, Axis.CHILD_PLUS, Axis.CHILD_STAR):
            return None
        if not all(isinstance(q, LabelTest) for q in step.qualifiers):
            return None
        spine.append((step.axis, [q.label for q in step.qualifiers]))
    return spine


def _structural_join_oracle(spine, tree) -> set[int]:
    """The spine evaluated step by step with the paper's stack-based
    structural join over (pre, post) streams."""
    from repro.storage.structural_join import stack_structural_join
    from repro.trees.axes import Axis

    current = [tree.root]
    for axis, labels in spine:
        candidates = [
            v for v in range(tree.n) if all(tree.has_label(v, a) for a in labels)
        ]
        if axis is Axis.CHILD:
            frontier = set(current)
            current = [c for c in candidates if tree.parent[c] in frontier]
            continue
        joined = stack_structural_join(
            [(u, tree.post[u]) for u in current],
            [(d, tree.post[d]) for d in candidates],
        )
        targets = {d[0] for _a, d in joined}
        if axis is Axis.CHILD_STAR:
            targets |= set(candidates) & set(current)
        current = sorted(targets)
    return set(current)


def _oracle(kind: str, strategy: str, query, tree):
    """The paper algorithm an engine strategy must agree with: `linear`
    on a label-only spine answers to the §2 stack join."""
    if kind == "xpath":
        spine = _label_spine(query) if strategy == "linear" else None
        if spine is not None:
            _STACK_JOIN_SPINES.append(str(query))
            return _structural_join_oracle(spine, tree)
        from repro.xpath.semantics import evaluate_query

        return evaluate_query(query, tree)
    if kind == "twig":
        if strategy == "pathstack":
            from repro.twigjoin.pathstack import path_stack

            return path_stack(query, tree)
        from repro.twigjoin.twigstack import twig_stack

        return twig_stack(query, tree)
    if kind == "cq":
        from repro.cq.naive import evaluate_backtracking

        return evaluate_backtracking(query, tree)
    from repro.datalog.evaluate import evaluate_naive

    return evaluate_naive(query, tree).get(query.query_pred, set())


def _assert_oracle_agreement(
    db: Database, tree, kind: str, query, context: str
) -> None:
    """Every applicable engine strategy equals its paper oracle."""
    parsed = db._compiled(kind, query).parsed
    results = db.cross_check(kind, parsed)
    assert results, f"{context}: no applicable strategy"
    for name, result in results.items():
        a = set(result.answer)
        b = set(_oracle(kind, name, parsed, tree))
        assert a == b, (
            f"{context}: engine strategy {name!r} disagrees with its "
            f"oracle — engine-only {sorted(a - b)}, oracle-only "
            f"{sorted(b - a)}"
        )
        _ORACLE_STRATEGIES_SEEN.add((kind, name))


@pytest.mark.parametrize("tree_seed", range(30))
def test_columns_xpath_differential(tree_seed):
    n = 20 + 7 * tree_seed
    db, tree = _db_pair(n, tree_seed)
    for query_seed in range(4):
        text = random_xpath(
            n_steps=1 + query_seed % 3,
            labels=LABELS,
            qualifier_prob=0.5,
            negation_prob=0.2,
            seed=100 * tree_seed + query_seed,
        )
        context = (
            f"tree(n={n}, seed={tree_seed}) xpath seed="
            f"{100 * tree_seed + query_seed} {text!r}"
        )
        _assert_oracle_agreement(db, tree, "xpath", text, context)


@pytest.mark.parametrize("tree_seed", range(20))
def test_columns_twig_differential(tree_seed):
    n = 15 + 9 * tree_seed
    db, tree = _db_pair(n, 1000 + tree_seed)
    for query_seed in range(3):
        pattern = random_twig(
            n_nodes=2 + query_seed,
            labels=LABELS,
            seed=100 * tree_seed + query_seed,
        )
        context = (
            f"tree(n={n}, seed={1000 + tree_seed}) twig seed="
            f"{100 * tree_seed + query_seed} {pattern!r}"
        )
        _assert_oracle_agreement(db, tree, "twig", pattern, context)


@pytest.mark.parametrize("tree_seed", range(10))
def test_columns_cq_differential(tree_seed):
    n = 12 + 5 * tree_seed
    db, tree = _db_pair(n, 2000 + tree_seed)
    for query_seed in range(2):
        query = random_cq(
            n_vars=2 + query_seed,
            n_binary=1 + query_seed,
            labels=LABELS,
            seed=100 * tree_seed + query_seed,
        )
        context = (
            f"tree(n={n}, seed={2000 + tree_seed}) cq seed="
            f"{100 * tree_seed + query_seed} {query!r}"
        )
        _assert_oracle_agreement(db, tree, "cq", query, context)


# there is no random datalog generator, so the datalog leg of the sweep
# uses fixed programs over seeded random documents
_DATALOG_PROGRAMS = (
    "Q(x) :- Lab:b(x).\n% query: Q",
    "P(x) :- Lab:a(x).\nQ(y) :- Child(x, y), P(x), Lab:b(y).\n% query: Q",
    # Example 3.1: recursion through NextSibling and FirstChild
    "P0(x) :- Lab:a(x).\nP0(x0) :- NextSibling(x0, x), P0(x).\n"
    "P(x0) :- FirstChild(x0, x), P0(x).\nP0(x) :- P(x).\n% query: P",
    # derived axes, which TMNF rewrites into τ⁺ recursion
    "C(x) :- Lab:c(x).\nQ(x) :- Child+(x, y), C(y).\n"
    "Q(x) :- Following(x, y), Lab:d(y), Lab:b(x).\n% query: Q",
    # form (3): two intensional predicates joined on one node
    "A(x) :- Child(y, x), Lab:a(y).\nB(x) :- NextSibling(y, x), Lab:b(y).\n"
    "Q(x) :- A(x), B(x).\n% query: Q",
    # constants, as a fact and as an axis endpoint
    "S(3).\nQ(x) :- Child(y, x), S(y).\nQ(x) :- Child+(0, x), Lab:c(x).\n"
    "% query: Q",
    # Root and Leaf bodies
    "R(x) :- Root(x).\nQ(x) :- Child(y, x), R(y), Leaf(x).\n"
    "Q(x) :- Leaf(x), Lab:d(x).\n% query: Q",
)


@pytest.mark.parametrize("tree_seed", range(10))
def test_columns_datalog_differential(tree_seed):
    n = 15 + 6 * tree_seed
    db, tree = _db_pair(n, 5000 + tree_seed)
    for pi, program in enumerate(_DATALOG_PROGRAMS):
        context = f"tree(n={n}, seed={5000 + tree_seed}) datalog #{pi}"
        _assert_oracle_agreement(db, tree, "datalog", program, context)


def test_columns_sweep_is_at_least_200_pairs_and_covers_every_strategy():
    """Runs after the oracle sweeps above (same module): the sweep must
    span ≥ 200 (tree, query) pairs and check every registered strategy
    against its oracle."""
    from repro.engine.strategies import STRATEGIES

    if not _ORACLE_STRATEGIES_SEEN:
        pytest.skip("oracle sweeps did not run in this selection")
    pair_count = 30 * 4 + 20 * 3 + 10 * 2 + 10 * len(_DATALOG_PROGRAMS)
    assert pair_count >= 200
    registered = {
        (kind, name)
        for kind, registry in STRATEGIES.items()
        for name in registry
        if name != "budget-hog"  # transient fault-injection registrant
    }
    missing = registered - _ORACLE_STRATEGIES_SEEN
    assert not missing, (
        f"oracle sweep never exercised: {sorted(missing)}"
    )
    # the paper's §2 stack join still judges the engine's spine answers
    assert _STACK_JOIN_SPINES, "no label-only spine reached the stack join"
