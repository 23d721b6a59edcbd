"""The strategy registry: every evaluation route the engine can take.

One :class:`Strategy` per (query kind, algorithm family) pair, each a
thin adapter from the module APIs to the uniform signature

    ``execute(parsed_query, index) -> answer``

where ``index`` is the shared :class:`~repro.engine.index.DocumentIndex`
(strategies pull label streams and pruned twig streams through it,
which is both the cache hot path and what makes index usage observable
in ``ExecutionStats``).

The registry is the single source of truth for strategy *names* — the
CLI's ``--engine`` flag, ``Database``'s planning, and the differential
test harness all resolve names here, so they can never disagree about
what exists.  It is also the plan: each kind lists its routes in
measured cost order, cheapest first, so an auto-planned query runs the
first route whose applicability gate accepts it, and a failed attempt
falls back along the rest of the list.  The gates read the query alone.

Kinds and strategies:

========  ================  ==================================================
kind      strategy          algorithm
========  ================  ==================================================
xpath     linear            context-set evaluator, O(|Q|·||A||)  (§4)
xpath     denotational      memoized P1–P4/Q1–Q5 semantics; the only route
                            that supports position()  ([33])
xpath     cq                conjunctive fragment → acyclic CQ → Yannakakis
                            (Prop. 4.2)
xpath     automaton         the paper's bottom-up + context automaton
                            passes, downward fragment  (§4, Thm 4.4)
xpath     datalog           Core XPath → stratified monadic datalog → TMNF →
                            Horn-SAT → Minoux  (§3)
twig      binary            one structural join per edge over exactly
                            pruned streams  (§2+§6)
twig      pathstack         PathStack, path patterns only  (§6)
twig      twigstack         holistic TwigStack over pruned streams  (§6)
twig      yannakakis        twig → acyclic CQ → Yannakakis  (§4)
twig      ac                maximal arc-consistent pre-valuation + pointer
                            enumeration  (Props. 6.9/6.10)
cq        yannakakis        Yannakakis on acyclic CQs  (§4)
cq        rewrite           rewriting to a union of acyclic CQs  (Thm 5.1)
cq        backtracking      exponential backtracking baseline
cq        treewidth         bounded-tree-width evaluation  (Thm 4.1)
datalog   minoux            TMNF → ground Horn-SAT → Minoux  (§3)
datalog   naive             naive rule-matching fixpoint baseline
========  ================  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import QueryError
from repro.faults import faultpoint, register_site
from repro.obs.context import current as _obs_current

if TYPE_CHECKING:
    from repro.xpath.ast import XPathExpr

__all__ = [
    "Plan",
    "Strategy",
    "strategies_for",
    "get_strategy",
    "strategy_names",
    "STRATEGIES",
]


@dataclass(frozen=True)
class Strategy:
    """One evaluation route for one query kind."""

    kind: str
    name: str
    summary: str
    applicable: Callable[[Any, Any], bool]
    execute: Callable[[Any, Any], Any]


@dataclass(frozen=True)
class Plan:
    """A chosen strategy plus the reason it was chosen."""

    kind: str
    strategy: str
    reason: str


def _always(_query: Any, _index: Any) -> bool:
    return True


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def xpath_labels(expr: XPathExpr) -> list[str]:
    """Labels mentioned by ``lab() = L`` tests, in first-use order."""
    from repro.xpath.ast import LabelTest, walk_expr

    seen: dict[str, None] = {}
    for node in walk_expr(expr):
        if isinstance(node, LabelTest):
            seen.setdefault(node.label, None)
    return list(seen)


def cq_labels(query) -> list[str]:
    """Labels of ``Lab:a`` atoms of a CQ (or datalog program rules)."""
    from repro.trees.structure import _LABEL_PREFIX

    seen: dict[str, None] = {}
    for atom in query.atoms:
        if atom.pred.startswith(_LABEL_PREFIX):
            seen.setdefault(atom.pred[len(_LABEL_PREFIX):], None)
    return list(seen)


def datalog_labels(program) -> list[str]:
    from repro.trees.structure import _LABEL_PREFIX

    seen: dict[str, None] = {}
    for rule in program.rules:
        for atom in rule.body:
            if atom.pred.startswith(_LABEL_PREFIX):
                seen.setdefault(atom.pred[len(_LABEL_PREFIX):], None)
    return list(seen)


def _touch(index, labels) -> None:
    """Pull the referenced label partitions through the index.

    The partitions are shared with the Tree's internal cache, so the
    evaluator that runs next reads exactly these lists; routing the
    fetch through the index is what makes the usage countable.
    """
    ctx = _obs_current()
    for label in labels:
        nodes = index.nodes_with_label(label)
        if ctx is not None:
            ctx.count("index.labels_touched")
            ctx.tick(len(nodes))


# ---------------------------------------------------------------------------
# xpath strategies
# ---------------------------------------------------------------------------


def _has_position(expr: XPathExpr) -> bool:
    from repro.xpath.ast import PositionTest, walk_expr

    return any(isinstance(n, PositionTest) for n in walk_expr(expr))


def _xpath_linear(expr, index):
    from repro.xpath.contextset import evaluate_query_linear

    _touch(index, xpath_labels(expr))
    return evaluate_query_linear(expr, index.tree)


def _xpath_denotational(expr, index):
    from repro.xpath.semantics import evaluate_query

    _touch(index, xpath_labels(expr))
    return evaluate_query(expr, index.tree)


def _xpath_datalog(expr, index):
    from repro.xpath.translate import evaluate_datalog_translation, xpath_to_datalog

    _touch(index, xpath_labels(expr))
    return evaluate_datalog_translation(xpath_to_datalog(expr), index.tree)


def _xpath_automaton_applicable(expr, _index) -> bool:
    from repro.automata.xpathrun import is_downward

    return is_downward(expr)


def _xpath_automaton(expr, index):
    from repro.automata.xpathrun import evaluate_xpath_automaton

    _touch(index, xpath_labels(expr))
    return evaluate_xpath_automaton(expr, index.tree)


def _xpath_cq_applicable(expr, _index) -> bool:
    from repro.xpath.translate import is_conjunctive

    return is_conjunctive(expr)


def _xpath_cq(expr, index):
    from repro.cq.yannakakis import yannakakis_unary
    from repro.xpath.translate import xpath_to_cq

    _touch(index, xpath_labels(expr))
    return yannakakis_unary(xpath_to_cq(expr), index.tree)


# ---------------------------------------------------------------------------
# twig strategies
# ---------------------------------------------------------------------------


def _twig_streams(pattern, index):
    """The index's pruned candidate streams, counted when observed."""
    streams = index.twig_streams(pattern)
    ctx = _obs_current()
    if ctx is not None:
        ctx.count("twig.stream_elements", sum(len(s) for s in streams))
    return streams


def _twig_twigstack(pattern, index):
    from repro.twigjoin.twigstack import twig_stack

    return twig_stack(pattern, index.tree, streams=_twig_streams(pattern, index))


def _twig_pathstack_applicable(pattern, _index) -> bool:
    return all(len(node.children) <= 1 for node in pattern.nodes)


def _twig_pathstack(pattern, index):
    from repro.twigjoin.pathstack import path_stack

    return path_stack(pattern, index.tree, streams=_twig_streams(pattern, index))


def _twig_binary(pattern, index):
    from repro.twigjoin.binaryjoin import binary_join_plan

    return binary_join_plan(
        pattern, index.tree, streams=_twig_streams(pattern, index)
    )


def _twig_ac(pattern, index):
    from repro.twigjoin.twigstack import holistic_via_arc_consistency

    _touch(index, [n.label for n in pattern.nodes if n.label != "*"])
    return holistic_via_arc_consistency(pattern, index.tree)


def _twig_yannakakis(pattern, index):
    from repro.cq.yannakakis import yannakakis

    _touch(index, [n.label for n in pattern.nodes if n.label != "*"])
    return yannakakis(pattern.to_cq(), index.tree)


# ---------------------------------------------------------------------------
# cq strategies
# ---------------------------------------------------------------------------


def _cq_backtracking(query, index):
    from repro.cq.naive import evaluate_backtracking

    _touch(index, cq_labels(query))
    return evaluate_backtracking(query, index.tree)


def _cq_yannakakis_applicable(query, _index) -> bool:
    from repro.cq.acyclic import is_acyclic

    return is_acyclic(query)


def _cq_yannakakis(query, index):
    from repro.cq.yannakakis import yannakakis

    _touch(index, cq_labels(query))
    return yannakakis(query, index.tree)


def _cq_treewidth(query, index):
    from repro.cq.boundedtw import evaluate_bounded_treewidth

    _touch(index, cq_labels(query))
    return evaluate_bounded_treewidth(query, index.tree)


def _cq_rewrite(query, index):
    from repro.rewrite import evaluate_via_rewriting

    _touch(index, cq_labels(query))
    return evaluate_via_rewriting(query, index.tree)


# ---------------------------------------------------------------------------
# datalog strategies
# ---------------------------------------------------------------------------


def _datalog_minoux(program, index):
    from repro.datalog.evaluate import evaluate

    _touch(index, datalog_labels(program))
    return evaluate(program, index.tree)


def _datalog_naive(program, index):
    from repro.datalog.evaluate import evaluate_naive

    _touch(index, datalog_labels(program))
    relations = evaluate_naive(program, index.tree)
    if program.query_pred is None:
        raise QueryError("program declares no query predicate")
    return relations.get(program.query_pred, set())


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

STRATEGIES: dict[str, dict[str, Strategy]] = {}


def _traced_execute(
    kind: str, name: str, execute: Callable[[Any, Any], Any]
) -> Callable[[Any, Any], Any]:
    """Wrap an executor so every registered strategy emits a span and
    carries a ``strategy.<name>`` fault-injection site.

    When no observation context is active and no fault plan is armed
    this is two global reads and two None checks — the strategy's own
    fast path is untouched.
    """
    site = register_site(f"strategy.{name}", f"{kind} executor: {name}")

    def run(query: Any, index: Any) -> Any:
        faultpoint(site)
        ctx = _obs_current()
        if ctx is None:
            return execute(query, index)
        with ctx.span(f"strategy:{kind}:{name}"):
            answer = execute(query, index)
            ctx.count("strategy.executions")
            return answer

    run.__name__ = f"traced_{execute.__name__}"
    return run


def _register(strategy: Strategy) -> None:
    strategy = Strategy(
        strategy.kind,
        strategy.name,
        strategy.summary,
        strategy.applicable,
        _traced_execute(strategy.kind, strategy.name, strategy.execute),
    )
    STRATEGIES.setdefault(strategy.kind, {})[strategy.name] = strategy


for _s in (
    Strategy("xpath", "linear", "context-set evaluator (O(|Q|·||A||))",
             lambda e, i: not _has_position(e), _xpath_linear),
    Strategy("xpath", "denotational", "memoized denotational semantics",
             _always, _xpath_denotational),
    Strategy("xpath", "cq", "conjunctive fragment via Yannakakis",
             _xpath_cq_applicable, _xpath_cq),
    Strategy("xpath", "automaton", "bottom-up automaton run (downward fragment)",
             _xpath_automaton_applicable, _xpath_automaton),
    Strategy("xpath", "datalog", "translation to stratified monadic datalog",
             lambda e, i: not _has_position(e), _xpath_datalog),
    Strategy("twig", "binary", "binary structural-join plan", _always, _twig_binary),
    Strategy("twig", "pathstack", "PathStack (path patterns)",
             _twig_pathstack_applicable, _twig_pathstack),
    Strategy("twig", "twigstack", "holistic TwigStack", _always, _twig_twigstack),
    Strategy("twig", "yannakakis", "twig as acyclic CQ via Yannakakis",
             _always, _twig_yannakakis),
    Strategy("twig", "ac", "arc-consistency + pointer enumeration",
             _always, _twig_ac),
    Strategy("cq", "yannakakis", "Yannakakis (acyclic queries)",
             _cq_yannakakis_applicable, _cq_yannakakis),
    Strategy("cq", "rewrite", "rewriting to a union of acyclic CQs",
             _always, _cq_rewrite),
    Strategy("cq", "backtracking", "backtracking search", _always, _cq_backtracking),
    Strategy("cq", "treewidth", "bounded-tree-width evaluation",
             _always, _cq_treewidth),
    Strategy("datalog", "minoux", "TMNF → Horn-SAT → Minoux", _always, _datalog_minoux),
    Strategy("datalog", "naive", "naive fixpoint baseline", _always, _datalog_naive),
):
    _register(_s)


def strategy_names(kind: str) -> list[str]:
    """All registered strategy names for a query kind."""
    try:
        return list(STRATEGIES[kind])
    except KeyError:
        raise QueryError(f"unknown query kind {kind!r}") from None


def get_strategy(kind: str, name: str) -> Strategy:
    try:
        return STRATEGIES[kind][name]
    except KeyError:
        raise QueryError(
            f"unknown strategy {name!r} for kind {kind!r}; options: "
            f"{', '.join(strategy_names(kind))}"
        ) from None


def strategies_for(kind: str, query: Any, index: Any) -> list[Strategy]:
    """The registered strategies applicable to this query, in registry
    (measured cost) order."""
    return [
        s for s in STRATEGIES.get(kind, {}).values() if s.applicable(query, index)
    ]
