"""repro — efficient query processing on tree-structured data.

A faithful, executable reproduction of Christoph Koch, *Processing
Queries on Tree-Structured Data Efficiently*, PODS 2006.  See DESIGN.md
for the full system inventory and EXPERIMENTS.md for the reproduction of
every figure and table.

Subpackages
-----------
- :mod:`repro.trees` — unranked ordered labeled trees, axes, orders (§2)
- :mod:`repro.storage` — XASR encoding and structural joins (§2)
- :mod:`repro.hornsat` — Minoux' linear-time Horn-SAT (§3, Fig. 3)
- :mod:`repro.datalog` — monadic datalog over τ⁺, TMNF (§3)
- :mod:`repro.logic` — first-order formulas and naive model checking (§3)
- :mod:`repro.cq` — conjunctive queries, tree-width, Yannakakis (§4)
- :mod:`repro.rewrite` — CQ → acyclic rewriting, Table 1, forward XPath (§5)
- :mod:`repro.xpath` — Core XPath parser, semantics, evaluators (§3–4)
- :mod:`repro.consistency` — arc-consistency, X-property, dichotomy (§6)
- :mod:`repro.twigjoin` — PathStack / TwigStack holistic joins (§6)
- :mod:`repro.streaming` — streaming XPath with O(depth) memory (§5, §7)
- :mod:`repro.automata` — bottom-up tree automata (§4)
- :mod:`repro.complexity` — empirical scaling-law harness (§7)
- :mod:`repro.workloads` — tree and query generators
- :mod:`repro.engine` — unified Database facade, cached DocumentIndex,
  strategy registry whose order is the plan (ties the sections
  together; see docs/ENGINE.md)

Package attributes load on first use
------------------------------------
Every package re-exports the names of its modules, but imports a module
only when one of its names is first read (a PEP 562 ``__getattr__``
built by :func:`_lazy_exports`).  ``import repro`` therefore loads
nothing else, ``repro serve`` boots on the engine, the service, the
observability modules and what they import, and a query loads its
parser and kernel when it first runs (docs/ENGINE.md, "Boot").
"""

import sys

__version__ = "1.0.0"


def _lazy_exports(package, exports):
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``.

    ``exports`` maps a module (relative to ``package`` when it starts
    with a dot) to the names the package re-exports from it.  The first
    access to a name imports its module and binds the name in the
    package, so later accesses never reach ``__getattr__``.  Concurrent
    first accesses get the same object: the import lock covers the
    module, and binding the name twice is harmless.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # the import statement's own path, which ``-X importtime`` reports
        # (``importlib.import_module`` bypasses it)
        relative = module.lstrip(".")
        level = len(module) - len(relative)
        value = getattr(__import__(relative, namespace, None, [name], level), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)


__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".engine": ["Database"],
    ".faults": ["FaultPlan", "FaultRule", "faultpoint", "registered_sites"],
    ".errors": [
        "ReproError", "ParseError", "QueryError", "NotAcyclicError",
        "UnsupportedAxisError", "EvaluationError", "IntractableSignatureError",
        "ResourceBudgetExceeded", "StorageError", "CorpusError", "TransientError",
        "InjectedFault", "AllStrategiesFailedError",
    ],
})
__all__.insert(0, "__version__")
