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
"""

__version__ = "1.0.0"

from repro.errors import (
    AllStrategiesFailedError,
    CorpusError,
    EvaluationError,
    InjectedFault,
    IntractableSignatureError,
    NotAcyclicError,
    ParseError,
    QueryError,
    ReproError,
    ResourceBudgetExceeded,
    StorageError,
    TransientError,
    UnsupportedAxisError,
)

from repro.engine import Database
from repro.faults import FaultPlan, FaultRule, faultpoint, registered_sites

__all__ = [
    "__version__",
    "Database",
    "FaultPlan",
    "FaultRule",
    "faultpoint",
    "registered_sites",
    "ReproError",
    "ParseError",
    "QueryError",
    "NotAcyclicError",
    "UnsupportedAxisError",
    "EvaluationError",
    "IntractableSignatureError",
    "ResourceBudgetExceeded",
    "StorageError",
    "CorpusError",
    "TransientError",
    "InjectedFault",
    "AllStrategiesFailedError",
]
