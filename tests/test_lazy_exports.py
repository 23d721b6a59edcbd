"""Package attributes resolve on first use (PEP 562).

Each package ``__init__`` maps its re-exported names to the modules
that define them and imports a module only when one of its names is
first read.  Import-order checks run in fresh interpreters.
"""

from __future__ import annotations

import importlib
import json
import pkgutil

import pytest

import repro

from conftest import run_fresh

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


def run_json(code: str):
    """The JSON that ``code`` prints in a fresh interpreter."""
    return json.loads(run_fresh(code))


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    for attr in package.__all__:
        getattr(package, attr)
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        package.no_such_name


def test_a_name_loads_only_its_module():
    loaded = run_json(
        "import json, sys\n"
        "import repro.xpath\n"
        "before = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
        "from repro.xpath import parse_xpath\n"
        "print(json.dumps([before, 'repro.xpath.parser' in sys.modules,\n"
        "                  'repro.xpath.semantics' in sys.modules]))\n"
    )
    assert loaded == [["repro.xpath"], True, False]


def test_star_import_and_submodule_import_still_work():
    assert run_json(
        "import json\n"
        "from repro.trees import *\n"
        "from repro.storage import diskstore\n"
        "print(json.dumps([callable(parse_xml), Tree.__name__, diskstore.__name__]))\n"
    ) == [True, "Tree", "repro.storage.diskstore"]


@pytest.mark.parametrize(
    "package, module, sibling",
    [
        ("repro.cq", "yannakakis", "yannakakis_unary"),
        ("repro.datalog", "ground", None),
        ("repro.datalog", "evaluate", "evaluate_naive"),
        ("repro.hornsat", "minoux", "MinouxTrace"),
    ],
)
def test_a_package_name_shared_with_a_function_is_the_submodule(package, module, sibling):
    """``repro.cq.yannakakis`` is the module whichever import comes
    first: the submodule itself, or a lazy name that it defines."""
    firsts = [f"import {package}.{module}"]
    if sibling is not None:
        firsts.append(f"from {package} import {sibling}")
    for first in firsts:
        assert run_json(
            f"import json, types\n{first}\n"
            f"import {package}\n"
            f"m = {package}.{module}\n"
            f"print(json.dumps([isinstance(m, types.ModuleType),\n"
            f"                  callable(getattr(m, {module!r}))]))\n"
        ) == [True, True], first


def test_concurrent_first_access_resolves_to_one_object():
    assert run_json(
        "import json, threading\n"
        "import repro.xpath\n"
        "barrier = threading.Barrier(8)\n"
        "seen = []\n"
        "def read():\n"
        "    barrier.wait()\n"
        "    seen.append(repro.xpath.evaluate_query_linear)\n"
        "threads = [threading.Thread(target=read) for _ in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join()\n"
        "print(json.dumps(len({id(f) for f in seen})))\n"
    ) == 1
