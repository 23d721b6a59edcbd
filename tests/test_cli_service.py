"""Table-driven CLI exit codes for the service era (satellite 3).

The exit-code contract (module docstring of :mod:`repro.cli`): 0 ok,
1 error/disagreement, 2 bad arguments/engine, 3 budget exceeded,
4 supervision exhausted.  This table pins the fault, budget and
serve argument-validation paths in one place.
"""

from __future__ import annotations

import os

import pytest

from repro.cli import main as cli_main

DOC = (
    "<site><item><name/><keyword/></item>"
    "<item><name/></item>"
    "<people><person><profile/><name/></person></people></site>"
)

XPATH = "Child*[lab() = item]/Child[lab() = name]"


@pytest.fixture
def doc(tmp_path):
    path = os.path.join(tmp_path, "doc.xml")
    with open(path, "w") as fh:
        fh.write(DOC)
    return path


#: (id, argv-builder, expected exit code); {doc} is the document path
EXIT_TABLE = [
    ("ok-baseline",
     lambda doc: ["xpath", XPATH, doc], 0),
    ("parse-fault-exit-4",
     lambda doc: ["xpath", XPATH, doc, "--fault", "query.parse:error@nth=1"], 4),
    ("strategy-fault-exit-4",
     lambda doc: ["xpath", XPATH, doc, "--engine", "linear",
                  "--fault", "strategy.linear:error@nth=1"], 4),
    ("all-strategies-exhausted-exit-4",
     lambda doc: ["xpath", XPATH, doc, "--on-error", "fallback",
                  "--fault", "strategy.*:error@every=1"], 4),
    ("budget-visits-exit-3",
     lambda doc: ["xpath", XPATH, doc, "--engine", "linear",
                  "--max-visited", "1"], 3),
    ("budget-deadline-exit-3",
     lambda doc: ["xpath", XPATH, doc, "--engine", "linear",
                  "--deadline-ms", "0"], 3),
    ("partial-never-fails-exit-0",
     lambda doc: ["xpath", XPATH, doc, "--on-error", "partial",
                  "--fault", "strategy.*:error@every=1"], 0),
    ("recovered-transient-exit-0",
     lambda doc: ["xpath", XPATH, doc, "--engine", "linear", "--retries", "2",
                  "--fault", "strategy.linear:transient@nth=1"], 0),
    ("serve-port-out-of-range-exit-2",
     lambda doc: ["serve", "--port", "99999"], 2),
    ("serve-bad-store-spec-exit-2",
     lambda doc: ["serve", "--store", "nameonly"], 2),
    ("serve-store-missing-path-exit-2",
     lambda doc: ["serve", "--store", "name="], 2),
    ("serve-zero-max-concurrency-exit-2",
     lambda doc: ["serve", "--max-concurrency", "0"], 2),
    ("serve-negative-queue-limit-exit-2",
     lambda doc: ["serve", "--queue-limit", "-1"], 2),
    ("serve-negative-drain-exit-2",
     lambda doc: ["serve", "--drain-s", "-1"], 2),
    ("store-verify-missing-file-exit-1",
     lambda doc: ["store", "verify", "/no/such/store.rtre"], 1),
]


@pytest.mark.parametrize(
    "argv_for,expected", [(row[1], row[2]) for row in EXIT_TABLE],
    ids=[row[0] for row in EXIT_TABLE],
)
def test_exit_code_table(doc, capsys, argv_for, expected):
    assert cli_main(argv_for(doc)) == expected
    capsys.readouterr()  # drain


class TestStoreVerifyCommand:
    """``repro store verify``: exit 0 with a summary line per OK file,
    exit 1 naming each corrupt or unreadable one."""

    def _store(self, tmp_path, name="doc.rtre"):
        from repro.storage import dump_tree
        from repro.trees.xmlio import parse_xml

        path = os.path.join(tmp_path, name)
        dump_tree(parse_xml(DOC), path)
        return path

    def test_ok_store_exit_0(self, tmp_path, capsys):
        path = self._store(tmp_path)
        assert cli_main(["store", "verify", path]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "checksum ok" in out

    def test_corrupt_store_exit_1_names_the_file(self, tmp_path, capsys):
        path = self._store(tmp_path)
        with open(path, "r+b") as fh:
            fh.seek(10)
            byte = fh.read(1)
            fh.seek(10)
            fh.write(bytes([byte[0] ^ 0xFF]))
        assert cli_main(["store", "verify", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "doc.rtre" in out

    def test_mixed_batch_exit_1_but_reports_both(self, tmp_path, capsys):
        good = self._store(tmp_path, "good.rtre")
        bad = os.path.join(tmp_path, "missing.rtre")
        assert cli_main(["store", "verify", good, bad]) == 1
        out = capsys.readouterr().out
        assert "OK" in out and "FAIL" in out
