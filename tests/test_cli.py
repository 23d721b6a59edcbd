"""CLI coverage: every strategy flag on every query command.

The CLI delegates strategy dispatch to the engine registry and the
planner — these tests pin down that every registered name is reachable
through ``--engine``, that ``auto`` and ``all`` work everywhere, and
that the exit-code contract holds (0 ok, 1 error/disagreement, 2 bad
or inapplicable engine).
"""

from __future__ import annotations

import os

import pytest

from repro.cli import main as cli_main
from repro.engine import strategy_names

DOC = (
    "<site><item><name/><keyword/></item>"
    "<item><name/></item>"
    "<people><person><profile/><name/></person></people></site>"
)


@pytest.fixture
def doc(tmp_path):
    path = os.path.join(tmp_path, "doc.xml")
    with open(path, "w") as fh:
        fh.write(DOC)
    return path


@pytest.fixture
def program(tmp_path):
    path = os.path.join(tmp_path, "p.dl")
    with open(path, "w") as fh:
        fh.write("Q(x) :- Lab:keyword(x).\n% query: Q\n")
    return path


XPATH_QUERY = "Child*[lab() = item]/Child[lab() = name]"
XPATH_NODES = ["2", "5"]


class TestXPathEngines:
    @pytest.mark.parametrize("engine", strategy_names("xpath"))
    def test_each_registered_strategy(self, doc, capsys, engine):
        assert cli_main(["xpath", XPATH_QUERY, doc, "--engine", engine]) == 0
        assert capsys.readouterr().out.split() == XPATH_NODES

    def test_auto_is_default(self, doc, capsys):
        assert cli_main(["xpath", XPATH_QUERY, doc]) == 0
        assert capsys.readouterr().out.split() == XPATH_NODES

    def test_all_cross_checks(self, doc, capsys):
        assert cli_main(["xpath", XPATH_QUERY, doc, "--engine", "all"]) == 0
        captured = capsys.readouterr()
        assert captured.out.split() == XPATH_NODES
        for name in strategy_names("xpath"):
            assert f"# {name}:" in captured.err

    def test_stats_flag(self, doc, capsys):
        assert cli_main(["xpath", XPATH_QUERY, doc, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "index hits" in err

    def test_unknown_engine_exit_2(self, doc):
        assert cli_main(["xpath", "Child", doc, "--engine", "warp"]) == 2

    def test_inapplicable_engine_exit_2(self, doc, capsys):
        # position() is only supported by the denotational route
        query = "Child*[lab() = item][position() = 1]"
        assert cli_main(["xpath", query, doc, "--engine", "linear"]) == 2
        assert "not applicable" in capsys.readouterr().err
        assert cli_main(["xpath", query, doc, "--engine", "denotational"]) == 0

    def test_planner_routes_position_queries(self, doc, capsys):
        # auto must pick the denotational strategy, not crash
        query = "Child*[lab() = item][position() = 1]"
        assert cli_main(["xpath", query, doc, "--stats"]) == 0
        assert "denotational" in capsys.readouterr().err


class TestTwigEngines:
    @pytest.mark.parametrize("engine", strategy_names("twig"))
    def test_each_registered_strategy(self, doc, capsys, engine):
        # path pattern so pathstack applies too
        assert cli_main(["twig", "//item/name", doc, "--engine", engine]) == 0
        out = capsys.readouterr().out
        assert sorted(out.split("\n")[:-1]) == ["1\t2", "4\t5"]

    def test_auto_and_all(self, doc, capsys):
        assert cli_main(["twig", "//item[keyword]", doc]) == 0
        assert capsys.readouterr().out.split() == ["1", "3"]
        assert cli_main(["twig", "//item[keyword]", doc, "--engine", "all"]) == 0

    def test_pathstack_inapplicable_on_branching_twig(self, doc):
        assert (
            cli_main(["twig", "//item[keyword]/name", doc, "--engine", "pathstack"])
            == 2
        )


class TestCQEngines:
    CQ = "ans(x) :- Child(y, x), Lab:item(y)"

    @pytest.mark.parametrize("engine", strategy_names("cq"))
    def test_each_registered_strategy(self, doc, capsys, engine):
        assert cli_main(["cq", self.CQ, doc, "--engine", engine]) == 0
        assert capsys.readouterr().out.split() == ["2", "3", "5"]

    def test_auto_and_all(self, doc, capsys):
        assert cli_main(["cq", self.CQ, doc]) == 0
        capsys.readouterr()
        assert cli_main(["cq", self.CQ, doc, "--engine", "all"]) == 0


class TestDatalogEngines:
    @pytest.mark.parametrize("engine", strategy_names("datalog"))
    def test_each_registered_strategy(self, doc, program, capsys, engine):
        assert cli_main(["datalog", program, doc, "--engine", engine]) == 0
        assert capsys.readouterr().out.split() == ["3"]

    def test_auto_and_all(self, doc, program, capsys):
        assert cli_main(["datalog", program, doc]) == 0
        assert capsys.readouterr().out.split() == ["3"]
        assert cli_main(["datalog", program, doc, "--engine", "all"]) == 0


class TestObservabilityFlags:
    def test_bare_trace_pretty_prints_to_stderr(self, doc, capsys):
        assert cli_main(["xpath", XPATH_QUERY, doc, "--trace"]) == 0
        captured = capsys.readouterr()
        assert captured.out.split() == XPATH_NODES  # answers untouched
        assert "query:xpath" in captured.err
        assert "ms" in captured.err

    def test_trace_file_writes_json(self, doc, tmp_path, capsys):
        import json

        trace_path = os.path.join(tmp_path, "trace.json")
        assert cli_main(["xpath", XPATH_QUERY, doc, "--trace", trace_path]) == 0
        captured = capsys.readouterr()
        assert captured.out.split() == XPATH_NODES
        assert f"trace written to {trace_path}" in captured.err
        with open(trace_path) as fh:
            data = json.load(fh)
        assert data["name"] == "query:xpath"
        assert any(
            child["name"].startswith("execute:") for child in data["children"]
        )

    def test_max_visited_exceeded_exit_3(self, doc, capsys):
        rc = cli_main(
            ["xpath", XPATH_QUERY, doc, "--engine", "linear", "--max-visited", "1"]
        )
        assert rc == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_generous_budget_unchanged_answers(self, doc, capsys):
        rc = cli_main(
            [
                "xpath", XPATH_QUERY, doc,
                "--deadline-ms", "60000", "--max-visited", "1000000",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.split() == XPATH_NODES

    def test_trace_works_on_twig_and_datalog(self, doc, program, capsys):
        assert cli_main(["twig", "//item[keyword]", doc, "--trace"]) == 0
        assert "query:twig" in capsys.readouterr().err
        assert cli_main(["datalog", program, doc, "--trace"]) == 0
        assert "query:datalog" in capsys.readouterr().err


class TestOtherCommands:
    def test_stats(self, doc, capsys):
        assert cli_main(["stats", doc]) == 0
        assert "nodes   : 10" in capsys.readouterr().out

    def test_convert_round_trip(self, doc, tmp_path, capsys):
        store = os.path.join(tmp_path, "doc.rtre")
        assert cli_main(["convert", doc, store]) == 0
        assert cli_main(["xpath", XPATH_QUERY, store]) == 0
        assert capsys.readouterr().out.split() == XPATH_NODES

    def test_classify(self, capsys):
        assert cli_main(["classify", "Child+", "Following"]) == 0
        assert "NP-complete" in capsys.readouterr().out

    def test_error_exit_1(self):
        assert cli_main(["stats", "/nonexistent/file.xml"]) == 1
        assert cli_main(["xpath", "Child[", "/nonexistent.xml"]) == 1


class TestBenchCommands:
    """The `repro bench` subcommands against hand-written run files —
    the subprocess sweep itself is covered in tests/test_perf.py."""

    @staticmethod
    def _write_run(tmp_path, seconds_by_size):
        from repro.perf import BenchRecorder, Sample, write_run

        rec = BenchRecorder()
        rec.record_series(
            "metric",
            [(n, Sample(s * 0.9, s, s * 0.05, 3)) for n, s in seconds_by_size],
            module="bench_m",
        )
        return write_run(rec.as_dict(), root=str(tmp_path))

    LINEAR = [(100, 0.1), (200, 0.2), (400, 0.4)]
    QUADRATIC = [(100, 0.1), (200, 0.4), (400, 1.6)]

    def test_compare_identical_runs_exit_0(self, tmp_path, capsys):
        old = self._write_run(tmp_path, self.LINEAR)
        new = self._write_run(tmp_path, self.LINEAR)
        assert cli_main(["bench", "compare", old, new]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_compare_growth_class_flip_exit_1(self, tmp_path, capsys):
        old = self._write_run(tmp_path, self.LINEAR)
        new = self._write_run(tmp_path, self.QUADRATIC)
        assert cli_main(["bench", "compare", old, new]) == 1
        out = capsys.readouterr().out
        assert "growth class changed" in out and "REGRESSION" in out

    def test_compare_defaults_to_latest_two_in_dir(self, tmp_path, capsys):
        self._write_run(tmp_path, self.LINEAR)
        self._write_run(tmp_path, self.LINEAR)
        assert cli_main(["bench", "compare", "--dir", str(tmp_path)]) == 0
        assert "run 1 (baseline) -> run 2" in capsys.readouterr().out

    def test_compare_timing_warn_only_downgrades(self, tmp_path, capsys):
        old = self._write_run(tmp_path, self.LINEAR)
        new = self._write_run(
            tmp_path, [(n, s * 5) for n, s in self.LINEAR]
        )
        assert cli_main(["bench", "compare", old, new]) == 1
        capsys.readouterr()
        assert (
            cli_main(["bench", "compare", old, new, "--timing-warn-only"]) == 0
        )

    def test_compare_needs_two_runs(self, tmp_path, capsys):
        assert cli_main(["bench", "compare", "--dir", str(tmp_path)]) == 2
        assert "need two BENCH_*.json" in capsys.readouterr().err
        self._write_run(tmp_path, self.LINEAR)
        assert cli_main(["bench", "compare", "--dir", str(tmp_path)]) == 2

    def test_compare_rejects_single_positional(self, tmp_path, capsys):
        old = self._write_run(tmp_path, self.LINEAR)
        assert cli_main(["bench", "compare", old]) == 2
        assert "two run files or none" in capsys.readouterr().err

    def test_export_renders_openmetrics(self, tmp_path, capsys):
        path = self._write_run(tmp_path, self.LINEAR)
        assert cli_main(["bench", "export", path]) == 0
        out = capsys.readouterr().out
        assert out.endswith("# EOF\n")
        assert "repro_bench_median" in out
        capsys.readouterr()
        # default: the latest run under --dir
        assert cli_main(["bench", "export", "--dir", str(tmp_path)]) == 0
        assert "repro_bench_run_info" in capsys.readouterr().out

    def test_export_without_runs_exit_2(self, tmp_path, capsys):
        assert cli_main(["bench", "export", "--dir", str(tmp_path)]) == 2
        assert "no BENCH_*.json" in capsys.readouterr().err


class TestSupervisionFlags:
    def test_retries_recover_a_transient(self, doc, capsys):
        code = cli_main([
            "xpath", XPATH_QUERY, doc,
            "--fault", "strategy.*:transient@nth=1", "--retries", "1",
            "--stats",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.split() == XPATH_NODES
        assert "2 attempts" in captured.err
        assert "fault plan: 1 trips" in captured.err

    def test_on_error_fallback_survives_a_poisoned_strategy(self, doc, capsys):
        code = cli_main([
            "xpath", XPATH_QUERY, doc,
            "--fault", "strategy.linear:error@nth=1",
            "--on-error", "fallback", "--stats",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.split() == XPATH_NODES
        # the planned route tripped the fault and a fallback answered
        assert "fault plan: 1 trips" in captured.err
        assert "2 attempts" in captured.err

    def test_unrecovered_injected_fault_exit_4(self, doc, capsys):
        code = cli_main([
            "xpath", XPATH_QUERY, doc,
            "--engine", "linear", "--fault", "strategy.linear:error@nth=1",
        ])
        assert code == 4
        assert "supervision exhausted" in capsys.readouterr().err

    def test_all_strategies_failed_exit_4(self, doc, capsys):
        code = cli_main([
            "xpath", XPATH_QUERY, doc,
            "--fault", "strategy.*:error@every=1", "--on-error", "fallback",
        ])
        assert code == 4
        assert "all strategies failed" in capsys.readouterr().err

    def test_on_error_partial_always_exits_0(self, doc, capsys):
        code = cli_main([
            "xpath", XPATH_QUERY, doc,
            "--fault", "strategy.*:error@every=1", "--on-error", "partial",
            "--stats",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == ""  # degraded to the empty answer
        assert "DEGRADED" in captured.err

    def test_bad_fault_spec_exit_1(self, doc, capsys):
        code = cli_main(["xpath", XPATH_QUERY, doc, "--fault", "nonsense"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_document_is_a_clean_error(self, capsys):
        code = cli_main(["xpath", XPATH_QUERY, "/no/such/file.xml"])
        assert code == 1
        assert "/no/such/file.xml" in capsys.readouterr().err


class TestChaosCommand:
    def test_fast_sweep_exits_0_and_reports(self, capsys):
        assert cli_main(["chaos", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "chaos sweep" in out
        assert "OK" in out

    def test_sites_and_scenarios_filters(self, capsys):
        code = cli_main([
            "chaos", "--sites", "index.build", "--scenarios", "4",
            "--seed", "9",
        ])
        assert code == 0
        assert "seed=9" in capsys.readouterr().out
