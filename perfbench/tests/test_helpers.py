"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import run  # noqa: E402
from spans import Tracer, _layer_of  # noqa: E402
from workloads import WORKLOADS, Round  # noqa: E402


# -- percentiles ----------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert metrics.samples_needed(90) == 100
    assert metrics.samples_needed(50) == 20
    with pytest.raises(ValueError):
        metrics.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        metrics.percentile(list(range(19)), 50)
    assert metrics.percentile(list(range(100)), 90) == 89
    assert metrics.percentile(list(range(20)), 50) == 9


def test_percentile_is_order_independent():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert metrics.percentile(values, 50) == 3.0
    assert metrics.percentile(values, 90) == 5.0


# -- names and metric sets ------------------------------------------------


@pytest.mark.parametrize("name", ["ops_per_s", "harness.trial_s",
                                  "p-90", "9lives"])
def test_valid_names(name):
    assert metrics.check_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65,
                                  "lat(ms)"])
def test_invalid_names(name):
    with pytest.raises(ValueError):
        metrics.check_name(name)


def test_declared_names_are_valid_and_unique():
    names = [n for n, _, _ in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        metrics.check_name(name)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"])
                for m in spec[key]] == list(table)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_metrics_block_refuses_missing_and_foreign_metrics():
    table = (("a", "s", "lower"), ("b", "count", "higher"))
    assert metrics.metrics_block({"a": 1, "b": 2}, table) == {
        "a": {"value": 1.0, "unit": "s"},
        "b": {"value": 2.0, "unit": "count"}}
    with pytest.raises(ValueError):
        metrics.metrics_block({"a": 1}, table)
    with pytest.raises(ValueError):
        metrics.metrics_block({"a": 1, "b": 2, "c": 3}, table)


def test_end_to_end_emits_exactly_the_declared_metrics():
    rounds = [Round(wall, 100, [0.01 * i for i in range(50)], 100, 0, {})
              for wall in (2.0, 1.0, 4.0)]
    values = run.end_to_end(rounds, [0.5, 0.7, 0.6])
    assert set(values) == {n for n, _, _ in metrics.END_TO_END}
    assert values["ops_per_s"] == 50.0  # the median round's rate
    assert values["setup_s"] == 0.6


# -- the runner -----------------------------------------------------------


class FakeWorkload:
    """Records the call order; its warm-up is slow, its rounds fast."""

    name = "fake"
    unit = "op"

    def __init__(self, seed, tmp):
        self.log = []
        FakeWorkload.last = self

    def setup(self):
        self.log.append("setup")

    def warmup(self):
        self.log.append("warmup")
        time.sleep(0.2)

    def run_round(self, jobs=2):
        self.log.append("round")
        return Round(0.01, 50, [0.001] * 50, 50, 0, {"out": 1})

    def close(self):
        self.log.append("close")


def test_warmup_stays_out_of_the_timed_region(monkeypatch, capsys,
                                              tmp_path):
    monkeypatch.setitem(WORKLOADS, "fake", FakeWorkload)
    monkeypatch.setattr(run, "time_setup", lambda args: 1.0)
    args = run.parse_args(["--workload", "fake", "--seed", "3",
                           "--seconds", "0"])
    assert run.run(args, str(tmp_path)) == 0
    log = FakeWorkload.last.log
    assert log[:2] == ["setup", "warmup"] and log[-1] == "close"
    assert set(log[2:-1]) == {"round"} and len(log[2:-1]) >= 2
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    # Only the rounds' own wall time is timed: 50 ops per 0.01 s.
    assert result["metrics"]["ops_per_s"]["value"] == pytest.approx(5000.0)
    assert result["metrics"]["setup_s"]["value"] == 1.0


def test_rounds_that_disagree_make_the_run_incorrect(monkeypatch, capsys,
                                                     tmp_path):
    class Drifting(FakeWorkload):
        def run_round(self, jobs=2):
            self.log.append("round")
            return Round(0.01, 50, [0.001] * 50, 50, 1,
                         {"out": len(self.log)})

    monkeypatch.setitem(WORKLOADS, "fake", Drifting)
    monkeypatch.setattr(run, "time_setup", lambda args: 1.0)
    args = run.parse_args(["--workload", "fake", "--seed", "3",
                           "--seconds", "0"])
    run.run(args, str(tmp_path))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 50


def test_missing_source_tree_exits_nonzero_without_a_result(tmp_path):
    import subprocess

    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(BENCH, name)).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-silo",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- spans ----------------------------------------------------------------


def test_self_time_excludes_children_and_nesting_is_not_double_counted():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    def inner(depth):
        if depth:
            traced_inner(depth - 1)
        else:
            traced_leaf()

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_inner = tracer.wrap(inner, "inner")
    traced_inner(1)
    totals = tracer.totals()
    calls, total, own = totals["inner"]
    assert calls == 2
    assert total == pytest.approx(totals["leaf"][1], abs=0.01)
    assert own < 0.01
    assert tracer.count_within("leaf", "inner") == 1
    assert tracer.count_within("inner", "leaf") == 0


def test_patch_function_rebinds_every_repro_importer_and_restores():
    import repro.core.depth as depth
    import repro.harness.figures as figures

    original = depth.estimate_parameters
    tracer = Tracer()
    assert tracer.patch_function("repro.core.depth", "estimate_parameters",
                                 "core.estimate")
    assert figures.estimate_parameters is depth.estimate_parameters
    assert depth.estimate_parameters is not original
    tracer.restore()
    assert figures.estimate_parameters is original
    assert depth.estimate_parameters is original
    assert not tracer.patch_function("repro.core.depth", "no_such", "x")


def test_layer_of_source_files():
    assert _layer_of("/x/src/repro/memory/execution.py") == "memory"
    assert _layer_of("/x/src/repro/__init__.py") == "repro"
    assert _layer_of("~") == "other"
    assert _layer_of(types.__file__) == "other"
