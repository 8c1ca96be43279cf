"""Tests of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e

Every workload runs here at a reduced size (set only by these tests),
untraced and traced, in this process.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
import metrics
import run
import spans
import workloads

# The service and search workloads fork workers; with service threads
# alive in this process Python 3.12 deprecates that fork.
pytestmark = pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")

SMALL = {
    "dse-search": {"budget": 12, "space": "smoke", "suite": "dse-smoke"},
    "fig14": {"loops": (1, 13)},
    "linpack": {"n": 12},
    "linpack-observed": {"n": 12},
    "service": {"max_points": 3, "space": "smoke", "suite": "dse-smoke"},
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _declared():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _layers(report):
    return {name: metric["value"]
            for name, metric in report["per_layer"].items()}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = {}
    for name, sizes in SMALL.items():
        workdir = tmp_path_factory.mktemp(name)
        out[name] = workloads.measure(
            name, 7, seconds=0.2, trace=True, workdir=str(workdir),
            sizes=sizes, spans_path=str(workdir / "spans.jsonl"))
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
class TestWorkload:
    def test_correctness_checks_pass(self, reports, name):
        report = reports[name]
        assert report["errors"] == []
        assert report["correct"]
        assert report["attempted"] >= 1

    def test_failed_ratio_is_zero(self, reports, name):
        assert reports[name]["failed"] / reports[name]["attempted"] == 0

    def test_emits_exactly_the_declared_metrics(self, reports, name):
        declared = _declared()
        report = reports[name]
        for section, key in (("end_to_end", "e2e"), ("per_layer", "per_layer")):
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {metric: value["unit"]
                   for metric, value in report[key].items()}
            assert got == want
            assert all(isinstance(value["value"], (int, float))
                       for value in report[key].values())

    def test_traced_pass_matches_untraced(self, reports, name):
        passes = reports[name]["passes"]
        assert passes["traced"] == passes["untraced"]
        assert passes["in-process"] == passes["untraced"]
        layers = _layers(reports[name])
        assert layers["machine.run.calls"] > 0
        assert layers["machine.run.cycles"] > 0
        with open(reports[name]["spans"], encoding="utf-8") as handle:
            names = {json.loads(line)["name"] for line in handle}
        assert "machine.run" in names
        assert names <= set(metrics.SPAN_LAYERS) | {"bench.op"}


def test_request_workloads_trace_the_request_path(reports):
    for name in ("dse-search", "fig14", "service"):
        layers = _layers(reports[name])
        assert layers["api.execute_request.calls"] > 0
        # The cache-key digest builds each kernel once more.
        assert (layers["workloads.build_kernel.calls"]
                > layers["api.execute_request.calls"])
    assert _layers(reports["dse-search"])["dse.agent.calls"] > 0
    assert _layers(reports["service"])["journal.record.calls"] > 0
    assert _layers(reports["service"])["service.completed"] > 0
    assert _layers(reports["linpack-observed"])["utilization.events"] > 0


def test_wrappers_are_removed_after_tracing(reports):
    for owner, attr, _layer, _fn in spans.WRAPS:
        assert not spans.is_traced(getattr(spans.resolve(owner), attr))


def test_self_time_excludes_child_spans():
    # origin, op opens, run opens/closes, snapshot opens/closes, op closes
    ticks = iter([0.0, 0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("bench.op", request="op0"):
        with tracer.span("machine.run"):
            pass
        with tracer.span("machine.snapshot"):
            pass
    self_s = tracer.self_times()
    assert self_s == {0: 7.0, 1: 2.0, 2: 1.0}
    assert [span[5] for span in tracer.spans] == ["op0"] * 3


def test_benchmark_json_follows_the_contract():
    declared = _declared()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in declared["workloads"]] == list(
        workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"}
               for w in declared["workloads"])
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer")
             for m in declared[section]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert len(declared["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for section in ("end_to_end", "per_layer"):
        assert all(m["better"] in ("lower", "higher")
                   for m in declared[section])


def test_run_refuses_a_checkout_without_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "benchmarks" / "e2e",
                    tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig14",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def _write_runs(directory, values, deterministic=None):
    directory.mkdir()
    for seed, value in enumerate(values):
        e2e = {m["name"]: {"value": value, "unit": m["unit"]}
               for m in _declared()["end_to_end"]}
        report = {"workload": "fig14", "seed": seed, "seconds": 1, "e2e": e2e,
                  "deterministic": deterministic or {"sim_cycles": 100}}
        with open(directory / ("%d.json" % seed), "w") as handle:
            json.dump({"host": {}, "reports": [report]}, handle)
    return directory


def _verdicts(dir_a, dir_b):
    rows, mismatches = compare.compare(dir_a, dir_b)
    return {row["metric"]: row["verdict"] for row in rows}, mismatches


def test_compare_applies_bounds_and_the_gain_rule(tmp_path):
    parent = [100.0 + i * 0.1 for i in range(10)]
    base = _write_runs(tmp_path / "a", parent)
    verdicts, mismatches = _verdicts(base, _write_runs(tmp_path / "b", parent))
    assert set(verdicts.values()) == {"no change"}
    assert mismatches == []

    slower = _write_runs(tmp_path / "c", [v * 1.5 for v in parent])
    verdicts, _ = _verdicts(base, slower)
    assert verdicts["op_ms_p50"] == "REGRESSED"
    assert verdicts["setup_s"] == "REGRESSED"
    assert verdicts["ops_per_s"] == "gain"  # higher is better there

    noisy = _write_runs(tmp_path / "d", [v * (1 + (i % 2) * 0.6)
                                         for i, v in enumerate(parent)])
    verdicts, _ = _verdicts(base, noisy)
    assert verdicts["op_ms_p50"] == "unresolved"

    other = _write_runs(tmp_path / "e", parent, {"sim_cycles": 101})
    _, mismatches = _verdicts(base, other)
    assert mismatches == [("fig14", list(range(10)))]
