"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import fnmatch
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from procs import DeadlineExceeded, WorkerProcess  # noqa: E402
from workloads import WORKLOADS, Measurement  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
with open(os.path.join(HERE, "layers.json")) as f:
    LAYERS = json.load(f)

END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}


def _run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- every metric emitted is named in BENCHMARK.json ---------------------------


def test_benchmark_json_names_every_metric_the_code_builds():
    fake = Measurement(setup_s=[1.0], op_s=[0.5, 0.25], pass_s=[2.0], rss_kb=[1024])
    metrics, _ = run.end_to_end_metrics(fake)
    assert set(metrics) == END_TO_END
    assert set(run.layer_metrics(Measurement())) == PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for spec in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", spec["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", spec["unit"])
    for spec in BENCHMARK["end_to_end"]:
        assert 0 < spec["bound"] <= 0.25
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace, expected", [("0", END_TO_END), ("1", PER_LAYER)])
def test_emitted_metrics_are_named_in_benchmark_json(trace, expected):
    result = _run("--workload", "eval_warm", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == expected
    if trace == "1":
        # eval_warm never reaches the registry or the gcd in its timed region
        assert result["metrics"]["registry.verify.calls"]["value"] == 0
        assert result["metrics"]["exact.poly_gcd.calls"]["value"] == 0
        assert result["metrics"]["polynomials.fubini_poly.calls"]["value"] > 0


def test_every_layer_metric_has_a_prediction():
    workloads = set(WORKLOADS) | {"*"}
    metrics = END_TO_END | {"*"}
    for rule in LAYERS["rules"]:
        for target in rule["should_move"] + rule["should_not_move"]:
            assert target["metric"] in metrics and target["workload"] in workloads
    for name in PER_LAYER:
        assert any(
            fnmatch.fnmatchcase(name, pattern)
            for rule in LAYERS["rules"] for pattern in rule["metrics"]
        ), name


# -- a wrong value is reported as a failure -------------------------------------

COMPUTE_CASES = [
    ("stirling2", {"k": 3, "n": 10}, "9330", "9331"),
    ("bernoulli", {"n": 10}, "5/66", "5/67"),
    ("bernoulli", {"n": 11}, "0", "1/2"),
    ("p-bernoulli", {"n": 1, "p": 1}, "-1/3", "-1/4"),
    ("fubini-poly", {"n": 4}, ["0", "1", "14", "36", "24"], ["0", "1", "14", "36", "25"]),
    ("fubini-two-var", {"n": 1}, [["0", "1"], ["1", "0"]], [["0", "1"], ["2", "0"]]),
    ("apostol", {"n": 2}, {"num": ["0", "-2"], "den": ["1", "-2", "1"]},
     {"num": ["0", "-2"], "den": ["1", "-1"]}),
]


@pytest.mark.parametrize("obj, params, good, bad", COMPUTE_CASES)
def test_compute_checker_rejects_a_wrong_value(obj, params, good, bad):
    def out(value):
        return json.dumps({"object": obj, "params": params, "value": value})

    assert checks.compute_problems(obj, params, 0, out(good)) == []
    assert checks.compute_problems(obj, params, 0, out(bad)) != []
    assert checks.compute_problems(obj, params, 1, out(good)) != []


def test_eval_checker_rejects_a_wrong_value():
    assert checks.eval_expected("fubini_poly_at", [2, "1/2"]) == "1"  # F_2(y) = 2y^2 + y
    assert checks.eval_expected("fubini_poly_at", [2, "1/2"]) != "3/2"
    assert checks.eval_expected("fubini_moment_integral", [0, 1]) == ["-1/2", "-1/2"]


def _fake_reference(report: dict) -> dict:
    per: dict = {}
    for r in report["reports"]:
        per[r["identity"]] = per.get(r["identity"], 0) + 1
    return {
        "counts": {k: report[k] for k in ("identities", "total", "passed", "failed", "skipped")},
        "report_sha256": checks.report_digest(report),
        "cases_per_identity": per,
    }


def test_catalog_checker_counts_failed_and_missing_cases():
    report = {"profile": "full", "identities": 2, "total": 3, "passed": 3, "failed": 0,
              "skipped": 0, "reports": [
                  {"identity": "a", "params": {"n": 1}, "status": "pass", "lhs": "1", "rhs": "1", "elapsed_us": 5},
                  {"identity": "a", "params": {"n": 2}, "status": "pass", "lhs": "2", "rhs": "2", "elapsed_us": 7},
                  {"identity": "b", "params": {"n": 1}, "status": "pass", "lhs": "3", "rhs": "3", "elapsed_us": 9}]}
    reference = _fake_reference(report)
    assert checks.catalog_failures(0, json.dumps(report), reference) == (0, [])

    timing_only = json.loads(json.dumps(report))
    timing_only["reports"][0]["elapsed_us"] = 999
    assert checks.catalog_failures(0, json.dumps(timing_only), reference) == (0, [])

    failing = json.loads(json.dumps(report))
    failing["reports"][1].update(status="fail", rhs="3")
    assert checks.catalog_failures(1, json.dumps(failing), reference)[0] == 1

    missing = json.loads(json.dumps(report))
    del missing["reports"][2]
    assert checks.catalog_failures(0, json.dumps(missing), reference)[0] == 1

    wrong_value = json.loads(json.dumps(report))
    wrong_value["reports"][0]["lhs"] = "2"
    assert checks.catalog_failures(0, json.dumps(wrong_value), reference)[0] == 3
    assert checks.catalog_failures(0, "not json", reference)[0] == 3


# -- tracing --------------------------------------------------------------------


def test_traced_self_times_of_an_operation_add_up_to_no_more_than_its_wall_time():
    worker = WorkerProcess(SRC, {}, trace=True, deadline_s=60)
    worker.request({"kind": "call", "name": "fubini_two_var_eval", "args": [12, "2/3", "-5/7"]}, 60)
    worker.request({"kind": "cli", "argv": ["compute", "apostol", "--n", "6", "--format", "json"]}, 60)
    summary = worker.finish(60)["trace"]
    assert len(summary["ops"]) == 2
    for op in summary["ops"].values():
        assert 0 < op["traced_self_s"] <= op["wall_s"]
    assert summary["calls"]["polynomials.fubini_poly"] >= 13
    # the gcd runs inside RatFunc.__init__, and is still caught
    assert summary["calls"]["exact.poly_gcd"] > 0
    assert summary["counters"]["apostol.apostol_bernoulli.misses"] == 1


def test_a_worker_past_its_deadline_is_killed():
    worker = WorkerProcess(SRC, {}, trace=False, deadline_s=60)
    with pytest.raises(DeadlineExceeded):
        worker.request({"kind": "cli", "argv": ["compute", "apostol", "--n", "40"]}, 0.5)
    assert worker.proc.poll() is not None


# -- statistics and comparison -----------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert stats.tail(values) == (90, 90.0)
    assert stats.tail([3, 1, 2]) == (3, 100.0)


def _record(side, pair, value, **env):
    base = {"python": "3.11.7", "implementation": "CPython", "nproc": 2, "cpu_model": "x",
            "machine": "x86_64", "mem_total": "1 kB", "bench_sha256": "b", "seconds": 30,
            "workload": "eval_warm", "seed": pair}
    base.update(env)
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
    return {"side": side, "pair": pair, "first": True, "env": base,
            "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}}


def test_compare_refuses_other_machines_and_python_versions():
    records = [_record("parent", 0, 1.0), _record("change", 0, 1.0, python="3.12.1")]
    assert "python" in compare.refusal(records)
    records = [_record("parent", 0, 1.0), _record("change", 0, 1.0, cpu_model="y")]
    assert "cpu_model" in compare.refusal(records)
    assert compare.report(records, BENCHMARK) == 2


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.5 for v in parent]
    same = list(reversed(parent))
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(parent, faster, 10, 10, "lower", 0.1) == "improved"
    assert compare.verdict(parent, slower, 0, 10, "lower", 0.1) == "regressed"
    assert compare.verdict(parent, same, 4, 10, "lower", 0.1) == "within bound"
    assert compare.verdict(noisy, same, 5, 10, "lower", 0.1) == "unresolved"
    records = [_record(side, i, v) for i in range(10)
               for side, v in (("parent", parent[i]), ("change", slower[i]))]
    assert compare.report(records, BENCHMARK) == 1
