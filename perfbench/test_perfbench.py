"""Self-tests of the benchmark: seeded inputs, correctness checks, fault
injection, tracer safety and the metric contract with BENCHMARK.json.

Run from the root of a source checkout (takes a few minutes):

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch(request):
    """A work directory inside the checkout, removed afterwards."""
    path = ROOT / ".bench_work" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _inputs(workload, seed: int, path: Path):
    path.mkdir()
    argv = [a.replace(str(path), "<dir>") for a in workload.write_inputs(seed, path)]
    return argv, {p.name: p.read_text() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, scratch):
    workload = workloads.WORKLOADS[name]
    first = _inputs(workload, 1, scratch / "a")
    assert _inputs(workload, 1, scratch / "b") == first
    assert _inputs(workload, 2, scratch / "c") != first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_seeds_pass_the_correctness_check(name, scratch):
    env = run.child_env(ROOT, False, dict(os.environ))
    for seed, traced in ((1, False), (2, True)):
        args = argparse.Namespace(workload=name, seed=seed, inject_fault=False)
        expected = workloads.WORKLOADS[name].reference(seed)
        record, outcome = run.run_operation(ROOT, args, env, expected,
                                            scratch / f"seed{seed}",
                                            time.monotonic() + 120, traced=traced)
        assert record is not None and record["rc"] == 0
        assert outcome.attempted == len(expected) > 0
        assert outcome.failed == 0, outcome.problems
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(record["layers"]) | {"trace.verdict_s", "trace.overhead_s"} == declared


def test_wrong_envelope_constant_fails_every_operation():
    proc = _bench("--workload", "quad-suite", "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--inject-fault")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]


def test_reference_rejects_a_changed_method():
    suite = workloads.QuadSuite()
    expected = suite.reference(1)["quad0"]["iterations"]
    exp = suite.experiments(1)[0]
    a, b = workloads.quadratic_instance(exp["instance"]["spectrum"], exp["instance"]["seed"])
    x0 = workloads.random_ball(1.0, suite.n, exp["seed"])
    dfp, _ = workloads.quadratic_iterations(a, b, x0, 1e3, 1.0, suite.grad_tol, 5000)
    assert not workloads.iterations_match(dfp, expected)
    assert workloads.iterations_match(expected + 1, expected)


def test_missing_wrap_target_raises_and_restores():
    import broyden_lab.cli as cli

    original = cli.run_quadratic
    tr = tracer.Tracer(targets=(
        ("solver", "broyden_lab.cli:run_quadratic", None),
        ("solver", "broyden_lab.cli:no_such_function", None),
    ))
    with pytest.raises(tracer.TracerError, match="no_such_function"):
        tr.install()
    assert cli.run_quadratic is original


def test_every_target_exists():
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()


def test_self_time_subtracts_child_spans():
    spans = [
        ["main", "cli", 0.0, 10.0, -1, 0.0],
        ["run_quadratic", "solver", 1.0, 9.0, 0, 4.0],
        ["ProblemInstance.grad", "problems", 1.0, 2.0, 1, 0.0],
        ["SpdOperator.__post_init__", "operators", 2.0, 4.0, 1, 0.0],
        ["ProblemInstance.grad", "problems", 5.0, 6.0, 1, 0.0],
    ]
    m = tracer.layer_metrics(spans)
    assert m["cli.self_s"] == 2.0
    assert m["solver.self_s"] == 4.0
    assert m["problems.self_s"] == 2.0
    assert m["operators.self_s"] == 2.0
    assert m["solver.iterations"] == 4.0
    assert m["operators.cubic_ops_per_iter"] == 0.25
    assert m["solver.iter_ms_p50"] == 4000.0


def test_metric_map_covers_every_per_layer_metric():
    mapping = json.loads((HERE / "metric_map.json").read_text())["per_layer"]
    assert list(mapping) == [m["name"] for m in SPEC["per_layer"]]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workload_names = {w["name"] for w in SPEC["workloads"]}
    for entry in mapping.values():
        assert entry["moves"] is None or entry["moves"] in end_to_end
        assert set(entry["mostly_on"]) | set(entry["little_or_none_on"]) <= workload_names


def test_exits_nonzero_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "quad-suite", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout == ""
