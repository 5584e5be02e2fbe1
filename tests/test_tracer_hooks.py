"""The benchmark's span tracer still finds every name it wraps.

``perfbench/tracer.py`` wraps layer entry points at the module attributes
their callers look up (``broyden_lab.solver.update_arrays`` and so on) and
refuses to install if one is missing.  Loading it here makes a rename that
would break ``perfbench/run.py --trace 1`` fail the test suite instead.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_mod():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _current(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_install_wraps_every_target_and_uninstall_restores(tracer_mod):
    targets = [t for _, t, _ in tracer_mod.TARGETS]
    originals = [_current(t) for t in targets]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for target, original in zip(targets, originals):
            assert _current(target) is not original, target
    finally:
        tracer.uninstall()
    for target, original in zip(targets, originals):
        assert _current(target) is original, target


def test_traced_run_records_solver_layers(tracer_mod, tmp_path):
    from broyden_lab.cli import main

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "name": "traced",
        "instance": {"kind": "quadratic", "n": 6,
                     "spectrum": [1.0, 2.0, 5.0, 10.0, 20.0, 50.0], "seed": 3},
        "method": {"kind": "bfgs"},
        "x0": {"random_ball": 1.0},
        "solver": {"max_iter": 300, "grad_tol": 1e-12},
    }))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer_mod.layer_metrics(tracer.spans)
    iterations = metrics["solver.iterations"]
    assert iterations > 0
    assert metrics["broyden.update_calls"] == iterations
    assert metrics["operators.eigen_range_calls"] <= iterations
    assert metrics["operators.solve_mat_calls"] <= iterations
    # Every visited iterate calls the typed oracles once, through the
    # ProblemInstance methods the tracer wraps; a family that overrode them
    # would read zero here and zero the per-iteration latency below.
    assert (metrics["problems.grad_calls"] == metrics["problems.hess_calls"]
            == iterations + 1)
    assert metrics["solver.iter_ms_p50"] > 0
