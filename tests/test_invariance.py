"""Affine invariance: a change of variables x = T y changes no traced number.

The convex Broyden class and every quantity a run traces are invariant under
x = T y with A -> T^T A T, B -> T^T B T, b -> T^T b, log-sum-exp rows ->
rows T and x0 -> T^-1 x0.  Each config here has a reference operator B != I,
and so does its transform, so a formula that reads a matrix where it should
read the matrix relative to B (a spectrum, a row norm) gives two different
answers.  T is seeded with cond(T) = COND_T.

Through the CLI: the same exit code, iterations, verdict, K0 and region
radius, the same ``ok_*`` columns, and the other envelopes.csv and trace.csv
columns within a relative tolerance scaled by cond(T), on rows whose
residual is still above 1e-6 of the first (below it, rounding dominates).
The instance's JSON spectrum and the sharpened quadratic factor, which no
CLI run reads, are compared at library level.
"""

import csv
import json
import math

import numpy as np
import pytest

from broyden_lab import (
    env_quad_sharpened_factor,
    instance_from_dict,
    instance_to_dict,
)
from broyden_lab.cli import cmd_run
from broyden_lab.problems import random_orthogonal

COND_T = 50.0
RTOL = 1e-8 * COND_T
TAIL = 1e-6  # rows with lambda below TAIL * lambda_0 are not compared


def _orthogonal_times(rng, n, cond):
    return random_orthogonal(n, rng) * np.geomspace(1.0, cond, n)


def _spd(rng, n, cond):
    m = _orthogonal_times(rng, n, math.sqrt(cond))
    return m @ m.T


def _sym(m):
    return (0.5 * (m + m.T)).tolist()


def _quadratic_pair(rng, n, kappa):
    """An explicit quadratic with spectrum geomspace(1, kappa) relative to
    B, its transform, and a start for each."""
    t = _orthogonal_times(rng, n, COND_T) @ random_orthogonal(n, rng)
    b_ref = _spd(rng, n, 10.0)
    chol = np.linalg.cholesky(b_ref)
    a = chol @ _spd(rng, n, kappa) @ chol.T
    b, x0 = rng.standard_normal(n), rng.standard_normal(n)
    spec = {"kind": "quadratic", "mu": 1.0, "ell": kappa}
    return ((dict(spec, a=_sym(a), b=b.tolist(), b_ref=_sym(b_ref)), x0),
            (dict(spec, a=_sym(t.T @ a @ t), b=(t.T @ b).tolist(),
                  b_ref=_sym(t.T @ b_ref @ t)), np.linalg.solve(t, x0)))


def _lse_pair(rng, n, m):
    """An explicit log-sum-exp instance with no gamma (so the tight
    certificate), its transform, and a start for each."""
    t = _orthogonal_times(rng, n, COND_T) @ random_orthogonal(n, rng)
    b_ref = _spd(rng, n, 10.0)
    rows, shifts = rng.standard_normal((m, n)), rng.standard_normal(m)
    x0 = 0.1 * rng.standard_normal(n)
    spec = {"kind": "log_sum_exp", "b": shifts.tolist(), "mu": 0.1}
    return ((dict(spec, a_rows=rows.tolist(), b_ref=_sym(b_ref)), x0),
            (dict(spec, a_rows=(rows @ t).tolist(),
                  b_ref=_sym(t.T @ b_ref @ t)), np.linalg.solve(t, x0)))


_METHODS = {"bfgs": {"kind": "bfgs"}, "dfp": {"kind": "dfp"},
            "half": {"kind": "constant", "tau": 0.5}}
_RUNS = [f"quad-{m}" for m in _METHODS] + ["lse-bfgs", "lse-half"]


@pytest.fixture(scope="module")
def pairs():
    rng = np.random.default_rng(20260415)
    return {"quadratic": _quadratic_pair(rng, 8, 100.0),
            "log_sum_exp": _lse_pair(rng, 6, 15)}


def _suite(pairs, side):
    """The experiments of ``_RUNS`` on one side (0 original, 1 transformed)."""
    out = []
    for name in _RUNS:
        family, _, method = name.partition("-")
        instance, x0 = pairs["quadratic" if family == "quad"
                             else "log_sum_exp"][side]
        out.append({"name": name, "instance": instance,
                    "method": _METHODS[method], "x0": {"coords": x0.tolist()},
                    "solver": {"grad_tol": 1e-10 if family == "quad"
                               else 1e-12, "max_iter": 2000}})
    return out


@pytest.fixture(scope="module")
def runs(pairs, tmp_path_factory):
    """Exit code and output directory of the original and transformed
    suites."""
    root = tmp_path_factory.mktemp("invariance")
    out = []
    for side, tag in enumerate(("original", "transformed")):
        config = root / f"{tag}.json"
        config.write_text(json.dumps(_suite(pairs, side)))
        out.append((cmd_run(str(config), out=str(root / tag)), root / tag))
    return out


def _read_csv(path):
    with open(path) as f:
        header, *rows = csv.reader(f)
    return header, rows


def _cell(text):
    return math.nan if text in ("", "nan") else float(text)


@pytest.mark.parametrize("name", _RUNS)
def test_cli_run_is_invariant(runs, name):
    (rc, base), (rc_t, base_t) = runs
    assert rc == rc_t == 0
    summary, summary_t = (json.loads((d / name / "summary.json").read_text())
                          for d in (base, base_t))
    for key in ("pass", "iterations", "converged", "K0"):
        assert summary[key] == summary_t[key], key
    radius, radius_t = summary["region_radius"], summary_t["region_radius"]
    assert (radius is None) == (radius_t is None)
    if radius is not None:
        assert radius_t == pytest.approx(radius, rel=1e-12)
    for fname in ("trace.csv", "envelopes.csv"):
        header, rows = _read_csv(base / name / fname)
        header_t, rows_t = _read_csv(base_t / name / fname)
        assert header == header_t and len(rows) == len(rows_t)
        lam0 = float(rows[0][1])
        for row, row_t in zip(rows, rows_t):
            for col, cell, cell_t in zip(header, row, row_t):
                if col.startswith("ok_"):
                    assert cell == cell_t, (fname, col, row[0])
                    continue
                if _cell(row[1]) < TAIL * lam0:
                    continue
                x, y = _cell(cell), _cell(cell_t)
                assert (math.isnan(x) and math.isnan(y)) or y == pytest.approx(
                    x, rel=RTOL, abs=1e-300), (fname, col, row[0])


def test_spectrum_and_sharpened_factor_are_invariant(pairs):
    original, transformed = (instance_from_dict(spec)
                             for spec, _ in pairs["quadratic"])
    spectrum = instance_to_dict(original)["spectrum"]
    np.testing.assert_allclose(instance_to_dict(transformed)["spectrum"],
                               spectrum, rtol=RTOL)
    np.testing.assert_allclose(spectrum[0], 1.0, rtol=1e-12)
    np.testing.assert_allclose(spectrum[-1], 100.0, rtol=1e-12)
    assert env_quad_sharpened_factor(transformed) == pytest.approx(
        env_quad_sharpened_factor(original), rel=RTOL)
