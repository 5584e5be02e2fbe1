"""Sweep iteration counts against an independent textbook implementation.

The reference builds the quadratic with numpy alone, keeps the inverse
Hessian approximation H explicitly and applies the convex-class inverse
update as outer products, so it shares no code with the program.
"""

import csv
import json
import math

import numpy as np
import scipy.linalg

from broyden_lab.cli import cmd_sweep


def quadratic_instance(spectrum, seed: int):
    """Operator and linear term of the seeded quadratic generator spec."""
    spec = np.asarray(spectrum, dtype=float)
    n = spec.size
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    a = (q * spec) @ q.T
    return 0.5 * (a + a.T), rng.standard_normal(n)


def inverse_update(h, s, y, tau):
    """Convex-class inverse update: tau * DFP + (1 - tau) * BFGS."""
    rho = 1.0 / float(y @ s)
    hy = h @ y
    dfp = h - np.outer(hy, hy) / float(y @ hy) + rho * np.outer(s, s)
    left = np.eye(s.size) - rho * np.outer(s, y)
    bfgs = left @ h @ left.T + rho * np.outer(s, s)
    return tau * dfp + (1.0 - tau) * bfgs


def solve_iterations(grad, local_norm, secant, x0, ell, tau, tol, max_iter):
    """Iterations until the local gradient norm reaches tol, or None.

    Starts from H = I / ell and steps x += -H grad(x); ``secant(x, u)``
    returns the target operator applied to the step.
    """
    x = np.array(x0, dtype=float)
    h = np.eye(x.size) / ell
    for k in range(max_iter + 1):
        g = grad(x)
        lam = local_norm(x, g)
        if lam <= tol:
            return k, lam
        if k == max_iter:
            return None, lam
        u = -(h @ g)
        h = inverse_update(h, u, secant(x, u), tau)
        x = x + u
    return None, math.nan


def quadratic_iterations(a, b, x0, ell, tau, tol, max_iter):
    factor = scipy.linalg.cho_factor(a)
    return solve_iterations(
        grad=lambda x: a @ x - b,
        local_norm=lambda x, g: math.sqrt(g @ scipy.linalg.cho_solve(factor, g)),
        secant=lambda x, u: a @ u,
        x0=x0, ell=ell, tau=tau, tol=tol,
        max_iter=max_iter,
    )


def test_sweep_counts_match_the_reference(tmp_path):
    seed, target, max_iter = 3, 1e-10, 20000
    grid = {"n": [2, 5, 10], "L_over_mu": [10.0, 1e2, 1e3],
            "method": ["bfgs", "dfp"], "seed": seed,
            "output_dir": str(tmp_path / "sweep")}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    assert cmd_sweep(str(path)) == 0
    with open(tmp_path / "sweep" / "sweep.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 18
    mismatches = []
    for row in rows:
        n, kappa = int(row["n"]), float(row["L_over_mu"])
        a, b = quadratic_instance(np.geomspace(1.0, kappa, n), seed)
        x0 = np.random.default_rng(seed + 1).standard_normal(n)
        g0 = a @ x0 - b
        tol = target * math.sqrt(g0 @ np.linalg.solve(a, g0))
        tau = 0.0 if row["method"] == "bfgs" else 1.0
        ref, _ = quadratic_iterations(a, b, x0, kappa, tau, tol, max_iter)
        if int(row["iters_to_1e-10"]) != ref:
            mismatches.append((n, kappa, row["method"],
                               row["iters_to_1e-10"], ref))
    assert mismatches == []
