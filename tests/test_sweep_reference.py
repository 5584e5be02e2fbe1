"""Iteration counts against an independent textbook implementation.

The reference builds the quadratic and log-sum-exp instances with numpy
alone, keeps the inverse Hessian approximation H explicitly and applies the
convex-class inverse update as outer products, so it shares no code with
the program.  On the general path it targets the Gauss-Legendre mean of the
Hessian along each step, formed from softmax weights directly.
"""

import csv
import json
import math

import numpy as np
import scipy.linalg

from broyden_lab.cli import cmd_run, cmd_sweep


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


def lse_instance(n: int, m: int, gamma: float, seed: int):
    """Rows and shifts of the seeded log-sum-exp generator spec."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((m, n))
    rows *= gamma / np.linalg.norm(rows, axis=1).max()
    return rows, rng.standard_normal(m)


def _softmax(t):
    e = np.exp(t - t.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def lse_iterations(rows, shifts, mu, gamma, x0, tau, tol, max_iter,
                   order=16):
    """General-scheme run: each update targets the segment-mean Hessian.

    The mean over Gauss-Legendre nodes t_j with weights w_j is
    R^T diag(sum_j w_j p_j) R - sum_j w_j g_j g_j^T + mu I, where p_j is the
    softmax at x + t_j u and g_j = R^T p_j.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    ts, ws = 0.5 * (nodes + 1.0), 0.5 * weights
    eye = np.eye(rows.shape[1])

    def grad(x):
        return rows.T @ _softmax(rows @ x + shifts) + mu * x

    def local_norm(x, g):
        p = _softmax(rows @ x + shifts)
        gp = rows.T @ p
        hess = (rows.T * p) @ rows - np.outer(gp, gp) + mu * eye
        return math.sqrt(g @ np.linalg.solve(hess, g))

    def secant(x, u):
        p = _softmax((rows @ x + shifts)[None, :] + ts[:, None] * (rows @ u))
        gs = p @ rows
        mean = ((rows.T * (ws @ p)) @ rows - gs.T @ (ws[:, None] * gs)
                + mu * eye)
        return mean @ u

    return solve_iterations(grad, local_norm, secant, x0, gamma ** 2 + mu,
                            tau, tol, max_iter)


def _run_iterations(tmp_path, experiments):
    """Run a suite through ``broyden-lab run``; its iteration counts."""
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(experiments))
    assert cmd_run(str(path), out=str(tmp_path / "out")) == 0
    return {exp["name"]: json.loads(
        (tmp_path / "out" / exp["name"] / "summary.json").read_text()
    )["iterations"] for exp in experiments}


def test_constant_tau_run_counts_match_the_reference(tmp_path):
    tol, max_iter = 1e-10, 5000
    experiments, expected = [], {}
    for n in (2, 5, 10):
        for kappa in (10.0, 1e2, 1e3):
            seed = 10 * n + int(math.log10(kappa))
            spectrum = np.geomspace(1.0, kappa, n)
            x0 = np.random.default_rng(seed + 1).standard_normal(n)
            name = f"n{n}-k{kappa:g}"
            experiments.append({
                "name": name, "seed": seed,
                "instance": {"kind": "quadratic", "seed": seed,
                             "spectrum": spectrum.tolist()},
                "method": {"kind": "constant", "tau": 0.5},
                "x0": {"coords": x0.tolist()},
                "solver": {"max_iter": max_iter, "grad_tol": tol},
            })
            a, b = quadratic_instance(spectrum, seed)
            expected[name], _ = quadratic_iterations(a, b, x0, kappa, 0.5,
                                                     tol, max_iter)
    assert _run_iterations(tmp_path, experiments) == expected


def test_general_path_lse_counts_match_the_reference(tmp_path):
    tol, max_iter, gamma = 1e-10, 2000, 1.0
    experiments, expected = [], {}
    for n in (4, 8):
        for mu in (0.01, 0.1):
            for method, tau in (({"kind": "bfgs"}, 0.0),
                                ({"kind": "constant", "tau": 0.5}, 0.5)):
                seed = 100 * n + int(100 * mu)
                x0 = 0.5 * np.random.default_rng(seed + 1).standard_normal(n)
                name = f"n{n}-mu{mu:g}-tau{tau:g}"
                experiments.append({
                    "name": name, "seed": seed, "scheme": "general",
                    "instance": {"kind": "log_sum_exp", "n": n, "m": 4 * n,
                                 "mu": mu, "gamma": gamma, "seed": seed},
                    "method": method,
                    "x0": {"coords": x0.tolist()},
                    "solver": {"max_iter": max_iter, "grad_tol": tol},
                })
                rows, shifts = lse_instance(n, 4 * n, gamma, seed)
                expected[name], _ = lse_iterations(rows, shifts, mu, gamma,
                                                   x0, tau, tol, max_iter)
    assert _run_iterations(tmp_path, experiments) == expected


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
