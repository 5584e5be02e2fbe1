"""Benchmark workloads: seeded inputs, reference results and output checks.

Each workload turns a seed into the config files and argv of one
``broyden-lab`` call.  It computes reference values for that seed with an
independent textbook implementation (inverse-form convex Broyden updates,
structured log-sum-exp mean Hessians), and checks a finished call against
them.  An *operation* is one experiment, one sweep cell or one verify suite;
it fails on a wrong exit code, a FAIL verdict, divergence, non-convergence,
a crash, or a mismatch with the reference.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

# Iteration counts may differ from the reference by rounding-level effects
# near the stopping threshold; a changed method or stopping rule moves them
# by far more than this.
ITER_ABS_TOL = 2
ITER_REL_TOL = 0.01


def derive_seed(seed: int, k: int) -> int:
    """Non-negative sub-seed k of a workload seed."""
    return (int(seed) * 7919 + k) % 2**31


@dataclass
class Outcome:
    """Correctness of one ``broyden-lab`` call."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def iterations_match(measured: int | None, reference: int | None) -> bool:
    if measured is None or reference is None:
        return False
    return abs(measured - reference) <= max(ITER_ABS_TOL,
                                            ITER_REL_TOL * reference)


# ---------------------------------------------------------------------------
# Independent reference implementation


def quadratic_instance(spectrum, seed: int):
    """Operator and linear term of the seeded quadratic generator spec."""
    spec = np.asarray(spectrum, dtype=float)
    n = spec.size
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    a = (q * spec) @ q.T
    return 0.5 * (a + a.T), rng.standard_normal(n)


def lse_instance(n: int, m: int, gamma: float, seed: int):
    """Rows and shifts of the seeded log-sum-exp generator spec."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((m, n))
    rows *= gamma / np.linalg.norm(rows, axis=1).max()
    return rows, rng.standard_normal(m)


def random_ball(radius: float, n: int, seed: int) -> np.ndarray:
    """Seeded point uniform in the Euclidean ball (reference operator I)."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n)
    return d * (radius * rng.uniform() ** (1.0 / n) / np.linalg.norm(d))


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


# ---------------------------------------------------------------------------
# Output checks shared by the ``run`` workloads


def _final_residual(trace_csv: Path) -> float:
    with open(trace_csv) as f:
        rows = list(csv.reader(f))
    return float(rows[-1][1])


def check_experiments(expected: dict, out_dir: Path, rc: int) -> Outcome:
    """Check each experiment's summary and trace against its reference."""
    outcome = Outcome(attempted=len(expected), failed=0)
    for name, ref in expected.items():
        problems = []
        exp_dir = out_dir / name
        try:
            summary = json.loads((exp_dir / "summary.json").read_text())
            if not summary.get("pass"):
                problems.append(f"verdict FAIL ({summary.get('error') or summary.get('first_violation')})")
            if not summary.get("converged"):
                problems.append("not converged")
            iters = summary.get("iterations")
            if not iterations_match(iters, ref["iterations"]):
                problems.append(f"iterations {iters} vs reference {ref['iterations']}")
            resid = _final_residual(exp_dir / "trace.csv")
            if not resid <= ref["grad_tol"]:
                problems.append(f"final residual {resid} above {ref['grad_tol']}")
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"unreadable output: {exc}")
        if rc != 0:
            problems.append(f"exit code {rc}")
        if problems:
            outcome.failed += 1
            outcome.problems.append(f"{name}: " + "; ".join(problems))
    return outcome


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload))
    return path


# ---------------------------------------------------------------------------
# Workloads


class QuadSuite:
    """Three instrumented quadratic experiments on the fixed-target path."""

    name = "quad-suite"
    n = 100
    grad_tol = 1e-10
    cases = ((1e3, {"kind": "bfgs"}, 0.0),
             (1e2, {"kind": "dfp"}, 1.0),
             (3e2, {"kind": "constant", "tau": 0.5}, 0.5))
    fault_mu = 10.0  # ten times the certified mu = 1 of every spectrum

    def experiments(self, seed: int, fault: bool = False) -> list[dict]:
        out = []
        for i, (kappa, method, _) in enumerate(self.cases):
            sub = derive_seed(seed, i)
            exp = {
                "name": f"quad{i}",
                "seed": sub,
                "instance": {"kind": "quadratic", "seed": sub,
                             "spectrum": np.geomspace(1.0, kappa, self.n).tolist()},
                "method": method,
                "x0": {"random_ball": 1.0},
                "solver": {"max_iter": 5000, "grad_tol": self.grad_tol},
            }
            if fault:
                exp["envelope_overrides"] = {"mu": self.fault_mu}
            out.append(exp)
        return out

    def write_inputs(self, seed: int, work: Path, fault: bool = False) -> list[str]:
        cfg = _write_json(work / "suite.json", self.experiments(seed, fault))
        return ["run", str(cfg), "--jobs", "1", "--out", str(work / "out")]

    def reference(self, seed: int) -> dict:
        expected = {}
        for exp, (kappa, _, tau) in zip(self.experiments(seed), self.cases):
            a, b = quadratic_instance(exp["instance"]["spectrum"], exp["instance"]["seed"])
            x0 = random_ball(1.0, self.n, exp["seed"])
            iters, _ = quadratic_iterations(a, b, x0, kappa, tau, self.grad_tol, 5000)
            expected[exp["name"]] = {"iterations": iters, "grad_tol": self.grad_tol}
        return expected

    def check(self, expected: dict, work: Path, rc: int, stdout: str) -> Outcome:
        return check_experiments(expected, work / "out", rc)


class LseGeneral:
    """One log-sum-exp BFGS run on the segment-mean-Hessian path."""

    name = "lse-general"
    n, m, mu, gamma = 100, 400, 0.005, 1.0
    grad_tol = 1e-10

    def experiment(self, seed: int) -> dict:
        sub = derive_seed(seed, 0)
        return {
            "name": "lse",
            "seed": sub,
            "scheme": "general",
            "instance": {"kind": "log_sum_exp", "n": self.n, "m": self.m,
                         "mu": self.mu, "gamma": self.gamma, "seed": sub},
            "method": {"kind": "bfgs"},
            "x0": {"random_ball": 1.0},
            "solver": {"max_iter": 2000, "grad_tol": self.grad_tol},
            "envelopes": ["general_linear", "general_superlinear"],
        }

    def write_inputs(self, seed: int, work: Path, fault: bool = False) -> list[str]:
        if fault:
            raise ValueError(f"{self.name} has no fault injection")
        cfg = _write_json(work / "lse.json", self.experiment(seed))
        return ["run", str(cfg), "--jobs", "1", "--out", str(work / "out")]

    def reference(self, seed: int) -> dict:
        exp = self.experiment(seed)
        rows, shifts = lse_instance(self.n, self.m, self.gamma, exp["instance"]["seed"])
        x0 = random_ball(1.0, self.n, exp["seed"])
        iters, _ = lse_iterations(rows, shifts, self.mu, self.gamma, x0, 0.0,
                                  self.grad_tol, 2000)
        return {exp["name"]: {"iterations": iters, "grad_tol": self.grad_tol}}

    def check(self, expected: dict, work: Path, rc: int, stdout: str) -> Outcome:
        return check_experiments(expected, work / "out", rc)


class SweepLong:
    """A two-cell sweep whose DFP cell has a trace of several thousand steps."""

    name = "sweep-long"
    n, kappa, target, max_iter = 30, 1000.0, 1e-10, 20000
    methods = (("bfgs", 0.0), ("dfp", 1.0))

    def grid(self, seed: int) -> dict:
        return {"n": [self.n], "L_over_mu": [self.kappa],
                "method": [m for m, _ in self.methods],
                "seed": derive_seed(seed, 0)}

    def write_inputs(self, seed: int, work: Path, fault: bool = False) -> list[str]:
        if fault:
            raise ValueError(f"{self.name} has no fault injection")
        grid = _write_json(work / "grid.json", self.grid(seed))
        return ["sweep", str(grid), "--out", str(work / "out")]

    def reference(self, seed: int) -> dict:
        grid_seed = self.grid(seed)["seed"]
        a, b = quadratic_instance(np.geomspace(1.0, self.kappa, self.n), grid_seed)
        x0 = np.random.default_rng(grid_seed + 1).standard_normal(self.n)
        g0 = a @ x0 - b
        tol = self.target * math.sqrt(g0 @ np.linalg.solve(a, g0))
        return {method: quadratic_iterations(a, b, x0, self.kappa, tau, tol,
                                             self.max_iter)[0]
                for method, tau in self.methods}

    def check(self, expected: dict, work: Path, rc: int, stdout: str) -> Outcome:
        outcome = Outcome(attempted=len(expected), failed=0)
        try:
            with open(work / "out" / "sweep.csv") as f:
                rows = {r["method"]: r for r in csv.DictReader(f)}
        except OSError as exc:
            rows = {}
            outcome.problems.append(f"sweep.csv unreadable: {exc}")
        for method, ref_iters in expected.items():
            problems = []
            row = rows.get(method)
            if row is None:
                problems.append("missing row")
            else:
                if row["envelopes_ok"] != "1":
                    problems.append("envelope violation")
                iters = row["iters_to_1e-10"]
                if not iters:
                    problems.append("not converged")
                elif not iterations_match(int(iters), ref_iters):
                    problems.append(f"iterations {iters} vs reference {ref_iters}")
            if rc != 0:
                problems.append(f"exit code {rc}")
            if problems:
                outcome.failed += 1
                outcome.problems.append(f"{method}: " + "; ".join(problems))
        return outcome


class VerifySmall:
    """The randomized identity and inequality suites at small n."""

    name = "verify-small"
    trials = 400
    suites = ("inverse_identity", "det_ratio", "eigen_containment",
              "logdet_progress", "augmented_progress", "metric_change",
              "scalar_gap")

    def write_inputs(self, seed: int, work: Path, fault: bool = False) -> list[str]:
        if fault:
            raise ValueError(f"{self.name} has no fault injection")
        return ["verify", "--trials", str(self.trials),
                "--seed", str(derive_seed(seed, 0))]

    def reference(self, seed: int) -> dict:
        # Five tau values per random trial; the scalar gap runs a fixed grid.
        return {name: (10000 if name == "scalar_gap" else 5 * self.trials)
                for name in self.suites}

    def check(self, expected: dict, work: Path, rc: int, stdout: str) -> Outcome:
        outcome = Outcome(attempted=len(expected), failed=0)
        lines = {line.split()[0]: line for line in stdout.splitlines() if line.strip()}
        for name, trials in expected.items():
            line = lines.get(name, "")
            problems = []
            if not line.endswith("PASS"):
                problems.append(f"not PASS: {line!r}")
            if f"trials={trials} " not in line:
                problems.append(f"expected trials={trials}")
            if rc != 0:
                problems.append(f"exit code {rc}")
            if problems:
                outcome.failed += 1
                outcome.problems.append(f"{name}: " + "; ".join(problems))
        return outcome


WORKLOADS = {w.name: w for w in (QuadSuite(), LseGeneral(), SweepLong(), VerifySmall())}
