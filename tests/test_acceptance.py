"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one pass/fail line.  Run with ``pytest -s`` (or ``-rA``) to
see the lines on success.  Shared instance sets are built once per module
and their construction time is charged against the criterion that owns the
runtime budget.
"""

import math
import time

import numpy as np
import pytest

from broyden_lab import (
    PrimalVector,
    SolverConfig,
    TauSchedule,
    augmented_barrier,
    broyd,
    broyd_det_ratio,
    broyd_inverse,
    env_general_linear,
    env_general_superlinear,
    integral_hessian,
    k0,
    logdet_barrier,
    loewner_slack,
    lse_make,
    metric_change_lb,
    norm_dual,
    nu,
    progress_lb_psi,
    progress_lb_v,
    quad_make,
    region_condition_holds,
    region_radius,
    rel_det,
    rel_eigen_range,
    report_quad_linear,
    report_quad_superlinear,
    run_general,
    run_quadratic,
    sandwich_check,
    scalar_gap,
)
from broyden_lab.cli import cmd_sweep
from broyden_lab.potentials import SCALAR_GAP_MIDDLE_CONST
from broyden_lab.verify import random_spd, random_spd_dominating, straddle_normalize

TAU_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    assert ok, f"{cid}: {detail}"


# ---------------------------------------------------------------------------
# Shared instance sets
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def identity_set():
    """1000 random (target, approximation, direction) triples, n in 1..8.

    The approximation is rescaled so its eigenvalue range relative to the
    target straddles 1; every update pins a relative eigenvalue at exactly 1,
    so range containment is exact only in that regime.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(20250810)
    triples = []
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        a = random_spd(rng, n)
        g = straddle_normalize(random_spd(rng, n), a)
        u = PrimalVector(rng.standard_normal(n))
        triples.append((a, g, u))
    return triples, time.perf_counter() - started


def _uniform_spectrum(n, kappa, rng):
    return np.sort(np.r_[1.0, rng.uniform(1.0, kappa, n - 2), kappa])


@pytest.fixture(scope="module")
def quad_runs():
    """Twenty random quadratic runs over (n, condition) cells.

    Methods cycle through BFGS, DFP and the half blend so every family
    member is exercised; spectra are uniform on [mu, ell] with the endpoints
    pinned.
    """
    started = time.perf_counter()
    schedules = (TauSchedule.bfgs(), TauSchedule.dfp(),
                 TauSchedule((0.5,)))
    labels = ("bfgs", "dfp", "half")
    runs = []
    idx = 0
    for n in (5, 20):
        for kappa in (10.0, 1000.0):
            for j in range(5):
                rng = np.random.default_rng(9100 + idx)
                quad = quad_make(_uniform_spectrum(n, kappa, rng),
                                 seed=9500 + idx)
                x0 = PrimalVector(rng.standard_normal(n))
                trace = run_quadratic(
                    quad, x0, schedules[j % 3],
                    SolverConfig(max_iter=40000, grad_tol=1e-12),
                    record_operators=True,
                )
                runs.append({"n": n, "kappa": kappa,
                             "method": labels[j % 3], "quad": quad,
                             "trace": trace})
                idx += 1
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def lse_setup():
    """The log-sum-exp acceptance instance and its approximate minimizer."""
    problem = lse_make(8, 20, mu=0.1, seed=424242, gamma=1.0)
    warm = run_general(problem, PrimalVector(np.zeros(8)), TauSchedule.bfgs(),
                       SolverConfig(max_iter=400, grad_tol=1e-13))
    return problem, warm.x_final


def _x0_at_lambda(problem, center, direction, lam_target):
    def lam_at(t):
        x = PrimalVector(center.coords + t * direction)
        return norm_dual(problem.hess(x), problem.grad(x))

    hi = 1e-3
    while lam_at(hi) < lam_target:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lam_at(mid) < lam_target:
            lo = mid
        else:
            hi = mid
    return PrimalVector(center.coords + hi * direction)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_a01_inverse_identity_and_det_ratio(identity_set):
    triples, gen_time = identity_set
    started = time.perf_counter()
    worst_resid = 0.0
    worst_det = 0.0
    for a, g, u in triples:
        eye = np.eye(a.dim)
        for tau in TAU_GRID:
            res = broyd(a, g, u, tau)
            h_plus = broyd_inverse(a, g, u, tau)
            worst_resid = max(worst_resid, float(np.linalg.norm(
                res.g_plus.entries @ h_plus.entries - eye, 2
            )))
            reference = rel_det(res.g_plus_inv, g)
            worst_det = max(
                worst_det,
                abs(broyd_det_ratio(a, g, u, tau) - reference) / abs(reference),
            )
    elapsed = gen_time + time.perf_counter() - started
    _report(
        "A01 closed-form inverse and determinant ratio",
        worst_resid <= 1e-10 and worst_det <= 1e-9 and elapsed < 10.0,
        f"worst identity residual {worst_resid:.2e} (<=1e-10), worst det "
        f"ratio error {worst_det:.2e} (<=1e-9), {elapsed:.1f}s (<10s)",
    )


def test_a02_eigen_range_containment(identity_set):
    triples, _ = identity_set
    violations = 0
    worst = math.inf
    for a, g, u in triples:
        before = rel_eigen_range(g, a)
        for tau in TAU_GRID:
            after = rel_eigen_range(broyd(a, g, u, tau).g_plus, a)
            slack = min(after.min_rel - (before.min_rel - 1e-9),
                        (before.max_rel + 1e-9) - after.max_rel)
            worst = min(worst, slack)
            if slack < 0.0:
                violations += 1
    _report(
        "A02 eigen-range containment after update",
        violations == 0,
        f"{violations} violations over {len(triples) * len(TAU_GRID)} "
        f"updates, worst slack {worst:.2e}",
    )


def test_a03_progress_inequalities():
    rng = np.random.default_rng(20250811)
    worst = {"logdet": math.inf, "augmented": math.inf, "metric": math.inf}

    for _ in range(1000):
        n = int(rng.integers(1, 9))
        a = random_spd(rng, n)
        g = random_spd_dominating(rng, a)
        u = PrimalVector(rng.standard_normal(n))
        eta = max(1.0, rel_eigen_range(g, a).max_rel)
        nu_val = nu(a, g, u)
        v0 = logdet_barrier(a, g)
        for tau in TAU_GRID:
            dec = v0 - logdet_barrier(a, broyd(a, g, u, tau).g_plus)
            worst["logdet"] = min(
                worst["logdet"], dec - progress_lb_v(eta, tau, nu_val)
            )

    for _ in range(1000):
        n = int(rng.integers(1, 9))
        a, g = random_spd(rng, n), random_spd(rng, n)
        u = PrimalVector(rng.standard_normal(n))
        rng_ga = rel_eigen_range(g, a)
        xi = max(1.0, 1.0 / rng_ga.min_rel)
        eta = max(1.0, rng_ga.max_rel)
        nu_val = nu(a, g, u)
        psi0 = augmented_barrier(g, a)
        for tau in TAU_GRID:
            dec = psi0 - augmented_barrier(broyd(a, g, u, tau).g_plus, a)
            worst["augmented"] = min(
                worst["augmented"], dec - progress_lb_psi(xi, eta, tau, nu_val)
            )

    for tau in (0.0, 0.5, 1.0):
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            a, g = random_spd(rng, n), random_spd(rng, n)
            u = PrimalVector(rng.standard_normal(n))
            nu_sq, rhs = metric_change_lb(a, g, u, tau)
            worst["metric"] = min(worst["metric"], nu_sq - rhs)

    grid_violations = 0
    arg_worst = math.inf
    betas = np.logspace(-6.0, 6.0, 100)
    mults = np.logspace(0.0, 6.0, 100)
    for beta in betas:
        for m in mults:
            alpha = float(beta * m)
            lhs, rhs = scalar_gap(alpha, float(beta))
            arg = alpha + 1.0 / beta - 1.0
            arg_worst = min(arg_worst, arg - 1.0)
            middle = SCALAR_GAP_MIDDLE_CONST * math.log(arg)
            if lhs < middle - 1e-12 or middle < rhs - 1e-12 or arg < 1 - 1e-12:
                grid_violations += 1

    ok = (worst["logdet"] >= -1e-8 and worst["augmented"] >= -1e-8
          and worst["metric"] >= -1e-8 and grid_violations == 0)
    _report(
        "A03 potential-progress and scalar-gap inequalities",
        ok,
        f"worst slacks: logdet {worst['logdet']:.2e}, augmented "
        f"{worst['augmented']:.2e}, metric {worst['metric']:.2e} (>=-1e-8); "
        f"scalar grid violations {grid_violations}/10000, "
        f"worst argument slack {arg_worst:.2e}",
    )


def test_a04_quadratic_linear_rate_and_sandwich(quad_runs):
    runs, run_time = quad_runs
    started = time.perf_counter()
    worst_sandwich = math.inf
    worst_env = math.inf
    for run in runs:
        quad, trace = run["quad"], run["trace"]
        kappa_op = quad.a_op.scaled(quad.ell / quad.mu)
        for g_op in trace.g_ops:
            worst_sandwich = min(worst_sandwich,
                                 loewner_slack(quad.a_op, g_op),
                                 loewner_slack(g_op, kappa_op))
        rep = report_quad_linear(trace)
        worst_env = min(worst_env, rep.min_slack)
        assert rep.all_satisfied
        assert trace.converged and trace.lambdas[-1] <= 1e-12
    elapsed = run_time + time.perf_counter() - started
    _report(
        "A04 quadratic operator sandwich and linear rate",
        worst_sandwich >= -1e-8 and elapsed < 30.0,
        f"20 runs, worst sandwich slack {worst_sandwich:.2e} (>=-1e-8), "
        f"worst envelope slack {worst_env:.2e}, {elapsed:.1f}s (<30s)",
    )


def test_a05_quadratic_superlinear_envelopes(quad_runs):
    runs, _ = quad_runs
    methods_seen = set()
    anchor_checked = 0
    anchor_worst = 0
    for run in runs:
        trace = run["trace"]
        methods_seen.add(run["method"])
        for psi_variant in (False, True):
            rep = report_quad_superlinear(trace, psi_variant=psi_variant)
            assert rep.all_satisfied, (
                f"superlinear envelope violated at k={rep.first_violation} "
                f"({run['method']}, n={run['n']}, kappa={run['kappa']})"
            )
        if run["method"] == "bfgs" and run["n"] == 20 and run["kappa"] == 1000.0:
            ratio = trace.lambdas / trace.lambda0
            hits = np.flatnonzero(ratio <= 1e-10)
            assert hits.size, "run never reached the relative target"
            anchor_checked += 1
            anchor_worst = max(anchor_worst, int(hits[0]))
    ok = (methods_seen == {"bfgs", "dfp", "half"} and anchor_checked > 0
          and anchor_worst <= 60)
    _report(
        "A05 quadratic superlinear envelopes and empirical anchor",
        ok,
        f"both envelope variants hold on all 20 runs ({sorted(methods_seen)}); "
        f"BFGS n=20 kappa=1e3 reached 1e-10 relative by k={anchor_worst} "
        f"(<=60) on {anchor_checked} run(s)",
    )


def test_a06_starting_moment_closed_forms():
    rng = np.random.default_rng(20250812)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        mu = float(10.0 ** rng.uniform(-3.0, 3.0))
        ell = mu * float(10.0 ** rng.uniform(0.0, 8.0))
        log_term = math.log(2.0 * ell / mu)
        if k0(n, mu, ell, 0.0) != math.ceil(8.0 * n * log_term):
            mismatches += 1
        if k0(n, mu, ell, 1.0) != math.ceil(18.0 * n * ell / mu * log_term):
            mismatches += 1
    _report(
        "A06 superlinear starting-moment closed forms",
        mismatches == 0,
        f"{mismatches} mismatches over 1000 random (n, mu, ell) draws "
        "(BFGS and DFP endpoints)",
    )


def test_a07_general_scheme_local_convergence(lse_setup):
    started = time.perf_counter()
    problem, center = lse_setup
    n, mu, ell, big_m = problem.n, problem.mu, problem.ell, problem.sc_const
    kappa = ell / mu
    direction = np.random.default_rng(31337).standard_normal(n)
    details = []
    for label, sched in (("bfgs", TauSchedule.bfgs()), ("dfp", TauSchedule.dfp())):
        radius = region_radius(mu, ell, n, sched.sup_tau, big_m)
        lam_target = 0.5 * radius
        x0 = _x0_at_lambda(problem, center, direction, lam_target)
        lam0 = norm_dual(problem.hess(x0), problem.grad(x0))
        assert abs(lam0 - lam_target) <= 0.01 * lam_target
        assert region_condition_holds(mu, ell, n, sched.sup_tau, big_m, lam0)

        trace = run_general(problem, x0, sched,
                            SolverConfig(max_iter=2000, grad_tol=1e-11),
                            record_operators=True)
        assert trace.converged

        # Uniform Hessian sandwich at every iterate.
        worst_op = math.inf
        for k, g_op in enumerate(trace.g_ops):
            hess_k = problem.hess(trace.xs[k])
            worst_op = min(
                worst_op,
                loewner_slack(hess_k.scaled(2.0 / 3.0), g_op),
                loewner_slack(g_op, hess_k.scaled(1.5 * kappa)),
            )
        assert worst_op >= -1e-7, f"{label}: operator sandwich slack {worst_op}"

        # Linear and superlinear envelopes, asserted inside the region.
        _, uniform_lin = env_general_linear(trace)
        _, uniform_sup = env_general_superlinear(trace)
        assert uniform_lin.asserted and uniform_lin.all_satisfied
        assert uniform_sup.asserted and uniform_sup.all_satisfied

        # Distortion-based sandwiches and the step-length bound.
        for k in range(len(trace)):
            xi = trace.xis[k]
            assert trace.eig_mins[k] >= 1.0 / xi - 1e-7
            assert trace.eig_maxs[k] <= xi * kappa + 1e-7 * kappa
        for k in range(trace.k_final):
            xi_next = trace.xis[k + 1]
            assert trace.j_eig_mins[k] >= 1.0 / xi_next - 1e-7
            assert trace.j_eig_maxs[k] <= xi_next * kappa + 1e-7 * kappa
            assert trace.rs[k] <= trace.xis[k] * trace.lambdas[k] + 1e-10

        details.append(f"{label}: {trace.k_final} iters, "
                       f"lam0={lam0:.2e}, op slack {worst_op:.1e}")
    elapsed = time.perf_counter() - started
    _report(
        "A07 general-scheme local convergence package",
        elapsed < 60.0,
        "; ".join(details) + f"; {elapsed:.1f}s (<60s)",
    )


def test_a08_segment_hessian_sandwiches(lse_setup):
    problem, _ = lse_setup
    rng = np.random.default_rng(20250813)
    worst_slack = math.inf
    worst_quad_err = 0.0
    for _ in range(1000):
        x = PrimalVector(rng.standard_normal(problem.n))
        y = PrimalVector(rng.standard_normal(problem.n))
        rep = sandwich_check(problem, x, y, order=16)
        worst_slack = min(worst_slack, rep.worst)
        ih = integral_hessian(problem, x, y - x, order=16)
        j_scale = float(np.linalg.eigvalsh(ih.j_op.entries)[-1])
        worst_quad_err = max(worst_quad_err, ih.est_error / j_scale)
    _report(
        "A08 segment-mean Hessian sandwiches",
        worst_slack >= -1e-8 and worst_quad_err < 1e-9,
        f"1000 segment pairs, worst sandwich slack {worst_slack:.2e} "
        f"(>=-1e-8), worst relative quadrature error {worst_quad_err:.2e} "
        "(<1e-9)",
    )


def test_a09_quadratic_reduction_consistency():
    quad = quad_make(np.geomspace(1.0, 300.0, 10), seed=777)
    x0 = PrimalVector(np.random.default_rng(778).standard_normal(10))
    cfg = SolverConfig(max_iter=1000, grad_tol=1e-12)
    t_quad = run_quadratic(quad, x0, TauSchedule.bfgs(), cfg)
    t_gen = run_general(quad, x0,
                        TauSchedule.bfgs(), cfg)
    xi_exact = bool(np.all(t_gen.xis == 1.0))
    same_len = len(t_quad) == len(t_gen)
    rel = np.max(np.abs(t_gen.lambdas[1:] - t_quad.lambdas[1:])
                 / np.maximum(t_quad.lambdas[1:], 1e-300)) if same_len else math.inf
    lam0_match = t_gen.lambda0 == t_quad.lambda0
    _report(
        "A09 quadratic reduction of the general path",
        xi_exact and same_len and lam0_match and rel <= 1e-12,
        f"distortion exactly 1: {xi_exact}; max relative lambda gap "
        f"{rel:.2e} (<=1e-12) over {len(t_quad) - 1} iterations",
    )


def test_a10_comparison_with_previous_envelopes(tmp_path):
    # Simplification chain over the stated grid.
    chain_ok = True
    for n in range(1, 51):
        for kappa in (2.0, 10.0, 100.0, 10_000.0):
            k_lo = max(1, math.ceil(4.0 * n * math.log(kappa)))
            ks = np.unique(np.r_[
                np.arange(k_lo, k_lo + 200),
                np.geomspace(k_lo, 1_000_000, 50).astype(int),
            ])
            ks = ks[ks >= k_lo].astype(float)
            t = n * math.log(kappa) / ks
            if not np.all(np.expm1(t) <= 4.0 * n / (3.0 * ks) * math.log(kappa)
                          + 1e-15):
                chain_ok = False
            if not np.all(0.5 * math.log(kappa)
                          <= ks / 2.0 * math.log(1.5) + 1e-12):
                chain_ok = False

    # Formula-level comparison: the new starting moment undercuts the old
    # one whenever the condition number is at least 10.
    formula_ok = True
    for n in range(1, 51):
        for kappa in (10.0, 100.0, 10_000.0, 1e8):
            if not 4.0 * n * math.log(kappa) < n * kappa:
                formula_ok = False

    # End-to-end sweep over a small grid.
    import json
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({
        "n": [5, 10], "L_over_mu": [10.0, 100.0],
        "method": ["bfgs", "dfp"],
        "output_dir": str(tmp_path / "sweep"),
    }))
    exit_code = cmd_sweep(str(grid_path))
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
    sweep_ok = exit_code == 0 and len(rows) == 9
    for row in rows[1:]:
        cells = row.split(",")
        if float(cells[1]) >= 10.0 and not float(cells[4]) < float(cells[5]):
            sweep_ok = False
    _report(
        "A10 old-versus-new envelope comparison",
        chain_ok and formula_ok and sweep_ok,
        f"simplification chain holds on the full grid: {chain_ok}; "
        f"new starting moment below old for kappa>=10: {formula_ok}; "
        f"sweep exit {exit_code} with {len(rows) - 1} cells, all new<old: "
        f"{sweep_ok}",
    )
