"""Rate envelopes: closed forms, thresholds, trace reports, finiteness."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from broyden_lab import (
    DualVector,
    PrimalVector,
    QuadraticProblem,
    Role,
    SolverConfig,
    SpdOperator,
    TauSchedule,
    env_general_linear,
    env_general_superlinear,
    env_quad_linear,
    env_quad_sharpened_factor,
    env_quad_superlinear,
    env_section6,
    first_superlinear_crossover,
    k0,
    lse_make,
    quad_make,
    region_radius,
    report_quad_linear,
    report_quad_superlinear,
    run_general,
    run_quadratic,
)
from broyden_lab.bounds import (
    SATISFIED_ATOL,
    SATISFIED_RTOL,
    EnvelopeReport,
    env_quad_superlinear_log,
    trace_reports,
)


class TestLinearEnvelope:
    def test_initial_value(self):
        assert env_quad_linear(1.0, 10.0, 0, 7.5) == 7.5

    def test_perfect_conditioning_collapses(self):
        assert env_quad_linear(2.0, 2.0, 1, 1.0) == 0.0
        assert env_quad_linear(2.0, 2.0, 5, 1.0) == 0.0

    def test_scalar_arithmetic_oracle(self):
        # mu/ell = 0.01, k = 100: 0.99^100 * lambda0.
        expected = 0.99 ** 100 * 3.0
        assert env_quad_linear(0.01, 1.0, 100, 3.0) == pytest.approx(expected)
        assert expected == pytest.approx(0.3660 * 3.0, rel=1e-3)


class TestSuperlinearEnvelopes:
    def test_bfgs_closed_form(self):
        # All-zero schedule: [2 (e^{n/k ln kappa} - 1)]^{k/2} sqrt(kappa) l0.
        n, mu, ell, k, lam0 = 6, 1.0, 50.0, 9, 2.0
        t = n / k * math.log(ell / mu)
        expected = (2.0 * (math.exp(t) - 1.0)) ** (k / 2.0) \
            * math.sqrt(ell / mu) * lam0
        got = env_quad_superlinear(n, mu, ell, TauSchedule.bfgs(), k, lam0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_dfp_closed_form(self):
        # All-one schedule: [2 kappa (e^{n/k ln kappa} - 1)]^{k/2} sqrt(kappa) l0.
        n, mu, ell, k, lam0 = 4, 0.5, 10.0, 7, 1.5
        kappa = ell / mu
        t = n / k * math.log(kappa)
        expected = (2.0 * kappa * (math.exp(t) - 1.0)) ** (k / 2.0) \
            * math.sqrt(kappa) * lam0
        got = env_quad_superlinear(n, mu, ell, TauSchedule.dfp(), k, lam0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_perfect_conditioning_is_zero(self):
        assert env_quad_superlinear(5, 2.0, 2.0, TauSchedule.bfgs(), 3, 1.0) == 0.0
        assert env_quad_superlinear(5, 2.0, 2.0, TauSchedule.dfp(), 3, 1.0,
                                    psi_variant=True) == 0.0

    def test_psi_variant_dominates(self):
        for k in (1, 5, 20, 100):
            for kappa in (2.0, 100.0):
                v = env_quad_superlinear(8, 1.0, kappa, TauSchedule.bfgs(), k, 1.0)
                p = env_quad_superlinear(8, 1.0, kappa, TauSchedule.bfgs(),
                                         k, 1.0, psi_variant=True)
                assert p >= v

    def test_psi_exponent_factor(self):
        n, mu, ell, k = 3, 1.0, 20.0, 5
        t = 13.0 / 6.0 * n / k * math.log(ell / mu)
        expected = (2.0 * (math.exp(t) - 1.0)) ** (k / 2.0) \
            * math.sqrt(ell / mu)
        got = env_quad_superlinear(n, mu, ell, TauSchedule.bfgs(), k, 1.0,
                                   psi_variant=True)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_mixed_schedule_uses_per_iteration_taus(self):
        taus = [0.0, 1.0, 0.5, 0.25]
        n, mu, ell, k = 3, 1.0, 9.0, 4
        mean_log_p = np.mean([math.log(t * mu / ell + 1 - t) for t in taus])
        t = n / k * math.log(ell / mu)
        expected = math.exp(
            (k / 2.0) * (math.log(2.0) - mean_log_p
                         + math.log(math.expm1(t)))
            + 0.5 * math.log(ell / mu)
        )
        got = env_quad_superlinear(n, mu, ell, taus, k, 1.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            env_quad_superlinear(3, 1.0, 2.0, TauSchedule.bfgs(), 0, 1.0)

    def test_finite_for_extreme_parameters(self):
        # Log-space evaluation stays finite up to k = 1e6, kappa = 1e12.
        for k in (1, 10, 10_000, 1_000_000):
            for kappa in (10.0, 1e6, 1e12):
                for sched in (TauSchedule.bfgs(), TauSchedule.dfp()):
                    val = env_quad_superlinear(50, 1.0, kappa, sched, k, 1.0)
                    assert math.isfinite(val)
                    val_psi = env_quad_superlinear(50, 1.0, kappa, sched,
                                                   k, 1.0, psi_variant=True)
                    assert math.isfinite(val_psi)

    def test_log_variant_matches_value(self):
        args = (8, 1.0, 100.0, TauSchedule.bfgs(), 12, 2.5)
        assert math.exp(env_quad_superlinear_log(*args)) == pytest.approx(
            env_quad_superlinear(*args), rel=1e-12
        )


class TestSharpenedFactor:
    def test_flat_spectrum_is_zero(self):
        q = quad_make([5.0, 5.0, 5.0], seed=1)
        assert env_quad_sharpened_factor(q) == pytest.approx(0.0, abs=1e-12)

    def test_worst_case_spectrum(self):
        q = quad_make([2.0, 2.0, 2.0, 2.0], seed=2)
        # All eigenvalues at mu means n * ln(ell/mu) with ell = mu.
        assert env_quad_sharpened_factor(q) == pytest.approx(0.0, abs=1e-12)

    def test_matches_eigensolver_oracle(self):
        spec = np.geomspace(1.0, 100.0, 6)
        q = quad_make(spec, seed=3)
        expected = float(np.sum(np.log(spec.max() / spec)))
        assert env_quad_sharpened_factor(q) == pytest.approx(expected,
                                                             rel=1e-10)

    def test_non_identity_reference_operator(self):
        # The factor is a sum over the eigenvalues of the pencil (A, B); with
        # B != I, B^{-1} A is not symmetric, so a symmetric eigensolver on
        # it is meaningless.
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 6))
        b_ref = m @ m.T + 6.0 * np.eye(6)
        m = rng.standard_normal((6, 6))
        a = m @ m.T + np.eye(6)
        a, b_ref = 0.5 * (a + a.T), 0.5 * (b_ref + b_ref.T)
        vals = scipy.linalg.eigh(a, b_ref, eigvals_only=True)
        q = QuadraticProblem(
            a_op=SpdOperator(a, Role.PRIMAL_TO_DUAL), b=DualVector(np.ones(6)),
            b_ref=SpdOperator(b_ref, Role.PRIMAL_TO_DUAL),
            mu=float(vals.min()), ell=float(vals.max()),
        )
        expected = float(np.sum(np.log(vals.max() / vals)))
        assert env_quad_sharpened_factor(q) == pytest.approx(expected,
                                                             rel=1e-10)

    def test_sharpened_envelope_dominated_by_plain(self):
        spec = np.r_[1.0, np.full(7, 90.0), 100.0]
        q = quad_make(spec, seed=4)
        factor = env_quad_sharpened_factor(q)
        n = len(spec)
        assert factor <= n * math.log(q.ell / q.mu)
        for k in (1, 4, 16):
            sharp = env_quad_superlinear(n, q.mu, q.ell, TauSchedule.bfgs(),
                                         k, 1.0, log_factor=factor)
            plain = env_quad_superlinear(n, q.mu, q.ell, TauSchedule.bfgs(),
                                         k, 1.0)
            assert sharp <= plain * (1 + 1e-12)


class TestStartingMoment:
    def test_bfgs_scalar_oracle(self):
        # tau = 0, n = 10, kappa = 100: ceil(80 ln 200) = 424.
        assert k0(10, 1.0, 100.0, 0.0) == math.ceil(80.0 * math.log(200.0))
        assert k0(10, 1.0, 100.0, 0.0) == 424

    def test_dfp_scalar_oracle(self):
        # tau = 1, n = 1, kappa = 1: ceil(18 ln 2) = 13.
        assert k0(1, 1.0, 1.0, 1.0) == math.ceil(18.0 * math.log(2.0))
        assert k0(1, 1.0, 1.0, 1.0) == 13

    def test_endpoint_consistency_with_general_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 100))
            mu = float(10.0 ** rng.uniform(-3, 3))
            ell = mu * float(10.0 ** rng.uniform(0, 6))
            log_term = math.log(2.0 * ell / mu)
            assert k0(n, mu, ell, 0.0) == math.ceil(8.0 * n * log_term)
            assert k0(n, mu, ell, 1.0) == math.ceil(
                18.0 * n * ell / mu * log_term
            )
            # Interior values sit between the endpoints.
            mid = k0(n, mu, ell, 0.5)
            assert k0(n, mu, ell, 0.0) <= mid <= k0(n, mu, ell, 1.0)

    def test_positive_integer(self):
        assert k0(1, 1.0, 1.0, 0.0) == math.ceil(8.0 * math.log(2.0)) == 6


class TestRegionRadius:
    def test_quadratic_is_unbounded(self):
        assert region_radius(1.0, 10.0, 5, 0.0, 0.0) == math.inf

    def test_branch_selection(self):
        # Large kappa against small n: the 1/(K0+9) branch wins for BFGS.
        n, mu, ell = 2, 1.0, 1e6
        cap_ratio = mu / (2 * ell)
        cap_k0 = 1.0 / (k0(n, mu, ell, 0.0) + 9)
        assert cap_k0 > cap_ratio
        got = region_radius(mu, ell, n, 0.0, 1.0)
        assert got == pytest.approx(math.log(1.5) / 1.5 ** 1.5 * cap_k0)

    def test_scalar_value_oracle(self):
        # n = 5, kappa = 10, tau = 0, M = 1.
        n, mu, ell, m = 5, 1.0, 10.0, 1.0
        cap = max(mu / (2 * ell), 1.0 / (k0(n, mu, ell, 0.0) + 9))
        expected = math.log(1.5) / 1.5 ** 1.5 * cap / m
        assert region_radius(mu, ell, n, 0.0, m) == pytest.approx(expected)

    def test_condition_check(self):
        assert 1e9 <= region_radius(1.0, 10.0, 5, 0.0, 0.0)
        assert not 1e9 <= region_radius(1.0, 10.0, 5, 0.0, 1.0)


class TestSection6:
    def test_bfgs_starting_moments(self):
        env = env_section6(10, 1.0, 100.0, 1000, 1.0, "bfgs")
        assert env.start_prev == pytest.approx(1000.0)
        assert env.start_new == pytest.approx(40.0 * math.log(100.0))
        assert env.start_new == pytest.approx(184.2, rel=1e-3)

    def test_dfp_starting_moments(self):
        env = env_section6(10, 1.0, 100.0, 100_000, 1.0, "dfp")
        assert env.start_prev == pytest.approx(1e5)
        assert env.start_new == pytest.approx(4000.0 * math.log(100.0))
        assert round(env.start_new) == 18421

    def test_prev_formula_value(self):
        # (n kappa / k)^{k/2} * lambda0.
        env = env_section6(4, 1.0, 50.0, 10, 2.0, "bfgs")
        assert env.prev == pytest.approx((4 * 50.0 / 10) ** 5 * 2.0, rel=1e-12)

    def test_new_bound_gated_by_starting_moment(self):
        env_early = env_section6(10, 1.0, 100.0, 100, 1.0, "bfgs")
        assert math.isnan(env_early.new)
        k_late = int(4 * 10 * math.log(100.0)) + 1
        env_late = env_section6(10, 1.0, 100.0, k_late, 1.0, "bfgs")
        assert math.isfinite(env_late.new)
        expected = (4 * 10 * math.log(100.0) / k_late) ** (k_late / 2)
        assert env_late.new == pytest.approx(expected, rel=1e-10)
        assert env_late.new <= 1.0

    def test_method_validated(self):
        with pytest.raises(ValueError):
            env_section6(3, 1.0, 2.0, 1, 1.0, "sr1")

    def test_simplification_chain_holds_beyond_starting_moment(self):
        # e^{n/k ln kappa} - 1 <= (4n/3k) ln kappa and sqrt(kappa) <= 1.5^{k/2}
        # for every k at or beyond 4 n ln kappa.
        for n in range(1, 51):
            for kappa in (2.0, 10.0, 100.0, 10_000.0):
                start = 4.0 * n * math.log(kappa)
                k_lo = max(1, math.ceil(start))
                ks = np.unique(np.r_[
                    np.arange(k_lo, k_lo + 200),
                    np.geomspace(k_lo, 1_000_000, 40).astype(int),
                ])
                ks = ks[ks >= k_lo]
                t = n * math.log(kappa) / ks
                lhs = np.expm1(t)
                rhs = 4.0 * n / (3.0 * ks) * math.log(kappa)
                assert np.all(lhs <= rhs + 1e-15)
                # sqrt(kappa) <= 1.5^{k/2}, compared in log space so huge k
                # does not overflow the power.
                assert np.all(
                    0.5 * math.log(kappa) <= ks / 2.0 * math.log(1.5) + 1e-12
                )


class TestCrossover:
    def test_sign_change_at_crossover(self):
        n, mu, ell = 10, 1.0, 100.0
        k_star = first_superlinear_crossover(n, mu, ell, 0.0)
        assert k_star is not None
        log_rate = k_star * math.log(1.0 - mu / ell)
        sup_log = env_quad_superlinear_log(n, mu, ell, TauSchedule.bfgs(),
                                           k_star, 1.0)
        assert sup_log < log_rate
        prev_log = env_quad_superlinear_log(n, mu, ell, TauSchedule.bfgs(),
                                            k_star - 1, 1.0)
        assert prev_log >= (k_star - 1) * math.log(1.0 - mu / ell)

    def test_perfect_conditioning(self):
        assert first_superlinear_crossover(5, 2.0, 2.0, 0.0) == 1

    def test_dfp_crossover_larger_than_bfgs(self):
        bfgs = first_superlinear_crossover(10, 1.0, 100.0, 0.0)
        dfp = first_superlinear_crossover(10, 1.0, 100.0, 1.0)
        assert dfp > bfgs


@pytest.fixture(scope="module")
def quad_trace():
    q = quad_make(np.geomspace(1.0, 100.0, 8), seed=60)
    x0 = PrimalVector(np.random.default_rng(61).standard_normal(8))
    return run_quadratic(q, x0, TauSchedule.bfgs(),
                         SolverConfig(max_iter=300, grad_tol=1e-12))


class TestTraceReports:
    def test_quad_reports_satisfied(self, quad_trace):
        lin = report_quad_linear(quad_trace)
        sup = report_quad_superlinear(quad_trace)
        psi = report_quad_superlinear(quad_trace, psi_variant=True)
        for rep in (lin, sup, psi):
            assert rep.all_satisfied
            assert rep.first_violation is None
        assert lin.ks[0] == 0 and sup.ks[0] == 1

    def test_sharpened_report_tighter(self, quad_trace):
        plain = report_quad_superlinear(quad_trace)
        sharp = report_quad_superlinear(quad_trace, sharpened=True)
        assert sharp.all_satisfied
        assert np.all(sharp.bound <= plain.bound * (1 + 1e-12))

    def test_satisfied_rule(self):
        rep = EnvelopeReport(
            name="t", ks=np.array([0, 1, 2]),
            measured=np.array([1.0, 1.0, 1.0]),
            bound=np.array([1.0, 1.0 - 1e-6, 2.0]),
        )
        assert list(rep.satisfied) == [True, False, True]
        assert rep.first_violation == 1
        assert rep.min_slack == pytest.approx(-1e-6)

    def test_general_reports_reduce_on_quadratic(self, quad_trace):
        # With distortion pinned at 1, the measured-distortion envelopes
        # collapse to the fixed quadratic forms.
        q = quad_trace.problem
        x0 = PrimalVector(np.random.default_rng(61).standard_normal(8))
        tr = run_general(q, x0, TauSchedule.bfgs(),
                         SolverConfig(max_iter=300, grad_tol=1e-12))
        tracked_lin, uniform_lin = env_general_linear(tr)
        n, mu, ell = tr.problem.n, tr.problem.mu, tr.problem.ell
        for j, k in enumerate(tracked_lin.ks):
            assert tracked_lin.bound[j] == pytest.approx(
                env_quad_linear(mu, ell, int(k), tr.lambda0), rel=1e-12
            )
        assert uniform_lin.asserted  # zero self-concordance: region always holds
        tracked_sup, uniform_sup = env_general_superlinear(tr)
        for j, k in enumerate(tracked_sup.ks):
            expected = env_quad_superlinear(
                n, mu, ell, TauSchedule.bfgs(), int(k), tr.lambda0,
                psi_variant=True,
            )
            assert tracked_sup.bound[j] == pytest.approx(expected, rel=1e-10)
        assert tracked_sup.all_satisfied and uniform_sup.all_satisfied

    def test_general_reports_on_lse_inside_region(self):
        p = lse_make(5, 12, mu=0.1, seed=62, gamma=1.0)
        # Start close enough that the region condition certifiably holds.
        radius = region_radius(p.mu, p.ell, p.n, 0.0, p.sc_const)
        x_center = _approx_minimizer(p)
        d = np.random.default_rng(63).standard_normal(5)
        x0 = _scale_to_lambda(p, x_center, d, 0.4 * radius)
        tr = run_general(p, x0, TauSchedule.bfgs(),
                         SolverConfig(max_iter=300, grad_tol=1e-11))
        tracked_lin, uniform_lin = env_general_linear(tr)
        tracked_sup, uniform_sup = env_general_superlinear(tr)
        assert uniform_lin.asserted and uniform_sup.asserted
        for rep in (tracked_lin, uniform_lin, tracked_sup, uniform_sup):
            assert rep.all_satisfied


def _approx_minimizer(p):
    tr = run_general(p, PrimalVector(np.zeros(p.n)), TauSchedule.bfgs(),
                     SolverConfig(max_iter=400, grad_tol=1e-13))
    return tr.x_final


def _scale_to_lambda(p, center, direction, lam_target):
    """Bisect the step scale so the local gradient norm hits the target."""
    from broyden_lab import norm_dual

    def lam_at(t):
        x = PrimalVector(center.coords + t * direction)
        return norm_dual(p.hess(x), p.grad(x))

    hi = 1.0
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
# Reference implementation: the per-k loop formulas that the vectorised
# log-space kernel replaced, kept here as an independent oracle.


def _ref_ln_expm1(t):
    if t > 36.8:
        return t + math.log1p(-math.exp(-t))
    return math.log(math.expm1(t))


def _ref_exp(t):
    return 0.0 if t == -math.inf else math.exp(min(t, 709.5))


def _ref_quad_linear(trace, mu, ell):
    return np.array([(1.0 - mu / ell) ** k * trace.lambda0
                     for k in range(len(trace))])


def _ref_quad_superlinear(trace, mu, ell, scale, log_factor=None):
    n, lam0 = trace.problem.n, trace.lambda0
    kappa_log = math.log(ell / mu)
    factor = n * kappa_log if log_factor is None else log_factor
    out = []
    for k in range(1, len(trace)):
        t = scale * factor / k
        if lam0 <= 0.0 or t == 0.0:
            out.append(0.0)
            continue
        taus = [trace.schedule.tau_at(i) for i in range(k)]
        mean_log_p = sum(math.log(ti * mu / ell + 1.0 - ti) for ti in taus) / k
        ln_bracket = math.log(2.0) - mean_log_p + _ref_ln_expm1(t)
        out.append(_ref_exp(0.5 * k * ln_bracket + 0.5 * kappa_log
                            + math.log(lam0)))
    return np.array(out)


def _ref_general_linear_xi(trace, mu, ell):
    lam0, xis = trace.lambda0, trace.xis
    out = [math.sqrt(xis[0]) * lam0]
    log_prod = 0.0
    for i in range(len(trace) - 1):
        q_i = max(1.0 - mu / (xis[i + 1] * ell), xis[i + 1] - 1.0)
        log_prod = log_prod + math.log(q_i) if q_i > 0.0 else -math.inf
        if lam0 == 0.0 or log_prod == -math.inf:
            out.append(0.0)
        else:
            out.append(_ref_exp(0.5 * math.log(xis[i + 1]) + math.log(lam0)
                                + log_prod))
    return np.array(out)


def _ref_general_superlinear(trace, mu, ell):
    n, lam0, xis, kk = trace.problem.n, trace.lambda0, trace.xis, len(trace)
    kappa_log = math.log(ell / mu)
    psi = 13.0 / 6.0
    bound_xi, bound_fixed = [], []
    sum_log_p = sum_log_p_fixed = 0.0
    for k in range(1, kk):
        tau = trace.schedule.tau_at(k - 1)
        p_term = tau * mu / (xis[k] ** 2 * ell) + 1.0 - tau
        sum_log_p += math.log(p_term) if p_term > 0.0 else -math.inf
        sum_log_p_fixed += math.log(tau * 4.0 * mu / (9.0 * ell) + 1.0 - tau)
        xi_ahead = xis[k + 1] if k + 1 < kk else xis[kk - 1]
        t = psi * n / k * (xi_ahead * math.log(xi_ahead) + kappa_log)
        if t == 0.0 or lam0 == 0.0:
            bound_xi.append(0.0)
        else:
            ln_bracket = math.log1p(xis[k]) - sum_log_p / k + _ref_ln_expm1(t)
            bound_xi.append(_ref_exp(0.5 * k * ln_bracket
                                     + 0.5 * (math.log(xis[k]) + kappa_log)
                                     + math.log(lam0)))
        t_fixed = psi * n / k * math.log(2.0 * ell / mu)
        if lam0 == 0.0:
            bound_fixed.append(0.0)
        else:
            ln_bracket = (math.log(2.5) - sum_log_p_fixed / k
                          + _ref_ln_expm1(t_fixed))
            bound_fixed.append(_ref_exp(0.5 * k * ln_bracket
                                        + 0.5 * math.log(1.5 * ell / mu)
                                        + math.log(lam0)))
    return np.array(bound_xi), np.array(bound_fixed)


def _ref_crossover(n, mu, ell, sup_tau):
    if mu == ell:
        return 1
    log_p = math.log(sup_tau * mu / ell + 1.0 - sup_tau)
    log_rate = math.log(1.0 - mu / ell)
    kappa_log = math.log(ell / mu)

    def gap(k):
        t = n * kappa_log / k
        ln_sup = (0.5 * k * (math.log(2.0) - log_p + _ref_ln_expm1(t))
                  + 0.5 * kappa_log)
        return ln_sup - k * log_rate

    hi = 1
    while gap(hi) >= 0.0:
        hi *= 2
        if hi > 1 << 40:
            return None
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gap(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _assert_matches(report, ref_bound):
    np.testing.assert_allclose(report.bound, ref_bound, rtol=1e-12, atol=0.0)
    ref_ok = (report.measured
              <= ref_bound * (1.0 + SATISFIED_RTOL) + SATISFIED_ATOL)
    assert np.array_equal(report.satisfied, ref_ok)


_SCHEDULES = {
    "bfgs": TauSchedule.bfgs(),
    "dfp": TauSchedule.dfp(),
    "tau0.5": TauSchedule((0.5,)),
    "sequence": TauSchedule([0.0, 1.0, 0.5, 0.25]),
}


@pytest.fixture(scope="module")
def quad_traces():
    q = quad_make(np.geomspace(1.0, 100.0, 8), seed=70)
    x0 = PrimalVector(np.random.default_rng(71).standard_normal(8))
    return {name: run_quadratic(q, x0, sched,
                                SolverConfig(max_iter=400, grad_tol=1e-12))
            for name, sched in _SCHEDULES.items()}


@pytest.fixture(scope="module")
def lse_traces():
    p = lse_make(5, 12, mu=0.1, seed=3, gamma=1.0)
    x0 = PrimalVector(0.5 * np.random.default_rng(72).standard_normal(5))
    return {name: run_general(p, x0, sched,
                              SolverConfig(max_iter=300, grad_tol=1e-11))
            for name, sched in _SCHEDULES.items()}


def _check_quad(trace, overrides=None):
    mu = (overrides or {}).get("mu", trace.problem.mu)
    ell = (overrides or {}).get("ell", trace.problem.ell)
    _assert_matches(report_quad_linear(trace, overrides),
                    _ref_quad_linear(trace, mu, ell))
    _assert_matches(report_quad_superlinear(trace, overrides=overrides),
                    _ref_quad_superlinear(trace, mu, ell, 1.0))
    _assert_matches(report_quad_superlinear(trace, psi_variant=True,
                                            overrides=overrides),
                    _ref_quad_superlinear(trace, mu, ell, 13.0 / 6.0))


def _check_general(trace, overrides=None):
    mu = (overrides or {}).get("mu", trace.problem.mu)
    ell = (overrides or {}).get("ell", trace.problem.ell)
    tracked_lin, _ = env_general_linear(trace, overrides)
    tracked_sup, uniform_sup = env_general_superlinear(trace, overrides)
    _assert_matches(tracked_lin, _ref_general_linear_xi(trace, mu, ell))
    ref_xi, ref_fixed = _ref_general_superlinear(trace, mu, ell)
    _assert_matches(tracked_sup, ref_xi)
    _assert_matches(uniform_sup, ref_fixed)


class TestKernelMatchesReference:
    """Kernel-backed reports against the per-k loop formulas."""

    @pytest.mark.parametrize("schedule", sorted(_SCHEDULES))
    def test_quadratic_reports(self, quad_traces, schedule):
        trace = quad_traces[schedule]
        _check_quad(trace)
        factor = env_quad_sharpened_factor(trace.problem)
        _assert_matches(report_quad_superlinear(trace, sharpened=True),
                        _ref_quad_superlinear(trace, trace.problem.mu,
                                              trace.problem.ell, 1.0, factor))

    @pytest.mark.parametrize("schedule", sorted(_SCHEDULES))
    def test_general_reports(self, lse_traces, schedule):
        _check_general(lse_traces[schedule])

    def test_zero_initial_residual(self, quad_traces, lse_traces):
        for trace in (quad_traces["dfp"], lse_traces["tau0.5"]):
            zero = dataclasses.replace(
                trace, lambdas=np.r_[0.0, trace.lambdas[1:]])
            if not isinstance(zero.problem, QuadraticProblem):
                _check_general(zero)
                assert not env_general_superlinear(zero)[1].bound.any()
            else:
                _check_quad(zero)
                assert not report_quad_superlinear(zero).bound.any()

    def test_perfect_conditioning_is_zero_bound(self, quad_traces,
                                                lse_traces):
        trace = quad_traces["sequence"]
        flat = {"mu": trace.problem.ell}
        _check_quad(trace, flat)
        assert not report_quad_superlinear(trace, overrides=flat).bound.any()
        lse = lse_traces["bfgs"]
        _check_general(lse, {"mu": lse.problem.ell})

    def test_saturated_distortion_clamps(self, lse_traces):
        # With xi = +inf the DFP weight tau * mu / (xi^2 ell) vanishes, so
        # the p-term 0 + 1 - 1 is not positive and the tracked bound clamps
        # to the largest representable value instead of overflowing.
        trace = lse_traces["dfp"]
        xis = trace.xis.copy()
        xis[len(xis) // 2:] = np.inf
        saturated = dataclasses.replace(trace, xis=xis)
        _check_general(saturated)
        tracked_sup, _ = env_general_superlinear(saturated)
        late = tracked_sup.bound[len(xis) // 2:]
        assert np.all(late == math.exp(709.5))
        # A zero initial residual still zeroes the saturated bound.
        zero = dataclasses.replace(
            saturated, lambdas=np.r_[0.0, trace.lambdas[1:]])
        _check_general(zero)
        assert not env_general_superlinear(zero)[0].bound.any()

    def test_overflowing_distortion_square_is_silent(self):
        # From a start of radius 5 the distortion reaches 9e170 at k = 2, so
        # xi^2 overflows on the way to the intended zero DFP weight; that
        # used to print a RuntimeWarning on a passing run.
        p = lse_make(4, 1, mu=0.5, seed=2)
        rng = np.random.default_rng(0)
        d = rng.standard_normal(4)
        x0 = PrimalVector(d * (5.0 * rng.uniform() ** 0.25 / np.linalg.norm(d)))
        trace = run_general(p, x0, TauSchedule.bfgs(), SolverConfig())
        assert trace.xis[-1] > 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = trace_reports(trace, ["general_linear",
                                            "general_superlinear"])
        assert all(rep.all_satisfied for rep in reports)
        with np.errstate(over="ignore"):  # the reference squares xi too
            _check_general(trace)

    def test_synthetic_distortion(self, lse_traces):
        # A steadily growing distortion makes every xi_k, xi_{k+1} and
        # tau_{k-1} entry visible in the tracked bounds.
        trace = lse_traces["sequence"]
        rng = np.random.default_rng(73)
        growth = 1.0 + 0.05 * rng.uniform(size=len(trace) - 1)
        xis = np.cumprod(np.r_[1.0, growth])
        _check_general(dataclasses.replace(trace, xis=xis))

    def test_crossover_grid(self):
        for n in (1, 5, 30, 200):
            for kappa in (1.0, 1.5, 100.0, 1e4, 1e12):
                for tau in (0.0, 0.25, 0.5, 1.0):
                    assert first_superlinear_crossover(n, 1.0, kappa, tau) \
                        == _ref_crossover(n, 1.0, kappa, tau)
