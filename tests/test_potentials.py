"""Potentials and per-update progress inequalities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broyden_lab import (
    DimensionMismatch,
    PrimalVector,
    SpdOperator,
    augmented_barrier,
    broyd,
    logdet_barrier,
    metric_change_lb,
    nu,
    progress_lb_psi,
    progress_lb_v,
    rel_eigen_range,
    scalar_gap,
)
from broyden_lab.potentials import SCALAR_GAP_CONST, SCALAR_GAP_MIDDLE_CONST

from conftest import spd_from_spectrum
from helpers import random_spd, random_spd_dominating

TAUS = (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.mark.parametrize("barrier", [logdet_barrier, augmented_barrier])
def test_barrier_dimension_mismatch(rng, barrier):
    # The barriers follow the one dimension rule of the typed functions.
    with pytest.raises(DimensionMismatch, match="dimension mismatch"):
        barrier(random_spd(rng, 3), random_spd(rng, 4))


class TestLogdetBarrier:
    def test_zero_at_target(self, rng):
        a = random_spd(rng, 4)
        assert logdet_barrier(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_reference_scaling(self):
        # A = mu*B and G = ell*B give n * ln(ell/mu).
        n, mu, ell = 4, 0.3, 7.0
        b = spd_from_spectrum([1.0, 2.0, 0.5, 1.5], seed=11)
        assert logdet_barrier(b.scaled(mu), b.scaled(ell)) == pytest.approx(
            n * math.log(ell / mu), rel=1e-12
        )

    def test_scalar_multiple(self, rng):
        a = random_spd(rng, 3)
        assert logdet_barrier(a, a.scaled(2.0)) == pytest.approx(
            3.0 * math.log(2.0), rel=1e-12
        )

    def test_no_sign_without_ordering(self, rng):
        # Unbounded below when the ordering fails; just check it goes
        # negative without complaint.
        a = random_spd(rng, 3)
        assert logdet_barrier(a, a.scaled(0.1)) < 0.0

    def test_nonnegative_when_dominating(self, rng):
        # A below G in the semidefinite order gives ln Det(A^{-1}G) >= 0.
        for n in (1, 4, 8):
            a = random_spd(rng, n)
            assert logdet_barrier(a, random_spd_dominating(rng, a)) >= -1e-9


class TestAugmentedBarrier:
    def test_zero_at_center(self, rng):
        a = random_spd(rng, 5)
        assert augmented_barrier(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_multiple_analytic(self, rng):
        # G = 2A, n = 2: 2 ln 2 - 1.
        a = random_spd(rng, 2)
        assert augmented_barrier(a.scaled(2.0), a) == pytest.approx(
            2.0 * math.log(2.0) - 1.0, rel=1e-12
        )

    def test_bounded_by_condition_spread(self, rng):
        # psi(ell*B, A) <= n ln(ell/mu) whenever mu*B <= A <= ell*B.
        n, mu, ell = 5, 0.5, 20.0
        for seed in range(10):
            b = random_spd(rng, n)
            inner = spd_from_spectrum(
                np.random.default_rng(seed).uniform(mu, ell, n), seed=seed
            )
            # A = B^{1/2} D B^{1/2} keeps mu*B <= A <= ell*B.
            w = np.linalg.cholesky(b.entries)
            a = SpdOperator(w @ inner.entries @ w.T)
            psi = augmented_barrier(b.scaled(ell), a)
            assert psi <= n * math.log(ell / mu) + 1e-9

    def test_bregman_nonnegativity(self, rng):
        for _ in range(10_000):
            n = int(rng.integers(1, 13))
            g = random_spd(rng, n)
            a = random_spd(rng, n)
            assert augmented_barrier(g, a) >= -1e-9


class TestProgressBounds:
    def test_lb_v_trivial_values(self):
        assert progress_lb_v(2.0, 0.5, 0.0) == 0.0
        assert progress_lb_v(5.0, 0.0, 1.0) == pytest.approx(math.log(2.0))
        assert progress_lb_v(4.0, 1.0, 2.0) == pytest.approx(math.log(2.0))

    def test_lb_v_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            progress_lb_v(0.5, 0.0, 1.0)

    def test_lb_psi_trivial_values(self):
        assert progress_lb_psi(1.0, 1.0, 0.3, 0.0) == 0.0
        assert progress_lb_psi(1.0, 1.0, 0.0, 1.0) == pytest.approx(
            SCALAR_GAP_CONST * math.log(2.0)
        )
        assert progress_lb_psi(2.0, 2.0, 1.0, 2.0) == pytest.approx(
            SCALAR_GAP_CONST * math.log(2.0)
        )

    def test_lb_psi_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            progress_lb_psi(0.9, 1.0, 0.0, 1.0)

    def test_logdet_decrease_dominates_bound(self, rng):
        # System test under A <= G <= eta*A.
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = random_spd(rng, n)
            g = random_spd_dominating(rng, a)
            u = PrimalVector(rng.standard_normal(n))
            eta = max(1.0, rel_eigen_range(g, a).max_rel)
            nu_val = nu(a, g, u)
            v0 = logdet_barrier(a, g)
            for tau in np.linspace(0.0, 1.0, 11):
                g_plus = broyd(a, g, u, float(tau)).g_plus
                decrease = v0 - logdet_barrier(a, g_plus)
                assert decrease >= progress_lb_v(eta, float(tau), nu_val) - 1e-9

    def test_augmented_decrease_dominates_bound(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a, g = random_spd(rng, n), random_spd(rng, n)
            u = PrimalVector(rng.standard_normal(n))
            rng_ga = rel_eigen_range(g, a)
            xi = max(1.0, 1.0 / rng_ga.min_rel)
            eta = max(1.0, rng_ga.max_rel)
            nu_val = nu(a, g, u)
            psi0 = augmented_barrier(g, a)
            for tau in np.linspace(0.0, 1.0, 11):
                g_plus = broyd(a, g, u, float(tau)).g_plus
                decrease = psi0 - augmented_barrier(g_plus, a)
                bound = progress_lb_psi(xi, eta, float(tau), nu_val)
                assert decrease >= bound - 1e-9


class TestScalarGap:
    def test_equality_point(self):
        lhs, rhs = scalar_gap(1.0, 1.0)
        assert lhs == pytest.approx(0.0, abs=1e-15)
        assert rhs == pytest.approx(0.0, abs=1e-15)

    def test_simple_values(self):
        lhs, rhs = scalar_gap(2.0, 1.0)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(SCALAR_GAP_CONST * math.log(2.0))
        assert lhs >= rhs

    def test_diagonal_point(self):
        lhs, rhs = scalar_gap(4.0, 4.0)
        assert lhs == pytest.approx(3.0 - math.log(4.0))
        assert rhs == pytest.approx(SCALAR_GAP_CONST * math.log(3.25))
        assert lhs >= rhs

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            scalar_gap(0.5, 1.0)
        with pytest.raises(ValueError):
            scalar_gap(1.0, 0.0)

    def test_grid_with_both_constants(self):
        betas = np.logspace(-6, 6, 50)
        mults = np.logspace(0, 6, 50)
        for beta in betas:
            for m in mults:
                alpha = float(beta * m)
                lhs, rhs = scalar_gap(alpha, float(beta))
                arg = alpha + 1.0 / beta - 1.0
                assert arg >= 1.0 - 1e-12
                middle = SCALAR_GAP_MIDDLE_CONST * math.log(arg)
                assert lhs >= middle - 1e-12
                assert middle >= rhs - 1e-12

    @given(st.floats(1e-6, 1e6), st.floats(1.0, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_dominance_property(self, beta, mult):
        alpha = beta * mult
        lhs, rhs = scalar_gap(alpha, beta)
        assert lhs >= rhs - 1e-12


class TestMetricChange:
    def test_zero_at_target(self, rng):
        a = random_spd(rng, 4)
        u = PrimalVector(rng.standard_normal(4))
        nu_sq, rhs = metric_change_lb(a, a, u, 0.5)
        assert nu_sq == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_scalar_multiple(self, rng):
        a = random_spd(rng, 3)
        u = PrimalVector(rng.standard_normal(3))
        nu_sq, rhs = metric_change_lb(a, a.scaled(2.0), u, 0.0)
        assert nu_sq == pytest.approx(0.5, rel=1e-10)
        assert nu_sq >= rhs - 1e-10

    def test_random_instances(self, rng):
        for _ in range(300):
            n = 6
            a, g = random_spd(rng, n), random_spd(rng, n)
            u = PrimalVector(rng.standard_normal(n))
            for tau in (0.0, 0.5, 1.0):
                nu_sq, rhs = metric_change_lb(a, g, u, tau)
                assert nu_sq >= rhs - 1e-10

