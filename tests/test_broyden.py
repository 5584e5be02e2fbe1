"""Update family: primal/inverse formulas, determinant ratio, closeness."""

import math

import numpy as np
import pytest

from broyden_lab import (
    DualVector,
    PrimalVector,
    Role,
    SpdOperator,
    ZeroDirectionError,
    broyd,
    broyd_det_ratio,
    broyd_inverse,
    norm_dual,
    norm_primal,
    nu,
    phi_tau,
    rel_det,
    rel_eigen_range,
)

from helpers import random_spd, random_spd_dominating, straddle_normalize

TAUS = (0.0, 0.25, 0.5, 0.75, 1.0)


def diag_op(values):
    return SpdOperator(np.diag(np.asarray(values, dtype=float)))


class TestPhiTau:
    def test_endpoints(self, rng):
        a = random_spd(rng, 4)
        g = random_spd(rng, 4)
        u = PrimalVector(rng.standard_normal(4))
        assert phi_tau(a, g, u, 1.0) == pytest.approx(1.0)
        assert phi_tau(a, g, u, 0.0) == pytest.approx(0.0)

    def test_exact_approximation_returns_tau(self, rng):
        a = random_spd(rng, 3)
        u = PrimalVector(rng.standard_normal(3))
        for tau in TAUS:
            assert phi_tau(a, a, u, tau) == pytest.approx(tau, abs=1e-12)

    def test_range(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            a, g = random_spd(rng, n), random_spd(rng, n)
            u = PrimalVector(rng.standard_normal(n))
            tau = float(rng.uniform())
            assert 0.0 <= phi_tau(a, g, u, tau) <= 1.0

    def test_zero_direction_rejected(self, rng):
        a = random_spd(rng, 2)
        with pytest.raises(ZeroDirectionError):
            phi_tau(a, a, PrimalVector([0.0, 0.0]), 0.5)

    def test_tau_outside_class_rejected(self, rng):
        a = random_spd(rng, 2)
        u = PrimalVector([1.0, 0.0])
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                phi_tau(a, a, u, bad)


class TestBroyd:
    def test_fixed_point_at_target(self, rng):
        a = random_spd(rng, 5)
        u = PrimalVector(rng.standard_normal(5))
        for tau in TAUS:
            res = broyd(a, a, u, tau)
            np.testing.assert_allclose(res.g_plus.entries, a.entries,
                                       rtol=0, atol=1e-12)

    def test_zero_direction_keeps_approximation(self, rng):
        a, g = random_spd(rng, 3), random_spd(rng, 3)
        res = broyd(a, g, PrimalVector([0.0, 0.0, 0.0]), 0.5)
        np.testing.assert_array_equal(res.g_plus.entries, g.entries)
        assert res.det_ratio == 1.0

    def test_bfgs_rank_two_oracle(self):
        # Hand-checkable 2x2 case against the direct rank-two arithmetic:
        # G+ = G - Gu u*G / <Gu,u> + Au u*A / <Au,u>.
        a = diag_op([1.0, 2.0])
        g = diag_op([3.0, 3.0])
        u = PrimalVector([1.0, 1.0])
        au = a.entries @ u.coords
        gu = g.entries @ u.coords
        expected = (g.entries
                    - np.outer(gu, gu) / (gu @ u.coords)
                    + np.outer(au, au) / (au @ u.coords))
        res = broyd(a, g, u, 0.0)
        np.testing.assert_allclose(res.g_plus.entries, expected, rtol=1e-14)
        np.testing.assert_allclose(
            res.g_plus.entries,
            [[11.0 / 6.0, -5.0 / 6.0], [-5.0 / 6.0, 17.0 / 6.0]],
            rtol=1e-14,
        )

    def test_dfp_rank_two_oracle(self):
        # tau = 1: G+ = G - (Au u*G + Gu u*A)/<Au,u>
        #              + (1 + <Gu,u>/<Au,u>) Au u*A / <Au,u>.
        a = diag_op([1.0, 2.0])
        g = diag_op([3.0, 3.0])
        u = PrimalVector([1.0, 1.0])
        au = a.entries @ u.coords
        gu = g.entries @ u.coords
        au_u = au @ u.coords
        expected = (g.entries
                    - (np.outer(au, gu) + np.outer(gu, au)) / au_u
                    + (1.0 + (gu @ u.coords) / au_u) * np.outer(au, au) / au_u)
        res = broyd(a, g, u, 1.0)
        np.testing.assert_allclose(res.g_plus.entries, expected, rtol=1e-14)

    def test_secant_property(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 9))
            a, g = random_spd(rng, n), random_spd(rng, n)
            u = PrimalVector(rng.standard_normal(n))
            au = a.entries @ u.coords
            for tau in np.linspace(0.0, 1.0, 11):
                g_plus = broyd(a, g, u, float(tau)).g_plus
                np.testing.assert_allclose(
                    g_plus.entries @ u.coords, au,
                    rtol=1e-10, atol=1e-10 * np.linalg.norm(au),
                )

    def test_inverse_identity(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 9))
            a, g = random_spd(rng, n), random_spd(rng, n)
            u = PrimalVector(rng.standard_normal(n))
            for tau in TAUS:
                res = broyd(a, g, u, tau)
                resid = np.linalg.norm(
                    res.g_plus.entries @ res.g_plus_inv.entries - np.eye(n), 2
                )
                assert resid <= 1e-10

    def test_eigen_bound_preservation(self, rng):
        # The preserved bracket is the input range widened to include 1:
        # the secant direction carries relative eigenvalue exactly 1 after
        # any update.
        for _ in range(30):
            n = int(rng.integers(2, 8))
            a, g = random_spd(rng, n), random_spd(rng, n)
            u = PrimalVector(rng.standard_normal(n))
            before = rel_eigen_range(g, a)
            lo, hi = min(1.0, before.min_rel), max(1.0, before.max_rel)
            for tau in TAUS:
                after = rel_eigen_range(broyd(a, g, u, tau).g_plus, a)
                assert after.min_rel >= lo - 1e-9
                assert after.max_rel <= hi + 1e-9

    def test_eigen_range_containment_for_straddling_pairs(self, rng):
        # When the input range already straddles 1, the literal containment
        # holds with no widening.
        for _ in range(30):
            n = int(rng.integers(2, 8))
            a = random_spd(rng, n)
            g = straddle_normalize(random_spd(rng, n), a)
            u = PrimalVector(rng.standard_normal(n))
            before = rel_eigen_range(g, a)
            for tau in TAUS:
                after = rel_eigen_range(broyd(a, g, u, tau).g_plus, a)
                assert after.min_rel >= before.min_rel - 1e-9
                assert after.max_rel <= before.max_rel + 1e-9

    def test_secant_direction_carries_unit_eigenvalue(self, rng):
        a, g = random_spd(rng, 5), random_spd(rng, 5)
        u = PrimalVector(rng.standard_normal(5))
        g_plus = broyd(a, g, u, 0.5).g_plus
        rng_after = rel_eigen_range(g_plus, a)
        assert rng_after.min_rel <= 1.0 + 1e-9
        assert rng_after.max_rel >= 1.0 - 1e-9

    def test_interpolation_endpoints_match_pure_updates(self, rng):
        a, g = random_spd(rng, 5), random_spd(rng, 5)
        u = PrimalVector(rng.standard_normal(5))
        au = a.entries @ u.coords
        gu = g.entries @ u.coords
        au_u = au @ u.coords
        gu_u = gu @ u.coords
        bfgs = g.entries - np.outer(gu, gu) / gu_u + np.outer(au, au) / au_u
        dfp = (g.entries - (np.outer(au, gu) + np.outer(gu, au)) / au_u
               + (gu_u / au_u + 1.0) * np.outer(au, au) / au_u)
        np.testing.assert_allclose(broyd(a, g, u, 0.0).g_plus.entries, bfgs,
                                   rtol=1e-13)
        np.testing.assert_allclose(broyd(a, g, u, 1.0).g_plus.entries, dfp,
                                   rtol=1e-13)

    def test_affine_invariance(self, rng):
        # Conjugating the data by any invertible map commutes with the update.
        n = 5
        a, g = random_spd(rng, n), random_spd(rng, n)
        u = PrimalVector(rng.standard_normal(n))
        t = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        a_t = SpdOperator(_sym(t.T @ a.entries @ t))
        g_t = SpdOperator(_sym(t.T @ g.entries @ t))
        u_t = PrimalVector(np.linalg.solve(t, u.coords))
        for tau in TAUS:
            direct = broyd(a, g, u, tau).g_plus.entries
            conjugated = broyd(a_t, g_t, u_t, tau).g_plus.entries
            mapped_back = np.linalg.solve(t.T, conjugated) @ np.linalg.inv(t)
            np.testing.assert_allclose(
                mapped_back, direct,
                rtol=1e-8, atol=1e-8 * np.linalg.norm(direct, 2),
            )


def _sym(m):
    return 0.5 * (m + m.T)


class TestBroydInverse:
    def test_fixed_point(self, rng):
        a = random_spd(rng, 4)
        u = PrimalVector(rng.standard_normal(4))
        h = broyd_inverse(a, a, u, 0.5)
        np.testing.assert_allclose(h.entries, a.inverse().entries,
                                   rtol=1e-10, atol=1e-12)
        assert h.role is Role.DUAL_TO_PRIMAL

    def test_secant_inverse_property(self, rng):
        # The inverse update maps the target's action on u back to u.
        n = 6
        a, g = random_spd(rng, n), random_spd(rng, n)
        u = PrimalVector(rng.standard_normal(n))
        au = a.entries @ u.coords
        for tau in (0.0, 0.5, 1.0):
            h = broyd_inverse(a, g, u, tau)
            np.testing.assert_allclose(h.entries @ au, u.coords, rtol=1e-10,
                                       atol=1e-10 * np.linalg.norm(u.coords))

    def test_matches_dense_inverse(self):
        a = diag_op([1.0, 2.0])
        g = diag_op([3.0, 3.0])
        u = PrimalVector([1.0, 1.0])
        h = broyd_inverse(a, g, u, 1.0)
        dense = np.linalg.inv(broyd(a, g, u, 1.0).g_plus.entries)
        np.testing.assert_allclose(h.entries, dense, rtol=1e-12)

    def test_zero_direction_rejected(self, rng):
        a = random_spd(rng, 2)
        with pytest.raises(ZeroDirectionError):
            broyd_inverse(a, a, PrimalVector([0.0, 0.0]), 0.0)


class TestDetRatio:
    def test_fixed_point_is_one(self, rng):
        a = random_spd(rng, 3)
        u = PrimalVector(rng.standard_normal(3))
        for tau in TAUS:
            assert broyd_det_ratio(a, a, u, tau) == pytest.approx(1.0)

    def test_scaled_identity_bfgs(self):
        eye = SpdOperator(np.eye(3))
        two = eye.scaled(2.0)
        u = PrimalVector([1.0, -2.0, 0.5])
        assert broyd_det_ratio(eye, two, u, 0.0) == pytest.approx(2.0)

    def test_matches_factorized_determinant(self, rng):
        for _ in range(25):
            n = 5
            a, g = random_spd(rng, n), random_spd(rng, n)
            u = PrimalVector(rng.standard_normal(n))
            for tau in TAUS:
                res = broyd(a, g, u, tau)
                reference = rel_det(res.g_plus_inv, g)
                assert res.det_ratio == pytest.approx(reference, rel=1e-9)
                assert broyd_det_ratio(a, g, u, tau) == pytest.approx(
                    reference, rel=1e-9
                )


class TestNu:
    def test_zero_at_target(self, rng):
        a = random_spd(rng, 4)
        u = PrimalVector(rng.standard_normal(4))
        assert nu(a, a, u) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_multiple(self, rng):
        # G = 2A gives (G - A)G^{-1}(G - A) = A/2, hence nu = 1/sqrt(2).
        a = random_spd(rng, 5)
        u = PrimalVector(rng.standard_normal(5))
        assert nu(a, a.scaled(2.0), u) == pytest.approx(1.0 / math.sqrt(2.0),
                                                        rel=1e-12)

    def test_two_forms_agree(self, rng):
        # Quadratic-form value against the norm ratio built from the
        # operator-core norms.
        for _ in range(30):
            n = 4
            a, g = random_spd(rng, n), random_spd(rng, n)
            u = PrimalVector(rng.standard_normal(n))
            w = DualVector((g.entries - a.entries) @ u.coords)
            norm_form = norm_dual(g, w) / norm_primal(a, u)
            assert nu(a, g, u) == pytest.approx(norm_form, rel=1e-10)

    def test_zero_direction_rejected(self, rng):
        a = random_spd(rng, 2)
        with pytest.raises(ZeroDirectionError):
            nu(a, a, PrimalVector([0.0, 0.0]))


def test_dominating_generator_dominates(rng):
    for _ in range(20):
        a = random_spd(rng, 6)
        g = random_spd_dominating(rng, a)
        assert rel_eigen_range(g, a).min_rel >= 1.0 - 1e-9
