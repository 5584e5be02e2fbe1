"""Operator calculus: pairings, relative traces/determinants, norms, ordering."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import broyden_lab.operators as operators_mod

from broyden_lab import (
    DimensionMismatch,
    DualVector,
    EigenRange,
    NotSpdError,
    PrimalVector,
    Role,
    SpdOperator,
    loewner_slack,
    norm_dual,
    norm_primal,
    pair,
    rel_det,
    rel_eigen_range,
    rel_trace,
    spd_solve,
)
from broyden_lab.operators import (
    PIVOT_RTOL,
    SPD_FAULTS,
    SYMMETRY_RTOL,
    check_array,
    check_number,
    chol_factor_solve,
    chol_solve,
    spd_factor,
)

from conftest import spd_from_spectrum
from helpers import random_spd


def diag_op(values, role=Role.PRIMAL_TO_DUAL):
    return SpdOperator(np.diag(np.asarray(values, dtype=float)), role)


class TestConstruction:
    def test_rejects_asymmetric(self):
        with pytest.raises(NotSpdError, match="symmetric"):
            SpdOperator(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotSpdError):
            SpdOperator(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_rejects_singular(self):
        with pytest.raises(NotSpdError):
            SpdOperator(np.zeros((2, 2)))

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            SpdOperator(np.zeros((0, 0)))

    def test_scalar_dimension_supported(self):
        op = SpdOperator(np.array([[4.0]]))
        assert op.dim == 1
        assert op.logdet == pytest.approx(math.log(4.0))

    def test_entries_read_only(self):
        op = SpdOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    def test_vector_requires_finite(self):
        with pytest.raises(ValueError):
            PrimalVector(np.array([1.0, np.inf]))


class TestPair:
    def test_orthogonal_coordinates(self):
        assert pair(DualVector([1.0, 0.0]), PrimalVector([0.0, 1.0])) == 0.0

    def test_direct_sum(self):
        assert pair(DualVector([2.0, 3.0]), PrimalVector([1.0, 1.0])) == 5.0

    def test_identity_case(self):
        assert pair(DualVector([1.0, 0.0]), PrimalVector([1.0, 0.0])) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pair(DualVector([1.0]), PrimalVector([1.0, 2.0]))

    def test_category_error_rejected(self):
        with pytest.raises(TypeError):
            pair(PrimalVector([1.0]), PrimalVector([1.0]))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
           st.floats(-100.0, 100.0))
    def test_scaling_linearity(self, coords, c):
        s = DualVector(np.asarray(coords))
        x = PrimalVector(np.ones(len(coords)))
        assert pair(c * s, x) == pytest.approx(c * pair(s, x), rel=1e-12, abs=1e-6)


class TestRelTrace:
    def test_inverse_gives_dimension(self, rng):
        for n in (1, 3, 7):
            a = random_spd(rng, n)
            assert rel_trace(a.inverse(), a) == pytest.approx(n, rel=1e-10)

    def test_diagonal(self):
        h = SpdOperator(np.eye(3), Role.DUAL_TO_PRIMAL)
        assert rel_trace(h, diag_op([1.0, 2.0, 3.0])) == pytest.approx(6.0)

    def test_matches_generalized_eigenvalues(self, rng):
        # Tr(HA) is the sum of the eigenvalues of A relative to H^{-1}.
        h = random_spd(rng, 4).inverse()
        a = random_spd(rng, 4)
        eigs = np.linalg.eigvals(h.entries @ a.entries)
        assert rel_trace(h, a) == pytest.approx(float(np.sum(eigs.real)), rel=1e-10)

    def test_role_enforced(self, rng):
        a = random_spd(rng, 3)
        with pytest.raises(TypeError):
            rel_trace(a, a)

    def test_inverse_identities_through_dim_sixteen(self, rng):
        for n in range(1, 17):
            a = random_spd(rng, n)
            inv = a.inverse()
            assert rel_trace(inv, a) == pytest.approx(n, rel=1e-10)
            assert rel_det(inv, a) == pytest.approx(1.0, rel=1e-10)


class TestRelDet:
    def test_scaled_inverse(self, rng):
        for n, delta in ((2, 0.5), (5, 3.0)):
            a = random_spd(rng, n)
            scaled = a.scaled(delta)
            assert rel_det(a.inverse(), scaled) == pytest.approx(
                delta ** n, rel=1e-10
            )

    def test_diagonal(self):
        h = SpdOperator(np.eye(2), Role.DUAL_TO_PRIMAL)
        assert rel_det(h, diag_op([2.0, 2.0])) == pytest.approx(4.0)

    def test_matches_eigenvalue_product(self, rng):
        h = random_spd(rng, 5).inverse()
        a = random_spd(rng, 5)
        eigs = np.linalg.eigvals(h.entries @ a.entries)
        assert rel_det(h, a) == pytest.approx(float(np.prod(eigs.real)), rel=1e-9)

    def test_multiplicative_identity(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            h = random_spd(rng, n).inverse()
            a = random_spd(rng, n)
            g = random_spd(rng, n)
            lhs = rel_det(h, a)
            rhs = rel_det(h, g) * rel_det(g.inverse(), a)
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestNorms:
    def test_euclidean_case(self):
        eye = SpdOperator(np.eye(2))
        assert norm_primal(eye, PrimalVector([3.0, 4.0])) == pytest.approx(5.0)
        assert norm_dual(eye, DualVector([3.0, 4.0])) == pytest.approx(5.0)

    def test_zero_vector(self):
        eye = SpdOperator(np.eye(3))
        assert norm_primal(eye, PrimalVector([0.0, 0.0, 0.0])) == 0.0
        assert norm_dual(eye, DualVector([0.0, 0.0, 0.0])) == 0.0

    def test_diagonal_values(self):
        a = diag_op([4.0, 1.0])
        assert norm_primal(a, PrimalVector([1.0, 1.0])) == pytest.approx(
            math.sqrt(5.0)
        )
        assert norm_dual(a, DualVector([2.0, 0.0])) == pytest.approx(1.0)

    def test_primal_dual_consistency(self, rng):
        # ||Ah||*_A = ||h||_A for any h.
        for _ in range(30):
            n = int(rng.integers(1, 10))
            a = random_spd(rng, n)
            h = PrimalVector(rng.standard_normal(n))
            lhs = norm_dual(a, a.apply(h))
            assert lhs == pytest.approx(norm_primal(a, h), rel=1e-10)

    def test_positive_for_nonzero(self, rng):
        for _ in range(20):
            a = random_spd(rng, 5)
            h = PrimalVector(rng.standard_normal(5))
            assert norm_primal(a, h) > 0.0


class TestEigenRange:
    def test_equal_operators(self, rng):
        g = random_spd(rng, 4)
        r = rel_eigen_range(g, g)
        assert r.min_rel == pytest.approx(1.0, rel=1e-10)
        assert r.max_rel == pytest.approx(1.0, rel=1e-10)

    def test_scalar_multiple(self, rng):
        a = random_spd(rng, 5)
        r = rel_eigen_range(a.scaled(2.0), a)
        assert r.min_rel == pytest.approx(2.0, rel=1e-10)
        assert r.max_rel == pytest.approx(2.0, rel=1e-10)

    def test_diagonal_case(self):
        r = rel_eigen_range(diag_op([0.5, 3.0]), SpdOperator(np.eye(2)))
        assert r.min_rel == pytest.approx(0.5)
        assert r.max_rel == pytest.approx(3.0)

    def test_trace_bracket(self, rng):
        # The mean relative eigenvalue sits inside the eigen range.
        for _ in range(25):
            n = int(rng.integers(1, 9))
            a, g = random_spd(rng, n), random_spd(rng, n)
            r = rel_eigen_range(g, a)
            mean = rel_trace(a.inverse(), g) / n
            assert r.min_rel - 1e-9 <= mean <= r.max_rel + 1e-9

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            EigenRange(2.0, 1.0)


class TestLoewner:
    def test_reflexive(self, rng):
        a = random_spd(rng, 4)
        assert loewner_slack(a, a) >= -1e-9

    def test_strict_failure(self):
        eye = SpdOperator(np.eye(3))
        assert not loewner_slack(eye.scaled(2.0), eye) >= -1e-9
        assert loewner_slack(eye, eye.scaled(2.0)) >= -1e-9

    def test_trace_monotone_in_order(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 9))
            a1 = random_spd(rng, n)
            bump = rng.standard_normal((n, n))
            a2 = SpdOperator(a1.entries + bump @ bump.T / n)
            h = random_spd(rng, n).inverse()
            assert loewner_slack(a1, a2) >= -1e-9
            assert rel_trace(h, a1) <= rel_trace(h, a2) + 1e-10

    def test_slack_sign(self, rng):
        a = random_spd(rng, 5)
        assert loewner_slack(a, a.scaled(1.5)) > 0.0
        assert loewner_slack(a.scaled(1.5), a) < 0.0


class TestSolve:
    def test_identity(self):
        eye = SpdOperator(np.eye(2))
        x = spd_solve(eye, DualVector([1.0, 2.0]))
        np.testing.assert_allclose(x.coords, [1.0, 2.0])

    def test_diagonal(self):
        x = spd_solve(diag_op([2.0, 4.0]), DualVector([2.0, 4.0]))
        np.testing.assert_allclose(x.coords, [1.0, 1.0])

    def test_residual(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 12))
            a = random_spd(rng, n)
            s = DualVector(rng.standard_normal(n))
            x = spd_solve(a, s)
            resid = np.linalg.norm(a.entries @ x.coords - s.coords)
            assert resid <= 1e-12 * max(1.0, np.linalg.norm(s.coords))

    def test_inverse_roundtrip(self, rng):
        a = random_spd(rng, 6)
        inv = a.inverse()
        assert inv.role is Role.DUAL_TO_PRIMAL
        np.testing.assert_allclose(
            inv.entries @ a.entries, np.eye(6), atol=1e-10
        )


def strided_spd_rule(m):
    """The SPD rule as it read m^T before its one contiguous copy: two
    strided passes, one for the asymmetry and one for the symmetrized part.
    Everything after them is the rule's own code."""
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.abs(m).max(axis=(-2, -1))
        asym = np.abs(m - m.mT).max(axis=(-2, -1))
        sym = 0.5 * m + 0.5 * m.mT
    fault = np.zeros(scale.shape, dtype=int)
    work = sym
    sane = np.isfinite(scale) & (scale > 0.0) & (asym <= SYMMETRY_RTOL * scale)
    if not sane.all():
        fault = np.where(~np.isfinite(scale), 1,
                         np.where(scale == 0.0, 2, np.where(sane, 0, 3)))
        work = np.where(sane[..., None, None], sym, np.eye(m.shape[-1]))
    try:
        chol = np.linalg.cholesky(work)
    except np.linalg.LinAlgError:
        chol = np.empty_like(work)
        for i in np.ndindex(fault.shape):
            try:
                chol[i] = np.linalg.cholesky(work[i])
            except np.linalg.LinAlgError:
                chol[i], fault[i] = np.eye(m.shape[-1]), 4
    pivots = np.diagonal(chol, axis1=-2, axis2=-1).min(axis=-1) ** 2
    singular = pivots <= PIVOT_RTOL * scale
    if singular.any():
        fault = np.where((fault == 0) & singular, 5, fault)
    return sym, chol, fault


# One 2 x 2 matrix per outcome of the SPD rule, with its fault code.
RULE_CASES = [
    (np.diag([2.0, 3.0]), 0),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), 1),
    (np.array([[1.0, np.inf], [np.inf, 1.0]]), 1),
    (np.zeros((2, 2)), 2),
    (np.array([[1.0, 0.5], [0.2, 1.0]]), 3),
    (np.diag([1.0, -1.0]), 4),
    (np.diag([1.0, 1e-15]), 5),
    (np.array([[1.7e308, 1.7e307], [1.7e307, 1.7e308]]), 0),
    (np.array([[1.7e308, 1.7e308], [-1.7e308, 1.7e308]]), 3),
]


class TestRawHelpers:
    """The raw LAPACK helpers the solver loop calls against the checked
    forms they replace, and the SPD rule on one matrix against the rule on
    a one-matrix stack."""

    def test_solves_match_the_scipy_wrappers_bitwise(self, rng):
        for n in (1, 2, 5, 30):
            a = random_spd(rng, n)
            chol = a.factor
            for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3)),
                        rng.standard_normal((3, n)).T):
                assert np.array_equal(
                    chol_solve(chol, rhs),
                    scipy.linalg.cho_solve((chol, True), rhs))
                assert np.array_equal(
                    chol_factor_solve(chol, rhs),
                    scipy.linalg.solve_triangular(chol, rhs, lower=True))

    @pytest.mark.parametrize("m, fault", RULE_CASES)
    def test_one_matrix_rule_is_the_stack_rule(self, m, fault):
        with np.errstate(invalid="ignore"):
            sym, chol, code = spd_factor(m)
            sym_s, chol_s, code_s = spd_factor(m[None])
        assert code == code_s[0] == fault
        assert np.array_equal(sym, sym_s[0], equal_nan=True)
        assert np.array_equal(chol, chol_s[0])
        if fault:
            with pytest.raises(NotSpdError, match=SPD_FAULTS[fault]):
                SpdOperator(m)

    def test_rule_keeps_the_bits_of_its_strided_form(self, rng):
        # (sym, chol, fault) bit for bit, on lone matrices and on stacks
        # that hold every fault code, C-ordered or strided like the halves
        # of a stacked update.
        lone = [m for m, _ in RULE_CASES]
        for n in (1, 2, 5, 30, 100):
            m = random_spd(rng, n).entries.copy()
            m[0, -1] += 1e-14 * abs(m[0, -1])  # within the symmetry rule
            lone += [m, 1e-300 * m, m + 1e-13 * rng.standard_normal((n, n))]
        cases = np.stack([m for m, _ in RULE_CASES])
        stacks = [cases, cases.reshape(3, 3, 2, 2), cases[::-1].mT]
        for n in (3, 8):
            pair = np.stack([random_spd(rng, n).entries for _ in range(8)])
            pair = pair.reshape(4, 2, n, n)
            pair[0, 0, 0, 0] = -pair[0, 0, 0, 0] * 1e3
            pair[1, 1, 0, 1] += 1.0
            stacks += [pair, pair[:, 0], pair[:, 1]]
        with np.errstate(invalid="ignore"):
            for m in lone + stacks:
                got, ref = spd_factor(m), strided_spd_rule(m)
                assert np.array_equal(got[0], ref[0], equal_nan=True)
                assert np.array_equal(got[1], ref[1])
                assert np.array_equal(got[2], ref[2])
                assert np.shape(got[2]) == np.shape(ref[2])
        codes = np.concatenate([np.ravel(spd_factor(m)[2]) for m in stacks])
        assert set(codes.tolist()) == set(range(len(SPD_FAULTS)))

    def test_symmetrizing_never_overflows(self):
        # 0.5 (m + m^T) overflowed to inf on the diagonal of this finite
        # SPD matrix, and the operator then reported logdet = inf.
        m = np.array([[1.7e308, 1.7e307], [1.7e307, 1.7e308]])
        skew = m.copy()
        skew[0, 1] *= 1.0 + 1e-15  # within the symmetry rule
        for got in (spd_factor(m), spd_factor(m[None]),
                    spd_factor(skew), spd_factor(skew[None])):
            sym, chol, fault = got
            assert np.all(fault == 0)
            assert np.isfinite(sym).all() and np.isfinite(chol).all()
        assert np.array_equal(spd_factor(skew)[0], 0.5 * skew + 0.5 * skew.T)
        op = SpdOperator(m)
        assert np.array_equal(op.entries, m)
        # det = 1.7e308^2 (1 - 0.1^2)
        assert op.logdet == pytest.approx(
            2.0 * math.log(1.7e308) + math.log1p(-0.01), rel=1e-14)

    def test_typed_solves_check_the_rhs(self):
        # The typed solves reach the raw helpers, which do not scan their
        # input; they keep the checks scipy's wrappers made before.
        a = diag_op([2.0, 3.0])
        solves = (a.solve_mat, a.solve_vec, a.solve_factor, a.inv_quad_form)
        for solve in solves:
            for bad in ([1.0, math.nan], [math.inf, 1.0]):
                with pytest.raises(ValueError, match="infs or NaNs"):
                    solve(np.array(bad))
            for bad in (np.ones(3), np.ones((3, 2)), np.float64(1.0)):
                with pytest.raises(ValueError, match="incompatible"):
                    solve(bad)

    def test_identity_solves_without_lapack(self, rng, monkeypatch):
        # The identity's factor is I, so each solve returns its right-hand
        # side: LAPACK's values and layout, with no LAPACK handle fetched.
        cases = []
        for n in (1, 2, 5, 30):
            eye = np.eye(n)
            for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3)),
                        np.eye(n), -0.0 * rng.standard_normal(n)):
                cases.append((n, rhs, chol_solve(eye, rhs),
                              chol_factor_solve(eye, rhs)))

        class NoLapack:
            def __getattr__(self, name):
                raise AssertionError(f"LAPACK {name} fetched")

        monkeypatch.setattr(operators_mod, "_lapack", NoLapack())
        for n, rhs, solved, factor_solved in cases:
            op = SpdOperator.identity(n)
            for got, ref in ((op.solve_mat(rhs), solved),
                             (op.solve_factor(rhs), factor_solved)):
                assert np.array_equal(got, ref)
                assert got.flags.f_contiguous and got is not rhs
            if rhs.ndim == 1:
                assert op.inv_quad_form(rhs) == float(rhs @ rhs)
            assert np.array_equal(op.inverse_matrix(), np.eye(n))
        plain = SpdOperator(np.eye(3), Role.DUAL_TO_PRIMAL)
        op = SpdOperator.identity(3, Role.DUAL_TO_PRIMAL)
        assert op.role is plain.role
        assert np.array_equal(op.entries, plain.entries)
        assert np.array_equal(op.factor, plain.factor)
        with pytest.raises(AssertionError, match="LAPACK potrs"):
            plain.solve_mat(np.ones(3))

    def test_accepted_factor_is_what_construction_stores(self, rng):
        for n in (1, 4, 9):
            m = random_spd(rng, n).entries.copy()
            m[0, -1] += 1e-14 * abs(m[0, -1])  # within the symmetry rule
            sym, chol, fault = spd_factor(m)
            assert fault == 0
            for role in Role:
                built = SpdOperator(m, role)
                kept = SpdOperator._accepted(sym, chol, role)
                assert kept.role is role
                assert np.array_equal(kept.entries, built.entries)
                assert np.array_equal(kept.factor, built.factor)
                assert not (kept.entries.flags.writeable
                            or kept.factor.flags.writeable)


class TestVectors:
    def test_arithmetic_stays_typed(self):
        x = PrimalVector([1.0, 2.0])
        y = PrimalVector([0.5, 0.5])
        assert isinstance(x - y, PrimalVector)
        assert isinstance(2.0 * x, PrimalVector)
        np.testing.assert_allclose((x + y).coords, [1.5, 2.5])

    def test_cross_type_arithmetic_rejected(self):
        x = PrimalVector([1.0])
        s = DualVector([1.0])
        with pytest.raises(TypeError):
            _ = x + s

    def test_apply_role_checks(self, rng):
        a = random_spd(rng, 3)
        with pytest.raises(TypeError):
            a.apply(DualVector([1.0, 2.0, 3.0]))
        out = a.apply(PrimalVector([1.0, 0.0, 0.0]))
        assert isinstance(out, DualVector)


def test_spectrum_helper_roundtrip():
    op = spd_from_spectrum([1.0, 5.0, 9.0], seed=4)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(op.entries), [1.0, 5.0, 9.0], rtol=1e-12
    )


class TestInputRule:
    @pytest.mark.parametrize("value,kind", [
        (True, TypeError), (np.bool_(False), TypeError), ("1", TypeError),
        (None, TypeError), ([1.0], TypeError), (math.nan, ValueError),
        (math.inf, ValueError), (-1, ValueError)])
    def test_scalar_rejects(self, value, kind):
        with pytest.raises(kind, match="field"):
            check_number(value, "field", 0.0)

    def test_scalar_accepts_numpy_and_converts(self):
        assert check_number(np.float32(0.5), "x") == 0.5
        assert type(check_number(2, "x")) is float
        assert check_number(np.int64(3), "n", 1, integer=True) == 3
        assert type(check_number(np.int64(3), "n", integer=True)) is int

    @pytest.mark.parametrize("value", [1.0, 2.5, 10**400])
    def test_integer_field_rejects_floats_and_overflow(self, value):
        with pytest.raises((TypeError, ValueError), match="integer"):
            check_number(value, "n", integer=True)

    @pytest.mark.parametrize("value", [
        [True, 2.0], [1.0, "2"], [[1.0, 2.0], [3.0]], [[1.0], [None]],
        "01", 1.0, [[1.0, 2.0]]])
    def test_array_rejects(self, value):
        with pytest.raises(TypeError, match="spectrum"):
            check_array(value, "spectrum", 1)

    def test_array_accepts_rectangular_numbers(self):
        out = check_array([[1, 2.5], [np.int64(3), 4.0]], "a", 2)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [[1.0, 2.5], [3.0, 4.0]])
        assert check_array([], "b", 1).shape == (0,)
