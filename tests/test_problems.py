"""Problem instances: oracles, certified constants, quadrature, serialization."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from broyden_lab import (
    DualVector,
    LogSumExpProblem,
    PrimalVector,
    QuadraticProblem,
    SpdOperator,
    instance_from_dict,
    instance_hash,
    instance_to_dict,
    integral_hessian,
    loewner_slack,
    lse_make,
    lse_value_grad_hess,
    norm_dual,
    quad_make,
    rel_eigen_range,
    sandwich_check,
)
from broyden_lab.problems import _gauss_legendre_rule, lse_softmax
from broyden_lab.verify import random_spd


def grad_fd(f, x, h=1e-6):
    """Central finite differences of a scalar function."""
    n = x.size
    out = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def rel_err(x, ref) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def lse_with_reference(rng, n, m, mu) -> LogSumExpProblem:
    """Log-sum-exp instance with a random non-identity SPD reference operator."""
    b_ref = random_spd(rng, n, log_cond_max=2.0)
    a = rng.standard_normal((m, n))
    gamma = max(norm_dual(b_ref, DualVector(row)) for row in a)
    return LogSumExpProblem(a_mat=a, b_shift=rng.standard_normal(m), mu=mu,
                            b_ref=b_ref, gamma=gamma)


def reference_hessian(p: LogSumExpProblem, xc) -> np.ndarray:
    """Textbook log-sum-exp Hessian A^T (diag(pi) - pi pi^T) A + mu B at
    raw coordinates, with its own softmax: independent of the program's
    kernel."""
    t = p.a_mat @ xc + p.b_shift
    e = np.exp(t - t.max())
    pi = e / e.sum()
    return (p.a_mat.T @ (np.diag(pi) - np.outer(pi, pi)) @ p.a_mat
            + p.mu * p.b_ref.entries)


def loop_segment_mean(inst, x, u, order) -> np.ndarray:
    """Reference rule: one textbook pointwise Hessian per Gauss-Legendre
    node."""
    nodes, weights = _gauss_legendre_rule(order)
    acc = np.zeros((inst.n, inst.n))
    for t, w in zip(nodes, weights):
        acc += w * reference_hessian(inst, x.coords + t * u.coords)
    return acc


# Log-sum-exp cases for the Hessian kernel: B = I, a random B, a point far
# from the origin where one softmax weight takes all, and a single row.
LSE_CASES = ["identity", "reference", "far", "m1"]


def lse_case(rng, case) -> tuple[LogSumExpProblem, PrimalVector]:
    """The instance and the point of one of :data:`LSE_CASES`."""
    if case == "identity":
        p, x = lse_make(6, 15, mu=0.1, seed=17, gamma=1.0), None
    elif case == "reference":
        p, x = lse_with_reference(rng, 6, 15, 0.2), None
    elif case == "far":
        p, x = lse_make(3, 8, mu=0.1, seed=6, gamma=1.0), np.full(3, 500.0)
    else:
        p, x = lse_make(4, 1, mu=0.3, seed=18, gamma=1.0), None
    return p, PrimalVector(rng.standard_normal(p.n) if x is None else x)


class TestQuadMake:
    def test_unit_spectrum_gives_identity(self):
        q = quad_make([1.0, 1.0, 1.0], b=DualVector([0.0, 0.0, 0.0]), seed=0)
        np.testing.assert_allclose(q.a_op.entries, np.eye(3), atol=1e-14)
        assert q.mu == q.ell == 1.0

    def test_prescribed_range(self):
        q = quad_make([1.0, 100.0], seed=5)
        r = rel_eigen_range(q.a_op, q.b_ref)
        assert r.min_rel == pytest.approx(1.0, rel=1e-12)
        assert r.max_rel == pytest.approx(100.0, rel=1e-12)

    def test_deterministic_in_seed(self):
        q1 = quad_make([1.0, 3.0, 9.0], seed=42)
        q2 = quad_make([1.0, 3.0, 9.0], seed=42)
        np.testing.assert_array_equal(q1.a_op.entries, q2.a_op.entries)
        np.testing.assert_array_equal(q1.b.coords, q2.b.coords)

    def test_rejects_nonpositive_spectrum(self):
        with pytest.raises(ValueError):
            quad_make([1.0, 0.0], seed=0)

    def test_certificate_validated(self):
        a = SpdOperator(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="mu"):
            QuadraticProblem(a_op=a, b=DualVector([0.0, 0.0]),
                             b_ref=SpdOperator(np.eye(2)), mu=1.5, ell=2.0)
        with pytest.raises(ValueError, match="ell"):
            QuadraticProblem(a_op=a, b=DualVector([0.0, 0.0]),
                             b_ref=SpdOperator(np.eye(2)), mu=1.0, ell=1.5)

    def test_gradient_matches_finite_differences(self):
        q = quad_make([1.0, 4.0, 2.0], seed=9)
        x = PrimalVector(np.array([0.3, -1.2, 0.7]))
        g = q.grad(x)
        fd = grad_fd(lambda z: q.value(PrimalVector(z)), x.coords)
        np.testing.assert_allclose(g.coords, fd, rtol=1e-6, atol=1e-8)

    def test_minimizer_zeroes_gradient(self):
        q = quad_make([2.0, 5.0], seed=1)
        xstar = q.minimizer()
        assert np.linalg.norm(q.grad(xstar).coords) <= 1e-12

    def test_hessian_matches_gradient_differences(self, rng):
        q = quad_make([1.0, 4.0, 2.0], seed=10)
        x = PrimalVector(rng.standard_normal(3))
        fd = np.empty((3, 3))
        eps = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = eps
            gp = q.grad(PrimalVector(x.coords + e)).coords
            gm = q.grad(PrimalVector(x.coords - e)).coords
            fd[:, i] = (gp - gm) / (2.0 * eps)
        np.testing.assert_allclose(q.hess(x).entries, 0.5 * (fd + fd.T),
                                   rtol=1e-5, atol=1e-8)


class TestLogSumExpOracles:
    def test_uniform_softmax_at_origin(self):
        p = lse_make(4, 6, mu=0.2, seed=0, gamma=1.0,
                     b_shift=np.zeros(6))
        x0 = PrimalVector(np.zeros(4))
        pi = lse_softmax(p, x0)
        np.testing.assert_allclose(pi, np.full(6, 1.0 / 6.0), rtol=1e-14)
        _, g, _ = lse_value_grad_hess(p, x0)
        np.testing.assert_allclose(g.coords, p.a_mat.mean(axis=0), rtol=1e-12)

    def test_single_term_degenerates(self):
        # m = 1: the smooth part is linear, so the Hessian is exactly mu*B.
        p = LogSumExpProblem(
            a_mat=np.array([[0.5, -0.25]]), b_shift=np.array([0.3]),
            mu=0.4, b_ref=SpdOperator(np.eye(2)), gamma=1.0,
        )
        x = PrimalVector(np.array([1.0, 2.0]))
        f, g, h = lse_value_grad_hess(p, x)
        np.testing.assert_allclose(h.entries, 0.4 * np.eye(2), atol=1e-15)
        expected_f = (0.5 - 0.5 + 0.3) + 0.2 * 5.0
        assert f == pytest.approx(expected_f)

    def test_gradient_matches_finite_differences(self, rng):
        p = lse_make(5, 12, mu=0.1, seed=3, gamma=1.0)
        inst = p
        for _ in range(5):
            x = PrimalVector(rng.standard_normal(5))
            g = inst.grad(x)
            fd = grad_fd(lambda z: inst.value(PrimalVector(z)), x.coords)
            np.testing.assert_allclose(g.coords, fd, rtol=1e-6, atol=1e-7)

    def test_value_and_gradient_oracle_forms_no_hessian(self, rng, monkeypatch):
        # value and grad share the max-shifted softmax of the full oracle but
        # stop before the Hessian, so they never factorize anything.
        cases = [(lse_make(7, 18, mu=0.1, seed=16, gamma=1.0),
                  [rng.standard_normal(7) for _ in range(5)]
                  + [np.full(7, 300.0)]),
                 (lse_with_reference(rng, 5, 11, 0.3),
                  [rng.standard_normal(5) for _ in range(5)])]
        full = [[lse_value_grad_hess(p, PrimalVector(x)) for x in xs]
                for p, xs in cases]
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a, *args, **kw: calls.append(a.shape)
                            or cholesky(a, *args, **kw))
        for (p, xs), refs in zip(cases, full):
            inst = p
            for x, (f, g, _) in zip(xs, refs):
                x = PrimalVector(x)
                assert rel_err(inst.grad(x).coords, g.coords) <= 1e-15
                assert abs(inst.value(x) - f) <= 1e-15 * abs(f)
        assert calls == []

    def test_hessian_matches_gradient_differences(self, rng):
        p = lse_make(4, 10, mu=0.1, seed=4, gamma=1.0)
        inst = p
        x = PrimalVector(rng.standard_normal(4))
        h = inst.hess(x).entries
        fd = np.empty((4, 4))
        eps = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = eps
            gp = inst.grad(PrimalVector(x.coords + e)).coords
            gm = inst.grad(PrimalVector(x.coords - e)).coords
            fd[:, i] = (gp - gm) / (2.0 * eps)
        np.testing.assert_allclose(h, 0.5 * (fd + fd.T), rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("case", LSE_CASES)
    def test_hessian_matches_textbook_reference(self, rng, case):
        # The pointwise Hessian is the one-point case of the segment-mean
        # kernel; it agrees with the textbook formula to a few ulps.
        p, x = lse_case(rng, case)
        for _ in range(5):
            ref = reference_hessian(p, x.coords)
            assert rel_err(p.hess(x).entries, ref) <= 1e-13
            x = PrimalVector(x.coords + rng.standard_normal(p.n))

    def test_softmax_positive_and_normalized(self, rng):
        p = lse_make(6, 15, mu=0.3, seed=5, gamma=2.0)
        for _ in range(200):
            pi = lse_softmax(p, PrimalVector(3.0 * rng.standard_normal(6)))
            assert np.all(pi > 0.0)
            assert abs(pi.sum() - 1.0) <= 1e-12

    def test_overflow_safe_far_from_origin(self):
        p = lse_make(3, 8, mu=0.1, seed=6, gamma=1.0)
        inst = p
        x = PrimalVector(np.full(3, 500.0))
        f, g, h = lse_value_grad_hess(p, x)
        assert np.isfinite(f)
        assert np.all(np.isfinite(g.coords))
        assert np.all(np.isfinite(h.entries))

    def test_curvature_bounds_hold(self, rng):
        # mu*B <= H(x) <= ell*B with ell = gamma^2 + mu, at random points.
        p = lse_make(4, 9, mu=0.25, seed=7, gamma=1.5)
        inst = p
        assert inst.ell == pytest.approx(1.5 ** 2 + 0.25)
        for _ in range(1000):
            x = PrimalVector(2.0 * rng.standard_normal(4))
            h = inst.hess(x)
            assert loewner_slack(p.b_ref.scaled(p.mu), h) >= -1e-10
            assert loewner_slack(h, p.b_ref.scaled(inst.ell)) >= -1e-10

    def test_gamma_certificate_enforced(self):
        with pytest.raises(ValueError, match="gamma"):
            LogSumExpProblem(
                a_mat=np.array([[3.0, 4.0]]), b_shift=np.array([0.0]),
                mu=0.1, b_ref=SpdOperator(np.eye(2)), gamma=1.0,
            )

    def test_gamma_rescale_is_tight(self):
        p = lse_make(4, 7, mu=0.1, seed=8, gamma=0.75)
        norms = np.linalg.norm(p.a_mat, axis=1)
        assert norms.max() == pytest.approx(0.75, rel=1e-12)
        assert p.sc_const == pytest.approx(2.0 * 0.75 ** 3 / 0.1 ** 1.5)


class TestIntegralHessian:
    def test_quadratic_is_exact(self):
        q = quad_make([1.0, 5.0], seed=2)
        inst = q
        ih = integral_hessian(inst, PrimalVector([1.0, 2.0]),
                              PrimalVector([0.5, -0.5]), order=16)
        assert ih.j_op is q.a_op
        assert ih.est_error == 0.0

    def test_degenerate_segment_is_pointwise_hessian(self, rng):
        p = lse_make(3, 6, mu=0.2, seed=9, gamma=1.0)
        inst = p
        x = PrimalVector(rng.standard_normal(3))
        ih = integral_hessian(inst, x, PrimalVector(np.zeros(3)), order=8)
        np.testing.assert_array_equal(ih.j_op.entries, inst.hess(x).entries)
        assert ih.est_error == 0.0

    def test_refinement_agreement(self, rng):
        # Order 16 against order 32, relative spectral norm.
        p = lse_make(4, 10, mu=0.1, seed=10, gamma=1.0)
        inst = p
        for _ in range(10):
            x = PrimalVector(rng.standard_normal(4))
            u = PrimalVector(rng.standard_normal(4))
            j16 = integral_hessian(inst, x, u, order=16)
            j32 = integral_hessian(inst, x, u, order=32)
            diff = np.linalg.norm(j16.j_op.entries - j32.j_op.entries, 2)
            scale = np.linalg.norm(j32.j_op.entries, 2)
            assert diff <= 1e-10 * scale
            assert j16.est_error == pytest.approx(diff)

    def test_order_validated(self, rng):
        p = lse_make(3, 5, mu=0.1, seed=11)
        inst = p
        x = PrimalVector(np.zeros(3))
        with pytest.raises(ValueError):
            integral_hessian(inst, x, x, order=1)

    def test_rule_computed_once_per_order(self, rng, monkeypatch):
        # The nodes never change, so repeated segments reuse one rule per
        # order instead of re-solving the Jacobi eigenproblem each call.
        p = lse_make(3, 5, mu=0.1, seed=13)
        x = PrimalVector(rng.standard_normal(3))
        u = PrimalVector(rng.standard_normal(3))
        first = integral_hessian(p, x, u, order=7).j_op.entries
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(
            np.polynomial.legendre, "leggauss",
            lambda order: calls.append(order) or leggauss(order))
        again = integral_hessian(p, x, u, order=7).j_op.entries
        assert calls == []
        np.testing.assert_array_equal(again, first)
        nodes, weights = _gauss_legendre_rule(7)
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert weights.sum() == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("case", LSE_CASES)
    def test_structured_rule_matches_pointwise_loop(self, rng, case):
        # The structured mean sums the textbook node Hessians in another
        # order: agreement to a few ulps of ||J||, and the error estimate is
        # still the spectral-norm gap to the doubled-order rule.
        inst, x = lse_case(rng, case)
        u = PrimalVector(rng.standard_normal(inst.n))
        for order in (2, 7, 16, 32):
            ih = integral_hessian(inst, x, u, order=order)
            ref = loop_segment_mean(inst, x, u, order)
            assert rel_err(ih.j_op.entries, ref) <= 1e-13
            fine = integral_hessian(inst, x, u, order=2 * order).j_op.entries
            gap = np.linalg.norm(ih.j_op.entries - fine, 2)
            assert ih.est_error == pytest.approx(gap, rel=1e-12, abs=0.0)

    def test_matches_trapezoid_refinement_oracle(self, rng):
        # Independent oracle: very fine trapezoid rule along the segment.
        p = lse_make(3, 7, mu=0.15, seed=12, gamma=1.0)
        inst = p
        x = PrimalVector(rng.standard_normal(3))
        u = PrimalVector(rng.standard_normal(3))
        ts = np.linspace(0.0, 1.0, 2001)
        acc = np.zeros((3, 3))
        for i, t in enumerate(ts):
            w = 0.5 if i in (0, len(ts) - 1) else 1.0
            acc += w * inst.hess(
                PrimalVector(x.coords + t * u.coords)
            ).entries
        acc /= (len(ts) - 1)
        j = integral_hessian(inst, x, u, order=16).j_op.entries
        np.testing.assert_allclose(j, acc, rtol=1e-7, atol=1e-9)


class TestSandwich:
    def test_quadratic_exact_equality(self, rng):
        q = quad_make([1.0, 4.0, 9.0], seed=13)
        inst = q
        rep = sandwich_check(inst, PrimalVector(rng.standard_normal(3)),
                             PrimalVector(rng.standard_normal(3)))
        assert rep.passed
        assert rep.factor == 1.0
        assert abs(rep.worst) <= 1e-10

    def test_coincident_points(self, rng):
        p = lse_make(4, 8, mu=0.2, seed=14, gamma=1.0)
        inst = p
        x = PrimalVector(rng.standard_normal(4))
        rep = sandwich_check(inst, x, x)
        assert rep.r == 0.0
        assert rep.passed

    def test_random_pairs(self, rng):
        p = lse_make(4, 10, mu=0.1, seed=15, gamma=1.0)
        inst = p
        for _ in range(100):
            x = PrimalVector(rng.standard_normal(4))
            y = PrimalVector(rng.standard_normal(4))
            rep = sandwich_check(inst, x, y)
            assert rep.worst >= -1e-8


class TestSerialization:
    def test_quadratic_roundtrip(self):
        inst = quad_make([1.0, 2.0, 8.0], seed=21)
        d = instance_to_dict(inst)
        rebuilt = instance_from_dict(d)
        assert instance_hash(rebuilt) == instance_hash(inst)
        np.testing.assert_array_equal(rebuilt.a_op.entries,
                                      inst.a_op.entries)

    def test_spectrum_is_relative_to_reference_operator(self):
        # The same pencil as the bounds test with B != I: B^{-1} A is not
        # symmetric, so the spectrum has to come from L^{-1} A L^{-T}.
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 6))
        b_ref = m @ m.T + 6.0 * np.eye(6)
        m = rng.standard_normal((6, 6))
        a = m @ m.T + np.eye(6)
        a, b_ref = 0.5 * (a + a.T), 0.5 * (b_ref + b_ref.T)
        vals = scipy.linalg.eigh(a, b_ref, eigvals_only=True)
        inst = QuadraticProblem(
            a_op=SpdOperator(a), b=DualVector(np.ones(6)),
            b_ref=SpdOperator(b_ref), mu=float(vals.min()),
            ell=float(vals.max()),
        )
        spectrum = instance_to_dict(inst)["spectrum"]
        np.testing.assert_allclose(spectrum, vals, rtol=1e-12)

    def test_roundtrip_with_reference_operator(self):
        # The spectrum written beside a is checked on the way back in.
        rng = np.random.default_rng(7)
        b_ref, a = random_spd(rng, 5, 2.0), random_spd(rng, 5, 2.0)
        vals = scipy.linalg.eigh(a.entries, b_ref.entries, eigvals_only=True)
        inst = QuadraticProblem(
            a_op=a, b=DualVector(np.ones(5)), b_ref=b_ref,
            mu=float(vals[0]), ell=float(vals[-1]))
        d = instance_to_dict(inst)
        assert instance_hash(instance_from_dict(d)) == instance_hash(inst)
        d["spectrum"][0] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="spectrum disagrees"):
            instance_from_dict(d)

    @pytest.mark.parametrize("n", [1, 3, 12, 40])
    def test_identity_reference_spectrum_is_plain_eigvalsh(self, n):
        # With B = I the triangular solves return A itself, so the spectrum
        # and with it every B = I instance_hash is that of eigvalsh(A).
        q = quad_make(np.geomspace(1.0, 1e3, n), seed=n)
        spectrum = instance_to_dict(q)["spectrum"]
        np.testing.assert_array_equal(spectrum,
                                      np.linalg.eigvalsh(q.a_op.entries))

    def test_lse_roundtrip(self):
        inst = lse_make(3, 5, mu=0.2, seed=22, gamma=0.9)
        d = instance_to_dict(inst)
        rebuilt = instance_from_dict(d)
        assert isinstance(rebuilt, LogSumExpProblem)
        assert instance_hash(rebuilt) == instance_hash(inst)

    def test_seeded_spec_deterministic(self):
        d = {"kind": "log_sum_exp", "n": 4, "m": 6, "mu": 0.1,
             "gamma": 1.0, "seed": 3}
        h1 = instance_hash(instance_from_dict(d))
        h2 = instance_hash(instance_from_dict(d))
        assert h1 == h2

    def test_seeded_quadratic_spec(self):
        d = {"kind": "quadratic", "spectrum": [1.0, 10.0], "seed": 7}
        inst = instance_from_dict(d)
        assert inst.mu == 1.0 and inst.ell == 10.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            instance_from_dict({"kind": "cubic"})

    def test_quadratic_spec_needs_data(self):
        with pytest.raises(ValueError):
            instance_from_dict({"kind": "quadratic", "mu": 1.0})


# A reference operator B != I shared by the explicit pinned instances.
_B_REF = [[2.0, 0.5, 0.0], [0.5, 1.5, 0.0], [0.0, 0.0, 1.0]]
# instance_hash digests that verdicts are tied to: each must stay as it is,
# and each is the one-shot digest of the reference form below.
_PINNED_DIGESTS = [
    ({"kind": "quadratic", "a": [[4.0, 1.0, 0.5], [1.0, 3.0, 0.25],
                                 [0.5, 0.25, 2.0]],
      "b": [1.0, -2.0, 0.5], "b_ref": _B_REF, "mu": 0.5, "ell": 10.0},
     "a0b78a788a25790bad1581614ff9f6e7aa728141b29327c09e63503d659771ca"),
    ({"kind": "quadratic", "spectrum": [2.5], "seed": 3},
     "9700068bf33399434edd2903b7168813ba7cdc423067f38d73612e8c8fb94b25"),
    # The lse-general benchmark instance at seed 1.
    ({"kind": "log_sum_exp", "n": 100, "m": 400, "mu": 0.005, "gamma": 1.0,
      "seed": 7919},
     "b5fbb32b5d5ce8b9dba6a149e5247c48988da11518bc5f6bf45298f7a01a023a"),
    ({"kind": "log_sum_exp", "a_rows": [[1.0, -0.5, 0.25], [0.3, 0.2, -1.0]],
      "b": [0.1, -0.2], "b_ref": _B_REF, "mu": 0.3, "gamma": 2.0},
     "2f1df8b4e3c94a3d6975e4cb3dba7e22a804d8786a2956717d12d010d18973bd"),
]


class TestInstanceHash:
    @pytest.mark.parametrize("spec,digest", _PINNED_DIGESTS,
                             ids=["quad_b_ref", "quad_n1", "lse_general",
                                  "lse_b_ref_gamma"])
    def test_pinned_digest(self, spec, digest):
        inst = instance_from_dict(spec)
        assert instance_hash(inst) == digest
        # The reference form: SHA-256 of the compact, key-sorted JSON text
        # of instance_to_dict, built in one piece.
        blob = json.dumps(instance_to_dict(inst), sort_keys=True,
                          separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == digest

    def test_hash_memory_does_not_grow_with_the_instance(self):
        # Hashed row by row, the 0.38 MiB n = 100, m = 400 instance holds
        # one row's text at a time; as one JSON string and its Python lists
        # it would hold 6.2 MiB.
        inst = lse_make(100, 400, 0.005)
        tracemalloc.start()
        try:
            instance_hash(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2 ** 20
