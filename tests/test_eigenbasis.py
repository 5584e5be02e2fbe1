"""Quadratics run in the generalized eigenbasis of (A, B).

A quadratic run takes V with V^T A V = diag(s) and V^T B V = I once, drives
the loop in y = V^T B x, where A is diag(s) and B is I, and maps what it
returns back to the caller's coordinates.  These tests pin the
extreme-conditioning runs that a loop in the dense coordinates stalls on
(there the n = 50, kappa = 1e12 BFGS case below takes 3,560 iterations,
with 104 rows violating quad_superlinear), the coordinate contract on a
B != I quadratic, and the set-up's guard against an eigenvalue that float64
cannot keep positive.
"""

import math

import numpy as np
import pytest

import broyden_lab.problems as problems_mod
from broyden_lab import (
    DivergenceError,
    DualVector,
    PrimalVector,
    QuadraticProblem,
    SolverConfig,
    SpdOperator,
    TauSchedule,
    norm_dual,
    quad_make,
    run_general,
    run_quadratic,
)
from broyden_lab.bounds import env_section6, trace_reports
from broyden_lab.cli import QUADRATIC_ENVELOPES
from broyden_lab.problems import random_orthogonal

from helpers import record_run

SCHEDULES = {"bfgs": TauSchedule.bfgs(), "half": TauSchedule((0.5,))}


def _run_to_relative_target(problem, x0, schedule):
    """A run down to 1e-10 of its starting residual, as a sweep cell runs."""
    lam0 = norm_dual(problem.a_op, problem.grad(x0))
    return run_quadratic(problem, x0, schedule,
                         SolverConfig(max_iter=20_000, grad_tol=1e-10 * lam0))


def _assert_within_envelopes(trace):
    assert trace.converged
    for rep in trace_reports(trace, QUADRATIC_ENVELOPES):
        assert rep.asserted and rep.all_satisfied, (rep.name,
                                                    rep.first_violation)


@pytest.mark.parametrize("method", sorted(SCHEDULES))
def test_kappa_1e12_case_converges_within_its_envelopes(method):
    # n = 50, quad_make(geomspace(1, 1e12, 50), seed=3), x0 standard normal
    # with seed 1: every envelope holds, and BFGS takes 903 iterations.
    q = quad_make(np.geomspace(1.0, 1e12, 50), seed=3)
    x0 = PrimalVector(np.random.default_rng(1).standard_normal(50))
    trace = _run_to_relative_target(q, x0, SCHEDULES[method])
    _assert_within_envelopes(trace)
    if method == "bfgs":
        assert trace.k_final < 1000


@pytest.mark.parametrize("n, kappa, method", [
    (n, kappa, method) for n in (10, 30) for kappa in (1e8, 1e12)
    for method in sorted(SCHEDULES)] + [(100, 1e12, "bfgs")])
def test_extreme_conditioning(n, kappa, method):
    q = quad_make(np.geomspace(1.0, kappa, n), seed=n)
    x0 = PrimalVector(np.random.default_rng(n + 1).standard_normal(n))
    _assert_within_envelopes(_run_to_relative_target(q, x0, SCHEDULES[method]))


@pytest.mark.parametrize("n, kappa", [(2, 1e12), (3, 1e8), (3, 1e12)])
def test_slow_dfp_cells_run_to_max_iter_within_their_envelopes(n, kappa):
    # Sweep cells (grid seed 0, max_iter 20,000) that a Cholesky of G_k in
    # the eigenbasis used to stop, at k = 234, 10,449 and 7,742, on its
    # pivot floor: G_k's condition number passed 1e14 there.  The loop
    # factors no G_k now, and its spectrum relative to A stays within
    # [1, kappa] to the eigensolver's resolution, so the run goes on to
    # max_iter, every envelope holding: DFP's superlinear phase starts at
    # K0 >= 2e10 on these cells, far past the run.
    q = quad_make(np.geomspace(1.0, kappa, n), seed=0)
    x0 = PrimalVector(np.random.default_rng(1).standard_normal(n))
    lam0 = norm_dual(q.a_op, q.grad(x0))
    trace = run_quadratic(q, x0, TauSchedule.dfp(),
                          SolverConfig(max_iter=20_000, grad_tol=1e-10 * lam0))
    assert not trace.converged and trace.k_final == 20_000
    assert env_section6(n, q.mu, q.ell, 1, 1.0, "dfp").start_new > 1e10
    for rep in trace_reports(trace, QUADRATIC_ENVELOPES):
        assert rep.asserted and rep.all_satisfied, (rep.name,
                                                    rep.first_violation)
    # Containment, 1 <= eig <= kappa, to the rounding of each end: a row's
    # spectrum resolves to n eps eig_max, and the eigenbasis's smallest s
    # (so eig_max, up to kappa / s_min) to n eps kappa relative.
    n_eps = n * np.finfo(float).eps
    assert np.all(trace.eig_mins >= 1.0 - n_eps * trace.eig_maxs)
    assert np.all(trace.eig_maxs <= kappa * (1.0 + n_eps * kappa))
    assert np.all(np.isfinite(trace.nus[:-1]))


def _b_not_identity(n=8, kappa=100.0, seed=20260419):
    """An explicit quadratic with spectrum geomspace(1, kappa) relative to a
    reference B != I with cond(B) = 10, and a start."""
    rng = np.random.default_rng(seed)

    def spd(cond):
        m = random_orthogonal(n, rng) * np.geomspace(1.0, math.sqrt(cond), n)
        return m @ m.T

    b_ref = spd(10.0)
    chol = np.linalg.cholesky(b_ref)
    a = chol @ spd(kappa) @ chol.T
    q = QuadraticProblem(a_op=SpdOperator(a), b=DualVector(rng.standard_normal(n)),
                         b_ref=SpdOperator(b_ref), mu=1.0, ell=kappa)
    return q, PrimalVector(rng.standard_normal(n))


class TestCallerCoordinates:
    """What a quadratic run returns is in the caller's coordinates."""

    @pytest.mark.parametrize("run", [run_quadratic, run_general])
    @pytest.mark.parametrize("method", ["bfgs", "dfp", "half"])
    def test_recorded_objects(self, run, method):
        # The loop's own arrays, in the eigenbasis (V, diag(s)) that
        # q.eigenbasis() rebuilds bit for bit: an iterate y maps back to
        # x0 + V (y - y0), a gradient to B V grad_y.
        q, x0 = _b_not_identity()
        schedule = {"bfgs": TauSchedule.bfgs(), "dfp": TauSchedule.dfp(),
                    "half": TauSchedule((0.5,))}[method]
        tr, rec = record_run(run, q, x0, schedule,
                             SolverConfig(max_iter=2000, grad_tol=1e-10))
        assert tr.converged and tr.problem is q
        v, diagonal = q.eigenbasis()
        dual = q.b_ref.entries @ v
        a, b = q.a_op.entries, q.b.coords
        # The start is V^T B x0, with G_0 = ell I and H_0 = I / ell there,
        # and the final iterate is the last one mapped back.
        y0 = rec.xs[0]
        assert np.array_equal(y0, dual.T @ x0.coords)
        g0, h0 = rec.pair(0)
        assert np.array_equal(g0, q.ell * np.eye(q.n))
        assert np.array_equal(h0, np.eye(q.n) / q.ell)
        assert list(rec.xs) == list(range(len(tr)))
        assert np.array_equal(tr.x_final.coords,
                              x0.coords + v @ (rec.xs[tr.k_final] - y0))
        np.testing.assert_allclose(tr.x_final.coords, q.minimizer().coords,
                                   rtol=1e-9, atol=1e-12)
        scale = np.linalg.norm(a, 2)
        for k, y in rec.xs.items():
            x = x0.coords + v @ (y - y0)
            grad = dual @ rec.grads[k]
            x_norm = float(np.linalg.norm(x))
            assert np.linalg.norm(grad - (a @ x - b)) <= (
                1e-12 * (scale * x_norm + np.linalg.norm(b))), k
            # lambda is the caller's ||grad||*_A.
            assert tr.lambdas[k] == pytest.approx(
                norm_dual(q.a_op, DualVector(grad)), rel=1e-6, abs=1e-14)
            g, h = rec.pair(k)
            np.testing.assert_allclose(g @ h, np.eye(q.n), atol=1e-9)
        # Every step moves the iterate and updates toward A itself, whose
        # secant s * u_k is exact in the eigenbasis: no segment mean.
        assert sorted(rec.steps) == list(range(tr.k_final))
        assert not rec.targets
        for k, step in rec.steps.items():
            np.testing.assert_allclose(
                step.u, rec.xs[k + 1] - rec.xs[k], rtol=0.0,
                atol=1e-12 * (1.0 + np.linalg.norm(rec.xs[k])))
            assert np.array_equal(step.y, diagonal.spectrum * step.u)
        assert max(rec.secant_residuals()) <= 1e-10

    @pytest.mark.parametrize("method, tol, k_stop", [
        ("bfgs", 1e-6, 36), ("dfp", 1e-4, 194)])
    def test_uninstrumented_stop_reads_the_callers_gradient(self, method, tol,
                                                            k_stop):
        # Uninstrumented, a run stops on the Euclidean norm of the gradient
        # in the caller's coordinates, as the dense loop did (k_stop is its
        # iteration count); the norm of the gradient in the eigenbasis,
        # V^T grad f, differs when B != I and would stop one step earlier.
        q, x0 = _b_not_identity()
        schedule = TauSchedule.dfp() if method == "dfp" else TauSchedule.bfgs()
        tr, rec = record_run(run_quadratic, q, x0, schedule,
                             SolverConfig(max_iter=2000, grad_tol=tol,
                                          instrument=False))
        assert tr.converged and tr.k_final == k_stop
        assert list(rec.grads) == list(range(len(tr)))
        v, _ = q.eigenbasis()
        dual = q.b_ref.entries @ v
        caller = [float(np.linalg.norm(dual @ g)) for g in rec.grads.values()]
        eigen = [float(np.linalg.norm(g)) for g in rec.grads.values()]
        assert min(k for k, x in enumerate(caller) if x <= tol) == k_stop
        assert min(k for k, x in enumerate(eigen) if x <= tol) < k_stop


def test_eigenbasis_diagonalizes_the_pencil():
    q, _ = _b_not_identity()
    v, diagonal = q.eigenbasis()
    s = diagonal.spectrum
    np.testing.assert_allclose(v.T @ q.a_op.entries @ v, np.diag(s),
                               atol=1e-12 * s[-1])
    np.testing.assert_allclose(v.T @ q.b_ref.entries @ v, np.eye(q.n),
                               atol=1e-12)
    np.testing.assert_allclose(s, q.spectrum, rtol=1e-12)
    np.testing.assert_allclose(diagonal.b.coords, v.T @ q.b.coords, rtol=1e-15)
    assert (diagonal.mu, diagonal.ell) == (q.mu, q.ell)


def test_nonpositive_eigenvalue_is_a_divergence_at_k0(monkeypatch):
    # An A whose smallest eigenvalue relative to B rounds to zero or below
    # has no eigenbasis in float64; the run reports that as iteration 0.
    q = quad_make([1.0, 2.0, 3.0], seed=4)
    eigh = np.linalg.eigh

    def rounded_below_zero(m):
        s, w = eigh(m)
        return s - 2.0 * s[0], w

    monkeypatch.setattr(problems_mod.np.linalg, "eigh", rounded_below_zero)
    with pytest.raises(DivergenceError, match="iteration 0: eigenvalue") as exc:
        run_quadratic(q, PrimalVector(np.ones(3)), TauSchedule.bfgs(),
                      SolverConfig())
    assert exc.value.k == 0
