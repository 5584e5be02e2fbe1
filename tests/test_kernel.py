"""The 2x2-core rank-two kernel and the one-spectrum instrumentation.

Checks the update kernel against the textbook outer-product formulas, the
typed update entry points against each other, the spectrum-derived range and
potentials and the O(n^2) closeness against their direct definitions, and
pins the per-iteration decomposition count of instrumented and
uninstrumented runs.
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg

import broyden_lab.broyden as broyden_mod
import broyden_lab.cli as cli_mod
import broyden_lab.operators as operators_mod
import broyden_lab.problems as problems_mod
import broyden_lab.solver as solver_mod
import broyden_lab.verify as verify_mod
from broyden_lab import (
    DualVector,
    PrimalVector,
    QuadraticProblem,
    SolverConfig,
    SpdOperator,
    TauSchedule,
    augmented_barrier,
    broyd,
    broyd_det_ratio,
    broyd_inverse,
    logdet_barrier,
    lse_make,
    norm_dual,
    nu,
    phi_tau,
    quad_make,
    rel_eigen_range,
    rel_eigvals,
    run_general,
    run_quadratic,
    spectral_barriers,
)
from broyden_lab.broyden import update_arrays

from helpers import random_spd, record_run

KERNEL_TAUS = (0.0, 0.3, 1.0)
TOL = 1e-12


def rel_err(x, ref) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def close(x, ref, tol=TOL) -> bool:
    """Combined absolute/relative agreement."""
    return abs(x - ref) <= tol * (1.0 + abs(ref))


def textbook_update(a, g, u, tau, phi):
    """Outer-product DFP/BFGS formulas, primal and inverse, with y = Au."""
    h = np.linalg.inv(g)
    eye = np.eye(g.shape[0])
    y = a @ u
    rho = float(y @ u)
    gu = g @ u
    hy = h @ y
    bfgs = g - np.outer(gu, gu) / float(gu @ u) + np.outer(y, y) / rho
    dfp = ((eye - np.outer(y, u) / rho) @ g @ (eye - np.outer(u, y) / rho)
           + np.outer(y, y) / rho)
    inv_bfgs = ((eye - np.outer(u, y) / rho) @ h @ (eye - np.outer(y, u) / rho)
                + np.outer(u, u) / rho)
    inv_dfp = h - np.outer(hy, hy) / float(y @ hy) + np.outer(u, u) / rho
    return (phi * dfp + (1.0 - phi) * bfgs,
            tau * inv_dfp + (1.0 - tau) * inv_bfgs)


def h_scalars(au, g, h, u):
    """A step's update scalars with G^{-1} applied through H, as the solver
    takes them."""
    return broyden_mod._scalars(au, g, u, lambda v: np.matvec(h, v))


def update(au, g, h, u, tau):
    """``(g_plus, h_plus, phi, det_ratio)`` of :func:`update_arrays` on
    plain arrays."""
    pair, phi, det_ratio = update_arrays(np.stack((g, h)), u,
                                         h_scalars(au, g, h, u), tau)
    return pair[0], pair[1], phi, det_ratio


class TestRankTwoKernel:
    @pytest.mark.parametrize("tau", KERNEL_TAUS)
    def test_matches_textbook_formulas(self, rng, tau):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = random_spd(rng, n, log_cond_max=2.0)
            g = random_spd(rng, n, log_cond_max=2.0)
            u = rng.standard_normal(n)
            g_plus, h_plus, phi, _ = update(
                a.entries @ u, g.entries, np.linalg.inv(g.entries), u, tau
            )
            ref_g, ref_h = textbook_update(a.entries, g.entries, u, tau, phi)
            assert rel_err(g_plus, ref_g) <= TOL
            assert rel_err(h_plus, ref_h) <= TOL
            # The inverse formula weights DFP by tau, the primal one by phi:
            # they describe the same operator only with the right phi.
            assert rel_err(g_plus @ h_plus, np.eye(n)) <= 1e-10
            if tau in (0.0, 1.0):
                assert phi == tau

    def test_outputs_exactly_symmetric(self, rng):
        a, g = random_spd(rng, 7), random_spd(rng, 7)
        u = rng.standard_normal(7)
        g_plus, h_plus, _, _ = update(
            a.entries @ u, g.entries, np.linalg.inv(g.entries), u, 0.4,
        )
        assert np.array_equal(g_plus, g_plus.T)
        assert np.array_equal(h_plus, h_plus.T)

    def test_typed_entry_points_agree_with_broyd(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 8))
            a, g = random_spd(rng, n), random_spd(rng, n)
            u = PrimalVector(rng.standard_normal(n))
            for tau in KERNEL_TAUS:
                res = broyd(a, g, u, tau)
                inv = broyd_inverse(a, g, u, tau)
                assert rel_err(inv.entries, res.g_plus_inv.entries) <= TOL
                assert close(broyd_det_ratio(a, g, u, tau), res.det_ratio)
                assert close(phi_tau(a, g, u, tau), res.phi)


def lone_correction(m, x, y, d0, cross, d1):
    """One symmetrized rank-two correction m + [x, y] C [x, y]^T, C the
    core [[d0, cross], [cross, d1]], computed alone: a C-ordered core and
    an (n, 2) basis per correction, as the kernel computed each of its two
    corrections before it took them as one stacked pair."""
    core = np.array([[d0, cross], [cross, d1]])
    core = np.ascontiguousarray(core.transpose(*range(2, core.ndim), 0, 1))
    basis = np.empty(x.shape + (2,))
    basis[..., 0] = x
    basis[..., 1] = y
    out = (basis @ core) @ basis.mT
    out += m
    sym = out + out.mT
    sym *= 0.5
    return sym


def lone_update(au, g, h, u, tau):
    """``(g_plus, h_plus, phi, det_ratio)`` as two lone corrections, with
    the primal core over [Au, Gu] and the inverse core over [H Au, u]."""
    gu, z = g @ u, h @ au
    au_u, gu_u, aha = au @ u, gu @ u, au @ z
    t_dfp, t_bfgs = au_u / aha, gu_u / au_u
    denom = tau * t_dfp + (1.0 - tau) * t_bfgs
    phi = tau * t_dfp / denom
    g_plus = lone_correction(g, au, gu, (1.0 + phi * gu_u / au_u) / au_u,
                             -phi / au_u, -(1.0 - phi) / gu_u)
    h_plus = lone_correction(h, z, u, -tau / aha, -(1.0 - tau) / au_u,
                             (1.0 + (1.0 - tau) * aha / au_u) / au_u)
    return g_plus, h_plus, phi, denom


def update_inputs(rng, n, batch=()):
    """A target image Au, an SPD G, its explicit inverse H and a direction u,
    over leading ``batch`` axes."""
    shape = batch + (n, n)
    m = rng.standard_normal(shape)
    g = m @ m.mT + n * np.eye(n)
    h = np.linalg.inv(g)
    h = 0.5 * (h + h.mT)
    m = rng.standard_normal(shape)
    u = rng.standard_normal(batch + (n,))
    return np.matvec(m @ m.mT + np.eye(n), u), g, h, u


class TestStackedPair:
    """G and H change in one stacked rank-two call, bit for bit the two
    lone corrections it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 8, 30, 100])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_update_is_two_lone_corrections_bitwise(self, n, tau):
        rng = np.random.default_rng(n)
        for _ in range(5):
            au, g, h, u = update_inputs(rng, n)
            got = update(au, g, h, u, tau)
            ref = lone_update(au, g, h, u, tau)
            for x, y in zip(got, ref):
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_batched_stack_is_each_member_alone_bitwise(self, tau):
        rng = np.random.default_rng(34)
        for n in (1, 2, 8):
            au, g, h, u = update_inputs(rng, n, (3, 4))
            pair, phi, det_ratio = broyden_mod._apply_update(
                np.stack((g, h), axis=-3), u, h_scalars(au, g, h, u), tau)
            got = pair[..., 0, :, :], pair[..., 1, :, :], phi, det_ratio
            for i in np.ndindex(3, 4):
                ref = lone_update(au[i], g[i], h[i], u[i], tau)
                for x, y in zip(got, ref):
                    assert np.array_equal(x[i], y)

    @pytest.mark.parametrize("tau", KERNEL_TAUS)
    def test_typed_inverse_is_the_lone_inverse_correction_bitwise(self, tau):
        # broyd_inverse is the H_plus half of update_arrays from G^{-1}.
        rng = np.random.default_rng(35)
        for n in (1, 2, 8, 39):
            a, g = random_spd(rng, n), random_spd(rng, n)
            u = rng.standard_normal(n)
            ref = lone_update(a.entries @ u, g.entries, g.inverse_matrix(),
                              u, tau)[1]
            got = broyd_inverse(a, g, PrimalVector(u), tau)
            assert np.array_equal(got.entries, ref)

    def test_one_rank_two_call_per_update(self, monkeypatch):
        counts = {"rank_two": 0, "update": 0, "apply": 0}
        monkeypatch.setattr(broyden_mod, "_rank_two", counting(
            counts, "rank_two", broyden_mod._rank_two))
        monkeypatch.setattr(solver_mod, "update_arrays", counting(
            counts, "update", solver_mod.update_arrays))
        trace = run_quadratic(quad_make(np.geomspace(1.0, 1e3, 6), seed=7),
                              PrimalVector(np.ones(6)), TauSchedule.dfp(),
                              SolverConfig(max_iter=40))
        assert counts["rank_two"] == counts["update"] == len(trace) - 1 > 5

        counts.update(rank_two=0, apply=0)
        monkeypatch.setattr(broyden_mod, "_apply_update", counting(
            counts, "apply", broyden_mod._apply_update))
        verify_mod.run_suite("inverse_identity", n_max=4, trials=12, seed=0)
        assert counts["rank_two"] == counts["apply"] > 0

        rng = np.random.default_rng(3)
        a, g = random_spd(rng, 5), random_spd(rng, 5)
        counts["rank_two"] = 0
        broyd(a, g, PrimalVector(rng.standard_normal(5)), 0.5)
        assert counts["rank_two"] == 1


def own_closeness(au, g, h, u, g_cond):
    """``_closeness``'s four outputs with its own Gu and <u, Au>, as it
    computed them before it read a step's shared update scalars."""
    w = np.matvec(g, u) - au
    z = np.matvec(h, w)
    quad = np.vecdot(w, z)
    energy = np.vecdot(z, np.matvec(g, z))
    ok = abs(energy - quad) <= 4 * u.shape[-1] * broyden_mod._EPS * g_cond * quad
    return np.sqrt(np.maximum(quad, 0.0) / np.vecdot(u, au)), ok, quad, energy


class TestSharedScalars:
    """One set of update scalars per step feeds nu, the quadratic path's r
    and the update, and each reads the same bits it computed alone."""

    @pytest.mark.parametrize("batch, n", [((), 1), ((), 2), ((), 8), ((), 30),
                                          ((), 100), ((3, 4), 1),
                                          ((3, 4), 2), ((3, 4), 8)])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_nu_from_shared_scalars_is_its_own_form_bitwise(self, batch, n,
                                                            tau):
        # nu at the step after an update at tau, on the pair that update
        # returned, as the loop reads it.
        rng = np.random.default_rng(n)
        for _ in range(5):
            au, g, h, u = update_inputs(rng, n, batch)
            pair, _, _ = broyden_mod._apply_update(
                np.stack((g, h), axis=-3), u, h_scalars(au, g, h, u), tau)
            g, h = pair[..., 0, :, :], pair[..., 1, :, :]
            au, _, _, u = update_inputs(rng, n, batch)
            g_cond = broyden_mod._cond_inf(g, h)
            got = broyden_mod._closeness(h_scalars(au, g, h, u), g, h, g_cond)
            ref = own_closeness(au, g, h, u, g_cond)
            for x, y in zip(got, ref):
                assert np.shape(x) == np.shape(y) == batch
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 30, 100, 400])
    def test_r_is_the_root_of_y_dot_u_bitwise(self, n):
        # On the quadratic path y = s * u, and r reads <y, u> from the
        # scalars: the 1-d y @ u it computed before, to the bit.
        rng = np.random.default_rng(n)
        for _ in range(20):
            u = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8)
            y = 10.0 ** rng.uniform(0, 3, n) * u
            g = np.eye(n)
            au_u = h_scalars(y, g, g, u)[2]
            assert math.sqrt(float(au_u)) == math.sqrt(float(y @ u))

    def test_loop_r_is_the_root_of_y_dot_u(self, monkeypatch):
        loop_scalars = solver_mod._scalars
        pairs = []

        def recorded(au, g_mat, u, *args, **kwargs):
            pairs.append((au, u))
            return loop_scalars(au, g_mat, u, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "_scalars", recorded)
        trace = run_quadratic(quad_make(np.geomspace(1.0, 1e3, 12), seed=7),
                              PrimalVector(np.ones(12)), TauSchedule.dfp(),
                              SolverConfig(max_iter=300))
        assert len(pairs) == len(trace) - 1 > 20
        for r, (y, u) in zip(trace.rs, pairs):
            assert r == math.sqrt(float(y @ u))


def sum_barriers(lams):
    """Both potentials of a spectrum in np.sum's form."""
    logs = np.log(lams)
    return (np.sum(logs, axis=-1)[()],
            np.sum(logs - 1.0 + 1.0 / lams, axis=-1)[()])


@pytest.mark.parametrize("shape", [(1,), (7,), (30,), (257,), (5, 30),
                                   (2, 3, 100)])
def test_spectral_barriers_are_the_sum_form_bitwise(shape):
    lams = 10.0 ** np.random.default_rng(shape[-1]).uniform(-1, 3, shape)
    lams.sort(axis=-1)
    for got, ref in zip(spectral_barriers(lams), sum_barriers(lams)):
        assert np.shape(got) == np.shape(ref)
        assert np.array_equal(got, ref)


def old_nu(a_u, g, u) -> float:
    """The closeness measure as first written, ||(G - A)u||*_G / ||u||_A,
    through an explicit Cholesky solve with G, from the image ``a_u`` of u."""
    w = g @ u - a_u
    mid = w @ scipy.linalg.cho_solve((np.linalg.cholesky(g), True), w)
    return math.sqrt(max(float(mid), 0.0) / float(u @ a_u))


@pytest.fixture(scope="module")
def recorded():
    """A quadratic and a log-sum-exp run at each of BFGS, DFP, tau = 0.5 and
    tau = 0.3, with the arrays each loop used, as ``(quadratic, trace,
    record, hess, target)``: ``hess(k)`` is the Hessian at iterate k and
    ``target(k)`` the step target of row k (None on a general run's
    terminal row), both in the loop's coordinates."""
    quad = quad_make(np.geomspace(1.0, 30.0, 8), seed=31)
    x0 = PrimalVector(np.random.default_rng(32).standard_normal(8))
    a = quad.eigenbasis()[1].a_op.entries
    lse = lse_make(8, 20, mu=0.1, seed=424242, gamma=1.0)
    runs = []
    for tau in (0.0, 1.0, 0.5, 0.3):
        tr, rec = record_run(run_quadratic, quad, x0, TauSchedule((tau,)),
                             SolverConfig(max_iter=500, grad_tol=1e-12))
        runs.append((True, tr, rec, lambda k: a, lambda k: a))
        tr, rec = record_run(run_general, lse, PrimalVector(np.zeros(8)),
                             TauSchedule((tau,)),
                             SolverConfig(max_iter=400, grad_tol=1e-13))
        runs.append((False, tr, rec,
                     lambda k, x=rec.xs: lse.hess(PrimalVector(x[k])).entries,
                     lambda k, j=rec.targets: j.get(k)))
    for _, tr, rec, _, _ in runs:
        assert tr.converged and sorted(rec.steps) == list(range(tr.k_final))
    return runs


class TestOneSpectrum:
    def test_range_matches_generalized_eigh(self, recorded):
        for quadratic, trace, rec, hess, target in recorded:
            for k in range(len(trace)):
                g = rec.pair(k)[0]
                ref = scipy.linalg.eigh(g, hess(k), eigvals_only=True)
                lams = rel_eigvals(SpdOperator(g), SpdOperator(hess(k)))
                assert all(close(x, y) for x, y in zip(lams, ref))
                assert close(trace.eig_mins[k], ref[0])
                assert close(trace.eig_maxs[k], ref[-1])
                if target(k) is None:
                    assert math.isnan(trace.j_eig_mins[k])
                    continue
                rng_ref = rel_eigen_range(SpdOperator(g),
                                          SpdOperator(target(k)))
                assert close(trace.j_eig_mins[k], rng_ref.min_rel)
                assert close(trace.j_eig_maxs[k], rng_ref.max_rel)
                if quadratic:
                    # The Hessian is the step target: one spectrum serves
                    # both ranges, bit for bit.
                    assert trace.j_eig_mins[k] == trace.eig_mins[k]
                    assert trace.j_eig_maxs[k] == trace.eig_maxs[k]

    def test_potentials_match_factorized_forms(self, recorded):
        for _, trace, rec, _, target in recorded:
            for k in range(len(trace)):
                if target(k) is None:
                    assert np.isnan([trace.vs[k], trace.psis[k]]).all()
                    continue
                g, t = SpdOperator(rec.pair(k)[0]), SpdOperator(target(k))
                v, psi = spectral_barriers(rel_eigvals(g, t))
                v_ref = logdet_barrier(t, g)
                psi_ref = augmented_barrier(g, t)
                assert close(v, v_ref) and close(trace.vs[k], v_ref)
                assert close(psi, psi_ref) and close(trace.psis[k], psi_ref)

    def test_linear_cost_nu_matches_old_definition(self, recorded):
        # The loop's nu reads the secant y_k (A u_k on a quadratic), the
        # typed nu the target's own image of u_k.
        for _, trace, rec, _, target in recorded:
            for k, step in rec.steps.items():
                assert close(trace.nus[k], old_nu(step.y, step.g, step.u))
                a = target(k)
                assert close(nu(SpdOperator(a), SpdOperator(step.g),
                                PrimalVector(step.u)),
                             old_nu(a @ step.u, step.g, step.u))


def counting(counts, key, fn):
    def wrapped(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapped


def counting_matrices(counts, key, fn):
    """``fn``, adding the number of matrices its first argument holds to
    ``counts[key]``: one, or the leading size of a stack."""
    def wrapped(a, *args, **kwargs):
        counts[key] += math.prod(np.shape(a)[:-2])
        return fn(a, *args, **kwargs)
    return wrapped


def count_decompositions(monkeypatch, counts):
    """Count the matrices that eigenvalue solves, Cholesky factorizations
    and SVDs decompose from here on, a stacked call counting each of its
    matrices.

    ``np.linalg.norm(., 2)`` reaches its SVD through the private module, so
    that name is patched too.
    """
    for mod, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                      (np.linalg, "eig"), (np.linalg, "eigvals"),
                      (scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh")):
        monkeypatch.setattr(mod, name, counting_matrices(
            counts, "eig", getattr(mod, name)))
    for mod, name in ((np.linalg, "cholesky"), (scipy.linalg, "cholesky"),
                      (scipy.linalg, "cho_factor")):
        monkeypatch.setattr(mod, name, counting_matrices(
            counts, "cholesky", getattr(mod, name)))
    for mod, name in ((np.linalg, "svd"), (np.linalg._linalg, "svd"),
                      (scipy.linalg, "svd"), (scipy.linalg, "svdvals")):
        monkeypatch.setattr(mod, name, counting_matrices(
            counts, "svd", getattr(mod, name)))
    monkeypatch.setattr(operators_mod._lapack, "sygst", counting_matrices(
        counts, "reduction", operators_mod._lapack.sygst))


class TestDecompositionCount:
    def test_one_eigendecomposition_and_no_cholesky_per_iteration(
            self, monkeypatch):
        # The run takes the eigenbasis of (A, B) once, one eigh; then each
        # iterate has one matrix decomposed (G_k relative to diag(s), a
        # scaling of G_k), in its block's stacked eigvalsh, which is also
        # G_k's definiteness check, and no Cholesky and no sygst.  A
        # quadratic on the general path runs the same branch.
        quad = quad_make(np.geomspace(1.0, 100.0, 12), seed=5)
        x0 = PrimalVector(np.random.default_rng(6).standard_normal(12))
        for run in (run_quadratic, run_general):
            counts = {"eig": 0, "cholesky": 0, "reduction": 0, "svd": 0}
            with monkeypatch.context() as patch:
                count_decompositions(patch, counts)
                trace = run(quad, x0, TauSchedule.bfgs(),
                            SolverConfig(max_iter=500, grad_tol=1e-12))
            visited = len(trace)
            assert trace.converged and visited > 10
            assert counts == {"eig": visited + 1, "cholesky": 0,
                              "reduction": 0, "svd": 0}

    def test_uninstrumented_quadratic_run_makes_no_decomposition(
            self, monkeypatch):
        # Without instrumentation the update's pairings are the only check
        # of G_k: after the eigenbasis, one eigh, no iteration factors or
        # diagonalizes anything (the general path is pinned below).
        quad = quad_make(np.geomspace(1.0, 1e3, 8), seed=5)
        counts = {"eig": 0, "cholesky": 0, "reduction": 0, "svd": 0}
        count_decompositions(monkeypatch, counts)
        trace = run_quadratic(quad, PrimalVector(np.ones(8)),
                              TauSchedule.bfgs(),
                              SolverConfig(max_iter=400, grad_tol=1e-8,
                                           instrument=False))
        assert trace.converged and len(trace) > 10
        assert counts == {"eig": 1, "cholesky": 0, "reduction": 0, "svd": 0}

    def test_general_path_two_factorizations_per_iteration(self, monkeypatch):
        # Per iterate with a step: Cholesky of the one pointwise Hessian and
        # of the segment mean J (G is never factored, and the gradient
        # factorizes nothing); two pencil spectra plus one symmetric
        # eigenvalue solve
        # for the quadrature check's rule gap (its ||J|| bound reads the
        # diagonal of J first, which suffices here); no SVD.  The terminal
        # iterate has no step, so it drops J, its pencil and the check.
        problem = lse_make(8, 20, mu=0.1, seed=424242, gamma=1.0)
        # The cached Gauss-Legendre nodes come from an eigenvalue solve once
        # per process; build them before counting.
        for order in (16, 32):
            problems_mod._gauss_legendre_rule(order)
        counts = {"eig": 0, "cholesky": 0, "reduction": 0, "svd": 0,
                  "pointwise": 0, "pointwise_in_quadrature": 0}
        count_decompositions(monkeypatch, counts)
        in_quadrature = []

        def pointwise_hessian(*args):
            counts["pointwise_in_quadrature" if in_quadrature
                   else "pointwise"] += 1
            return pointwise_hessian_orig(*args)

        def integral_hessian(*args):
            in_quadrature.append(True)
            try:
                return integral_hessian_orig(*args)
            finally:
                in_quadrature.pop()

        pointwise_hessian_orig = problems_mod.LogSumExpProblem._hess
        integral_hessian_orig = solver_mod.integral_hessian
        monkeypatch.setattr(problems_mod.LogSumExpProblem, "_hess",
                            pointwise_hessian)
        monkeypatch.setattr(solver_mod, "integral_hessian", integral_hessian)

        trace = run_general(problem, PrimalVector(np.zeros(8)),
                            TauSchedule.bfgs(),
                            SolverConfig(max_iter=400, grad_tol=1e-13))
        visited = len(trace)
        steps = int(np.isfinite(trace.nus).sum())
        assert trace.converged and visited > 10 and steps == visited - 1
        assert counts == {"eig": 3 * steps + 1, "cholesky": 2 * steps + 1,
                          "reduction": 2 * steps + 1, "svd": 0,
                          "pointwise": visited, "pointwise_in_quadrature": 0}

    def test_uninstrumented_general_path_builds_no_target(self, monkeypatch):
        # The update reads the secant y_k = grad_{k+1} - grad_k, so without
        # instrumentation a step needs no Hessian, no segment mean, no
        # spectrum and no factor of G.
        problem = lse_make(8, 20, mu=0.1, seed=424242, gamma=1.0)
        counts = {"eig": 0, "cholesky": 0, "reduction": 0, "svd": 0,
                  "quadrature": 0, "hess": 0}
        count_decompositions(monkeypatch, counts)
        monkeypatch.setattr(solver_mod, "integral_hessian", counting(
            counts, "quadrature", solver_mod.integral_hessian))
        monkeypatch.setattr(problems_mod.LogSumExpProblem, "_hess", counting(
            counts, "hess", problems_mod.LogSumExpProblem._hess))

        trace = run_general(problem, PrimalVector(np.zeros(8)),
                            TauSchedule.bfgs(),
                            SolverConfig(max_iter=400, grad_tol=1e-13,
                                         instrument=False))
        visited = len(trace)
        assert trace.converged and visited > 10
        assert counts == {"eig": 0, "cholesky": 0, "reduction": 0,
                          "svd": 0, "quadrature": 0, "hess": 0}


class TestRawLoop:
    """The solver loop runs on raw arrays: typed operators only at entry,
    at exit and in the oracles, and nu under the name the solver exports."""

    @pytest.mark.parametrize("general", [False, True])
    def test_operator_builds_do_not_grow_with_the_run(self, monkeypatch,
                                                      general):
        # An instrumented quadratic run (whose Hessian is its operator) and
        # an uninstrumented general run (which forms no Hessian) validate
        # the same number of operators however many iterates they visit.
        builds = {"spd": 0}
        monkeypatch.setattr(operators_mod.SpdOperator, "__post_init__",
                            counting(builds, "spd",
                                     operators_mod.SpdOperator.__post_init__))
        if general:
            problem = lse_make(6, 15, mu=0.1, seed=7, gamma=1.0)
            run, instrument = run_general, False
        else:
            problem = quad_make(np.geomspace(1.0, 1e3, 6), seed=7)
            run, instrument = run_quadratic, True
        x0 = PrimalVector(np.random.default_rng(8).standard_normal(6))
        seen = []
        for k in (20, 200):
            builds["spd"] = 0
            trace = run(problem, x0, TauSchedule.dfp(),
                        SolverConfig(max_iter=k, grad_tol=0.0,
                                     instrument=instrument))
            assert len(trace) == k + 1
            seen.append(builds["spd"])
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("general", [False, True])
    def test_loop_nu_is_solver_nu(self, monkeypatch, general):
        # The loop passes nu the approximation and its maintained inverse,
        # never a factor: H G = I to the rounding of the updates.  A call
        # measures a block of rows, stacked on the leading axis (a lone row
        # comes unstacked).
        calls = {"nu": 0}
        loop_nu = solver_mod.nu

        def nu_checked(scalars, g_mat, h_mat, g_cond):
            calls["nu"] += math.prod(g_mat.shape[:-2])
            np.testing.assert_allclose(
                h_mat @ g_mat, np.broadcast_to(np.eye(g_mat.shape[-1]),
                                               g_mat.shape), atol=1e-8)
            return loop_nu(scalars, g_mat, h_mat, g_cond)

        monkeypatch.setattr(solver_mod, "nu", nu_checked)
        if general:
            trace = run_general(lse_make(6, 15, mu=0.1, seed=7, gamma=1.0),
                                PrimalVector(np.zeros(6)), TauSchedule.bfgs(),
                                SolverConfig(max_iter=400, grad_tol=1e-13))
        else:
            trace = run_quadratic(quad_make(np.geomspace(1.0, 1e3, 6), seed=7),
                                  PrimalVector(np.ones(6)), TauSchedule.dfp(),
                                  SolverConfig(max_iter=400))
        assert calls["nu"] == int(np.isfinite(trace.nus).sum()) > 5


class TestEigenbasisLambda:
    @pytest.mark.parametrize("n", [2, 5, 30, 100])
    def test_lambda_is_norm_dual_bitwise(self, n):
        # In the eigenbasis lambda is ||g / s^(1/2)||, O(n); the typed
        # norm_dual on diag(s) solves with the factor diag(s^(1/2)) and
        # returns the same double.
        rng = np.random.default_rng(n)
        quad = quad_make(np.geomspace(1.0, 1e6, n), seed=n)
        basis = solver_mod._Eigenbasis.of(quad)
        for _ in range(200):
            g = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8)
            assert basis.norm_dual(g) == norm_dual(basis.problem.a_op,
                                                   DualVector(g))


class TestSetUpCost:
    def test_quadratic_spectrum_is_computed_once(self, monkeypatch):
        # quad_make validates A and takes the one relative spectrum that
        # the certificate, the JSON form and the sharpened factor all read;
        # B = I is the shared identity, never factored.  The content hash
        # then solves nothing.
        counts = {"eig": 0, "cholesky": 0, "reduction": 0, "svd": 0}
        count_decompositions(monkeypatch, counts)
        quad = quad_make(np.geomspace(1.0, 100.0, 12), seed=5)
        assert counts == {"eig": 1, "cholesky": 1, "reduction": 0, "svd": 0}
        problems_mod.instance_hash(quad)
        assert counts == {"eig": 1, "cholesky": 1, "reduction": 0, "svd": 0}
        # The eigenbasis a run takes is one eigh more, and nothing else:
        # the instance in it is assembled without factoring.
        quad.eigenbasis()
        assert counts == {"eig": 2, "cholesky": 1, "reduction": 0, "svd": 0}

    def test_run_builds_its_instance_once(self, monkeypatch, tmp_path):
        # Checking a config builds the instance, and the run uses that one:
        # up to the solver's start, one quad_make's worth of factorizations.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "instance": {"kind": "quadratic", "seed": 5,
                         "spectrum": np.geomspace(1.0, 100.0, 12).tolist()},
            "method": {"kind": "bfgs"}, "x0": {"random_ball": 1.0}}))
        counts = {"eig": 0, "cholesky": 0, "reduction": 0, "svd": 0}
        count_decompositions(monkeypatch, counts)
        at_start = []

        def run_quadratic_counted(*args):
            at_start.append(dict(counts))
            return run_quadratic(*args)

        monkeypatch.setattr(cli_mod, "run_quadratic", run_quadratic_counted)
        assert cli_mod.cmd_run(str(cfg), out=str(tmp_path / "out")) == 0
        assert at_start == [{"eig": 1, "cholesky": 1, "reduction": 0,
                             "svd": 0}]


class TestExplicitInverse:
    """The typed update and the solver take their explicit inverse from
    operators, without a throwaway validated operator."""

    def test_broyd_factorizes_only_its_results(self, rng, monkeypatch):
        a, g = random_spd(rng, 6), random_spd(rng, 6)
        u = PrimalVector(rng.standard_normal(6))
        counts = {"eig": 0, "cholesky": 0, "reduction": 0, "svd": 0}
        count_decompositions(monkeypatch, counts)
        for tau in KERNEL_TAUS:
            broyd(a, g, u, tau)  # validates G_plus and H_plus
        assert counts == {"eig": 0, "cholesky": 2 * len(KERNEL_TAUS),
                          "reduction": 0, "svd": 0}
        for tau in KERNEL_TAUS:
            broyd_inverse(a, g, u, tau)  # validates H_plus
        assert counts["cholesky"] == 3 * len(KERNEL_TAUS)

    def test_starting_inverse_is_the_reference_inverse(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 6))
        b_ref = SpdOperator(m @ m.T + 6.0 * np.eye(6))
        m = rng.standard_normal((6, 6))
        a = SpdOperator(m @ m.T + np.eye(6))
        vals = scipy.linalg.eigh(a.entries, b_ref.entries, eigvals_only=True)
        quad = QuadraticProblem(a_op=a, b=DualVector(np.ones(6)), b_ref=b_ref,
                                mu=float(vals.min()), ell=float(vals.max()))
        # The loop runs in the eigenbasis of (A, B), where B is I: its first
        # update reads G_0 = ell I and H_0 = I / ell, exactly.
        _, rec = record_run(run_quadratic, quad, PrimalVector(np.ones(6)),
                            TauSchedule.bfgs(), SolverConfig(max_iter=3))
        g0, h0 = rec.pair(0)
        assert np.array_equal(h0, np.eye(6) / quad.ell)
        assert np.array_equal(g0, quad.ell * np.eye(6))
