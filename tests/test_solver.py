"""Solver paths: schedules, traces, instrumentation invariants, exports."""

import dataclasses
import math
import pickle
import tracemalloc
from functools import partial

import numpy as np
import pytest

import broyden_lab.broyden as broyden_mod
import broyden_lab.cli as cli_mod
import broyden_lab.problems as problems_mod
import broyden_lab.solver as solver_mod
from broyden_lab import (
    DivergenceError,
    DualVector,
    PrimalVector,
    QuadratureError,
    SolverConfig,
    SpdOperator,
    TauSchedule,
    augmented_barrier,
    lse_make,
    progress_lb_psi,
    progress_lb_v,
    quad_make,
    run_general,
    run_quadratic,
    spectral_barriers,
    trace_reports,
)
from broyden_lab.operators import pencil_eigvals

from helpers import record_run


@pytest.fixture(scope="module")
def lse_instance():
    return lse_make(6, 14, mu=0.1, seed=77, gamma=1.0)


@pytest.fixture(scope="module")
def lse_run(lse_instance):
    """The log-sum-exp BFGS run and the arrays its loop used."""
    x0 = PrimalVector(0.01 * np.random.default_rng(5).standard_normal(6))
    cfg = SolverConfig(max_iter=300, grad_tol=1e-12)
    return record_run(run_general, lse_instance, x0, TauSchedule.bfgs(), cfg)


@pytest.fixture(scope="module")
def lse_trace(lse_run):
    return lse_run[0]


class TestTauSchedule:
    def test_constants(self):
        assert TauSchedule.bfgs().tau_at(3) == 0.0
        assert TauSchedule.dfp().tau_at(0) == 1.0
        assert TauSchedule((0.25,)).sup_tau == 0.25

    def test_sequence_repeats_last(self):
        s = TauSchedule([0.0, 1.0, 0.5])
        assert s.tau_at(1) == 1.0
        assert s.tau_at(10) == 0.5
        assert s.sup_tau == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TauSchedule((1.5,))
        with pytest.raises(ValueError):
            TauSchedule([0.2, -0.1])
        with pytest.raises(ValueError):
            TauSchedule([])
        with pytest.raises(ValueError):
            TauSchedule()

    def test_from_dict(self):
        assert (TauSchedule.from_dict({"kind": "constant", "tau": 0.3})
                == TauSchedule((0.3,)))
        assert (TauSchedule.from_dict({"kind": "sequence", "taus": [0.1, 0.9]})
                == TauSchedule([0.1, 0.9]))
        assert TauSchedule.from_dict({"kind": "bfgs"}).taus == (0.0,)
        assert TauSchedule.from_dict({"kind": "dfp"}).taus == (1.0,)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(grad_tol=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(quad_order=1)

    def test_tolerances_nonnegative(self):
        with pytest.raises(ValueError, match="grad_tol"):
            SolverConfig(grad_tol=math.nan)

    @pytest.mark.parametrize("field", [{"max_iter": 1.5}, {"max_iter": True},
                                       {"quad_order": 16.0},
                                       {"grad_tol": "0"}, {"grad_tol": False},
                                       {"instrument": "no"}])
    def test_field_types(self, field):
        with pytest.raises(TypeError, match=next(iter(field))):
            SolverConfig(**field)

    def test_numpy_integers_accepted(self):
        cfg = SolverConfig(max_iter=np.int64(5), quad_order=np.int32(8),
                           grad_tol=np.float64(1e-9))
        assert cfg.max_iter == 5 and cfg.quad_order == 8


class TestQuadraticPath:
    def test_exact_initial_approximation_converges_in_one_step(self, rng):
        # A = ell*B makes the very first step a Newton step.
        n = 4
        b_ref = SpdOperator(np.eye(n))
        a = b_ref.scaled(3.0)
        from broyden_lab import QuadraticProblem
        q = QuadraticProblem(a_op=a, b=DualVector(rng.standard_normal(n)),
                             b_ref=b_ref, mu=3.0, ell=3.0)
        tr = run_quadratic(q, PrimalVector(rng.standard_normal(n)),
                           TauSchedule.bfgs(), SolverConfig())
        assert tr.converged
        assert tr.k_final == 1
        assert tr.lambdas[1] <= 1e-12

    def test_scalar_problem_one_step(self):
        q = quad_make([2.5], b=DualVector([1.0]), seed=0)
        tr = run_quadratic(q, PrimalVector([4.0]), TauSchedule.dfp(),
                           SolverConfig())
        assert tr.converged and tr.k_final == 1

    def test_needs_a_quadratic(self, lse_instance):
        with pytest.raises(TypeError, match="QuadraticProblem"):
            run_quadratic(lse_instance, PrimalVector(np.zeros(6)),
                          TauSchedule.bfgs(), SolverConfig())

    def test_linear_rate_envelope_holds(self, rng):
        q = quad_make(np.geomspace(1.0, 100.0, 10), seed=31)
        tr = run_quadratic(q, PrimalVector(rng.standard_normal(10)),
                           TauSchedule.bfgs(),
                           SolverConfig(max_iter=500, grad_tol=1e-12))
        rate = 1.0 - q.mu / q.ell
        for k in range(len(tr)):
            assert tr.lambdas[k] <= rate ** k * tr.lambda0 * (1 + 1e-8) + 1e-14

    def test_operator_sandwich_via_eigen_range(self, rng):
        q = quad_make(np.geomspace(1.0, 50.0, 8), seed=32)
        tr = run_quadratic(q, PrimalVector(rng.standard_normal(8)),
                           TauSchedule((0.5,)),
                           SolverConfig(max_iter=300))
        kappa = q.ell / q.mu
        assert np.all(tr.eig_mins >= 1.0 - 1e-8)
        assert np.all(tr.eig_maxs <= kappa * (1.0 + 1e-8))

    def test_distortion_is_exactly_one(self, rng):
        q = quad_make([1.0, 9.0, 3.0], seed=33)
        tr = run_quadratic(q, PrimalVector(rng.standard_normal(3)),
                           TauSchedule.bfgs(), SolverConfig())
        assert np.all(tr.xis == 1.0)

    def test_residual_decrease_diagnostic(self, rng):
        q = quad_make(np.geomspace(1.0, 100.0, 10), seed=30)
        tr = run_quadratic(q, PrimalVector(rng.standard_normal(10)),
                           TauSchedule.bfgs(),
                           SolverConfig(max_iter=500, grad_tol=1e-12))
        # Empirical regularity on this seeded run; the field itself is a
        # diagnostic, never a failure condition in the harness.
        assert tr.lambda_increase_indices == []
        # k = 1 is never counted; a tie counts; a NaN compares false.
        lams = np.array([1.0, 2.0, 1.0, 1.0, 0.5, 0.7, math.nan, 0.1, 0.3])
        marked = dataclasses.replace(tr, lambdas=lams)
        assert marked.lambda_increase_indices == [3, 5, 8]
        assert all(type(k) is int for k in marked.lambda_increase_indices)

    def test_deterministic_reruns(self, rng):
        q = quad_make(np.geomspace(1.0, 30.0, 6), seed=34)
        x0 = PrimalVector(rng.standard_normal(6))
        cfg = SolverConfig(max_iter=200)
        t1 = run_quadratic(q, x0, TauSchedule.bfgs(), cfg)
        t2 = run_quadratic(q, x0, TauSchedule.bfgs(), cfg)
        np.testing.assert_array_equal(t1.lambdas, t2.lambdas)
        np.testing.assert_array_equal(t1.nus[:-1], t2.nus[:-1])

    def test_potential_decrease_per_update(self, rng):
        # Both potentials drop by at least their guaranteed amounts.
        q = quad_make(np.geomspace(1.0, 40.0, 7), seed=35)
        tr = run_quadratic(q, PrimalVector(rng.standard_normal(7)),
                           TauSchedule((0.5,)),
                           SolverConfig(max_iter=300))
        for k in range(tr.k_final):
            if math.isnan(tr.nus[k]):
                continue
            eta = max(1.0, tr.eig_maxs[k])
            xi = max(1.0, 1.0 / tr.eig_mins[k])
            dec_v = tr.vs[k] - tr.vs[k + 1]
            dec_psi = tr.psis[k] - tr.psis[k + 1]
            assert dec_v >= progress_lb_v(eta, tr.taus[k], tr.nus[k]) - 1e-8
            # psi decrease toward a fixed target dominates the same bound
            # evaluated with the tight bracket.
            assert dec_psi >= progress_lb_psi(xi, eta, tr.taus[k],
                                              tr.nus[k]) - 1e-8

    def test_start_at_minimizer(self):
        q = quad_make([1.0, 2.0], b=DualVector([0.0, 0.0]), seed=36)
        tr = run_quadratic(q, PrimalVector([0.0, 0.0]), TauSchedule.bfgs(),
                           SolverConfig())
        assert tr.converged and tr.k_final == 0
        assert math.isnan(tr.rs[0])

    def test_max_iter_respected(self, rng):
        q = quad_make(np.geomspace(1.0, 1000.0, 8), seed=37)
        tr = run_quadratic(q, PrimalVector(rng.standard_normal(8)),
                           TauSchedule.dfp(),
                           SolverConfig(max_iter=5, grad_tol=0.0))
        assert not tr.converged
        assert len(tr) == 6

    def test_secant_residual_quadratic(self, rng):
        # In the eigenbasis the update reads the secant s * u_k, exactly A u_k
        # there, and G_{k+1} maps u_k onto it to rounding.  The measured
        # gradient difference matches it to the rounding of two gradients;
        # a step whose difference sinks toward that noise (about
        # eps * ell * |x|) is skipped.
        q = quad_make(np.geomspace(1.0, 20.0, 5), seed=38)
        tr, rec = record_run(run_quadratic, q,
                             PrimalVector(rng.standard_normal(5)),
                             TauSchedule.bfgs(), SolverConfig(max_iter=200))
        spectrum = q.eigenbasis()[1].spectrum
        assert sorted(rec.steps) == list(range(tr.k_final))
        assert all(np.array_equal(step.y, spectrum * step.u)
                   for step in rec.steps.values())
        res = rec.secant_residuals()
        assert res and max(res) <= 1e-10
        eps = np.finfo(float).eps
        measured = 0
        for k, step in rec.steps.items():
            dg = rec.grads[k + 1] - rec.grads[k]
            noise_floor = eps * q.ell * (np.linalg.norm(rec.xs[k])
                                         + np.linalg.norm(rec.xs[k + 1]) + 1.0)
            if np.linalg.norm(dg) > 1e10 * noise_floor:
                measured += 1
                assert (np.linalg.norm(step.y - dg)
                        <= 1e-10 * np.linalg.norm(dg)), k
        assert measured > 0

    def test_final_iterate_is_the_minimizer(self, rng):
        q = quad_make([1.0, 2.0], seed=39)
        tr = run_quadratic(q, PrimalVector(rng.standard_normal(2)),
                           TauSchedule.bfgs(), SolverConfig())
        assert tr.converged
        np.testing.assert_allclose(tr.x_final.coords, q.minimizer().coords,
                                   atol=1e-9)

    def test_unrecorded_trace_memory_per_iterate(self):
        # A long run that never stops early: past its fixed parts, what the
        # trace retains is its columns.  Every row stores all 13 whether or
        # not it is instrumented; without instrumentation the run is 3x
        # faster under tracemalloc.  In the eigenbasis a gradient can round
        # to exactly zero, which stops even a grad_tol 0 run (the seed 72
        # instance from seed 73 does at k = 1,119); this start never does.
        q = quad_make(np.geomspace(1.0, 1e3, 4), seed=75)
        x0 = PrimalVector(np.random.default_rng(76).standard_normal(4))
        cfg = SolverConfig(max_iter=10_000, grad_tol=0.0, instrument=False)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tr = run_quadratic(q, x0, TauSchedule.dfp(), cfg)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tr) == 10_001
        assert retained / len(tr) <= 150.0

    def test_quadratic_run_peak_in_nxn_arrays(self):
        # One instrumented n = 200 run holds V, B V, d d^T, diag(s) and its
        # factor, and the (G, H) pair, and at the update's peak the new
        # pair and a pair-sized work array: 11.1 n x n arrays traced (14.1
        # while the eigenbasis kept its own I and its factor, the operators
        # copied their arrays and the loop kept B^-1).  The bound leaves
        # 0.9 of an array of margin.
        n = 200
        q = quad_make(np.geomspace(1.0, 1e3, n), seed=n)
        x0 = PrimalVector(np.ones(n))
        cfg = SolverConfig(max_iter=20, grad_tol=0.0)
        tracemalloc.start()
        try:
            tr = run_quadratic(q, x0, TauSchedule.bfgs(), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tr) == 21
        assert peak / (8 * n * n) <= 12.0

    @pytest.mark.parametrize("general", [False, True])
    def test_inverse_off_by_1e6_fails_at_a_named_k(self, monkeypatch,
                                                   general):
        # The loop never factors G_k, so nu's cross-check is what holds the
        # maintained H_k to G_k's inverse: an update whose inverse is off by
        # 1e-6 relative ends an instrumented kappa = 1e3 run at the first
        # step that reads it, well above the derived floor
        # (4 n eps cond(G_k), at most 1e-8 here).
        loop_update = solver_mod.update_arrays

        def off_update(*args):
            pair, phi, det_ratio = loop_update(*args)
            return np.stack((pair[0], pair[1] * (1.0 + 1e-6))), phi, det_ratio

        monkeypatch.setattr(solver_mod, "update_arrays", off_update)
        if general:
            problem, run = lse_make(8, 20, mu=0.1, seed=424242,
                                    gamma=1.0), run_general
        else:
            problem, run = quad_make(np.geomspace(1.0, 1e3, 8),
                                     seed=4), run_quadratic
        assert problem.ell / problem.mu <= 1e3
        with pytest.raises(DivergenceError,
                           match="iteration 1: closeness forms disagree"):
            run(problem, PrimalVector(np.ones(8)), TauSchedule.bfgs(),
                SolverConfig(max_iter=500))

    @staticmethod
    def _failing_run(general):
        if general:
            return lse_make(8, 20, mu=0.1, seed=424242, gamma=1.0), run_general
        return quad_make(np.geomspace(1.0, 1e3, 8), seed=4), run_quadratic

    @pytest.mark.parametrize("general", [False, True])
    def test_nu_check_fails_before_the_pairings(self, monkeypatch, general):
        # An update that hands back -H_plus breaks both checks of the next
        # step: <w, Hw> and <y, Hy> turn negative.  The step's one set of
        # update scalars feeds both, and nu's check still raises first.
        loop_update, loop_scalars = (solver_mod.update_arrays,
                                     solver_mod._scalars)
        seen = []

        def negated_inverse(*args):
            pair, phi, det_ratio = loop_update(*args)
            return np.stack((pair[0], -pair[1])), phi, det_ratio

        def recorded_scalars(*args, **kwargs):
            seen.append(loop_scalars(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(solver_mod, "update_arrays", negated_inverse)
        monkeypatch.setattr(solver_mod, "_scalars", recorded_scalars)
        problem, run = self._failing_run(general)
        with pytest.raises(DivergenceError,
                           match="iteration 1: closeness forms disagree"):
            run(problem, PrimalVector(np.ones(8)), TauSchedule.bfgs(),
                SolverConfig(max_iter=500))
        # The pairing check would refuse that step too: <y, Hy> < 0.
        assert len(seen) == 2 and seen[1][5] < 0.0

    @pytest.mark.parametrize("general", [False, True])
    def test_pairing_failure_keeps_its_message_and_k(self, monkeypatch,
                                                     general):
        # <y, Hy> of the third step turns negative; nu does not read it, so
        # its check passes and the update's pairing check stops the run.
        loop_scalars = solver_mod._scalars
        calls = []

        def third_step_breaks(*args, **kwargs):
            au, gu, au_u, gu_u, z, aha = loop_scalars(*args, **kwargs)
            calls.append(aha)
            return au, gu, au_u, gu_u, z, -aha if len(calls) == 3 else aha

        monkeypatch.setattr(solver_mod, "_scalars", third_step_breaks)
        problem, run = self._failing_run(general)
        with pytest.raises(DivergenceError,
                           match=r"iteration 2: approximation lost "
                                 r"definiteness \(update pairings must be "
                                 r"positive for SPD inputs; got <Au,u>=") as err:
            run(problem, PrimalVector(np.ones(8)), TauSchedule.bfgs(),
                SolverConfig(max_iter=500))
        assert err.value.k == 2 and len(calls) == 3


class TestGeneralPath:
    def test_converges_and_records(self, lse_trace):
        assert lse_trace.converged
        assert lse_trace.lambdas[-1] <= 1e-12
        assert np.all(np.isfinite(lse_trace.lambdas))

    def test_distortion_recurrence(self, lse_instance, lse_trace):
        big_m = lse_instance.sc_const
        xis = lse_trace.xis
        assert xis[0] == 1.0
        for k in range(lse_trace.k_final):
            expected = xis[k] * math.exp(big_m * lse_trace.rs[k])
            assert xis[k + 1] == pytest.approx(expected, rel=1e-12)

    def test_step_length_bound(self, lse_trace):
        # r_k <= xi_k * lambda_k along the whole trajectory.
        for k in range(lse_trace.k_final):
            if math.isnan(lse_trace.rs[k]):
                continue
            assert lse_trace.rs[k] <= (lse_trace.xis[k] * lse_trace.lambdas[k]
                                       + 1e-10)

    def test_hessian_sandwich_with_measured_distortion(self, lse_instance,
                                                       lse_trace):
        # 1/xi_k <= eig(G_k vs H(x_k)) <= xi_k * ell/mu, every iteration.
        kappa = lse_instance.ell / lse_instance.mu
        for k in range(len(lse_trace)):
            xi = lse_trace.xis[k]
            assert lse_trace.eig_mins[k] >= 1.0 / xi - 1e-8
            assert lse_trace.eig_maxs[k] <= xi * kappa + 1e-8 * kappa

    def test_segment_target_sandwich_with_lookahead_distortion(self, lse_instance,
                                                               lse_trace):
        # 1/xi_{k+1} <= eig(G_k vs J_k) <= xi_{k+1} * ell/mu per step.
        kappa = lse_instance.ell / lse_instance.mu
        for k in range(lse_trace.k_final):
            if math.isnan(lse_trace.j_eig_mins[k]):
                continue
            xi_next = lse_trace.xis[k + 1]
            assert lse_trace.j_eig_mins[k] >= 1.0 / xi_next - 1e-8
            assert lse_trace.j_eig_maxs[k] <= xi_next * kappa + 1e-8 * kappa

    def test_augmented_potential_decrease_vs_segment_target(self, lse_run):
        # psi(G_k, J_k) - psi(G_{k+1}, J_k) >= guaranteed progress, with the
        # bracket read off the measured eigen ranges against J_k.
        tr, rec = lse_run
        assert sorted(rec.steps) == sorted(rec.targets) == list(
            range(tr.k_final))
        for k, step in rec.steps.items():
            psi_tilde = augmented_barrier(SpdOperator(step.g_next),
                                          SpdOperator(rec.targets[k]))
            xi = max(1.0, 1.0 / tr.j_eig_mins[k])
            eta = max(1.0, tr.j_eig_maxs[k])
            bound = progress_lb_psi(xi, eta, tr.taus[k], tr.nus[k])
            assert tr.psis[k] - psi_tilde >= bound - 1e-8

    def test_secant_residual_general(self, lse_run):
        # The update reads the measured gradient difference itself, so the
        # secant equation holds to rounding, not to quadrature error.
        tr, rec = lse_run
        for k, step in rec.steps.items():
            assert np.array_equal(step.y, rec.grads[k + 1] - rec.grads[k])
        res = rec.secant_residuals()
        assert len(res) == tr.k_final and max(res) <= 1e-13

    @pytest.mark.parametrize("n, m, mu, taus", [
        (100, 400, 0.005, (0.0,)),
        (30, 90, 0.01, (1.0,)),
        (30, 90, 0.01, (0.5,)),
    ])
    def test_segment_mean_maps_step_to_secant(self, n, m, mu, taus):
        # Mean value theorem: J_k u_k = y_k = grad_{k+1} - grad_k.  The
        # measured J_k may miss it by its quadrature error times ||u_k||
        # plus the rounding of the two gradients, eps (gamma + mu ||x||)
        # each; a check independent of the quadrature's own two-rule gap.
        p = lse_make(n, m, mu=mu, seed=3, gamma=1.0)
        tr, rec = record_run(run_general, p, PrimalVector(np.zeros(n)),
                             TauSchedule(taus), SolverConfig(max_iter=1000))
        assert tr.converged and tr.k_final > 50
        assert sorted(rec.steps) == list(range(tr.k_final))
        eps = np.finfo(float).eps
        for k, step in rec.steps.items():
            u, y = step.u, step.y
            resid = np.linalg.norm(rec.targets[k] @ u - y)
            x_norms = np.linalg.norm(rec.xs[k]) + np.linalg.norm(rec.xs[k + 1])
            floor = eps * (p.gamma + p.mu * x_norms)
            assert resid <= 4.0 * (tr.est_errors[k] * np.linalg.norm(u)
                                   + floor), k

    def test_quadrature_errors_recorded_small(self, lse_trace):
        errs = lse_trace.est_errors[:-1]
        assert np.all(errs[np.isfinite(errs)] <= 1e-9)

    def test_single_term_instance_closed_form(self):
        # m = 1 makes the smooth part linear: the minimizer is -a_1/mu.
        from broyden_lab import LogSumExpProblem
        p = LogSumExpProblem(
            a_mat=np.array([[0.3, -0.4, 0.2]]), b_shift=np.array([0.0]),
            mu=0.5, b_ref=SpdOperator(np.eye(3)), gamma=1.0,
        )
        inst = p
        tr = run_general(inst, PrimalVector(np.zeros(3)), TauSchedule.bfgs(),
                         SolverConfig(max_iter=10, grad_tol=1e-13))
        assert tr.converged and tr.k_final <= 2
        np.testing.assert_allclose(tr.x_final.coords,
                                   -p.a_mat[0] / 0.5, atol=1e-12)

    def test_quadratic_through_general_path_matches(self, rng):
        q = quad_make(np.geomspace(1.0, 100.0, 6), seed=40)
        x0 = PrimalVector(rng.standard_normal(6))
        cfg = SolverConfig(max_iter=300, grad_tol=1e-12)
        t_quad = run_quadratic(q, x0, TauSchedule.bfgs(), cfg)
        t_gen = run_general(q, x0,
                            TauSchedule.bfgs(), cfg)
        assert np.all(t_gen.xis == 1.0)
        assert len(t_quad) == len(t_gen)
        np.testing.assert_allclose(t_gen.lambdas, t_quad.lambdas, rtol=1e-12)

    def test_divergent_input_reported_with_iteration(self):
        p = lse_make(3, 5, mu=0.1, seed=41, gamma=1.0)
        inst = p
        x0 = PrimalVector(np.full(3, 1e308))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as err:
            run_general(inst, x0, TauSchedule.bfgs(), SolverConfig())
        assert err.value.k <= 1
        assert "iteration" in str(err.value)

    def test_quadrature_error_threshold_enforced(self, rng):
        # A two-node rule is far coarser than the fixed tolerance allows, so
        # the gate trips on the first step.
        p = lse_make(2, 3, mu=0.1, seed=42, gamma=1.0)
        inst = p
        x0 = PrimalVector(rng.standard_normal(2))
        with pytest.raises(QuadratureError) as err:
            run_general(inst, x0, TauSchedule.bfgs(),
                        SolverConfig(max_iter=50, quad_order=2))
        assert err.value.k == 0

    @pytest.mark.parametrize("est, fails", [(1.5e-9, False), (2.0e-9, True)])
    def test_quadrature_gate_measures_against_the_norm_of_j(self, rng,
                                                           monkeypatch, est,
                                                           fails):
        # ||J|| = 1.9 while J's largest diagonal entry is 1: an estimate
        # above the diagonal's share but within 1e-9 * ||J|| passes.
        j_op = SpdOperator(np.array([[1.0, 0.9], [0.9, 1.0]]))
        monkeypatch.setattr(
            solver_mod, "integral_hessian",
            lambda *args: problems_mod.IntegralHessian(j_op, est))
        p = lse_make(2, 3, mu=0.1, seed=42, gamma=1.0)
        x0 = PrimalVector(rng.standard_normal(2))
        cfg = SolverConfig(max_iter=5)
        if fails:
            with pytest.raises(QuadratureError) as err:
                run_general(p, x0, TauSchedule.bfgs(), cfg)
            assert err.value.k == 0
        else:
            tr = run_general(p, x0, TauSchedule.bfgs(), cfg)
            assert np.all(tr.est_errors[:-1] == est)

    def test_quadrature_error_reported_before_next_gradient(self, rng,
                                                            monkeypatch):
        # A step measures its segment mean before it evaluates the gradient
        # at the next iterate, so when both fail the error names the step.
        p = lse_make(2, 3, mu=0.1, seed=42, gamma=1.0)
        grad = type(p)._grad
        calls = []

        def grad_overflowing_after_the_first(self, xc):
            calls.append(xc)
            return grad(self, xc) if len(calls) == 1 else np.full(2, np.inf)

        monkeypatch.setattr(type(p), "_grad", grad_overflowing_after_the_first)
        with pytest.raises(QuadratureError) as err:
            run_general(p, PrimalVector(rng.standard_normal(2)),
                        TauSchedule.bfgs(),
                        SolverConfig(max_iter=50, quad_order=2))
        assert err.value.k == 0 and len(calls) == 1

    def test_uninstrumented_run_makes_no_quadrature(self, rng):
        # The same run without instrumentation updates from the gradient
        # difference alone, so the coarse rule is never evaluated.
        p = lse_make(2, 3, mu=0.1, seed=42, gamma=1.0)
        x0 = PrimalVector(rng.standard_normal(2))
        tr = run_general(p, x0, TauSchedule.bfgs(),
                         SolverConfig(max_iter=50, quad_order=2,
                                      instrument=False))
        assert tr.converged
        assert np.all(np.isnan(tr.est_errors))


class TestExports:
    def test_csv_schema_and_determinism(self, tmp_path, rng):
        q = quad_make(np.geomspace(1.0, 10.0, 4), seed=50)
        x0 = PrimalVector(rng.standard_normal(4))
        cfg = SolverConfig(max_iter=100)
        paths = []
        for i in range(2):
            tr = run_quadratic(q, x0, TauSchedule.bfgs(), cfg)
            path = tmp_path / f"trace{i}.csv"
            tr.to_csv(path)
            paths.append(path)
        b1, b2 = paths[0].read_bytes(), paths[1].read_bytes()
        assert b1 == b2
        header = b1.decode().splitlines()[0]
        assert header == "k,lambda,g,r,xi,nu,v,psi,eig_min,eig_max,tau"
        rows = b1.decode().strip().splitlines()[1:]
        assert len(rows) == len(run_quadratic(q, x0, TauSchedule.bfgs(), cfg))

    def test_column_formatting_writes_the_cell_bytes(self, tmp_path, rng,
                                                     monkeypatch):
        # to_csv formats a column at a time, in blocks of rows (small here,
        # so the run spans several); the bytes are those of write_csv's
        # per-cell formatting, NaN, signed zero and inf included.
        monkeypatch.setattr(solver_mod, "_CSV_BLOCK", 7)
        q = quad_make(np.geomspace(1.0, 10.0, 4), seed=50)
        tr = run_quadratic(q, PrimalVector(rng.standard_normal(4)),
                           TauSchedule.bfgs(), SolverConfig(max_iter=100))
        tr.gs[:3] = (-0.0, np.inf, -np.inf)
        tr.to_csv(tmp_path / "columns.csv")
        cols = [getattr(tr, name + "s") for name in solver_mod._CSV_COLUMNS[1:]]
        solver_mod.write_csv(tmp_path / "cells.csv", solver_mod._CSV_COLUMNS,
                             zip(range(len(tr)), *cols))
        data = (tmp_path / "columns.csv").read_bytes()
        assert data == (tmp_path / "cells.csv").read_bytes()
        assert b",nan," in data and b",-0.0," in data and b",-inf," in data

    @pytest.mark.parametrize("general", [False, True])
    def test_envelope_columns_write_the_cell_bytes(self, tmp_path, rng,
                                                   monkeypatch, general):
        # envelopes.csv goes through trace.csv's block writer; its bytes are
        # those of write_csv's per-cell formatting of the report columns,
        # for reports that start at k = 0 and at k = 1.
        monkeypatch.setattr(solver_mod, "_CSV_BLOCK", 7)
        if general:
            p = lse_make(3, 6, mu=0.3, seed=54, gamma=1.0)
            tr = run_general(p, PrimalVector(np.full(3, 0.5)),
                             TauSchedule.bfgs(), SolverConfig(max_iter=100))
            names = ("general_linear", "general_superlinear")
        else:
            q = quad_make(np.geomspace(1.0, 10.0, 4), seed=50)
            tr = run_quadratic(q, PrimalVector(rng.standard_normal(4)),
                               TauSchedule.bfgs(), SolverConfig(max_iter=100))
            names = ("quad_linear", "quad_superlinear")
        reports = trace_reports(tr, names)
        assert {int(r.ks[0]) for r in reports} == {0, 1} and len(tr) > 14
        reports[-1].bound[:2] = (np.nan, np.inf)
        cli_mod._write_envelopes(tmp_path / "columns.csv", reports,
                                 tr.lambdas)
        solver_mod.write_csv(tmp_path / "cells.csv",
                             *_envelope_cells(reports, tr.lambdas))
        data = (tmp_path / "columns.csv").read_bytes()
        assert data == (tmp_path / "cells.csv").read_bytes()
        assert data.splitlines()[1].endswith(b",,")

    def test_envelope_csv_peaks_no_higher_than_trace_csv(self, tmp_path):
        # Both files are written a block of rows at a time, so a long trace
        # is never held as Python objects; envelopes.csv has fewer float
        # columns than trace.csv, even with every report.
        tr = _synthetic_trace(20_001)
        reports = trace_reports(tr, ("quad_linear", "quad_superlinear",
                                     "general_linear", "general_superlinear"))
        peaks = []
        for write in (lambda: tr.to_csv(tmp_path / "trace.csv"),
                      lambda: cli_mod._write_envelopes(
                          tmp_path / "envelopes.csv", reports, tr.lambdas)):
            tracemalloc.start()
            try:
                write()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        trace_peak, envelopes_peak = peaks
        assert envelopes_peak <= trace_peak

    def test_csv_roundtrip_values(self, tmp_path, rng):
        q = quad_make([1.0, 6.0], seed=51)
        tr = run_quadratic(q, PrimalVector(rng.standard_normal(2)),
                           TauSchedule.bfgs(), SolverConfig(max_iter=50))
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        np.testing.assert_array_equal(data["lambda"], tr.lambdas)
        np.testing.assert_array_equal(data["xi"], tr.xis)

    def test_uninstrumented_run_skips_hessian_work(self, rng):
        q = quad_make(np.geomspace(1.0, 10.0, 4), seed=53)
        cfg = SolverConfig(max_iter=200, grad_tol=1e-10, instrument=False)
        tr = run_quadratic(q, PrimalVector(rng.standard_normal(4)),
                           TauSchedule.bfgs(), cfg)
        assert tr.converged
        assert np.all(np.isnan(tr.lambdas))
        assert np.all(np.isnan(tr.vs))


def _envelope_cells(reports, measured):
    """envelopes.csv's header and rows cell by cell, for write_csv: each
    report column is None where the report has no entry."""
    header = ["k", "measured"]
    columns = [range(len(measured)), measured]
    for rep in reports:
        header += [f"bound_{rep.name}", f"ok_{rep.name}"]
        for values in (rep.bound, rep.satisfied):
            column = np.full(len(measured), None, dtype=object)
            column[rep.ks] = values.tolist()
            columns.append(column)
    return header, zip(*columns)


def _synthetic_trace(rows: int):
    """A trace of ``rows`` iterates with made-up columns: a geometric
    residual and distortions just above 1, so every envelope is finite."""
    rng = np.random.default_rng(81)
    cols = {name + "s": rng.uniform(0.5, 2.0, rows)
            for name in solver_mod._ROW_COLUMNS}
    cols["lambdas"] = np.geomspace(1.0, 1e-12, rows)
    cols["xis"] = 1.0 + rng.uniform(0.0, 1e-3, rows)
    return solver_mod.IterationTrace(
        problem=quad_make(np.geomspace(1.0, 10.0, 4), seed=80),
        schedule=TauSchedule.bfgs(), x_final=PrimalVector(np.zeros(4)),
        converged=True, **cols)


def _zero_step_quadratic():
    # The first gradient is 1e-80, so the step H_0 g = g / ell is about
    # 1e-194 and its coordinates underflow below the zero-direction norm:
    # every iterate of this run takes a zero step.
    from broyden_lab import QuadraticProblem
    return QuadraticProblem(
        a_op=SpdOperator(1e100 * np.diag([1.0, 1e14])),
        b=DualVector(np.zeros(2)), b_ref=SpdOperator(np.eye(2)),
        mu=1e100, ell=1e114,
    )


class TestRowPattern:
    """Which columns each kind of row measures, on both paths."""

    @staticmethod
    def run(path, instrument, problem, x0, **cfg):
        """The trace of a BFGS run and the arrays its loop used."""
        run = run_general if path == "general" else run_quadratic
        return record_run(run, problem, x0, TauSchedule.bfgs(),
                          SolverConfig(instrument=instrument, **cfg))

    @staticmethod
    def measured(tr, k, instrument, *names):
        for name in names:
            vals = getattr(tr, name)
            assert np.isfinite(vals[k]) == instrument, (name, k)

    @staticmethod
    def unmeasured(tr, k, *names):
        for name in names:
            assert math.isnan(getattr(tr, name)[k]), (name, k)

    @pytest.mark.parametrize("instrument", [True, False])
    @pytest.mark.parametrize("path", ["quadratic", "general"])
    def test_zero_step_rows(self, path, instrument):
        x0 = PrimalVector([1e-180, 0.0])
        tr, rec = self.run(path, instrument, _zero_step_quadratic(), x0,
                           max_iter=2, grad_tol=0.0)
        assert not tr.converged and len(tr) == 3
        for k in (0, 1):
            assert tr.rs[k] == 0.0 and tr.est_errors[k] == 0.0
            assert tr.taus[k] == 0.0
            self.unmeasured(tr, k, "nus")
            # The step target is the Hessian at this same iterate.
            self.measured(tr, k, instrument, "lambdas", "vs", "psis",
                          "eig_mins", "eig_maxs", "j_eig_mins", "j_eig_maxs")
        # No step updates or builds a target, and the iterate never moves:
        # its one gradient is the first, and the run returns x0 itself.
        assert not rec.steps and not rec.targets and list(rec.grads) == [0]
        np.testing.assert_array_equal(tr.x_final.coords, x0.coords)
        np.testing.assert_array_equal(tr.xis, 1.0)
        self.unmeasured(tr, 2, "rs", "nus", "taus", "est_errors")

    @pytest.mark.parametrize("instrument", [True, False])
    @pytest.mark.parametrize("path", ["quadratic", "general"])
    def test_step_and_terminal_rows_on_a_quadratic(self, path, instrument, rng):
        q = quad_make(np.geomspace(1.0, 30.0, 5), seed=60)
        tr, rec = self.run(path, instrument, q,
                           PrimalVector(rng.standard_normal(5)), max_iter=200)
        assert tr.converged
        # Every step moves and updates.  Its target is A itself, so no step
        # builds a segment mean; an uninstrumented step has a NaN
        # quadrature error, never measured.
        assert sorted(rec.steps) == list(range(tr.k_final))
        assert list(rec.grads) == list(range(len(tr)))
        assert not rec.targets
        for k in range(tr.k_final):
            assert tr.xis[k] == 1.0
            self.measured(tr, k, instrument, "lambdas", "rs", "nus", "vs",
                          "psis", "eig_mins", "eig_maxs", "j_eig_mins",
                          "j_eig_maxs", "est_errors")
            if instrument:
                assert tr.est_errors[k] == 0.0
                # One spectrum serves both ranges when the target is A.
                assert tr.j_eig_mins[k] == tr.eig_mins[k]
                assert tr.j_eig_maxs[k] == tr.eig_maxs[k]
        last = tr.k_final
        self.unmeasured(tr, last, "rs", "nus", "taus", "est_errors")
        self.measured(tr, last, instrument, "lambdas", "eig_mins", "eig_maxs")
        # Toward the fixed operator the potentials stay defined at the end;
        # the general path has no step target there.
        self.measured(tr, last, instrument and path == "quadratic",
                      "vs", "psis", "j_eig_mins", "j_eig_maxs")

    @pytest.mark.parametrize("instrument", [True, False])
    def test_general_rows_on_log_sum_exp(self, lse_instance, instrument):
        x0 = PrimalVector(0.01 * np.random.default_rng(5).standard_normal(6))
        tr, rec = self.run("general", instrument, lse_instance, x0,
                           max_iter=300)
        # Every step moves and updates; only an instrumented one builds its
        # segment mean J_k, and the terminal row has neither.
        assert sorted(rec.steps) == list(range(tr.k_final))
        assert list(rec.grads) == list(range(len(tr)))
        assert sorted(rec.targets) == (list(range(tr.k_final)) if instrument
                                       else [])
        for k in range(tr.k_final):
            self.measured(tr, k, instrument, "lambdas", "rs", "nus", "vs",
                          "psis", "eig_mins", "eig_maxs", "j_eig_mins",
                          "j_eig_maxs", "est_errors")
            if instrument:
                assert 0.0 <= tr.est_errors[k] <= 1e-9
        # The distortion starts at 1 and accumulates measured step lengths.
        assert tr.xis[0] == 1.0
        for k in range(1, len(tr)):
            self.measured(tr, k, instrument, "xis")
        last = tr.k_final
        self.unmeasured(tr, last, "rs", "nus", "taus", "est_errors", "vs",
                        "psis", "j_eig_mins", "j_eig_maxs")
        self.measured(tr, last, instrument, "lambdas", "eig_mins", "eig_maxs")

    @pytest.mark.parametrize("instrument", [True, False])
    def test_noise_secant_skips_the_update(self, instrument):
        # Run on past convergence, a step's gradient difference y is
        # rounding noise.  Where it breaks mu |u|^2 <= 2 <y, u> or
        # |y|_*^2 <= 2 ell <y, u>, as no true secant can, the iterate still
        # takes the step but G stays as it was and the step has no nu; every
        # other step updates.
        p = lse_make(4, 12, mu=0.01, seed=1)
        tr, rec = self.run("general", instrument, p, PrimalVector(np.zeros(4)),
                           max_iter=200, grad_tol=0.0)
        assert not tr.converged and len(tr) == 201
        assert list(rec.grads) == list(range(len(tr)))
        b = p.b_ref
        skipped = []
        for k in range(tr.k_final):
            # The step -H_k g_k, as the loop takes it: bitwise the step of
            # every update the loop made.
            u = -(rec.pair(k)[1] @ rec.grads[k])
            assert k not in rec.steps or np.array_equal(u, rec.steps[k].u), k
            y = rec.grads[k + 1] - rec.grads[k]
            yu = 2.0 * float(y @ u)
            noise = (yu < p.mu * b.quad_form(u)
                     or p.ell * yu < b.inv_quad_form(y))
            assert (k not in rec.steps) == noise, k
            if noise:
                skipped.append(k)
                assert np.linalg.norm(rec.grads[k]) < 1e-10, k
                self.unmeasured(tr, k, "nus")
            else:
                self.measured(tr, k, instrument, "nus")
        assert len(skipped) > 50


class TestBlocks:
    """The loop measures its rows a block at a time: one stacked spectrum,
    nu and potentials call per block.  Every row reads what it would read
    measured alone, and a failure names the row it would name alone."""

    # n, the quadratic's condition number, and a run length that fills at
    # least one block and leaves a partial last one; from n = 74 on a block
    # has one row.
    CASES = [(3, 1e12, 1300), (8, 1e6, 200), (30, 1e3, 29), (80, 1e3, 6)]

    @pytest.mark.parametrize("general", [False, True])
    @pytest.mark.parametrize("n, kappa, max_iter", CASES)
    def test_rows_are_their_lone_measurements_bit_for_bit(
            self, n, kappa, max_iter, general):
        q = quad_make(np.geomspace(1.0, kappa, n), seed=n)
        run = run_general if general else run_quadratic
        trace, rec = record_run(run, q, PrimalVector(np.ones(n)),
                                TauSchedule.dfp(),
                                SolverConfig(max_iter=max_iter, grad_tol=0.0))
        size = solver_mod._block_rows(n)
        assert len(trace) == max_iter + 1 and len(trace) > size
        assert size == 1 or len(trace) % size
        basis = solver_mod._Eigenbasis.of(q)
        b = basis.problem.b_ref
        ref_cond = basis.problem.ell / basis.problem.mu * float(
            broyden_mod._cond_inf(b.entries, b.inverse_matrix()))
        nan = math.nan
        want = {name: np.full(len(trace), nan)
                for name in ("eig_mins", "eig_maxs", "vs", "psis", "nus")}
        for k in range(len(trace)):
            g, h = rec.pair(k)
            lams = np.linalg.eigvalsh(g * basis.ddt)
            lo, hi = float(lams[0]), float(lams[-1])
            want["eig_mins"][k], want["eig_maxs"][k] = lo, hi
            if not (general and k == trace.k_final):
                want["vs"][k], want["psis"][k] = spectral_barriers(lams)
            if k in rec.steps:
                step = rec.steps[k]
                scalars = broyden_mod._scalars(step.y, g, step.u,
                                               partial(np.matvec, h))
                want["nus"][k] = broyden_mod.secant_nu(scalars, g, h,
                                                       ref_cond * hi / lo)
        # The terminal row has no step, so no nu; the general path has no
        # target there either, so no potentials.
        assert math.isnan(want["nus"][-1]) and sorted(rec.steps) == list(
            range(trace.k_final))
        for name, column in want.items():
            assert np.array_equal(getattr(trace, name), column,
                                  equal_nan=True), name
        assert np.array_equal(trace.j_eig_mins, np.where(
            np.isnan(want["vs"]), nan, want["eig_mins"]), equal_nan=True)

    # n, m and a run length: at n = 8 two full blocks and a partial third,
    # past the rounding floor, where most secants are noise and skip their
    # nu; at n = 80 a block has one row.
    @pytest.mark.parametrize("n, m, max_iter", [(8, 24, 400), (80, 160, 6)])
    def test_general_rows_are_their_lone_measurements_bit_for_bit(
            self, n, m, max_iter):
        p = lse_make(n, m, mu=0.1, seed=n, gamma=1.0)
        trace, rec = record_run(run_general, p, PrimalVector(np.full(n, 0.01)),
                                TauSchedule.dfp(),
                                SolverConfig(max_iter=max_iter, grad_tol=0.0))
        size = solver_mod._block_rows(n)
        assert len(trace) == max_iter + 1
        assert size == 1 or len(trace) > 2 * size and len(trace) % size
        b = p.b_ref
        ref_cond = p.ell / p.mu * float(
            broyden_mod._cond_inf(b.entries, b.inverse_matrix()))
        want = {name: np.full(len(trace), math.nan)
                for name in ("eig_mins", "eig_maxs", "j_eig_mins",
                             "j_eig_maxs", "vs", "psis", "nus")}
        for k in range(len(trace)):
            g, h = rec.pair(k)
            # A zero step does not move, so x_k is the last iterate whose
            # gradient the loop evaluated.
            x = PrimalVector(rec.xs[max(j for j in rec.xs if j <= k)])
            lams = pencil_eigvals(g, p.hess(x).factor)
            want["eig_mins"][k], want["eig_maxs"][k] = lams[0], lams[-1]
            if k in rec.steps:
                step = rec.steps[k]
                scalars = broyden_mod._scalars(step.y, g, step.u,
                                               partial(np.matvec, h))
                want["nus"][k] = broyden_mod.secant_nu(
                    scalars, g, h, ref_cond * float(lams[-1]) / lams[0])
            if k < trace.k_final:
                # The step target: J_k, or the Hessian on a zero step.
                t_lams = (pencil_eigvals(g, SpdOperator(rec.targets[k]).factor)
                          if trace.rs[k] != 0.0 else lams)
                want["j_eig_mins"][k] = t_lams[0]
                want["j_eig_maxs"][k] = t_lams[-1]
                want["vs"][k], want["psis"][k] = spectral_barriers(t_lams)
        assert sorted(rec.targets) == [k for k in range(trace.k_final)
                                       if trace.rs[k] != 0.0]
        assert 0 < len(rec.steps) and (size == 1
                                       or len(rec.steps) < trace.k_final)
        for name, column in want.items():
            assert np.array_equal(getattr(trace, name), column,
                                  equal_nan=True), name

    @pytest.mark.parametrize("n", [8, 80])
    @pytest.mark.parametrize("check, message", [
        ("spectrum", "approximation lost definiteness (relative spectrum "
                     "(0.0, 0.0) is not positive)"),
        ("nu", "closeness forms disagree: <w, Hw> = 1.0 vs <Hw, GHw> = 2.0"),
        ("target", "approximation lost definiteness (relative spectrum "
                   "(-1.0, 1.0) is not positive)"),
    ])
    def test_each_check_names_its_row_on_both_routes(self, monkeypatch, n,
                                                     check, message):
        # Row 2 fails one check and rows 0 and 1 pass.  At n = 8 the rows
        # share a block, whose stacked measurement fails and is taken again
        # a row at a time; at n = 80 each row is measured alone.  Both name
        # k = 2 with one message, whose numbers the fault fixes: the second
        # update hands back G_2 = 0 (spectrum) or H_2 off by 2 (nu, which
        # then reports its forms as 1 and 2), or row 2's pencil spectrum
        # against J_2 comes back as (-1, ..., 1) (target, on log-sum-exp).
        loop_update, loop_nu, loop_pencil = (
            solver_mod.update_arrays, solver_mod.nu, solver_mod.pencil_eigvals)
        updates, pencils = [], []

        def update(*args):
            pair, phi, det_ratio = loop_update(*args)
            updates.append(pair)
            if len(updates) == 2 and check != "target":
                g, h = pair
                pair = np.stack((0.0 * g, h) if check == "spectrum"
                                else (g, 2.0 * h))
            return pair, phi, det_ratio

        def reported_nu(*args):
            val, ok, quad, energy = loop_nu(*args)
            return val, ok, np.where(ok, quad, 1.0), np.where(ok, energy, 2.0)

        def pencil(g_mat, a_chol):
            # Per row: its spectrum, then its target's.
            pencils.append(a_chol)
            if check == "target" and len(pencils) == 6:
                return np.linspace(-1.0, 1.0, len(g_mat))
            return loop_pencil(g_mat, a_chol)

        monkeypatch.setattr(solver_mod, "update_arrays", update)
        monkeypatch.setattr(solver_mod, "nu", reported_nu)
        monkeypatch.setattr(solver_mod, "pencil_eigvals", pencil)
        with pytest.raises(DivergenceError) as err:
            if check == "target":
                run_general(lse_make(n, 2 * n, mu=0.1, seed=n, gamma=1.0),
                            PrimalVector(np.full(n, 0.01)), TauSchedule.bfgs(),
                            SolverConfig(max_iter=500))
            else:
                self._run(n)
        assert err.value.k == 2 and str(err.value) == f"iteration 2: {message}"

    # From n = 74 on a quadratic block has one row, and a log-sum-exp block
    # has one row at every n, measured through the lone calls: no stacked
    # eigvalsh and no stacked nu.  At n = 30 a quadratic block holds 12
    # rows, so 30 rows are two full blocks and a partial third, one stacked
    # eigvalsh and one stacked nu each.
    @pytest.mark.parametrize("n, general, stacked, nu_rows", [
        (80, False, [], [()] * 4),
        (80, True, [], [()] * 4),
        (30, False, [12, 12, 6], [(12,), (12,), (5,)]),
        (30, True, [], [()] * 4),
    ])
    def test_block_size_selects_the_calls(self, monkeypatch, n, general,
                                          stacked, nu_rows):
        eigvalsh, loop_nu = np.linalg.eigvalsh, solver_mod.nu
        eig_shapes, au_shapes = [], []

        def recorded_eigvalsh(a, *args, **kwargs):
            eig_shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        def recorded_nu(scalars, *args):
            au_shapes.append(scalars[0].shape[:-1])
            return loop_nu(scalars, *args)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded_eigvalsh)
        monkeypatch.setattr(solver_mod, "nu", recorded_nu)
        cfg = {"max_iter": sum(stacked) - 1 if stacked else 4, "grad_tol": 0.0}
        if general:
            run_general(lse_make(n, 2 * n, mu=0.1, seed=n, gamma=1.0),
                        PrimalVector(np.full(n, 0.01)), TauSchedule.bfgs(),
                        SolverConfig(**cfg))
        else:
            self._run(n, **cfg)
        assert [shape[0] for shape in eig_shapes if len(shape) == 3] == stacked
        assert au_shapes == nu_rows

    @staticmethod
    def _run(n=8, **cfg):
        q = quad_make(np.geomspace(1.0, 1e3, n), seed=4)
        return run_quadratic(q, PrimalVector(np.ones(n)), TauSchedule.bfgs(),
                             SolverConfig(**{"max_iter": 500, **cfg}))

    def test_definiteness_loss_mid_block_names_its_row(self, monkeypatch):
        # The first update hands back G_1 less twice its smallest relative
        # eigenvalue along that eigenvector: indefinite, though positive
        # along the steps, so the pairings let the loop run on through the
        # block.  The measurement still stops the run at k = 1, with the
        # message a lone row gives.
        loop_update = solver_mod.update_arrays
        calls = []

        def indefinite_first(pair, u, scalars, tau):
            pair, phi, det_ratio = loop_update(pair, u, scalars, tau)
            calls.append(1)
            if len(calls) == 1:
                q = quad_make(np.geomspace(1.0, 1e3, 8), seed=4)
                d = np.sqrt(solver_mod._Eigenbasis.of(q).ddt.diagonal())
                lams, vecs = np.linalg.eigh(pair[0] * np.outer(d, d))
                w = vecs[:, 0] / d
                pair = np.stack((pair[0] - 2.0 * lams[0] * np.outer(w, w),
                                 pair[1]))
            return pair, phi, det_ratio

        monkeypatch.setattr(solver_mod, "update_arrays", indefinite_first)
        with pytest.raises(DivergenceError,
                           match=r"^iteration 1: approximation lost "
                                 r"definiteness \(relative spectrum \(-"
                                 r".* is not positive\)$") as err:
            self._run()
        assert err.value.k == 1 and len(calls) > 2

    def test_failed_stacked_solve_names_its_first_failing_row(
            self, monkeypatch):
        # The block's stacked eigvalsh fails; its rows are solved again one
        # at a time, and the first that fails alone, row 2, is named.
        eigvalsh, stacked, lone = np.linalg.eigvalsh, [], []

        def failing(a, *args, **kwargs):
            if a.ndim == 3:
                stacked.append(a)
            elif stacked:
                lone.append(a)
            if a.ndim == 3 or len(lone) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(DivergenceError,
                           match=r"^iteration 2: approximation lost "
                                 r"definiteness \(eigenvalue solve failed: "
                                 r"Eigenvalues did not converge\)$"):
            self._run()
        assert len(stacked) == 1 and len(lone) == 3

    @pytest.mark.parametrize("n", [8, 80])
    @pytest.mark.parametrize("later", [
        DivergenceError(3, "non-finite gradient (overflow)"),
        RuntimeWarning("overflow encountered in matvec")])
    def test_pending_failure_comes_before_a_later_one(self, monkeypatch,
                                                      later, n):
        # nu at k = 0 fails its check (it is handed 2 H), and the gradient
        # raises at k = 3, before the block is measured: the run still
        # stops on k = 0's failure.  At n = 80 a block has one row, which
        # is measured, and fails, before the next row starts.
        loop_nu, loop_gradient = solver_mod.nu, solver_mod._gradient

        def drifted_nu(scalars, g_mat, h_mat, g_cond):
            return loop_nu(scalars, g_mat, 2.0 * h_mat, g_cond)

        def gradient(problem, x, k):
            if k == 3:
                raise later
            return loop_gradient(problem, x, k)

        monkeypatch.setattr(solver_mod, "nu", drifted_nu)
        monkeypatch.setattr(solver_mod, "_gradient", gradient)
        with pytest.raises(DivergenceError,
                           match="^iteration 0: closeness forms disagree"):
            self._run(n)


def _split_in_process(run, shares: int, call=None):
    """A ``shares``-way split of ``run``, a partial of a solver entry point,
    each share run in this process in turn (through ``call``, if given) and
    merged as the CLI merges its forked shares."""
    outcomes = []
    for share in ((w, shares) for w in range(shares)):
        try:
            trace = (call or run)(share=share)
            outcomes.append(solver_mod._share_outcome(trace, share))
        except solver_mod.IterationError as exc:
            outcomes.append(exc)
    return solver_mod._merge(run.args[0], run.args[2], outcomes)


def _quadratic_share(n, kappa, schedule, max_iter):
    q = quad_make(np.geomspace(1.0, kappa, n), seed=4)
    return partial(run_quadratic, q, PrimalVector(np.ones(n)), schedule,
                   SolverConfig(max_iter=max_iter))


class TestShares:
    """A run split W ways, each share replaying the trajectory and measuring
    the rows k with k % W == w, merges to the one-process trace bit for
    bit, and to its error in type, k and message."""

    @pytest.mark.parametrize("error", [
        DivergenceError(3, "approximation lost definiteness (x: y)"),
        QuadratureError(0, "quadrature error 1.2e-04 above 1.0e-09 * ||J||")])
    def test_iteration_errors_survive_pickle(self, error):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(error, protocol))
            assert type(back) is type(error)
            assert back.k == error.k and str(back) == str(error)

    @pytest.mark.parametrize("case", [
        # Blocked rows (n = 3 and 30) and one-row blocks (n = 100), each
        # schedule, stopped by convergence or by max_iter.
        (3, 10.0, TauSchedule.bfgs(), 500),
        (3, 1e3, TauSchedule.dfp(), 40),
        (30, 10.0, TauSchedule((0.5,)), 500),
        (30, 1e3, TauSchedule.bfgs(), 25),
        (100, 10.0, TauSchedule.dfp(), 500),
        (100, 1e2, TauSchedule((0.5,)), 31),
        "general",
    ])
    def test_merged_shares_are_the_one_process_trace(self, case):
        if case == "general":
            run = partial(run_general, lse_make(30, 60, mu=0.1, seed=3,
                                                gamma=1.0),
                          PrimalVector(np.full(30, 0.01)), TauSchedule.bfgs(),
                          SolverConfig(max_iter=500))
        else:
            run = _quadratic_share(*case)
        want = run()
        # Every max_iter of 500 is a converged run, every other a cut one.
        assert want.converged == (case == "general" or case[-1] == 500)
        for shares in (1, 2, 3):
            got = _split_in_process(run, shares)
            for name in solver_mod._ROW_COLUMNS:
                assert np.array_equal(getattr(got, name + "s"),
                                      getattr(want, name + "s"),
                                      equal_nan=True), (shares, name)
            assert np.array_equal(got.x_final.coords, want.x_final.coords)
            assert got.converged == want.converged

    def test_unowned_rows_are_left_unmeasured(self):
        run = _quadratic_share(100, 10.0, TauSchedule.bfgs(), 500)
        want, mine = run(), run(share=(1, 3))
        for name in ("eig_min", "nu", "v"):
            column = getattr(mine, name + "s")
            assert np.isnan(np.delete(column, np.s_[1::3])).all()
            assert np.array_equal(column[1::3], getattr(want, name + "s")[1::3],
                                  equal_nan=True)
        for name in ("lambda", "g", "r", "xi", "tau"):
            assert np.array_equal(getattr(mine, name + "s"),
                                  getattr(want, name + "s"), equal_nan=True)

    @pytest.mark.parametrize("schedule", [TauSchedule.bfgs(),
                                          TauSchedule((0.5,))])
    def test_quadrature_failure_m_below_n(self, schedule):
        # ROADMAP item 7's case: with m < n the two rules part at k = 14
        # (BFGS) or 15 (tau = 0.5); the other shares run past it.
        p = lse_make(30, 10, mu=1e-2, seed=3)
        run = partial(run_general, p, PrimalVector(
            0.1 * np.random.default_rng(1).standard_normal(30)), schedule,
                      SolverConfig(max_iter=60))
        error = self._assert_same_error(run, QuadratureError)
        assert error.k == (14 if schedule.taus == (0.0,) else 15)

    def test_definiteness_failure_names_its_owner(self, monkeypatch):
        # The first update hands back G_1 = 0.  Row 1's owner stops on its
        # spectrum, while every other share, which does not measure row 1,
        # stops at the same k on the update's pairing check: the tie goes
        # to the owner.
        loop_update = solver_mod.update_arrays
        run = _quadratic_share(80, 1e3, TauSchedule.bfgs(), 500)

        def fresh_fault(share=(0, 1)):
            # A fault of its own for each share's run.
            calls = []

            def update(pair, *args):
                pair, phi, det_ratio = loop_update(pair, *args)
                calls.append(1)
                if len(calls) == 1:
                    pair = np.stack((0.0 * pair[0], pair[1]))
                return pair, phi, det_ratio

            monkeypatch.setattr(solver_mod, "update_arrays", update)
            return run(share=share)

        with pytest.raises(DivergenceError,
                           match=r"update pairings must be positive"):
            fresh_fault((0, 2))
        error = self._assert_same_error(run, DivergenceError, fresh_fault)
        assert error.k == 1 and "relative spectrum (0.0, 0.0)" in str(error)

    @pytest.mark.parametrize("general", [False, True])
    def test_non_finite_gradient(self, monkeypatch, general):
        # The gradient at x_3 overflows, in every share at step 2.
        loop_gradient = solver_mod._gradient

        def gradient(problem, x, k):
            if k == 3:
                raise DivergenceError(k, "non-finite gradient (overflow)")
            return loop_gradient(problem, x, k)

        monkeypatch.setattr(solver_mod, "_gradient", gradient)
        if general:
            run = partial(run_general, lse_make(80, 160, mu=0.1, seed=3,
                                                gamma=1.0),
                          PrimalVector(np.full(80, 0.01)), TauSchedule.bfgs(),
                          SolverConfig(max_iter=500))
        else:
            run = _quadratic_share(80, 1e3, TauSchedule.bfgs(), 500)
        error = self._assert_same_error(run, DivergenceError)
        assert error.k == 3

    @staticmethod
    def _assert_same_error(run, kind, call=None):
        with pytest.raises(kind) as serial:
            (call or run)()
        for shares in (1, 2, 3):
            with pytest.raises(kind) as split:
                _split_in_process(run, shares, call)
            assert type(split.value) is type(serial.value)
            assert split.value.k == serial.value.k
            assert str(split.value) == str(serial.value)
        return serial.value
