"""Solver paths: schedules, traces, instrumentation invariants, exports."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

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
    secant_residual,
    trace_reports,
)


# The per-iterate object lists of a trace, kept only by a recorded run.
OBJECT_LISTS = ("xs", "grads", "us", "g_ops", "h_ops", "j_ops")


def assert_recorded(tr):
    for name in OBJECT_LISTS:
        assert len(getattr(tr, name)) == len(tr), name
    assert tr.xs[-1] is tr.x_final
    assert tr.us[-1] is None and tr.j_ops[-1] is None


@pytest.fixture(scope="module")
def lse_instance():
    return lse_make(6, 14, mu=0.1, seed=77, gamma=1.0)


@pytest.fixture(scope="module")
def lse_trace(lse_instance):
    x0 = PrimalVector(0.01 * np.random.default_rng(5).standard_normal(6))
    cfg = SolverConfig(max_iter=300, grad_tol=1e-12)
    return run_general(lse_instance, x0, TauSchedule.bfgs(), cfg,
                       record_operators=True)


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
        q = quad_make(np.geomspace(1.0, 20.0, 5), seed=38)
        tr = run_quadratic(q, PrimalVector(rng.standard_normal(5)),
                           TauSchedule.bfgs(),
                           SolverConfig(max_iter=200), record_operators=True)
        assert_recorded(tr)
        res = secant_residual(tr, q)
        assert res and max(res) <= 1e-10

    def test_secant_residual_needs_snapshots(self, rng):
        # An unrecorded run keeps its columns and final iterate, no objects.
        q = quad_make([1.0, 2.0], seed=39)
        tr = run_quadratic(q, PrimalVector(rng.standard_normal(2)),
                           TauSchedule.bfgs(), SolverConfig())
        assert all(getattr(tr, name) is None for name in OBJECT_LISTS)
        assert tr.converged
        np.testing.assert_allclose(tr.x_final.coords, q.minimizer().coords,
                                   atol=1e-9)
        with pytest.raises(ValueError, match="snapshots"):
            secant_residual(tr, q)

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
            g_plus, h_plus, phi, det_ratio = loop_update(*args)
            return g_plus, h_plus * (1.0 + 1e-6), phi, det_ratio

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

    def test_augmented_potential_decrease_vs_segment_target(self, lse_trace):
        # psi(G_k, J_k) - psi(G_{k+1}, J_k) >= guaranteed progress, with the
        # bracket read off the measured eigen ranges against J_k.
        tr = lse_trace
        for k in range(tr.k_final):
            if tr.j_ops[k] is None or math.isnan(tr.nus[k]):
                continue
            psi_tilde = augmented_barrier(tr.g_ops[k + 1], tr.j_ops[k])
            xi = max(1.0, 1.0 / tr.j_eig_mins[k])
            eta = max(1.0, tr.j_eig_maxs[k])
            bound = progress_lb_psi(xi, eta, tr.taus[k], tr.nus[k])
            assert tr.psis[k] - psi_tilde >= bound - 1e-8

    def test_secant_residual_general(self, lse_instance, lse_trace):
        # The update reads the measured gradient difference itself, so the
        # secant equation holds to rounding, not to quadrature error.
        assert_recorded(lse_trace)
        res = secant_residual(lse_trace, lse_instance)
        assert res and max(res) <= 1e-13

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
        tr = run_general(p, PrimalVector(np.zeros(n)), TauSchedule(taus),
                         SolverConfig(max_iter=1000), record_operators=True)
        assert tr.converged and tr.k_final > 50
        eps = np.finfo(float).eps
        for k in range(tr.k_final):
            u = tr.us[k].coords
            y = tr.grads[k + 1].coords - tr.grads[k].coords
            resid = np.linalg.norm(tr.j_ops[k].matvec(u) - y)
            x_norms = sum(np.linalg.norm(x.coords) for x in tr.xs[k:k + 2])
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
        cfg = SolverConfig(instrument=instrument, **cfg)
        if path == "general":
            return run_general(problem, x0, TauSchedule.bfgs(), cfg,
                               record_operators=True)
        return run_quadratic(problem, x0, TauSchedule.bfgs(), cfg,
                             record_operators=True)

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
        tr = self.run(path, instrument, _zero_step_quadratic(),
                      PrimalVector([1e-180, 0.0]), max_iter=2, grad_tol=0.0)
        assert not tr.converged and len(tr) == 3
        for k in (0, 1):
            assert tr.rs[k] == 0.0 and tr.est_errors[k] == 0.0
            assert tr.taus[k] == 0.0
            self.unmeasured(tr, k, "nus")
            assert tr.us[k] is None and tr.j_ops[k] is None
            # The step target is the Hessian at this same iterate.
            self.measured(tr, k, instrument, "lambdas", "vs", "psis",
                          "eig_mins", "eig_maxs", "j_eig_mins", "j_eig_maxs")
            np.testing.assert_array_equal(tr.xs[k + 1].coords, tr.xs[0].coords)
        np.testing.assert_array_equal(tr.xis, 1.0)
        assert tr.us[2] is None and tr.j_ops[2] is None
        self.unmeasured(tr, 2, "rs", "nus", "taus", "est_errors")

    @pytest.mark.parametrize("instrument", [True, False])
    @pytest.mark.parametrize("path", ["quadratic", "general"])
    def test_step_and_terminal_rows_on_a_quadratic(self, path, instrument, rng):
        q = quad_make(np.geomspace(1.0, 30.0, 5), seed=60)
        tr = self.run(path, instrument, q,
                      PrimalVector(rng.standard_normal(5)), max_iter=200)
        assert tr.converged
        for k in range(tr.k_final):
            assert tr.us[k] is not None and tr.xis[k] == 1.0
            # An uninstrumented step never builds its target: no j_ops
            # entry and a NaN quadrature error, never measured.
            assert tr.j_ops[k] is (q.a_op if instrument else None)
            self.measured(tr, k, instrument, "lambdas", "rs", "nus", "vs",
                          "psis", "eig_mins", "eig_maxs", "j_eig_mins",
                          "j_eig_maxs", "est_errors")
            if instrument:
                assert tr.est_errors[k] == 0.0
                # One spectrum serves both ranges when the target is A.
                assert tr.j_eig_mins[k] == tr.eig_mins[k]
                assert tr.j_eig_maxs[k] == tr.eig_maxs[k]
        last = tr.k_final
        assert tr.us[last] is None and tr.j_ops[last] is None
        self.unmeasured(tr, last, "rs", "nus", "taus", "est_errors")
        self.measured(tr, last, instrument, "lambdas", "eig_mins", "eig_maxs")
        # Toward the fixed operator the potentials stay defined at the end;
        # the general path has no step target there.
        self.measured(tr, last, instrument and path == "quadratic",
                      "vs", "psis", "j_eig_mins", "j_eig_maxs")

    @pytest.mark.parametrize("instrument", [True, False])
    def test_general_rows_on_log_sum_exp(self, lse_instance, instrument):
        x0 = PrimalVector(0.01 * np.random.default_rng(5).standard_normal(6))
        tr = self.run("general", instrument, lse_instance, x0, max_iter=300)
        for k in range(tr.k_final):
            assert tr.us[k] is not None
            assert (tr.j_ops[k] is not None) == instrument
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
        assert tr.us[last] is None and tr.j_ops[last] is None
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
        tr = self.run("general", instrument, p, PrimalVector(np.zeros(4)),
                      max_iter=200, grad_tol=0.0)
        assert not tr.converged and len(tr) == 201
        b = p.b_ref
        skipped = []
        for k in range(tr.k_final):
            u = tr.us[k].coords
            y = tr.grads[k + 1].coords - tr.grads[k].coords
            yu = 2.0 * float(y @ u)
            noise = (yu < p.mu * b.quad_form(u)
                     or p.ell * yu < b.inv_quad_form(y))
            kept = np.array_equal(tr.g_ops[k + 1].entries,
                                  tr.g_ops[k].entries)
            assert kept == noise, k
            if noise:
                skipped.append(k)
                assert np.linalg.norm(tr.grads[k].coords) < 1e-10, k
                self.unmeasured(tr, k, "nus")
            else:
                self.measured(tr, k, instrument, "nus")
        assert len(skipped) > 50
