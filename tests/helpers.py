"""Random SPD draws, a recorder of the solver loop's own arrays, and other
helpers that only the tests use.

The draws are one-matrix stacks of the verify suites' own raw draws, so an
operator a test draws is built bit for bit as a suite would build it.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

import broyden_lab.solver as solver_mod
from broyden_lab.operators import (
    PrimalVector,
    Role,
    SpdOperator,
    rel_eigen_range,
)
from broyden_lab.problems import (
    LogSumExpProblem,
    ProblemInstance,
    _lse_value_grad,
    haar_spd,
)
from broyden_lab.verify import _dominating_stack, _draw_bump, _draw_spd


def random_spd(rng: np.random.Generator, n: int,
               log_cond_max: float = 3.0) -> SpdOperator:
    """Random SPD operator with log-uniform spectrum, condition <=
    10^log_cond_max: a one-matrix stack of the suites' draw."""
    eigs, z = _draw_spd(rng, n, log_cond_max)
    return SpdOperator(haar_spd(eigs[None], z[None])[0], Role.PRIMAL_TO_DUAL)


def random_spd_dominating(rng: np.random.Generator,
                          a: SpdOperator) -> SpdOperator:
    """Random SPD operator G with A below G in the semidefinite order: a
    one-matrix stack of the suites' draw."""
    z, scale = _draw_bump(rng, a.dim)
    g = _dominating_stack(a.entries[None], z[None], np.array([scale]))[0]
    return SpdOperator(g, Role.PRIMAL_TO_DUAL)


def straddle_normalize(g: SpdOperator, a: SpdOperator) -> SpdOperator:
    """Rescale G so its eigenvalue range relative to A straddles 1.

    Every update pins a relative eigenvalue at exactly 1 (the secant
    direction), so range-containment statements are exact only for brackets
    of the form [1/xi, eta] with xi, eta >= 1.  Geometric centering puts an
    arbitrary pair into that regime without changing its geometry.
    """
    rng_ga = rel_eigen_range(g, a)
    return g.scaled(1.0 / math.sqrt(rng_ga.min_rel * rng_ga.max_rel))


def lse_softmax(p: LogSumExpProblem, x: PrimalVector) -> np.ndarray:
    """Softmax weights at x; strictly positive and summing to one."""
    return _lse_value_grad(p, x.coords)[2]


@dataclass(frozen=True)
class LoopStep:
    """One update as the loop made it: G_k, H_k, the step u_k and the
    secant y_k in, G_{k+1} and H_{k+1} out."""

    g: np.ndarray
    h: np.ndarray
    u: np.ndarray
    y: np.ndarray
    g_next: np.ndarray
    h_next: np.ndarray


@dataclass(frozen=True)
class LoopRecord:
    """The arrays one solver run used, keyed by iteration k, in the loop's
    own coordinates: a quadratic's eigenbasis (``q.eigenbasis()`` rebuilds
    it bit for bit), the caller's on the general path.

    ``xs`` and ``grads`` hold the iterate and gradient at every k where the
    loop evaluated a gradient: k = 0 and each k after a nonzero step (a zero
    step does not move).  ``steps`` holds every update the loop made and
    ``targets`` every segment mean J_k it built.
    """

    xs: dict
    grads: dict
    steps: dict
    targets: dict

    def pair(self, k: int):
        """G_k and H_k, read off the updates around k (G_0 and H_0 need a
        run that updates at least once)."""
        after = [j for j in self.steps if j >= k]
        if after:
            step = self.steps[min(after)]
            return step.g, step.h
        step = self.steps[max(self.steps)]
        return step.g_next, step.h_next

    def secant_residuals(self) -> list[float]:
        """||G_{k+1} u_k - y_k|| / ||y_k|| of every update."""
        return [float(np.linalg.norm(s.g_next @ s.u - s.y)
                      / np.linalg.norm(s.y)) for s in self.steps.values()]


def record_run(run, problem, x0, schedule, config):
    """``(trace, LoopRecord)`` of ``run(problem, x0, schedule, config)``.

    The loop is recorded at the three names it looks up when it calls them,
    the names ``perfbench/tracer.py`` wraps too: ``ProblemInstance.grad``
    (each visited iterate and its gradient), ``solver.integral_hessian``
    (J_k) and ``solver.update_arrays`` (the update's inputs and outputs).
    Every kept array is a copy.  A call is keyed first by the number of
    gradients evaluated before it and then by iteration, from the trace: a
    zero step, the one step that evaluates no gradient, records r = 0.
    """
    grads, targets, steps = [], {}, {}
    grad, integral_hessian, update_arrays = (
        ProblemInstance.grad, solver_mod.integral_hessian,
        solver_mod.update_arrays)

    def recorded_grad(self, x):
        g = grad(self, x)
        grads.append((x.coords.copy(), g.coords.copy()))
        return g

    def recorded_integral_hessian(p, x, u, order):
        ih = integral_hessian(p, x, u, order)
        targets[len(grads) - 1] = ih.j_op.entries.copy()
        return ih

    def recorded_update_arrays(pair, u, scalars, tau):
        # The inputs are copied before the update, which may reuse them.
        (g, h), u_k, y_k = pair.copy(), u.copy(), scalars[0].copy()
        out = update_arrays(pair, u, scalars, tau)
        steps[len(grads) - 2] = LoopStep(g, h, u_k, y_k, *out[0].copy())
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProblemInstance, "grad", recorded_grad)
        patch.setattr(solver_mod, "integral_hessian",
                      recorded_integral_hessian)
        patch.setattr(solver_mod, "update_arrays", recorded_update_arrays)
        trace = run(problem, x0, schedule, config)
    ks = [0] + [k + 1 for k in range(trace.k_final) if trace.rs[k] != 0.0]
    assert len(ks) == len(grads)
    return trace, LoopRecord(
        xs={k: x for k, (x, _) in zip(ks, grads)},
        grads={k: g for k, (_, g) in zip(ks, grads)},
        steps={ks[j]: step for j, step in steps.items()},
        targets={ks[j]: j_k for j, j_k in targets.items()})
