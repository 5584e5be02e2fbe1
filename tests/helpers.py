"""Random SPD draws and other helpers that only the tests use.

The draws are one-matrix stacks of the verify suites' own raw draws, so an
operator a test draws is built bit for bit as a suite would build it.
"""

import math

import numpy as np

from broyden_lab.operators import (
    PrimalVector,
    Role,
    SpdOperator,
    rel_eigen_range,
)
from broyden_lab.problems import LogSumExpProblem, _lse_value_grad, haar_spd
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
