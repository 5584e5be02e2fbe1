"""Log-determinant potentials and the per-update progress inequalities.

Two potentials measure how far an approximation G sits from a target A: the
log-det barrier ln Det(A^{-1}G) (meaningful when A is below G in the
semidefinite order) and the augmented barrier, which subtracts the trace
correction <G^{-1}, G - A> and is a Bregman divergence of -logdet centered
at G, hence nonnegative without any ordering assumption.

Each potential and each inequality used by the convergence analysis is one
function returning its value, the bound or both sides, so measured
trajectories can be checked against it with explicit slacks; the solver and
the verify suites take both potentials of a pair from one relative spectrum
through :func:`spectral_barriers`.
"""

from __future__ import annotations

import math

import numpy as np

from .broyden import broyd, check_tau, nu
from .operators import (
    PrimalVector,
    SpdOperator,
    check_same_dim,
    rel_eigen_range,
)

__all__ = [
    "SCALAR_GAP_MIDDLE_CONST",
    "SCALAR_GAP_CONST",
    "logdet_barrier",
    "augmented_barrier",
    "spectral_barriers",
    "progress_lb_v",
    "progress_lb_psi",
    "scalar_gap",
    "metric_change_lb",
    "metric_change_rhs",
]

# Constants of the scalar gap inequality: the sharp sqrt(3)/(2 + sqrt(3))
# and its rational relaxation 6/13 used by the augmented-barrier bound.
SCALAR_GAP_MIDDLE_CONST = math.sqrt(3.0) / (2.0 + math.sqrt(3.0))
SCALAR_GAP_CONST = 6.0 / 13.0


def logdet_barrier(a: SpdOperator, g: SpdOperator) -> float:
    """ln Det(A^{-1}G), via a log-determinant difference.

    Nonnegative when A is below G in the semidefinite order; unbounded below
    otherwise, so no sign is asserted here.
    """
    check_same_dim(a, g)
    return g.logdet - a.logdet


def augmented_barrier(g: SpdOperator, a: SpdOperator) -> float:
    """ln Det(A^{-1}G) - <G^{-1}, G - A>; nonnegative for any SPD pair."""
    check_same_dim(a, g)
    # <G^{-1}, G - A> = n - Tr(G^{-1} A), with the trace via a factorized solve.
    trace_inv_a = float(np.trace(g.solve_mat(a.entries)))
    return logdet_barrier(a, g) - (g.dim - trace_inv_a)


def spectral_barriers(rel_eigs) -> tuple[float, float]:
    """Both potentials from the eigenvalues of G relative to A.

    With lambda_i those eigenvalues, ln Det(A^{-1}G) = sum ln lambda_i and
    Tr(G^{-1}A) = sum 1/lambda_i, so the pair (logdet_barrier(a, g),
    augmented_barrier(g, a)) is (sum ln lambda_i,
    sum (ln lambda_i - 1 + 1/lambda_i)) at O(n) cost once the spectrum is known.
    Over a stack of spectra (eigenvalues on the last axis) it returns one
    pair of arrays.
    """
    lams = np.asarray(rel_eigs, dtype=float)
    logs = np.log(lams)
    # np.add.reduce is the reduction np.sum wraps, in the same pairwise
    # order, without the wrapper's call overhead.
    return (np.add.reduce(logs, axis=-1),
            np.add.reduce(logs - 1.0 + 1.0 / lams, axis=-1))


def progress_lb_v(eta: float, tau: float, nu_val: float) -> float:
    """Guaranteed decrease of the log-det barrier after one update.

    Valid when A <= G <= eta*A: the barrier drops by at least
    ln(1 + (tau/eta + 1 - tau) * nu^2).  ``eta`` and ``nu_val`` may be
    arrays of matching shape.
    """
    tau = check_tau(tau)
    if np.any(np.less(eta, 1.0)):
        raise ValueError(f"eta must be >= 1, got {eta}")
    return np.log1p((tau / eta + 1.0 - tau) * nu_val * nu_val)[()]


def progress_lb_psi(xi: float, eta: float, tau: float, nu_val: float) -> float:
    """Guaranteed decrease of the augmented barrier after one update.

    Valid when (1/xi)*A <= G <= eta*A with xi, eta >= 1: the barrier drops by
    at least (6/13) * ln(1 + (tau/(xi*eta) + 1 - tau) * nu^2).  ``xi``,
    ``eta`` and ``nu_val`` may be arrays of matching shape.
    """
    tau = check_tau(tau)
    if np.any(np.less(xi, 1.0) | np.less(eta, 1.0)):
        raise ValueError(f"xi and eta must be >= 1, got ({xi}, {eta})")
    return SCALAR_GAP_CONST * np.log1p(
        (tau / (xi * eta) + 1.0 - tau) * nu_val * nu_val
    )[()]


def scalar_gap(alpha: float, beta: float) -> tuple[float, float]:
    """Both sides of the scalar inequality behind the augmented-barrier bound.

    For alpha >= beta > 0 returns (alpha - ln(beta) - 1,
    (6/13) * ln(alpha + 1/beta - 1)); the first dominates the second, and the
    shared argument alpha + 1/beta - 1 is always >= 1.
    """
    if not (alpha >= beta > 0.0):
        raise ValueError(f"need alpha >= beta > 0, got ({alpha}, {beta})")
    arg = alpha + 1.0 / beta - 1.0
    if arg < 1.0 - 1e-12:
        raise ArithmeticError(f"gap argument fell below 1: {arg}")
    lhs = alpha - math.log(beta) - 1.0
    rhs = SCALAR_GAP_CONST * math.log(arg)
    return lhs, rhs


def metric_change_lb(a: SpdOperator, g: SpdOperator, u: PrimalVector,
                     tau: float) -> tuple[float, float]:
    """Both sides of the metric-change inequality.

    Returns (nu^2, lower bound), where the bound is
    <(G - A) G_plus^{-1} (G - A)u, u> / ((1 + xi) <Gu, u>) with 1/xi the
    smallest eigenvalue of G relative to A.  The first component dominates
    the second (callers assert with their own slack).
    """
    tau = check_tau(tau)
    nu_val = nu(a, g, u)
    xi = 1.0 / rel_eigen_range(g, a).min_rel
    h_plus = broyd(a, g, u, tau).g_plus_inv
    rhs = metric_change_rhs(np.matvec(a.entries, u.coords), g.entries,
                            u.coords, h_plus.entries, xi)
    return nu_val * nu_val, float(rhs)


def metric_change_rhs(au, g_mat, u, h_plus, xi):
    """Raw-array bound of :func:`metric_change_lb` over leading batch axes.

    ``au`` is the target's image Au of the direction, ``h_plus`` the inverse
    of the updated operator and 1/xi the smallest eigenvalue of G relative
    to A.
    """
    gu = np.matvec(g_mat, u)
    w = gu - au
    return np.vecdot(w, np.matvec(h_plus, w)) / ((1.0 + xi) * np.vecdot(u, gu))
