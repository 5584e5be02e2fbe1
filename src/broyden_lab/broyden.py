"""Convex Broyden-class quasi-Newton updates.

The family interpolates between BFGS (tau = 0) and DFP (tau = 1); tau weights
the DFP component of the *inverse* update.  Alongside the updated operator we
always produce its inverse from the closed-form rank-two inverse formula
rather than by numerical inversion, and the determinant ratio of the update
from its closed form, so both can be cross-checked against factorizations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .operators import (
    Role,
    PrimalVector,
    SpdOperator,
    ZeroDirectionError,
    check_number,
    check_same_dim,
    chol_inv_quad,
    chol_solve,
)

__all__ = [
    "UpdateResult",
    "check_tau",
    "phi_tau",
    "broyd",
    "broyd_inverse",
    "broyd_det_ratio",
    "nu",
]

# Steps at or below this Euclidean length are treated as the zero direction:
# the update degenerates to the identity map on G.
ZERO_DIRECTION_NORM = 1e-300

# Defensive ceiling on the disagreement between the two equivalent closeness
# formulas (combined absolute/relative); the tests pin the tight 1e-10 bound.
_NU_GUARD = 1e-8


def check_tau(tau: float) -> float:
    """Validate a convex-class parameter, rejecting values outside [0, 1]."""
    tau = check_number(tau, "tau")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return tau


@dataclass(frozen=True)
class UpdateResult:
    """One convex Broyden-class update.

    ``g_plus`` is the updated operator, ``g_plus_inv`` its inverse built
    independently from the closed-form inverse update, ``phi`` the weight of
    the DFP component in the primal formula, and ``det_ratio`` the closed-form
    value of Det(g_plus^{-1} G).  The identities ``g_plus @ g_plus_inv = I``
    and ``det_ratio = Det(g_plus^{-1}, G)`` are exercised by the test suite
    rather than re-verified on every call.
    """

    g_plus: SpdOperator
    g_plus_inv: SpdOperator
    phi: float
    det_ratio: float


def _direction(a: SpdOperator, g: SpdOperator, u: PrimalVector):
    check_same_dim(a, g)
    if not isinstance(u, PrimalVector):
        raise TypeError("update direction must be a PrimalVector")
    check_same_dim(u, a)
    return u.coords


def _nonzero_direction(a: SpdOperator, g: SpdOperator, u: PrimalVector,
                       what: str) -> np.ndarray:
    uc = _direction(a, g, u)
    if float(np.linalg.norm(uc)) <= ZERO_DIRECTION_NORM:
        raise ZeroDirectionError(f"{what} needs a nonzero direction")
    return uc


def _positive_pairings(au_u, gu_u, aha):
    """Where the three update pairings are positive, as SPD inputs make them."""
    return (au_u > 0.0) & (gu_u > 0.0) & (aha > 0.0)


def _scalars(au, g_mat, u, solve_g, check=True):
    """Shared update scalars: Au, Gu, G^{-1}Au and the three pairings.

    The target enters only through ``au``, its image Au of the direction:
    the secant y = grad f(x + u) - grad f(x) on the solver's general path.
    Every argument may carry leading batch axes.  ``solve_g`` applies G^{-1}
    to (a stack of) vectors: the maintained inverse on the raw-array path,
    the cached factorization on the typed one.  With ``check`` a
    non-positive pairing raises; without it the caller masks the updates
    :func:`_positive_pairings` rejects.
    """
    gu = np.matvec(g_mat, u)
    au_u = np.vecdot(au, u)
    gu_u = np.vecdot(gu, u)
    z = solve_g(au)
    aha = np.vecdot(au, z)
    if check and not _positive_pairings(au_u, gu_u, aha).all():
        raise _pairing_error(au_u, gu_u, aha)
    return au, gu, au_u, gu_u, z, aha


def _pairing_error(au_u, gu_u, aha) -> ArithmeticError:
    return ArithmeticError(
        "update pairings must be positive for SPD inputs; "
        f"got <Au,u>={au_u}, <Gu,u>={gu_u}, <AG^-1Au,u>={aha}"
    )


def _vector_scalars(au, g_mat, h_mat, u):
    """:func:`_scalars` for one plain direction, with G^{-1} applied through
    the maintained inverse ``h_mat``: the same products, with the three
    pairings as Python floats.  A non-positive pairing raises."""
    gu = np.matvec(g_mat, u)
    z = np.matvec(h_mat, au)
    au_u = float(np.vecdot(au, u))
    gu_u = float(np.vecdot(gu, u))
    aha = float(np.vecdot(au, z))
    if not _positive_pairings(au_u, gu_u, aha):
        raise _pairing_error(au_u, gu_u, aha)
    return au, gu, au_u, gu_u, z, aha


def _typed_scalars(a: SpdOperator, g: SpdOperator, u: PrimalVector, what: str):
    uc = _nonzero_direction(a, g, u, what)
    return _scalars(np.matvec(a.entries, uc), g.entries, uc, g.solve_vec)


def _phi_det(tau, au_u, gu_u, aha):
    t_dfp = au_u / aha
    t_bfgs = gu_u / au_u
    denom = tau * t_dfp + (1.0 - tau) * t_bfgs
    phi = tau * t_dfp / denom
    return phi, denom


def _core(d0, cross, d1):
    """Symmetric 2x2 core [[d0, cross], [cross, d1]] over leading batch axes.

    C-ordered, so every core of a stack is multiplied as a lone core is (a
    strided core takes numpy's non-BLAS matmul loop, which rounds an n = 1
    product differently), and a stacked update is bitwise the update of
    each of its members.
    """
    core = np.array([[d0, cross], [cross, d1]])
    return np.ascontiguousarray(core.transpose(*range(2, core.ndim), 0, 1))


def _rank_two(m, x, y, core):
    """Symmetrized m + [x, y] core [x, y]^T for a symmetric 2x2 core: O(n^2).

    ``x`` and ``y`` share one shape; leading batch axes of every argument
    broadcast.  The (..., n, 2) basis is filled in place, in the C order
    np.stack would give it, without np.stack's call overhead.
    """
    basis = np.empty(x.shape + (2,))
    basis[..., 0] = x
    basis[..., 1] = y
    out = (basis @ core) @ basis.mT
    out += m
    sym = out + out.mT
    sym *= 0.5
    return sym


def _primal_core(phi, au_u, gu_u):
    """2x2 core of G_plus - G in the basis [Au, Gu].

    phi * DFP + (1 - phi) * BFGS, where DFP contributes
    -(Au Gu^T + Gu Au^T)/<Au,u> + (<Gu,u>/<Au,u> + 1) Au Au^T/<Au,u> and BFGS
    contributes Au Au^T/<Au,u> - Gu Gu^T/<Gu,u>.
    """
    return _core((1.0 + phi * gu_u / au_u) / au_u, -phi / au_u,
                 -(1.0 - phi) / gu_u)


def _inverse_core(tau, au_u, aha):
    """2x2 core of H_plus - H in the basis [G^{-1}Au, u], with z = G^{-1}Au.

    tau * DFP + (1 - tau) * BFGS, where DFP contributes
    u u^T/<Au,u> - z z^T/<Au,z> and BFGS contributes
    -(z u^T + u z^T)/<Au,u> + (<Au,z>/<Au,u> + 1) u u^T/<Au,u>.
    """
    return _core(-tau / aha, -(1.0 - tau) / au_u,
                 (1.0 + (1.0 - tau) * aha / au_u) / au_u)


def _apply_update(g_mat, h_mat, u, scalars, tau):
    """``(g_plus, h_plus, phi, det_ratio)`` from the shared update scalars.

    Batch axes broadcast, so one set of scalars serves every tau of a grid.
    """
    au, gu, au_u, gu_u, z, aha = scalars
    phi, det_ratio = _phi_det(tau, au_u, gu_u, aha)
    g_plus = _rank_two(g_mat, au, gu, _primal_core(phi, au_u, gu_u))
    h_plus = _rank_two(h_mat, z, u, _inverse_core(tau, au_u, aha))
    return g_plus, h_plus, phi, det_ratio


def update_arrays(au, g_mat, h_mat, u, tau):
    """Raw-array fast path for one update.

    Takes the target's image Au of the direction (the solver passes the
    secant y_k), the current approximation and its inverse, and returns
    ``(g_plus, h_plus, phi, det_ratio)`` as plain arrays/floats.  The caller
    owns validation; this is what the solver drives once per iteration.  Both
    operators change by a rank-two correction with a 2x2 core, so the update
    costs O(n^2), with the inverse maintained by the rank-two inverse formula
    instead of refactorizing.  It is :func:`_apply_update` for one plain
    direction, with its scalars as Python floats.
    """
    return _apply_update(g_mat, h_mat, u, _vector_scalars(au, g_mat, h_mat, u),
                         tau)


def phi_tau(a: SpdOperator, g: SpdOperator, u: PrimalVector, tau: float) -> float:
    """Weight of the DFP component in the primal update formula.

    Always in [0, 1] for tau in [0, 1]; equals tau when G = A.
    """
    tau = check_tau(tau)
    _, _, au_u, gu_u, _, aha = _typed_scalars(a, g, u, "phi")
    phi, _ = _phi_det(tau, au_u, gu_u, aha)
    return float(phi)


def broyd(a: SpdOperator, g: SpdOperator, u: PrimalVector, tau: float) -> UpdateResult:
    """Update the approximation G toward the target A along direction u.

    The zero direction returns G unchanged (with ``det_ratio`` 1 and ``phi``
    reported as tau by convention, since the formula leaves it undefined).
    """
    tau = check_tau(tau)
    uc = _direction(a, g, u)
    if float(np.linalg.norm(uc)) <= ZERO_DIRECTION_NORM:
        return UpdateResult(g_plus=g, g_plus_inv=g.inverse(), phi=tau, det_ratio=1.0)
    h_mat = g.inverse_matrix()
    g_plus, h_plus, phi, det_ratio = update_arrays(
        np.matvec(a.entries, uc), g.entries, h_mat, uc, tau
    )
    return UpdateResult(
        g_plus=SpdOperator(g_plus, Role.PRIMAL_TO_DUAL),
        g_plus_inv=SpdOperator(h_plus, Role.DUAL_TO_PRIMAL),
        phi=float(phi),
        det_ratio=float(det_ratio),
    )


def broyd_inverse(a: SpdOperator, g: SpdOperator, u: PrimalVector,
                  tau: float) -> SpdOperator:
    """Inverse of the updated operator, straight from the rank-two formula."""
    tau = check_tau(tau)
    uc = _nonzero_direction(a, g, u, "inverse update")
    h_mat = g.inverse_matrix()
    _, _, au_u, _, z, aha = _vector_scalars(np.matvec(a.entries, uc),
                                             g.entries, h_mat, uc)
    h_plus = _rank_two(h_mat, z, uc, _inverse_core(tau, au_u, aha))
    return SpdOperator(h_plus, Role.DUAL_TO_PRIMAL)


def broyd_det_ratio(a: SpdOperator, g: SpdOperator, u: PrimalVector,
                    tau: float) -> float:
    """Closed-form Det(G_plus^{-1} G) of the update."""
    tau = check_tau(tau)
    _, _, au_u, gu_u, _, aha = _typed_scalars(a, g, u, "determinant ratio")
    _, det_ratio = _phi_det(tau, au_u, gu_u, aha)
    return float(det_ratio)


def _closeness(au, g_mat, u, solve_g, inv_quad_g):
    """Both forms of nu over leading batch axes: ``(val_quad, val_norm)``.

    With w = Gu - Au, ``val_quad`` takes <w, G^{-1}w> from ``solve_g`` (a
    full solve or the maintained inverse) and ``val_norm`` from
    ``inv_quad_g`` (the squared norm of a triangular solve L^{-1}w).
    """
    w = np.matvec(g_mat, u) - au
    au_u = np.vecdot(u, au)
    val_quad = np.sqrt(np.maximum(np.vecdot(w, solve_g(w)), 0.0) / au_u)
    val_norm = np.sqrt(np.maximum(inv_quad_g(w), 0.0) / au_u)
    return val_quad, val_norm


def _nu_disagree(val_quad, val_norm):
    """Where the two closeness forms differ by more than ``_NU_GUARD``."""
    return (np.abs(val_quad - val_norm)
            > _NU_GUARD * (1.0 + np.maximum(val_quad, val_norm)))


def nu(a: SpdOperator, g: SpdOperator, u: PrimalVector) -> float:
    """Closeness of G to A along u: ||(G - A)u||*_G / ||u||_A."""
    uc = _nonzero_direction(a, g, u, "closeness measure")
    return secant_nu(np.matvec(a.entries, uc), g.entries, g.factor, uc)


def secant_nu(au, g_mat, g_chol, uc) -> float:
    """:func:`nu` on raw arrays, from the target's image Au of the direction
    ``uc``, the matrix G and its lower Cholesky factor L.

    Evaluates both equivalent forms of the numerator for w = Gu - Au (the
    quadratic form <(G-A)G^{-1}(G-A)u, u> as <w, G^{-1}w> through a full
    factorized solve, and the squared norm of the triangular solve L^{-1}w)
    and returns the quadratic-form value after checking they agree.  Both
    cost O(n^2) with the factor of G.
    """
    val_quad, val_norm = _closeness(
        au, g_mat, uc, functools.partial(chol_solve, g_chol),
        functools.partial(chol_inv_quad, g_chol))
    if _nu_disagree(val_quad, val_norm):
        raise ArithmeticError(
            f"closeness formulas disagree: {val_quad} vs {val_norm}"
        )
    return float(val_quad)
