"""Convex Broyden-class quasi-Newton updates.

The family interpolates between BFGS (tau = 0) and DFP (tau = 1); tau weights
the DFP component of the *inverse* update.  Alongside the updated operator we
always produce its inverse from the closed-form rank-two inverse formula
rather than by numerical inversion, and the determinant ratio of the update
from its closed form, so both can be cross-checked against factorizations.

An update costs O(n^2) in one stacked call: G changes by a rank-two
correction with a 2x2 core in the basis [Au, Gu], H by one in [G^{-1}Au, u],
and both are one (2, n, 2) basis, one (2, 2, 2) stack of cores, one pair of
matmuls and one symmetrization (:func:`_rank_two`), whose two halves are
G_plus and H_plus.  The solver loop, the verify stacks and the typed API all
run that one kernel, :func:`_apply_update`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    Role,
    PrimalVector,
    SpdOperator,
    ZeroDirectionError,
    check_number,
    check_same_dim,
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
# formulas of the typed nu (combined absolute/relative); the tests pin the
# tight 1e-10 bound.
_NU_GUARD = 1e-8
_EPS = float(np.finfo(float).eps)


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
    if math.sqrt(float(uc @ uc)) <= ZERO_DIRECTION_NORM:
        raise ZeroDirectionError(f"{what} needs a nonzero direction")
    return uc


def _positive_pairings(au_u, gu_u, aha):
    """Where the three update pairings are positive and finite, as SPD
    inputs make them."""
    return ((0.0 < au_u) & (au_u < math.inf)
            & (0.0 < gu_u) & (gu_u < math.inf)
            & (0.0 < aha) & (aha < math.inf))


def _scalars(au, g_mat, u, solve_g, check=True):
    """Shared update scalars: Au, Gu, G^{-1}Au and the three pairings.

    The target enters only through ``au``, its image Au of the direction:
    the secant y = grad f(x + u) - grad f(x) on the solver's general path.
    Every argument may carry leading batch axes.  ``solve_g`` applies G^{-1}
    to (a stack of) vectors: the maintained inverse on the raw-array path,
    the cached factorization on the typed one.  With ``check``, which takes
    one direction, a pairing that is not positive and finite raises: the
    solver's only check of G and H on a run without instrumentation.
    Without it the caller masks the updates :func:`_positive_pairings`
    rejects.
    """
    gu = np.matvec(g_mat, u)
    au_u = np.vecdot(au, u)
    gu_u = np.vecdot(gu, u)
    z = solve_g(au)
    aha = np.vecdot(au, z)
    if check and not _positive_pairings(au_u, gu_u, aha):
        raise ArithmeticError(
            "update pairings must be positive for SPD inputs; "
            f"got <Au,u>={au_u}, <Gu,u>={gu_u}, <AG^-1Au,u>={aha}"
        )
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


def _cores(*entries):
    """C-ordered (..., k, 2, 2) stack of the symmetric 2x2 cores
    [[d0, cross], [cross, d1]], one per ``(d0, cross, d1)`` triple, over
    the entries' leading batch axes.

    C-ordered, so every core of a stack is multiplied as a lone core is (a
    strided core takes numpy's non-BLAS matmul loop, which rounds an n = 1
    product differently), and a stacked update is bitwise the update of
    each of its members.
    """
    flat = np.array([v for d0, cross, d1 in entries
                     for v in (d0, cross, cross, d1)])
    core = flat.reshape((len(entries), 2, 2) + flat.shape[1:])
    if core.ndim > 3:
        core = np.ascontiguousarray(np.moveaxis(core, (0, 1, 2), (-3, -2, -1)))
    return core


def _rank_two(ms, pairs, core):
    """Symmetrized m + [x, y] core [x, y]^T for each member of a k-stack: O(n^2).

    ``ms`` holds the k addends, ``pairs`` the k ``(x, y)`` basis pairs, all
    vectors of one shape, and ``core`` their (..., k, 2, 2) cores from
    :func:`_cores`; the addends and cores broadcast against the vectors'
    leading batch axes.  The (..., k, n, 2) basis is filled in place, in
    the C order np.stack would give it, so the whole stack takes one pair
    of matmuls and one symmetrization, and member i of the (..., k, n, n)
    result is what a lone correction of ``ms[i]`` gives, bit for bit.
    """
    x0 = pairs[0][0]
    basis = np.empty(x0.shape[:-1] + (len(pairs),) + x0.shape[-1:] + (2,))
    for i, (x, y) in enumerate(pairs):
        basis[..., i, :, 0] = x
        basis[..., i, :, 1] = y
    out = (basis @ core) @ basis.mT
    for i, m in enumerate(ms):
        out[..., i, :, :] += m
    sym = out + out.mT
    sym *= 0.5
    return sym


def _primal_core(phi, au_u, gu_u):
    """Core entries (d0, cross, d1) of G_plus - G in the basis [Au, Gu].

    phi * DFP + (1 - phi) * BFGS, where DFP contributes
    -(Au Gu^T + Gu Au^T)/<Au,u> + (<Gu,u>/<Au,u> + 1) Au Au^T/<Au,u> and BFGS
    contributes Au Au^T/<Au,u> - Gu Gu^T/<Gu,u>.
    """
    return ((1.0 + phi * gu_u / au_u) / au_u, -phi / au_u,
            -(1.0 - phi) / gu_u)


def _inverse_core(tau, au_u, aha):
    """Core entries (d0, cross, d1) of H_plus - H in the basis
    [G^{-1}Au, u], with z = G^{-1}Au.

    tau * DFP + (1 - tau) * BFGS, where DFP contributes
    u u^T/<Au,u> - z z^T/<Au,z> and BFGS contributes
    -(z u^T + u z^T)/<Au,u> + (<Au,z>/<Au,u> + 1) u u^T/<Au,u>.
    """
    return (-tau / aha, -(1.0 - tau) / au_u,
            (1.0 + (1.0 - tau) * aha / au_u) / au_u)


def _apply_update(g_mat, h_mat, u, scalars, tau):
    """``(g_plus, h_plus, phi, det_ratio)`` from the shared update scalars.

    G and H change in one :func:`_rank_two` call on the pair: the basis
    [Au, Gu] with the primal core for G, [G^{-1}Au, u] with the inverse core
    for H.  The two results are the halves of one (..., 2, n, n) array.
    Batch axes broadcast, so one set of scalars serves every tau of a grid.
    """
    au, gu, au_u, gu_u, z, aha = scalars
    phi, det_ratio = _phi_det(tau, au_u, gu_u, aha)
    pair = _rank_two((g_mat, h_mat), ((au, gu), (z, u)),
                     _cores(_primal_core(phi, au_u, gu_u),
                            _inverse_core(tau, au_u, aha)))
    return pair[..., 0, :, :], pair[..., 1, :, :], phi, det_ratio


def update_arrays(au, g_mat, h_mat, u, tau):
    """Raw-array fast path for one update.

    Takes the target's image Au of the direction (the solver passes the
    secant y_k), the current approximation and its inverse, and returns
    ``(g_plus, h_plus, phi, det_ratio)`` as plain arrays/floats.  The caller
    owns validation; this is what the solver drives once per iteration.  Both
    operators change by a rank-two correction with a 2x2 core, so the update
    costs O(n^2), with the inverse maintained by the rank-two inverse formula
    instead of refactorizing.  It is :func:`_apply_update` for one plain
    direction, with G^{-1} applied through ``h_mat``.
    """
    scalars = _scalars(au, g_mat, u, lambda v: np.matvec(h_mat, v))
    return _apply_update(g_mat, h_mat, u, scalars, tau)


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
    if math.sqrt(float(uc @ uc)) <= ZERO_DIRECTION_NORM:
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
    _, _, au_u, _, z, aha = _scalars(np.matvec(a.entries, uc), g.entries, uc,
                                     lambda v: np.matvec(h_mat, v))
    (h_plus,) = _rank_two((h_mat,), ((z, uc),),
                          _cores(_inverse_core(tau, au_u, aha)))
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
    """Closeness of G to A along u: ||(G - A)u||*_G / ||u||_A.

    Evaluates both equivalent forms of the numerator for w = Gu - Au through
    the cached factor of G (<w, G^{-1}w> by a full factorized solve, and the
    squared norm of the triangular solve L^{-1}w) and returns the first
    after checking that they agree to ``_NU_GUARD``.
    """
    uc = _nonzero_direction(a, g, u, "closeness measure")
    val_quad, val_norm = _closeness(np.matvec(a.entries, uc), g.entries, uc,
                                    g.solve_vec, g.inv_quad_form)
    if _nu_disagree(val_quad, val_norm):
        raise ArithmeticError(
            f"closeness formulas disagree: {val_quad} vs {val_norm}"
        )
    return float(val_quad)


def secant_nu(au, g_mat, h_mat, uc, g_cond) -> float:
    """:func:`nu` on raw arrays, from the target's image Au of the direction
    ``uc``, the matrix G and its maintained inverse H, in O(n^2).

    With w = Gu - Au and z = Hw, the value is <w, z>^{1/2} / <u, Au>^{1/2}.
    Its cross-check is the energy form <z, Gz>, which differs from <w, z> by
    <z, (GH - I)w>: relative to <w, z>, the deviation of G^{1/2} H G^{1/2}
    from I along w.  Computed, the gap also carries the rounding of Hw, of
    Gz and of the two inner products, each about n eps cond(G) relative, so
    with ``g_cond`` an upper bound on cond(G) a gap above
    ``4 n eps g_cond`` (or a negative <w, z>, which an SPD H cannot give)
    shows H is not the inverse of G, and is an ArithmeticError.
    """
    w = g_mat @ uc - au
    z = h_mat @ w
    quad = float(w @ z)
    energy = float(z @ (g_mat @ z))
    if not abs(energy - quad) <= 4 * uc.size * _EPS * g_cond * quad:
        raise ArithmeticError(
            f"closeness forms disagree: <w, Hw> = {quad} vs "
            f"<Hw, GHw> = {energy}")
    return math.sqrt(quad / float(uc @ au))
