"""Convex Broyden-class quasi-Newton updates.

The family interpolates between BFGS (tau = 0) and DFP (tau = 1); tau weights
the DFP component of the *inverse* update.  Alongside the updated operator we
always produce its inverse from the closed-form rank-two inverse formula
rather than by numerical inversion, and the determinant ratio of the update
from its closed form, so both can be cross-checked against factorizations.

One set of update scalars per step (:func:`_scalars`: Au, Gu, G^{-1}Au and
the pairings <Au, u>, <Gu, u>, <Au, G^{-1}Au>) serves both the update and the
directional closeness nu.  The update costs O(n^2) in one call on the
(G, H) pair, held as the two halves of one (2, n, n) array: G changes by a
rank-two correction with a 2x2 core in the basis [Au, Gu], H by one in
[G^{-1}Au, u], and both are one (2, n, 2) basis, one (2, 2, 2) pair of
cores, one pair of matmuls, one ``+=`` of the pair and one symmetrization
(:func:`_rank_two`).  The solver loop, the verify stacks and the typed API
all run that one kernel, :func:`_apply_update`.

The closeness nu is stated once too, with its check that H inverts G, in
:func:`_closeness`, which reads Au, Gu and <u, Au> from the update scalars
over any leading batch axes: the solver's blocks of rows, the verify stacks
and, through :func:`secant_nu` on one direction, the typed :func:`nu` all
call it.
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


def _check_pairings(scalars):
    """Raise unless the three pairings of one direction's update scalars
    are positive and finite: the solver's only check of G and H on a run
    without instrumentation."""
    _, _, au_u, gu_u, _, aha = scalars
    if not _positive_pairings(au_u, gu_u, aha):
        raise ArithmeticError(
            "update pairings must be positive for SPD inputs; "
            f"got <Au,u>={au_u}, <Gu,u>={gu_u}, <AG^-1Au,u>={aha}"
        )


def _scalars(au, g_mat, u, solve_g):
    """Shared update scalars ``(au, gu, au_u, gu_u, z, aha)``: Au, Gu,
    z = G^{-1}Au and the three pairings <Au, u>, <Gu, u>, <Au, z>.

    The target enters only through ``au``, its image Au of the direction:
    the secant y = grad f(x + u) - grad f(x) on the solver's general path.
    Every argument may carry leading batch axes.  ``solve_g`` applies G^{-1}
    to (a stack of) vectors: the maintained inverse on the raw-array path,
    the cached factorization on the typed one.  No pairing is checked here:
    :func:`update_arrays` and :func:`_typed_scalars` run
    :func:`_check_pairings`, and the verify stacks mask the updates
    :func:`_positive_pairings` rejects.
    """
    gu = np.matvec(g_mat, u)
    au_u = np.vecdot(au, u)
    gu_u = np.vecdot(gu, u)
    z = solve_g(au)
    return au, gu, au_u, gu_u, z, np.vecdot(au, z)


def _typed_scalars(a: SpdOperator, g: SpdOperator, u: PrimalVector, what: str):
    """The checked update scalars of a typed triple, G^{-1} through G's
    cached factor."""
    uc = _nonzero_direction(a, g, u, what)
    scalars = _scalars(np.matvec(a.entries, uc), g.entries, uc, g.solve_vec)
    _check_pairings(scalars)
    return scalars


def _phi_det(tau, au_u, gu_u, aha):
    t_dfp = au_u / aha
    t_bfgs = gu_u / au_u
    denom = tau * t_dfp + (1.0 - tau) * t_bfgs
    phi = tau * t_dfp / denom
    return phi, denom


def _cores(primal, inverse):
    """C-ordered (..., 2, 2, 2) pair of the symmetric 2x2 cores
    [[d0, cross], [cross, d1]] of G's and H's corrections, from their
    ``(d0, cross, d1)`` triples, over the entries' leading batch axes.

    C-ordered, so every core of a stack is multiplied as a lone core is (a
    strided core takes numpy's non-BLAS matmul loop, which rounds an n = 1
    product differently), and a stacked update is bitwise the update of
    each of its members.
    """
    (d0, c0, d1), (e0, c1, e1) = primal, inverse
    flat = np.array([d0, c0, c0, d1, e0, c1, c1, e1])
    core = flat.reshape((2, 2, 2) + flat.shape[1:])
    if core.ndim > 3:
        core = np.ascontiguousarray(np.moveaxis(core, (0, 1, 2), (-3, -2, -1)))
    return core


def _rank_two(pair, au, gu, z, u, core):
    """The symmetrized pair + [x, y] core [x, y]^T, with [x, y] = [Au, Gu]
    for G and [z, u] for H: O(n^2).

    ``pair`` is the (..., 2, n, n) array of G and H, and ``core`` their
    cores from :func:`_cores`; both broadcast against the vectors' leading
    batch axes.  The (..., 2, n, 2) basis is filled in place, in the C
    order np.stack would give it, so the pair takes one pair of matmuls,
    one ``+=`` and one symmetrization, and each half of the (..., 2, n, n)
    result is what a lone correction of G or H gives, bit for bit.
    """
    basis = np.empty(au.shape[:-1] + (2,) + au.shape[-1:] + (2,))
    basis[..., 0, :, 0] = au
    basis[..., 0, :, 1] = gu
    basis[..., 1, :, 0] = z
    basis[..., 1, :, 1] = u
    out = (basis @ core) @ basis.mT
    out += pair
    # One contiguous copy of out^T takes the pass's only strided read; the
    # sum and the halving then run in place.  out^T + out is out + out^T
    # bit for bit, as IEEE addition commutes.
    sym = np.ascontiguousarray(out.mT)
    sym += out
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


def _apply_update(pair, u, scalars, tau):
    """``(pair_plus, phi, det_ratio)`` from the shared update scalars.

    The (G, H) ``pair`` changes in one :func:`_rank_two` call: the basis
    [Au, Gu] with the primal core for G, [G^{-1}Au, u] with the inverse core
    for H, and ``pair_plus`` holds G_plus and H_plus as its two halves.
    Batch axes broadcast, so one set of scalars serves every tau of a grid.
    """
    au, gu, au_u, gu_u, z, aha = scalars
    phi, det_ratio = _phi_det(tau, au_u, gu_u, aha)
    core = _cores(_primal_core(phi, au_u, gu_u), _inverse_core(tau, au_u, aha))
    return _rank_two(pair, au, gu, z, u, core), phi, det_ratio


def update_arrays(pair, u, scalars, tau):
    """Raw-array fast path for one update: :func:`_apply_update` on one
    plain direction, after :func:`_check_pairings` on its scalars.

    Takes the (2, n, n) array of the current approximation and its inverse,
    the direction and its update scalars (:func:`_scalars`, with G^{-1}
    applied through the pair's H half), and returns
    ``(pair_plus, phi, det_ratio)``.  The caller owns validation; this is
    what the solver drives once per iteration.  Both operators change by a
    rank-two correction with a 2x2 core, so the update costs O(n^2), with
    the inverse maintained by the rank-two inverse formula instead of
    refactorizing.
    """
    _check_pairings(scalars)
    return _apply_update(pair, u, scalars, tau)


def _typed_update(a: SpdOperator, g: SpdOperator, uc: np.ndarray, tau: float):
    """:func:`update_arrays` from the typed inputs, on the stacked pair of
    G and G^{-1}: the inverse from the cached factor of G (one n-by-n solve,
    O(n^3)), and the update scalars taken through it as the solver takes
    them through its maintained inverse."""
    h_mat = g.inverse_matrix()
    scalars = _scalars(np.matvec(a.entries, uc), g.entries, uc,
                       lambda v: np.matvec(h_mat, v))
    return update_arrays(np.stack((g.entries, h_mat)), uc, scalars, tau)


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
    pair, phi, det_ratio = _typed_update(a, g, uc, tau)
    return UpdateResult(
        g_plus=SpdOperator(pair[0], Role.PRIMAL_TO_DUAL),
        g_plus_inv=SpdOperator(pair[1], Role.DUAL_TO_PRIMAL),
        phi=float(phi),
        det_ratio=float(det_ratio),
    )


def broyd_inverse(a: SpdOperator, g: SpdOperator, u: PrimalVector,
                  tau: float) -> SpdOperator:
    """Inverse of the updated operator, straight from the rank-two formula:
    the H_plus half of :func:`update_arrays` from H = G^{-1}, validated."""
    tau = check_tau(tau)
    uc = _nonzero_direction(a, g, u, "inverse update")
    return SpdOperator(_typed_update(a, g, uc, tau)[0][1], Role.DUAL_TO_PRIMAL)


def broyd_det_ratio(a: SpdOperator, g: SpdOperator, u: PrimalVector,
                    tau: float) -> float:
    """Closed-form Det(G_plus^{-1} G) of the update."""
    tau = check_tau(tau)
    _, _, au_u, gu_u, _, aha = _typed_scalars(a, g, u, "determinant ratio")
    _, det_ratio = _phi_det(tau, au_u, gu_u, aha)
    return float(det_ratio)


def _cond_inf(m, m_inv):
    """||M||_inf ||M^{-1}||_inf over leading batch axes, from M and its
    inverse: an upper bound on cond(M) for a symmetric M, whose spectral
    norm is at most its max-row-sum norm.  Every ``g_cond`` of
    :func:`_closeness` comes from it."""
    return (np.abs(m).sum(axis=-1).max(axis=-1)
            * np.abs(m_inv).sum(axis=-1).max(axis=-1))


def _closeness(scalars, g_mat, h_mat, g_cond):
    """nu over leading batch axes, and its check: ``(nu, ok, quad, energy)``.

    The one statement of the closeness measure.  With w = Gu - Au and H the
    inverse of G, ``quad`` is <w, Hw> and nu = (quad / <u, Au>)^{1/2}, with
    Au, Gu and <u, Au> read from the direction's update ``scalars``
    (:func:`_scalars`).  The check is the energy form ``energy`` = <Hw, GHw>,
    which differs from <w, Hw> by <Hw, (GH - I)w>: relative to <w, Hw>, the
    deviation of G^{1/2} H G^{1/2} from I along w.  Computed, the gap also
    carries the rounding of Hw, of G(Hw) and of the two inner products, each
    about n eps cond(G) relative, so with ``g_cond`` an upper bound on
    cond(G) (:func:`_cond_inf`) ``ok`` marks where the gap is at most
    4 n eps g_cond <w, Hw>.  Elsewhere H is not the inverse of G; so too
    where <w, Hw> is negative, which an SPD H cannot give, and nu reads 0
    there rather than warn.
    """
    au, gu, au_u = scalars[:3]
    w = gu - au
    z = np.matvec(h_mat, w)
    quad = np.vecdot(w, z)
    energy = np.vecdot(z, np.matvec(g_mat, z))
    ok = abs(energy - quad) <= 4 * au.shape[-1] * _EPS * g_cond * quad
    return np.sqrt(np.maximum(quad, 0.0) / au_u), ok, quad, energy


def _disagreement(quad, energy) -> str:
    """What a failing :func:`_closeness` check reports: H is not the
    inverse of G."""
    return f"closeness forms disagree: <w, Hw> = {quad} vs <Hw, GHw> = {energy}"


def secant_nu(scalars, g_mat, h_mat, g_cond) -> float:
    """nu along one direction on raw arrays, in O(n^2), from the direction's
    update scalars (:func:`_scalars`; nu reads Au, Gu and <Au, u>), the
    matrix G, its inverse H and an upper bound ``g_cond`` on cond(G).

    It is :func:`_closeness` on one direction, and a failing check is an
    ArithmeticError: H is not the inverse of G.
    """
    val, ok, quad, energy = _closeness(scalars, g_mat, h_mat, g_cond)
    if not ok:
        raise ArithmeticError(_disagreement(quad, energy))
    return float(val)


def nu(a: SpdOperator, g: SpdOperator, u: PrimalVector) -> float:
    """Closeness of G to A along u: ||(G - A)u||*_G / ||u||_A.

    :func:`secant_nu` with H = G^{-1} from the cached factor of G (one
    n-by-n solve, O(n^3)), the scalars it reads (Au, Gu and <Au, u>, as
    :func:`_scalars` computes them), and cond(G) bounded by
    :func:`_cond_inf`: the solver's value under the solver's check, which
    raises if that computed inverse fails it.
    """
    uc = _nonzero_direction(a, g, u, "closeness measure")
    h_mat = g.inverse_matrix()
    au = np.matvec(a.entries, uc)
    scalars = (au, np.matvec(g.entries, uc), np.vecdot(au, uc))
    return secant_nu(scalars, g.entries, h_mat, _cond_inf(g.entries, h_mat))
