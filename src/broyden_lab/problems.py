"""Problem instances with certified curvature constants.

One base class, :class:`ProblemInstance`, and two families under it:
quadratics with a prescribed spectrum (:class:`QuadraticProblem`) and
regularized log-sum-exp objectives (:class:`LogSumExpProblem`).  The base
owns the typed oracles ``value``, ``grad`` and ``hess``; each family supplies
its raw-coordinate parts and the constants the convergence theory needs
(strong convexity mu and gradient Lipschitz constant ell relative to a
reference operator B, plus the strong self-concordance constant, 0 for a
quadratic), certified at construction, so rate envelopes computed from them
are honest.  Code that treats the families differently tests
``isinstance(p, QuadraticProblem)``.

Each certified quantity has one owner.  A quadratic computes its spectrum
relative to B once, at construction, and keeps it as ``spectrum``: the
certificate mu*B <= A <= ell*B, the JSON form and the sharpened envelope
factor all read it.  Its eigenvectors are not kept: the solver calls
:meth:`QuadraticProblem.eigenbasis` once per run, which takes V with
V^T A V = diag(s) and V^T B V = I from the same reduced matrix, and keeps V
for that run only.  A log-sum-exp instance computes the dual norms of its
rows once, and its ``gamma`` defaults to the largest of them.

Instances are immutable and their oracles are pure; JSON serialization is
provided for reproducible experiment definitions, and a key that an
instance form does not read is refused.  One table of an instance's keys
and values serves both :func:`instance_to_dict` and :func:`instance_hash`,
the SHA-256 of that description's compact, key-sorted JSON text; the hash
reads the text a matrix row at a time, so its memory does not grow with
m * n.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    DualVector,
    NotSpdError,
    PrimalVector,
    Role,
    SpdOperator,
    _Frozen,
    check_array,
    check_keys,
    check_number,
    loewner_slack,
    norm_primal,
)

__all__ = [
    "QuadraticProblem",
    "LogSumExpProblem",
    "ProblemInstance",
    "IntegralHessian",
    "SandwichReport",
    "quad_make",
    "lse_make",
    "lse_value_grad_hess",
    "integral_hessian",
    "sandwich_check",
    "instance_to_dict",
    "instance_from_dict",
    "instance_hash",
]

_LOEWNER_TOL = 1e-9


def haar_orthogonal(z: np.ndarray) -> np.ndarray:
    """The Haar-distributed orthogonal matrix of each standard Gaussian
    matrix of a (..., n, n) stack: its QR factor Q, each column's sign
    fixed by R's diagonal, all in one stacked QR."""
    q, r = np.linalg.qr(z)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def haar_spd(eigs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Exactly symmetric Q diag(eigs) Q^T over a stack, Q the
    :func:`haar_orthogonal` matrix of each Gaussian matrix of ``z``."""
    q = haar_orthogonal(z)
    m = (q * eigs[..., None, :]) @ q.mT
    return 0.5 * (m + m.mT)


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix: :func:`haar_orthogonal` of one
    Gaussian matrix."""
    return haar_orthogonal(rng.standard_normal((n, n)))


@dataclass(frozen=True)
class ProblemInstance(_Frozen):
    """Base of the two problem families: the one home of the typed oracles.

    A family supplies ``n``, ``mu``, ``ell``, ``sc_const`` and ``b_ref``,
    and the raw-coordinate parts of the oracles: ``_value`` and ``_grad``
    map a coordinate array to a number and an array, ``_hess`` to an
    :class:`SpdOperator`.  ``value``, ``grad`` and ``hess`` are defined here
    only, and a family must not override them: ``perfbench/tracer.py`` wraps
    ``ProblemInstance.grad`` and ``.hess`` on this class and takes the
    solver's per-iteration latency (``solver.iter_ms_p50/p99``) from the
    gaps between ``grad`` spans, so an override would hide its calls.
    """

    def value(self, x: PrimalVector) -> float:
        return self._value(x.coords)

    def grad(self, x: PrimalVector) -> DualVector:
        return DualVector(self._grad(x.coords))

    def hess(self, x: PrimalVector) -> SpdOperator:
        return self._hess(x.coords)


@dataclass(frozen=True)
class QuadraticProblem(ProblemInstance):
    """f(x) = 1/2 <Ax, x> - <b, x> with mu*B <= A <= ell*B certified.

    ``spectrum`` (read-only, ascending) holds the eigenvalues of A relative
    to B, those of L^-1 A L^-T with L the cached Cholesky factor of B.  It
    is computed once, here; with B = I both solves return A as is, so it is
    eigvalsh(A) bitwise.  The certificate is checked against it to a
    relative tolerance of 1e-9.
    """

    a_op: SpdOperator
    b: DualVector
    b_ref: SpdOperator
    mu: float
    ell: float
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    sc_const = 0.0  # no third-derivative term

    def __post_init__(self):
        if not (0.0 < self.mu <= self.ell):
            raise ValueError(f"need 0 < mu <= ell, got ({self.mu}, {self.ell})")
        if self.a_op.dim != self.b.dim or self.a_op.dim != self.b_ref.dim:
            raise ValueError("operator and vector dimensions disagree")
        spec = np.linalg.eigvalsh(self._reduced())
        spec.flags.writeable = False
        object.__setattr__(self, "spectrum", spec)
        if spec[0] < self.mu - _LOEWNER_TOL * spec[-1]:
            raise ValueError("mu*B <= A violated")
        if spec[-1] > self.ell * (1.0 + _LOEWNER_TOL):
            raise ValueError("A <= ell*B violated")

    @property
    def n(self) -> int:
        return self.a_op.dim

    def _reduced(self) -> np.ndarray:
        """L^-1 A L^-T, whose eigenvalues are those of A relative to B: two
        triangular solves with B's cached factor (A itself when B = I)."""
        y = self.b_ref.solve_factor(self.a_op.entries)
        return self.b_ref.solve_factor(y.T)

    def eigenbasis(self) -> tuple[np.ndarray, "QuadraticProblem"]:
        """The generalized eigenvectors of (A, B) and this problem in them.

        Returns V with V^T A V = diag(s) and V^T B V = I, from one
        symmetric eigendecomposition of :meth:`_reduced` (V = L^-T W for
        its eigenvectors W), and the same quadratic in y = V^T B x, where
        x = V y: A = diag(s), B = I and b = V^T b, with this instance's mu
        and ell and s as its spectrum.  That instance is assembled without
        another decomposition, so an s that is not positive (an A too
        ill-conditioned for float64) is a :class:`NotSpdError`; its B is
        the shared :meth:`SpdOperator.identity`, so it adds no I of its
        own.  Nothing keeps V: the solver takes it once per run.
        """
        s, w = np.linalg.eigh(self._reduced())
        if not s[0] > 0.0:
            raise NotSpdError(f"eigenvalue {s[0]:.3e} of A relative to B is "
                              "not positive in float64")
        v = self.b_ref.solve_factor(np.eye(self.n)).T @ w
        s.flags.writeable = False
        diagonal = object.__new__(QuadraticProblem)
        for name, value in (
                ("a_op", SpdOperator._accepted(np.diag(s), np.diag(np.sqrt(s)),
                                               Role.PRIMAL_TO_DUAL)),
                ("b", DualVector(v.T @ self.b.coords)),
                ("b_ref", SpdOperator.identity(self.n)),
                ("mu", self.mu), ("ell", self.ell), ("spectrum", s)):
            object.__setattr__(diagonal, name, value)
        return v, diagonal

    def _value(self, xc: np.ndarray) -> float:
        return 0.5 * self.a_op.quad_form(xc) - float(self.b.coords @ xc)

    def _grad(self, xc: np.ndarray) -> np.ndarray:
        return self.a_op.matvec(xc) - self.b.coords

    def _hess(self, xc: np.ndarray) -> SpdOperator:
        return self.a_op

    def minimizer(self) -> PrimalVector:
        return PrimalVector(self.a_op.solve_vec(self.b.coords))


@dataclass(frozen=True)
class LogSumExpProblem(ProblemInstance):
    """f(x) = ln(sum_i exp(<a_i, x> + b_i)) + mu/2 ||x||^2_B.

    ``gamma`` is the certified bound on the dual norms of the rows, which
    yields ell = gamma^2 + mu and the strong self-concordance constant
    2 gamma^3 / mu^{3/2}.  ``None`` (the default) takes the tight
    certificate, the largest row norm itself.
    """

    a_mat: np.ndarray
    b_shift: np.ndarray
    mu: float
    b_ref: SpdOperator
    gamma: float | None = None

    def __post_init__(self):
        a = np.array(self.a_mat, dtype=float, copy=True)
        bs = np.array(self.b_shift, dtype=float, copy=True)
        if a.ndim != 2 or a.shape[0] == 0:
            raise ValueError("a_mat must be a nonempty m-by-n matrix")
        if bs.shape != (a.shape[0],):
            raise ValueError("b_shift length must match the number of rows")
        if a.shape[1] != self.b_ref.dim:
            raise ValueError("row dimension disagrees with the reference operator")
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")
        a.flags.writeable = False
        bs.flags.writeable = False
        object.__setattr__(self, "a_mat", a)
        object.__setattr__(self, "b_shift", bs)
        # ||a_i||*_B = ||L^-1 a_i|| with L the cached Cholesky factor of B:
        # one triangular solve for all rows.
        y = self.b_ref.solve_factor(a.T)
        max_norm = float(np.linalg.norm(y.T, axis=1).max())
        if self.gamma is None:
            object.__setattr__(self, "gamma", max_norm)
        elif self.gamma < max_norm - 1e-12:
            raise ValueError(
                f"gamma={self.gamma} is below the largest row norm {max_norm}"
            )

    @property
    def n(self) -> int:
        return self.a_mat.shape[1]

    @property
    def m(self) -> int:
        return self.a_mat.shape[0]

    @property
    def ell(self) -> float:
        return self.gamma ** 2 + self.mu

    @property
    def sc_const(self) -> float:
        return 2.0 * self.gamma ** 3 / self.mu ** 1.5

    def _value(self, xc: np.ndarray) -> float:
        return _lse_value_grad(self, xc)[0]

    def _grad(self, xc: np.ndarray) -> np.ndarray:
        return _lse_value_grad(self, xc)[1]

    def _hess(self, xc: np.ndarray) -> SpdOperator:
        z = (self.a_mat @ xc + self.b_shift)[None]
        return SpdOperator(_lse_mean(self, z, np.ones(1)), Role.PRIMAL_TO_DUAL)


@dataclass(frozen=True)
class IntegralHessian:
    """Mean Hessian along a segment, with a quadrature error estimate."""

    j_op: SpdOperator
    est_error: float


def quad_make(spectrum, b: DualVector | None = None, seed: int = 0) -> QuadraticProblem:
    """Quadratic with prescribed eigenvalues relative to B = I.

    The eigenbasis is a seeded Haar-random orthogonal conjugation, so the
    same seed reproduces the same operator exactly.
    """
    spec = check_array(spectrum, "spectrum", 1)
    if spec.size == 0:
        raise ValueError("spectrum must be a nonempty sequence")
    if np.any(spec <= 0.0):
        raise ValueError("spectrum entries must be positive")
    n = spec.size
    rng = np.random.default_rng(check_number(seed, "seed", 0, integer=True))
    a = haar_spd(spec, rng.standard_normal((n, n)))
    if b is None:
        b = DualVector(rng.standard_normal(n))
    return QuadraticProblem(
        a_op=SpdOperator(a, Role.PRIMAL_TO_DUAL),
        b=b,
        b_ref=SpdOperator.identity(n),
        mu=float(spec.min()),
        ell=float(spec.max()),
    )


def lse_make(n: int, m: int, mu: float, seed: int = 0,
             gamma: float | None = None,
             b_shift=None) -> LogSumExpProblem:
    """Seeded log-sum-exp instance with B = I.

    Rows are Gaussian; when ``gamma`` is given they are rescaled so the
    largest row norm equals it exactly, keeping the certified constant tight.
    """
    n = check_number(n, "n", 1, integer=True)
    m = check_number(m, "m", 1, integer=True)
    rng = np.random.default_rng(check_number(seed, "seed", 0, integer=True))
    a = rng.standard_normal((m, n))
    if gamma is not None:
        gamma = check_number(gamma, "gamma")
        a = a * (gamma / np.linalg.norm(a, axis=1).max())
    return LogSumExpProblem(
        a_mat=a,
        b_shift=(rng.standard_normal(m) if b_shift is None
                 else check_array(b_shift, "b", 1)),
        mu=check_number(mu, "mu"),
        b_ref=SpdOperator.identity(n),
        gamma=gamma,
    )


def _lse_value_grad(p: LogSumExpProblem, xc: np.ndarray):
    """Value, gradient and softmax weights at raw coordinates, in O(m n).

    The exponents are shifted by their maximum, so exp cannot overflow.
    """
    t = p.a_mat @ xc + p.b_shift
    t_max = float(t.max())
    e = np.exp(t - t_max)
    s = float(e.sum())
    pi = e / s
    bx = p.b_ref.entries @ xc
    f = t_max + math.log(s) + 0.5 * p.mu * float(bx @ xc)
    g = p.a_mat.T @ pi + p.mu * bx
    return f, g, pi


def lse_value_grad_hess(p: LogSumExpProblem,
                        x: PrimalVector) -> tuple[float, DualVector, SpdOperator]:
    """Objective value, gradient and Hessian of a log-sum-exp instance."""
    f, g, _ = _lse_value_grad(p, x.coords)
    return f, DualVector(g), p.hess(x)


@functools.lru_cache(maxsize=16)
def _gauss_legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the ``order``-point rule on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def _lse_mean(p: LogSumExpProblem, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted mean of the log-sum-exp Hessian over points x_j, raw entries.

    The one statement of the Hessian A^T (diag(pi) - pi pi^T) A + mu B.
    The rows of z are the exponent vectors A x_j + b and w holds the
    weights.  Stacking the max-shifted softmax rows in P, the mean is
    A^T diag(w^T P) A - G^T diag(w) G + mu B with G = P A: one O(m n^2)
    product plus O(q m n + q n^2) for q points, instead of one O(m n^2)
    Hessian per point.
    """
    pis = np.exp(z - z.max(axis=1, keepdims=True))
    pis /= pis.sum(axis=1, keepdims=True)
    gs = pis @ p.a_mat
    j = ((p.a_mat.T * (w @ pis)) @ p.a_mat - (gs.T * w) @ gs
         + p.mu * p.b_ref.entries)
    return 0.5 * (j + j.T)


def integral_hessian(p: ProblemInstance, x: PrimalVector, u: PrimalVector,
                     order: int = 16) -> IntegralHessian:
    """Mean of the Hessian over the segment from x to x + u.

    Quadratics return their operator exactly, and a zero step the Hessian at
    x.  Otherwise the mean is a Gauss-Legendre rule with ``order`` nodes,
    evaluated from the log-sum-exp structure without forming a Hessian per
    node, and the error estimate is the spectral-norm gap to the
    doubled-order rule (the integrand is analytic along segments, so the
    rule converges spectrally and the gap is a sound estimate).
    """
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    if isinstance(p, QuadraticProblem):
        return IntegralHessian(j_op=p.a_op, est_error=0.0)
    if float(np.linalg.norm(u.coords)) == 0.0:
        return IntegralHessian(j_op=p.hess(x), est_error=0.0)
    # The exponents at the nodes x + t_j u are the rows of t0 + t_j dt.
    t0 = p.a_mat @ x.coords + p.b_shift
    dt = p.a_mat @ u.coords
    j, j_fine = (_lse_mean(p, t0 + np.outer(t, dt), w) for t, w in
                 map(_gauss_legendre_rule, (order, 2 * order)))
    # The gap is symmetric, so its spectral norm is its largest |eigenvalue|.
    est = float(np.max(np.abs(np.linalg.eigvalsh(j - j_fine))))
    return IntegralHessian(j_op=SpdOperator(j, Role.PRIMAL_TO_DUAL),
                           est_error=est)


@dataclass(frozen=True)
class SandwichReport:
    """Outcome of the segment-Hessian sandwich checks at one point pair."""

    r: float
    factor: float
    slacks: dict[str, float] = field(compare=False)
    tol: float = 1e-8

    @property
    def passed(self) -> bool:
        return min(self.slacks.values()) >= -self.tol

    @property
    def worst(self) -> float:
        return min(self.slacks.values())


def sandwich_check(p: ProblemInstance, x: PrimalVector, y: PrimalVector,
                   order: int = 16, tol: float = 1e-8) -> SandwichReport:
    """Verify the mean-Hessian sandwiches between x and y.

    With r the distance from x to y in the local metric at x and
    c = 1 + M*r/2, checks c^{-1} H(x) <= J <= c H(x) and the same around
    H(y), then spot-checks the defining Hessian-variation bound
    H(y) - H(x) <= M ||y - x||_z H(w) at a small deterministic sample of
    (z, w) pairs.  Slacks are smallest eigenvalues of (rhs - lhs) relative
    to the spectral norm of rhs.
    """
    hx = p.hess(x)
    hy = p.hess(y)
    u = y - x
    r = norm_primal(hx, u)
    big_m = p.sc_const
    c = 1.0 + 0.5 * big_m * r
    j = integral_hessian(p, x, u, order).j_op
    slacks = {
        "x_lower": loewner_slack(hx.scaled(1.0 / c), j),
        "x_upper": loewner_slack(j, hx.scaled(c)),
        "y_lower": loewner_slack(hy.scaled(1.0 / c), j),
        "y_upper": loewner_slack(j, hy.scaled(c)),
    }
    mid = PrimalVector(0.5 * (x.coords + y.coords))
    hessians = {"x": hx, "y": hy, "mid": p.hess(mid)}
    tops = {name: float(np.linalg.eigvalsh(h.entries)[-1])
            for name, h in hessians.items()}
    for z_name, hz in hessians.items():
        dist = norm_primal(hz, u)
        for w_name, hw in hessians.items():
            # H(y) - H(x) <= M * ||y - x||_z * H(w), as a relative slack.
            rhs = big_m * dist * hw.entries - (hy.entries - hx.entries)
            min_eig = float(np.linalg.eigvalsh(0.5 * (rhs + rhs.T))[0])
            scale = max(tops[w_name] * max(big_m * dist, 1.0), 1e-300)
            slacks[f"var_{z_name}_{w_name}"] = min_eig / scale
    return SandwichReport(r=r, factor=c, slacks=slacks, tol=tol)


def _instance_fields(p: ProblemInstance) -> dict:
    """The canonical description's keys and values, its vectors and
    matrices kept as the instance's float64 arrays: what
    :func:`instance_to_dict` writes and :func:`instance_hash` digests."""
    if isinstance(p, QuadraticProblem):
        return {
            "kind": "quadratic",
            "n": p.n,
            "a": p.a_op.entries,
            "b": p.b.coords,
            "b_ref": p.b_ref.entries,
            "mu": p.mu,
            "ell": p.ell,
            "spectrum": p.spectrum,
        }
    return {
        "kind": "log_sum_exp",
        "n": p.n,
        "m": p.m,
        "a_rows": p.a_mat,
        "b": p.b_shift,
        "b_ref": p.b_ref.entries,
        "mu": p.mu,
        "gamma": p.gamma,
    }


def instance_to_dict(p: ProblemInstance) -> dict:
    """Canonical JSON-ready description (explicit data, no seeds)."""
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in _instance_fields(p).items()}


def _reference(d: dict, n: int) -> SpdOperator:
    """The spec's reference operator ``b_ref``, the identity by default."""
    if "b_ref" not in d:
        return SpdOperator.identity(n)
    return SpdOperator(check_array(d["b_ref"], "b_ref", 2))


# The keys each instance form reads besides "kind", as (required, optional),
# by kind and whether the data is explicit (``a`` or ``a_rows``) or generated.
_INSTANCE_KEYS = {
    ("quadratic", True): (("a", "b", "mu", "ell"), ("n", "b_ref", "spectrum")),
    ("quadratic", False): (("spectrum",), ("n", "seed", "b")),
    ("log_sum_exp", True): (("a_rows", "b", "mu"), ("n", "m", "b_ref", "gamma")),
    ("log_sum_exp", False): (("n", "m", "mu"), ("seed", "gamma", "b")),
}


def instance_from_dict(d: dict) -> ProblemInstance:
    """Build an instance from either explicit data or a seeded generator spec.

    Quadratic specs carry either an explicit matrix ``a`` or a ``spectrum``
    plus ``seed``; log-sum-exp specs carry either explicit ``a_rows`` (with
    an optional ``gamma``, the tight certificate by default) or
    ``(n, m, seed)`` with an optional ``gamma`` rescale target.  A stated
    ``n`` (or ``m``) must agree with the data, and so must a ``spectrum``
    stated beside ``a`` (to a relative 1e-12), as :func:`instance_to_dict`
    writes it.  A key the form does not read, or a required one that is
    missing, is refused.
    """
    kind = d.get("kind")
    if kind not in ("quadratic", "log_sum_exp"):
        raise ValueError(f"unknown instance kind: {kind!r}")
    explicit = ("a" if kind == "quadratic" else "a_rows") in d
    required, optional = _INSTANCE_KEYS[kind, explicit]
    check_keys(d, ("kind",) + required + optional,
               f"{'explicit' if explicit else 'generator'} {kind} instance",
               required)
    if kind == "quadratic" and explicit:
        a = check_array(d["a"], "a", 2)
        inst = QuadraticProblem(
            a_op=SpdOperator(a),
            b=DualVector(check_array(d["b"], "b", 1)),
            b_ref=_reference(d, len(a)),
            mu=check_number(d["mu"], "mu"),
            ell=check_number(d["ell"], "ell"),
        )
    elif kind == "quadratic":
        b = DualVector(check_array(d["b"], "b", 1)) if "b" in d else None
        inst = quad_make(d["spectrum"], b=b, seed=d.get("seed", 0))
    elif explicit:
        a = check_array(d["a_rows"], "a_rows", 2)
        inst = LogSumExpProblem(
            a_mat=a,
            b_shift=check_array(d["b"], "b", 1),
            mu=check_number(d["mu"], "mu"),
            b_ref=_reference(d, a.shape[1]),
            gamma=check_number(d["gamma"], "gamma") if "gamma" in d else None,
        )
    else:
        # lse_make reads None as "not given", so a stated null is checked
        # here rather than passed on.
        inst = lse_make(
            n=d["n"], m=d["m"], mu=d["mu"], seed=d.get("seed", 0),
            gamma=check_number(d["gamma"], "gamma") if "gamma" in d else None,
            b_shift=check_array(d["b"], "b", 1) if "b" in d else None,
        )
    for key, size in (("n", inst.n), ("m", getattr(inst, "m", None))):
        if key in d and check_number(d[key], key, integer=True) != size:
            raise ValueError(f"{key} = {d[key]} disagrees with the "
                             f"instance, whose {key} is {size}")
    if explicit and "spectrum" in d:  # only an explicit quadratic reads it
        stated = check_array(d["spectrum"], "spectrum", 1)
        if stated.shape != (inst.n,) or not np.allclose(
                stated, inst.spectrum, rtol=1e-12, atol=0.0):
            raise ValueError("spectrum disagrees with the eigenvalues of a "
                             "relative to b_ref")
    return inst


_compact_json = functools.partial(json.dumps, separators=(",", ":"))


def instance_hash(p: ProblemInstance) -> str:
    """SHA-256 of the compact, key-sorted JSON text of
    :func:`instance_to_dict`, in hex.

    The text is fed to the hash a piece at a time, a matrix one row at a
    time, so memory stays at one row's text whatever the instance's size.
    """
    digest = hashlib.sha256()
    opening = "{"
    for key, value in sorted(_instance_fields(p).items()):
        digest.update(f"{opening}{_compact_json(key)}:".encode())
        opening = ","
        if isinstance(value, np.ndarray) and value.ndim == 2:
            for i, row in enumerate(value):
                digest.update(("," if i else "[").encode())
                digest.update(_compact_json(row.tolist()).encode())
            digest.update(b"]")
        else:
            if isinstance(value, np.ndarray):
                value = value.tolist()
            digest.update(_compact_json(value).encode())
    digest.update(b"}")
    return digest.hexdigest()
