"""SPD operator calculus on a primal/dual pair of coordinate spaces.

Operators are dense symmetric positive definite matrices tagged with the
direction they map (primal -> dual, like a Hessian, or dual -> primal, like
an inverse Hessian).  Vectors carry the same tag.  The tags exist purely to
prevent category errors such as pairing two primal vectors; storage is an
ordinary coordinate array in the standard basis.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.  A value's
arrays are read-only, through pickle and copy too.

The SPD acceptance rule is stated once, in :func:`spd_factor`, and every
:class:`SpdOperator` built from entries goes through it, keeping the rule's
symmetrized matrix and factor as they are, read-only, without a copy.  Two
kinds skip the rule because their factor is known: the identity of
:meth:`SpdOperator.identity`, one shared operator per dimension whose
entries are its factor, and the diag(s) of a quadratic's eigenbasis, whose
factor is diag(s^(1/2)) (``SpdOperator._accepted``).
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Role",
    "SpdOperator",
    "PrimalVector",
    "DualVector",
    "EigenRange",
    "DimensionMismatch",
    "NotSpdError",
    "ZeroDirectionError",
    "pair",
    "rel_trace",
    "rel_det",
    "norm_primal",
    "norm_dual",
    "rel_eigvals",
    "rel_eigen_range",
    "loewner_slack",
    "spd_solve",
    "spd_factor",
    "chol_logdet",
    "chol_solve",
    "chol_factor_solve",
    "pencil_eigvals",
    "check_number",
    "check_array",
    "check_keys",
    "check_same_dim",
]


class _Lapack:
    """Raw float64 LAPACK handles by routine name (``_lapack.sygst``).

    The helpers below call them with the argument layout that
    scipy.linalg's checked wrappers use, so the bits agree, but skip those
    wrappers' validation: the raw-array solver loop calls them every
    iteration.  A handle is fetched from scipy on its first use and kept,
    so a caller that needs none (``broyden-lab verify``) never imports
    scipy.
    """

    def __getattr__(self, name: str):
        import scipy.linalg

        (handle,) = scipy.linalg.get_lapack_funcs((name,), dtype=np.float64)
        setattr(self, name, handle)
        return handle


_lapack = _Lapack()

# Relative symmetry tolerance and pivot floor for accepting a matrix as SPD.
SYMMETRY_RTOL = 1e-12
PIVOT_RTOL = 1e-14


class DimensionMismatch(ValueError):
    """Operands live in spaces of different dimension."""


class NotSpdError(ValueError):
    """Matrix failed the symmetric positive definite check."""


class ZeroDirectionError(ValueError):
    """An operation that needs a direction received the zero vector."""


class Role(enum.Enum):
    """Mapping direction of an operator."""

    PRIMAL_TO_DUAL = "primal_to_dual"
    DUAL_TO_PRIMAL = "dual_to_primal"


# Why spd_factor rejects a matrix, by fault code; code 0 means accepted.
SPD_FAULTS = (
    "",
    "entries must be finite",
    "zero matrix is not positive definite",
    "matrix is not symmetric",
    "matrix is not positive definite",
    "matrix is numerically singular",
)


def spd_factor(m: np.ndarray):
    """The SPD acceptance rule, applied to each matrix of a (..., n, n) stack.

    A matrix is accepted when it is finite and nonzero, symmetric to
    ``SYMMETRY_RTOL`` times its largest entry, and its symmetrized part has
    a Cholesky factor whose squared pivots all exceed ``PIVOT_RTOL`` times
    that entry.  Returns ``(sym, chol, fault)``: the symmetrized matrices,
    their lower Cholesky factors and one fault code per matrix (an index
    into ``SPD_FAULTS``; for a single (n, n) matrix, the stack with no
    batch axes, a 0-d int array).  A rejected matrix gets the identity as
    its factor, so a stack keeps computing and the caller masks its results.

    The symmetrized part is 0.5 m + 0.5 m^T: each entry lies between the
    two it averages, so it is finite wherever m is (0.5 (m + m^T) overflows
    near the largest double), and a non-finite m is refused as such.  Both
    it and the asymmetry read one contiguous copy of m^T, the rule's one
    strided pass.  The rule holds two temporaries of m's size at a time,
    the copy and one work array that ends as the symmetrized part, and
    drops the copy before the factorization.
    """
    mt = m.mT.astype(float, order="C")
    with np.errstate(invalid="ignore", over="ignore"):
        sym = m - mt
        asym = np.abs(sym, out=sym).max(axis=(-2, -1))
        scale = np.abs(m, out=sym).max(axis=(-2, -1))
        np.multiply(m, 0.5, out=sym)
        mt *= 0.5
        sym += mt
    del mt
    # A NaN or infinite entry leaves the scale non-finite.
    fault = np.zeros(scale.shape, dtype=int)
    work = sym
    sane = (0.0 < scale) & (scale < math.inf) & (asym <= SYMMETRY_RTOL * scale)
    if not sane.all():
        fault = np.where(~np.isfinite(scale), 1,
                         np.where(scale == 0.0, 2, np.where(sane, 0, 3)))
        work = np.where(sane[..., None, None], sym, np.eye(m.shape[-1]))
    try:
        chol = np.linalg.cholesky(work)
    except np.linalg.LinAlgError:
        chol = np.empty_like(work)
        for i in np.ndindex(fault.shape):
            try:
                chol[i] = np.linalg.cholesky(work[i])
            except np.linalg.LinAlgError:
                chol[i], fault[i] = np.eye(m.shape[-1]), 4
    pivots = np.diagonal(chol, axis1=-2, axis2=-1).min(axis=-1) ** 2
    singular = pivots <= PIVOT_RTOL * scale
    if singular.any():
        fault = np.where((fault == 0) & singular, 5, fault)
    return sym, chol, fault


def check_number(value, what: str, minimum: float = -math.inf,
                 integer: bool = False):
    """The input rule for one number, returned as a float or, for a count
    or seed (``integer``), an int.

    A value must be a real (an integral one if ``integer``), never a bool,
    or it is a TypeError; it must be finite and at least ``minimum``, or it
    is a ValueError.  Both messages name ``what``.
    """
    if (not isinstance(value, numbers.Integral if integer else numbers.Real)
            or isinstance(value, bool)):
        kind = "an integer" if integer else "numeric"
        raise TypeError(f"{what} must be {kind}, got {value!r}")
    try:
        ok = math.isfinite(value) and value >= minimum
    except OverflowError:  # an integer beyond the double range
        ok = False
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"{what} must be {kind} >= {minimum}, got {value!r}")
    return int(value) if integer else float(value)


def check_array(value, what: str, ndim: int) -> np.ndarray:
    """:func:`check_number` for nested lists with ``ndim`` axes: a float
    array, or a TypeError for a ragged or differently nested value.

    Every entry is checked, since numpy would read ``[True, 2.0]`` as floats.
    """
    entries = np.array(value, dtype=object)
    if entries.ndim != ndim:
        raise TypeError(f"{what} must be a rectangular {ndim}-d array of "
                        f"numbers, got {entries.ndim}-d")
    return np.array([check_number(v, what) for v in entries.flat],
                    dtype=float).reshape(entries.shape)


def check_keys(d: dict, allowed, what: str, required=()) -> None:
    """The input rule for the keys of a config object: a key outside
    ``allowed`` is a ValueError naming it, so a misspelled field cannot
    silently fall back to a default, and so is a ``required`` key that is
    missing."""
    unknown = [key for key in d if key not in allowed]
    if unknown:
        raise ValueError(f"{what} does not read {', '.join(map(repr, unknown))}"
                         f"; it reads {', '.join(allowed)}")
    missing = [key for key in required if key not in d]
    if missing:
        raise ValueError(f"{what} is missing required key "
                         f"{', '.join(map(repr, missing))}")


def chol_logdet(chol: np.ndarray):
    """log Det of (a stack of) matrices from their Cholesky factors."""
    return 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)


def chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M^{-1} rhs for a raw vector or matrix, from the C-ordered lower
    Cholesky factor L of M: one ``potrs``, laid out as
    ``scipy.linalg.cho_solve((chol, True), rhs)`` lays it out."""
    x, info = _lapack.potrs(chol, rhs, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def chol_factor_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L^{-1} rhs for a raw vector or matrix, from the C-ordered lower
    Cholesky factor L: one ``trtrs`` on the Fortran-ordered L^T, as
    ``scipy.linalg.solve_triangular(chol, rhs, lower=True)`` lays it out."""
    x, info = _lapack.trtrs(chol.T, rhs, lower=False, trans=True)
    if info != 0:
        raise ValueError(f"triangular solve failed (info={info})")
    return x


def pencil_eigvals(g: np.ndarray, a_chol: np.ndarray) -> np.ndarray:
    """All eigenvalues of the matrix G relative to the SPD matrix with lower
    Cholesky factor ``a_chol``, ascending.

    Reduces the pencil to the standard problem L^{-1} G L^{-T} (one LAPACK
    ``sygst`` call, so A is never refactorized) and takes its eigenvalues.
    Both operands are passed transposed so they arrive Fortran-ordered:
    G^T = G, and A = U^T U with U = L^T upper triangular.
    """
    reduced, info = _lapack.sygst(g.T, a_chol.T, itype=1, lower=0)
    if info != 0:
        raise NotSpdError(f"generalized eigenvalue reduction failed (info={info})")
    try:
        return np.linalg.eigvalsh(reduced, UPLO="U")
    except np.linalg.LinAlgError as exc:
        raise NotSpdError("generalized eigenvalue reduction failed") from exc


def check_same_dim(a, b) -> None:
    """The dimension rule of every typed function: operands of different
    dimension are a :class:`DimensionMismatch`."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


class _Frozen:
    """Base of the frozen value types, whose arrays are read-only: pickle
    (which ``run --jobs`` sends experiments through) and ``copy`` restore
    an array writeable, so restoring a value marks its arrays again."""

    def __setstate__(self, state: dict) -> None:
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(state)


@dataclass(frozen=True)
class _Vector(_Frozen):
    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)  # a private copy
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coords must be a non-empty 1-d array")
        if not np.isfinite(c).all():
            raise ValueError("coords must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        return self.coords.size

    def _like(self, coords):
        return type(self)(coords)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        check_same_dim(self, other)
        return self._like(self.coords + other.coords)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        check_same_dim(self, other)
        return self._like(self.coords - other.coords)

    def __mul__(self, scalar: float):
        return self._like(self.coords * float(scalar))

    __rmul__ = __mul__


class PrimalVector(_Vector):
    """Point or direction in the primal space."""


class DualVector(_Vector):
    """Linear functional on the primal space (gradients live here)."""


@dataclass(frozen=True)
class EigenRange:
    """Extreme generalized eigenvalues of one SPD operator relative to another,
    stored as floats; a ValueError unless 0 < min_rel <= max_rel."""

    min_rel: float
    max_rel: float

    def __post_init__(self):
        lo, hi = float(self.min_rel), float(self.max_rel)
        if not 0.0 < lo <= hi:
            raise ValueError(f"invalid eigen range ({lo}, {hi})")
        object.__setattr__(self, "min_rel", lo)
        object.__setattr__(self, "max_rel", hi)

    @classmethod
    def of_spectrum(cls, vals: np.ndarray) -> "EigenRange":
        """Range of an ascending spectrum (rejected if not positive)."""
        return cls(vals[0], vals[-1])


@dataclass(frozen=True)
class SpdOperator(_Frozen):
    """Symmetric positive definite operator between the primal and dual spaces.

    Construction validates symmetry (relative tolerance ``SYMMETRY_RTOL``) and
    positive definiteness (a Cholesky factorization must succeed with pivots
    above ``PIVOT_RTOL`` times the matrix scale) and caches the triangular
    factor, so solves and log-determinants never form an explicit inverse.
    The operator keeps the rule's own two results, the symmetrized entries
    and the factor, marked read-only rather than copied: nothing else holds
    them.
    """

    entries: np.ndarray
    role: Role = Role.PRIMAL_TO_DUAL
    _chol: np.ndarray = field(init=False, repr=False, compare=False)
    # True only on the shared identity of :meth:`identity` (a class
    # attribute, not a field): its solves skip LAPACK.
    _unit = False

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be a square matrix")
        if m.shape[0] == 0:
            raise ValueError("zero-dimensional operators are not supported")
        sym, chol, fault = spd_factor(m)
        if fault:
            raise NotSpdError(SPD_FAULTS[fault])
        self._own(sym, chol)

    def _own(self, sym: np.ndarray, chol: np.ndarray) -> None:
        """Keep ``sym`` and ``chol`` as the entries and factor, read-only."""
        sym.flags.writeable = chol.flags.writeable = False
        object.__setattr__(self, "entries", sym)
        object.__setattr__(self, "_chol", chol)

    @classmethod
    def _accepted(cls, sym: np.ndarray, chol: np.ndarray,
                  role: Role) -> "SpdOperator":
        """The operator of symmetric entries and their lower Cholesky
        factor, kept as given, read-only, without the SPD rule: the diag(s)
        of :meth:`QuadraticProblem.eigenbasis` and the identity, whose
        factors are known.  The caller hands both arrays over and keeps no
        other reference to them.  The rule's pivot floor would refuse a
        diag(s) with kappa >= 1e14, a start the eigenbasis runs."""
        op = object.__new__(cls)
        object.__setattr__(op, "role", role)
        op._own(sym, chol)
        return op

    def __reduce_ex__(self, protocol):
        # An identity unpickles as the shared identity of its dimension.
        if self._unit:
            return _identity, (self.dim, self.role)
        return super().__reduce_ex__(protocol)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def factor(self) -> np.ndarray:
        """The cached lower Cholesky factor L, M = L L^T (read-only)."""
        return self._chol

    @property
    def logdet(self) -> float:
        return float(chol_logdet(self._chol))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.entries @ np.asarray(x, dtype=float)

    def _rhs(self, rhs) -> np.ndarray:
        """A right-hand side as floats, checked as scipy's cho_solve and
        solve_triangular check theirs: finite, with this operator's
        dimension along its first axis, or a ValueError."""
        b = np.asarray(rhs, dtype=float)
        if b.ndim == 0 or b.shape[0] != self.dim:
            raise ValueError(f"incompatible dimensions ({self.entries.shape} "
                             f"and {b.shape})")
        if not np.isfinite(b).all():
            raise ValueError("array must not contain infs or NaNs")
        return b

    def _solve(self, solve, rhs) -> np.ndarray:
        """``solve(factor, rhs)`` for a checked right-hand side.  The
        identity's factor is I, so its solve returns the right-hand side
        itself, with no LAPACK call: a fresh Fortran-ordered array, as
        LAPACK's is, with LAPACK's values (``potrs`` may turn a -0.0 into
        0.0, which compares equal)."""
        b = self._rhs(rhs)
        return np.array(b, order="F") if self._unit else solve(self._chol, b)

    def solve_mat(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the inverse to a raw vector or matrix via the cached factor."""
        return self._solve(chol_solve, rhs)

    solve_vec = solve_mat

    def quad_form(self, x: np.ndarray) -> float:
        """<Mx, x> for a raw coordinate vector."""
        x = np.asarray(x, dtype=float)
        return float(x @ (self.entries @ x))

    def solve_factor(self, rhs: np.ndarray) -> np.ndarray:
        """L^{-1} rhs for a raw vector or matrix, with L the cached lower
        Cholesky factor (M = L L^T): one triangular solve."""
        return self._solve(chol_factor_solve, rhs)

    def inv_quad_form(self, x: np.ndarray) -> float:
        """<x, M^{-1}x> for a raw coordinate vector, as the squared norm of
        :meth:`solve_factor`'s L^{-1}x."""
        y = self.solve_factor(x)
        return float(y @ y)

    def apply(self, v):
        """Typed application: primal->dual maps PrimalVector to DualVector."""
        if self.role is Role.PRIMAL_TO_DUAL:
            if not isinstance(v, PrimalVector):
                raise TypeError("primal->dual operator applies to PrimalVector")
            check_same_dim(self, v)
            return DualVector(self.matvec(v.coords))
        if not isinstance(v, DualVector):
            raise TypeError("dual->primal operator applies to DualVector")
        check_same_dim(self, v)
        return PrimalVector(self.matvec(v.coords))

    def scaled(self, c: float) -> "SpdOperator":
        if c <= 0.0:
            raise ValueError("scale factor must be positive")
        return SpdOperator(self.entries * float(c), self.role)

    def inverse_matrix(self) -> np.ndarray:
        """Explicit inverse as a plain, exactly symmetric array.

        The one place an explicit inverse matrix is formed (an n-by-n solve
        with the cached factor); every other inverse application goes
        through the factorization.  Raw-array callers take this instead of
        :meth:`inverse`, which would validate and factorize the result.
        """
        inv = self.solve_mat(np.eye(self.dim))
        return 0.5 * (inv + inv.T)

    def inverse(self) -> "SpdOperator":
        """:meth:`inverse_matrix` as a validated operator with the opposite
        role tag; its entries equal that matrix bitwise."""
        flipped = (Role.DUAL_TO_PRIMAL if self.role is Role.PRIMAL_TO_DUAL
                   else Role.PRIMAL_TO_DUAL)
        return SpdOperator(self.inverse_matrix(), flipped)

    @staticmethod
    def identity(dim: int, role: Role = Role.PRIMAL_TO_DUAL) -> "SpdOperator":
        """``SpdOperator(np.eye(dim), role)`` bitwise, shared: one read-only
        operator per dimension and role, whose entries are its factor (one
        ``np.eye(dim)``, built without the SPD rule, since I = I I^T), kept
        in a small cache.  It is marked so its solves make no LAPACK call:
        a quadratic with B = I, every generated one, then runs without
        scipy."""
        return _identity(operator.index(dim), role)


@functools.lru_cache(maxsize=4)
def _identity(dim: int, role: Role) -> SpdOperator:
    if dim < 1:
        raise ValueError("zero-dimensional operators are not supported")
    eye = np.eye(dim)
    op = SpdOperator._accepted(eye, eye, role)
    object.__setattr__(op, "_unit", True)
    return op


def _require_role(op: SpdOperator, role: Role, name: str) -> None:
    if op.role is not role:
        raise TypeError(f"{name} must have role {role.value}, got {op.role.value}")


def pair(s: DualVector, x: PrimalVector) -> float:
    """Duality pairing <s, x> = sum_i s_i x_i."""
    if not isinstance(s, DualVector) or not isinstance(x, PrimalVector):
        raise TypeError("pair() takes a DualVector and a PrimalVector")
    check_same_dim(s, x)
    return float(s.coords @ x.coords)


def rel_trace(h: SpdOperator, a: SpdOperator) -> float:
    """Trace of A relative to H^{-1}, i.e. Tr(HA)."""
    _require_role(h, Role.DUAL_TO_PRIMAL, "h")
    _require_role(a, Role.PRIMAL_TO_DUAL, "a")
    check_same_dim(h, a)
    # Tr(HA) = sum_ij H_ij A_ji = sum_ij H_ij A_ij for symmetric operands.
    return float(np.tensordot(h.entries, a.entries))


def rel_det(h: SpdOperator, a: SpdOperator) -> float:
    """Determinant of HA, evaluated as exp(logdet A + logdet H) for stability."""
    _require_role(h, Role.DUAL_TO_PRIMAL, "h")
    _require_role(a, Role.PRIMAL_TO_DUAL, "a")
    check_same_dim(h, a)
    return float(np.exp(a.logdet + h.logdet))


def norm_primal(a: SpdOperator, h: PrimalVector) -> float:
    """||h||_A = <Ah, h>^{1/2}."""
    _require_role(a, Role.PRIMAL_TO_DUAL, "a")
    if not isinstance(h, PrimalVector):
        raise TypeError("norm_primal() takes a PrimalVector")
    check_same_dim(a, h)
    return float(np.sqrt(max(a.quad_form(h.coords), 0.0)))


def norm_dual(a: SpdOperator, s: DualVector) -> float:
    """||s||*_A = <s, A^{-1}s>^{1/2}, computed through a factorization solve."""
    _require_role(a, Role.PRIMAL_TO_DUAL, "a")
    if not isinstance(s, DualVector):
        raise TypeError("norm_dual() takes a DualVector")
    check_same_dim(a, s)
    return float(np.sqrt(max(a.inv_quad_form(s.coords), 0.0)))


def rel_eigvals(g: SpdOperator, a: SpdOperator) -> np.ndarray:
    """All eigenvalues of G relative to A, ascending: :func:`pencil_eigvals`
    with A's cached factor, one eigendecomposition per (G, A) pair, from
    which the range, the log-determinant ratio and Tr(G^{-1}A) all follow.
    """
    _require_role(g, Role.PRIMAL_TO_DUAL, "g")
    _require_role(a, Role.PRIMAL_TO_DUAL, "a")
    check_same_dim(g, a)
    return pencil_eigvals(g.entries, a.factor)


def rel_eigen_range(g: SpdOperator, a: SpdOperator) -> EigenRange:
    """Extreme eigenvalues of G relative to A (symmetric-definite reduction)."""
    return EigenRange.of_spectrum(rel_eigvals(g, a))


def loewner_slack(a1: SpdOperator, a2: SpdOperator) -> float:
    """Smallest eigenvalue of (A2 - A1), relative to the spectral norm of A2.

    Nonnegative (up to rounding) exactly when A1 is below A2 in the
    positive-semidefinite order.
    """
    check_same_dim(a1, a2)
    diff = a2.entries - a1.entries
    min_eig = float(np.linalg.eigvalsh(diff)[0])
    scale = float(np.linalg.eigvalsh(a2.entries)[-1])
    return min_eig / scale


def spd_solve(a: SpdOperator, s: DualVector) -> PrimalVector:
    """Solve A x = s for a primal->dual operator A."""
    _require_role(a, Role.PRIMAL_TO_DUAL, "a")
    if not isinstance(s, DualVector):
        raise TypeError("spd_solve() takes a DualVector right-hand side")
    check_same_dim(a, s)
    return PrimalVector(a.solve_vec(s.coords))
