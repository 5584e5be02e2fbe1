"""Quasi-Newton driver for the convex Broyden class, with instrumentation.

Two entry points share one loop: :func:`run_quadratic` updates toward the
fixed quadratic operator, :func:`run_general` toward the mean Hessian J_k of
each step segment.  Both start from ell * B, step with the analytically
maintained inverse, and record every quantity the convergence analysis
tracks: the local gradient norm lambda, the approximation-metric gradient
norm g, step length r in the local metric, the accumulated distortion xi,
the directional closeness nu, both potentials, and the eigenvalue range of
the approximation relative to the current Hessian.

Every quadratic, through either entry point, runs in the generalized
eigenbasis of (A, B).  The convex Broyden class started from ell * B is
affine-invariant, so the change of variables leaves the iterates the same in
exact arithmetic; in float64 it keeps a kappa = 1e12 run from stalling on
the representation error of a dense G_k.  Before the loop starts, the run
takes V with V^T A V = diag(s) and V^T B V = I from one eigendecomposition
(:meth:`QuadraticProblem.eigenbasis`), and the loop runs on the same
quadratic in y = V^T B x: A = diag(s), B = I, b = V^T b, so G_0 = ell I and
H_0 = I / ell.  There the secant is s * u, r^2 is <s * u, u>, and the
eigenvalues of G_k relative to A are those of the standard symmetric matrix
G_k * (d d^T) with d = s^(-1/2), formed once.  At exit the final iterate and
any recorded objects go back to the caller's coordinates, and an
uninstrumented run stops on the Euclidean norm of the gradient there, as on
the general path.

The update is the classical one: it reads the target only through the
secant y_k = grad f(x_{k+1}) - grad f(x_k), which equals J_k u_k by the mean
value theorem (a quadratic states it exactly, as A u_k).  Each nonzero step
evaluates the gradient at the new iterate once and carries it into the next
iteration, so a run makes one gradient call per visited iterate.  A true
gradient difference of a mu-strongly convex, ell-smooth f obeys
mu ||u||^2 <= <y, u> and ||y||_*^2 <= ell <y, u> in the B norm.  A step whose
y breaks either by more than a factor 2 carries gradient rounding noise, not
curvature (a run past its rounding floor, at grad_tol 0, meets such steps):
the iterate still takes it, but the update is skipped and its nu is NaN.

The loop runs on raw arrays from entry to exit.  Typed wrappers appear only
at its edges: the starting point and reference operator it is given, the
trace it returns, and the oracle calls (the gradient and Hessian of each
visited iterate, on the problem the loop runs, and the segment mean, which
take and return typed values).  Between them G_k, H_k, the step and the
secant are plain arrays that never become an ``SpdOperator``, and the
spectra call LAPACK through numpy or the raw helpers in :mod:`operators`.
On the general path lambda, the gradient's norm in the Hessian's metric,
comes from the typed :func:`operators.norm_dual`, since both are oracle
values; in the eigenbasis it is the O(n) ||g / s^(1/2)||, the same value.

No iteration factors G_k.  Without instrumentation a step costs O(n^2) for
the rank-two update of the approximation and its inverse, one stacked call
that corrects G_k and H_k together (:func:`broyden.update_arrays`), which
checks G_k and H_k through the update's pairings <y, u>, <G u, u> and
<y, H y>: each must be positive and finite, or the run stops with a
:class:`DivergenceError`.  That is all: no decomposition, no Hessian and no
segment mean, so an uninstrumented run makes no quadrature and cannot raise
:class:`QuadratureError`.  Instrumented, an iteration adds one
eigendecomposition of the approximation relative to each distinct target,
and O(n^2) for the closeness nu and both potentials, which follow from the
same eigenvalues.  The spectrum relative to the Hessian is also the
definiteness check: its smallest eigenvalue must exceed the eigensolver's
resolution, n eps times the largest.  Nu reads the maintained inverse, and
its cross-check against the energy form shows H_k still inverts G_k (see
:func:`broyden.secant_nu`).  On a quadratic that is one ``eigvalsh`` of a
scaled G_k (the Hessian is the update target), so an instrumented quadratic
iteration makes one decomposition; the general path takes two pencil
spectra, each a ``sygst`` reduction and an ``eigvalsh``.

Every visited iterate takes the same path and leaves one row.  The row starts
with each column NaN and is filled in once: g and xi always; lambda and the
eigenvalue range against the Hessian when instrumented; for an outgoing step
tau, and when instrumented r, nu and the quadrature error, and the
potentials and eigenvalue range against the step target.  An instrumented
step builds and checks its target before it evaluates the gradient at the
next iterate, so a failing quadrature is reported at the step itself.  A
zero step (direction norm at most ZERO_DIRECTION_NORM) records r = 0,
targets the Hessian at the same iterate and skips the update.  The terminal
row has no step; only the quadratic path, whose target is fixed, still
measures its potentials.  Each row's values go to one float64 buffer per
column, so a trace retains about 13 doubles per iterate; the per-iterate
vectors and operator snapshots are kept only when a caller passes
``record_operators=True``.

An instrumented general-path iteration on log-sum-exp makes two validated
Cholesky factorizations: the one pointwise Hessian (the gradient is an
O(m n) oracle that forms none) and the segment mean J_k, built only to
measure the step.  The mean comes from two structured
Gauss-Legendre rules, of orders q and 2q, at O(m n^2 + q m n) each; the
quadrature check adds one symmetric eigenvalue solve, for the spectral norm
of the gap between the rules.  The gate compares that gap with ||J||, and
since J is SPD its largest diagonal entry is a lower bound on ||J||: the
exact norm, a second eigenvalue solve, is taken only when the gap exceeds
the diagonal's share.

A single run is single-threaded and deterministic; independent runs share no
mutable state.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .broyden import _EPS, ZERO_DIRECTION_NORM, check_tau, update_arrays
from .operators import (
    DualVector,
    NotSpdError,
    PrimalVector,
    Role,
    SpdOperator,
    check_array,
    check_keys,
    check_number,
    norm_dual,
    pencil_eigvals,
)
from .potentials import spectral_barriers

# The loop draws range and potentials from one spectrum per pencil instead
# of calling these; they stay importable here because perfbench/tracer.py
# wraps the instrumentation layer under this module's names.  For the same
# reason the loop calls the raw secant form of nu under the name nu.
from .broyden import secant_nu as nu
from .operators import rel_eigen_range  # noqa: F401
from .potentials import augmented_barrier, logdet_barrier  # noqa: F401
from .problems import (
    ProblemInstance,
    QuadraticProblem,
    integral_hessian,
)

__all__ = [
    "TauSchedule",
    "SolverConfig",
    "IterationTrace",
    "IterationError",
    "DivergenceError",
    "QuadratureError",
    "QUAD_ERROR_RTOL",
    "run_quadratic",
    "run_general",
    "secant_residual",
]


class IterationError(RuntimeError):
    """A run stopped at iteration ``k``; the message names it."""

    def __init__(self, k: int, message: str):
        super().__init__(f"iteration {k}: {message}")
        self.k = k


class DivergenceError(IterationError):
    """The iteration produced a non-finite or non-SPD state."""


class QuadratureError(IterationError):
    """Segment-Hessian quadrature error estimate exceeded its threshold."""


@dataclass(frozen=True)
class TauSchedule:
    """Per-iteration choice of the convex-class parameter.

    ``taus`` holds tau_0, tau_1, ... (0 for BFGS, 1 for DFP, anything in
    between); a run longer than the tuple repeats its last entry, so a
    constant schedule is the one-entry case, ``TauSchedule((0.5,))``.  Any
    sequence is accepted and stored as a checked tuple.
    """

    taus: tuple[float, ...] = ()

    def __post_init__(self):
        taus = tuple(check_tau(t) for t in self.taus)
        if not taus:
            raise ValueError("a tau schedule must be nonempty")
        object.__setattr__(self, "taus", taus)

    @classmethod
    def bfgs(cls) -> "TauSchedule":
        return cls((0.0,))

    @classmethod
    def dfp(cls) -> "TauSchedule":
        return cls((1.0,))

    def tau_at(self, k: int) -> float:
        return self.taus[min(k, len(self.taus) - 1)]

    def values(self, k: int) -> np.ndarray:
        """tau_0 .. tau_{k-1}: the first k values of :meth:`tau_at`."""
        seq = np.asarray(self.taus)
        return seq[np.minimum(np.arange(k), seq.size - 1)]

    @property
    def sup_tau(self) -> float:
        return max(self.taus)

    @classmethod
    def from_dict(cls, d: dict) -> "TauSchedule":
        """The schedule of a JSON ``method``; a key its kind does not read
        is refused, and so is a missing ``tau`` or ``taus`` it requires."""
        kind = d.get("kind")
        if kind not in ("bfgs", "dfp", "constant", "sequence"):
            raise ValueError(f"unknown schedule kind: {kind!r}")
        own = {"constant": ("tau",), "sequence": ("taus",)}.get(kind, ())
        check_keys(d, ("kind",) + own, f"method {kind!r}", own)
        if kind == "constant":
            return cls((d["tau"],))
        if kind == "sequence":
            return cls(check_array(d["taus"], "taus", 1))
        return cls.bfgs() if kind == "bfgs" else cls.dfp()


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.

    The schemes have no intrinsic stopping rule, so the run terminates when
    the local gradient norm drops to ``grad_tol`` or after ``max_iter``
    updates.  ``instrument=False`` skips all Hessian-based measurements (for
    timing only; stopping then uses the Euclidean gradient norm).  These
    four fields are the keys of a config's ``solver`` object.
    """

    max_iter: int = 500
    grad_tol: float = 1e-12
    quad_order: int = 16
    instrument: bool = True

    def __post_init__(self):
        check_number(self.max_iter, "max_iter", 1, integer=True)
        check_number(self.grad_tol, "grad_tol", 0.0)
        check_number(self.quad_order, "quad_order", 2, integer=True)
        if not isinstance(self.instrument, bool):
            raise TypeError(f"instrument must be true or false, "
                            f"got {self.instrument!r}")


# One row per visited iterate.  Each column is stored in the IterationTrace
# array named after it plus "s" (lambda -> lambdas); trace.csv writes k and
# the first ten.
_ROW_COLUMNS = ("lambda", "g", "r", "xi", "nu", "v", "psi", "eig_min",
                "eig_max", "tau", "est_error", "j_eig_min", "j_eig_max")
_CSV_COLUMNS = ("k",) + _ROW_COLUMNS[:10]
# Rows that write_columns formats at once (trace.csv and envelopes.csv).
_CSV_BLOCK = 4096
# The per-iterate objects a recorded run keeps, one list each: the iterate,
# its gradient, the step (None where there is none), G_k, H_k and the step
# target (None where there is no step).
_OBJECT_FIELDS = ("xs", "grads", "us", "g_ops", "h_ops", "j_ops")


def _fmt(value) -> str:
    """One CSV cell: empty for a missing value, 1/0 for a flag, an integer or
    a string as it is, any other number as the shortest repr that reads back
    to the same double."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    """Write a header and rows of cell values (see :func:`_fmt`), LF-ended."""
    _write_cells(path, header, (map(_fmt, row) for row in rows))


def _write_cells(path, header, rows) -> None:
    """Write a header and rows of already formatted cells, LF-ended."""
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(row) + "\n" for row in rows)


def _block_cells(column, start: int, stop: int):
    """The cells of rows start..stop-1 of one :func:`write_columns` column,
    formatted as they are read (the repr of a float, NaN included, is
    :func:`_fmt`'s cell for it)."""
    if not isinstance(column, tuple):
        return map(repr, column[start:stop].tolist())
    ks, values = column
    lo, hi = np.searchsorted(ks, (start, stop))
    entries = np.full(stop - start, None, dtype=object)
    entries[ks[lo:hi] - start] = values[lo:hi].tolist()
    return map(_fmt, entries.tolist())


def write_columns(path, header, n_rows: int, columns) -> None:
    """Write ``n_rows`` rows: the row index k, then one cell per column.

    A column is a float array with one entry per row, or a ``(ks, values)``
    pair whose ``values[i]``, a float or a bool flag, is the entry of row
    ``ks[i]`` (``ks`` ascending), empty on every other row.  The bytes are
    those of :func:`write_csv` for the same cells, read a column at a time,
    one block of ``_CSV_BLOCK`` rows at a time, so a long column is never
    held as Python objects.
    """
    def rows():
        for start in range(0, n_rows, _CSV_BLOCK):
            stop = min(start + _CSV_BLOCK, n_rows)
            yield from zip(map(str, range(start, stop)),
                           *(_block_cells(col, start, stop) for col in columns))

    _write_cells(path, header, rows())


@dataclass
class IterationTrace:
    """Per-iteration record of a run.

    The 13 float64 column arrays all have one entry per visited iterate.
    Step-dependent fields (r, nu, tau, est_error, and v/psi and the j_eig
    range on the general path) are NaN on the terminal row, which has no
    outgoing step.  ``x_final`` is the last iterate; ``converged`` is false
    when the run stopped at ``max_iter``.  The six object lists
    (see ``_OBJECT_FIELDS``) are kept together by a run called with
    ``record_operators=True`` and are ``None`` otherwise.  ``x_final`` and
    the object lists are in the coordinates of ``problem``, the instance the
    caller passed, also for a quadratic, which runs in its eigenbasis.
    """

    problem: ProblemInstance
    schedule: TauSchedule
    lambdas: np.ndarray
    gs: np.ndarray
    rs: np.ndarray
    xis: np.ndarray
    nus: np.ndarray
    vs: np.ndarray
    psis: np.ndarray
    taus: np.ndarray
    eig_mins: np.ndarray
    eig_maxs: np.ndarray
    j_eig_mins: np.ndarray
    j_eig_maxs: np.ndarray
    est_errors: np.ndarray
    x_final: PrimalVector
    converged: bool
    xs: list[PrimalVector] | None = None
    grads: list[DualVector] | None = None
    us: list[PrimalVector | None] | None = None
    g_ops: list[SpdOperator] | None = None
    h_ops: list[SpdOperator] | None = None
    j_ops: list[SpdOperator | None] | None = None

    def __len__(self) -> int:
        return len(self.lambdas)

    @property
    def k_final(self) -> int:
        return len(self.lambdas) - 1

    @property
    def lambda0(self) -> float:
        return float(self.lambdas[0])

    @property
    def lambda_increase_indices(self) -> list[int]:
        """Iterations after the first where the residual failed to decrease.

        Strict decrease is an empirical regularity, not a guarantee, so this
        is a diagnostic for reports rather than a failure condition.
        """
        lam = self.lambdas
        return (np.flatnonzero(lam[2:] >= lam[1:-1]) + 2).tolist()

    def to_csv(self, path) -> None:
        """Write trace.csv through :func:`write_columns`: k and the first
        ten columns of a row."""
        write_columns(path, _CSV_COLUMNS, len(self),
                      [getattr(self, name + "s") for name in _CSV_COLUMNS[1:]])


def _lost_definiteness(k: int, why: str) -> DivergenceError:
    return DivergenceError(k, f"approximation lost definiteness ({why})")


def _snapshot(k: int, m: np.ndarray, role: Role) -> SpdOperator:
    """A recorded operator: ``SpdOperator(m, role)``, or a
    :class:`DivergenceError` at iteration ``k`` if ``m`` fails its SPD
    rule."""
    try:
        return SpdOperator(m, role)
    except NotSpdError as exc:
        raise _lost_definiteness(k, str(exc)) from None


def _spectrum(k: int, eigvals, *args) -> tuple[np.ndarray, float, float]:
    """A relative spectrum of G_k, ascending, with its extremes, as the
    definiteness check of an instrumented iteration.

    ``eigvals(*args)`` returns the eigenvalues of the n-by-n symmetric
    matrix the spectrum is taken from.  A symmetric eigensolver resolves
    them to its backward error, about n eps times the largest, so the
    smallest must exceed n eps times the largest to show the matrix
    positive definite; below that it is numerically singular.  That is the
    relative form of :func:`operators.spd_factor`'s pivot rule, with the
    eigensolver's resolution in place of ``PIVOT_RTOL``, which would refuse
    every start at kappa >= 1e14 (G_0 spans [1, kappa] relative to A).  A
    :class:`DivergenceError` at iteration ``k`` otherwise.
    """
    try:
        lams = eigvals(*args)
    except (np.linalg.LinAlgError, NotSpdError) as exc:
        raise _lost_definiteness(k, f"eigenvalue solve failed: {exc}") from None
    lo, hi = float(lams[0]), float(lams[-1])
    if not (lo > 0.0 and lo > lams.size * _EPS * hi):
        raise _lost_definiteness(k, f"relative spectrum ({lo}, {hi}) "
                                 + ("is numerically singular" if lo > 0.0
                                    else "is not positive"))
    return lams, lo, hi


def _gradient(problem: ProblemInstance, x: PrimalVector, k: int) -> DualVector:
    try:
        return problem.grad(x)
    except ValueError as exc:  # an overflowed gradient is no DualVector
        raise DivergenceError(k, f"non-finite gradient ({exc})") from exc


def _secant_holds(problem: ProblemInstance, b_inv: np.ndarray, u: np.ndarray,
                  y: np.ndarray) -> bool:
    """Whether (u, y) keeps, with slack 2, both inequalities that a gradient
    difference of a mu-strongly convex, ell-smooth f obeys in the B norm:
    mu ||u||^2 <= <y, u> and ||y||_*^2 <= ell <y, u>.  Past the rounding
    floor y is gradient noise that can break them, and an update from it can
    lose definiteness or fail outright, so the solver skips that update.
    ``b_inv`` is the inverse of B, which prices the dual norm in O(n^2)."""
    yu = 2.0 * float(y @ u)
    return (yu >= problem.mu * problem.b_ref.quad_form(u)
            and problem.ell * yu >= float(y @ (b_inv @ y)))


# The quadrature gate: a step fails with QuadratureError when the gap between
# the two Gauss-Legendre rules exceeds this multiple of ||J||.
QUAD_ERROR_RTOL = 1e-9


def _gated_target(problem: ProblemInstance, x: PrimalVector, u: PrimalVector,
                  order: int, k: int) -> tuple[SpdOperator, float]:
    """The segment mean J_k and its quadrature error estimate, which must
    not exceed ``QUAD_ERROR_RTOL * ||J||``.  J is SPD, so its largest
    diagonal entry is at most ||J||: the exact norm, one symmetric
    eigenvalue solve, is taken only when the estimate exceeds that share."""
    ih = integral_hessian(problem, x, u, order)
    est, j = ih.est_error, ih.j_op.entries
    if (est > QUAD_ERROR_RTOL * float(j.diagonal().max())
            and est > QUAD_ERROR_RTOL * float(np.linalg.eigvalsh(j)[-1])):
        raise QuadratureError(
            k, f"quadrature error {est:.3e} above {QUAD_ERROR_RTOL:.1e} * ||J||")
    return ih.j_op, est


@dataclass(frozen=True)
class _Eigenbasis:
    """A quadratic's generalized eigenbasis of (A, B), taken once per run.

    ``problem`` is the caller's quadratic in y = V^T B x (A = diag(s) with
    s its ``spectrum``, B = I, b = V^T b), ``v`` maps a point or step back
    (x = V y), ``dual`` is B V = V^-T, which maps a gradient back, ``root``
    is s^(1/2), and ``ddt`` holds d_i d_j with d = 1 / root, so that G * ddt
    is the standard symmetric matrix whose eigenvalues are those of G
    relative to diag(s).
    """

    problem: QuadraticProblem
    v: np.ndarray
    dual: np.ndarray
    root: np.ndarray
    ddt: np.ndarray

    @classmethod
    def of(cls, p: QuadraticProblem) -> "_Eigenbasis":
        try:
            v, diagonal = p.eigenbasis()
        except NotSpdError as exc:
            raise DivergenceError(0, str(exc)) from None
        root = np.sqrt(diagonal.spectrum)
        d = 1.0 / root
        return cls(diagonal, v, p.b_ref.entries @ v, root, np.outer(d, d))

    def norm_dual(self, g: np.ndarray) -> float:
        """||g||*_A of a gradient in the eigenbasis, ||g / s^(1/2)||, in O(n):
        bitwise :func:`operators.norm_dual` on diag(s), whose Cholesky
        factor is diag(s^(1/2)), so its triangular solve is this division."""
        scaled = g / self.root
        return math.sqrt(float(scaled @ scaled))


def _mapped(start: np.ndarray, y_start: np.ndarray, y: np.ndarray,
            left: np.ndarray) -> np.ndarray:
    """A point or operator that a run in the eigenbasis moved from
    ``y_start`` to ``y``, in the caller's coordinates: the caller's own
    ``start`` plus the change mapped by ``left`` (``left`` applied on both
    sides of an operator), so the start maps exactly and only the change
    carries the basis's rounding."""
    change = left @ (y - y_start)
    return start + (change if change.ndim == 1 else change @ left.T)


def _recorded_objects(p: ProblemInstance, x0: PrimalVector,
                      basis: _Eigenbasis | None, records: list) -> dict:
    """The six per-iterate object lists of a recorded run, typed and in the
    caller's coordinates.

    Each snapshot of G_k and H_k is factored once, as the loop factors
    neither.  A quadratic's iterates, G_k and H_k come back from the
    eigenbasis by :func:`_mapped` from x0, ell B and B^-1 / ell; its steps
    and gradients are mapped by V and B V, and its step target is its own A.
    """
    out = {name: [] for name in _OBJECT_FIELDS}
    if basis is not None:
        y0, g_y0, h_y0 = records[0][0].coords, records[0][3], records[0][4]
        g0 = p.ell * p.b_ref.entries
        h0 = p.b_ref.inverse_matrix() / p.ell
    for k, (x, grad, u, g_mat, h_mat, target) in enumerate(records):
        if basis is not None:
            x = PrimalVector(_mapped(x0.coords, y0, x.coords, basis.v))
            grad = DualVector(basis.dual @ grad.coords)
            u = None if u is None else basis.v @ u
            g_mat = _mapped(g0, g_y0, g_mat, basis.dual)
            h_mat = _mapped(h0, h_y0, h_mat, basis.v)
            target = None if target is None else p.a_op
        for name, obj in zip(_OBJECT_FIELDS, (
                x, grad, None if u is None else PrimalVector(u),
                _snapshot(k, g_mat, Role.PRIMAL_TO_DUAL),
                _snapshot(k, h_mat, Role.DUAL_TO_PRIMAL), target)):
            out[name].append(obj)
    return out


def _drive(p: ProblemInstance, x0: PrimalVector, schedule: TauSchedule,
           config: SolverConfig, general: bool, record: bool) -> IterationTrace:
    if x0.dim != p.n:
        raise ValueError(f"x0 has dimension {x0.dim}, expected {p.n}")
    # A quadratic runs in its eigenbasis, taken here once; the loop reads
    # only the problem in it, and the exit maps what it returns back.
    quadratic = isinstance(p, QuadraticProblem)
    basis = _Eigenbasis.of(p) if quadratic else None
    problem = basis.problem if quadratic else p
    x = PrimalVector(basis.dual.T @ x0.coords) if quadratic else x0
    y0 = x.coords
    g_mat = problem.ell * problem.b_ref.entries
    b_inv = problem.b_ref.inverse_matrix()
    h_mat = b_inv / problem.ell
    # cond(G_k) is at most ref_cond times eig_max / eig_min of G_k relative
    # to the Hessian, which lies between mu B and ell B; the max-row-sum
    # norms of B and B^-1 bound cond(B), exactly for B = I, the eigenbasis's.
    ref_cond = (problem.ell / problem.mu
                * float(np.abs(problem.b_ref.entries).sum(axis=1).max())
                * float(np.abs(b_inv).sum(axis=1).max()))

    # One buffer per column, and the row every iterate starts from.
    columns = [array("d") for _ in _ROW_COLUMNS]
    blank_row = dict.fromkeys(_ROW_COLUMNS, math.nan)
    records = []
    grad = _gradient(problem, x, 0)
    xi = 1.0
    for k in range(config.max_iter + 1):
        row = blank_row.copy()
        gc = grad.coords
        hg = h_mat @ gc  # H_k g_k: the norm g and, negated, the step
        row["xi"], row["g"] = xi, math.sqrt(max(float(gc @ hg), 0.0))
        hess_k = problem.hess(x) if config.instrument else None
        if hess_k is not None:
            # The spectrum of G_k relative to the Hessian is the iteration's
            # one decomposition and its definiteness check.
            if quadratic:
                row["lambda"] = measure = basis.norm_dual(gc)
                lams_g, lo, hi = _spectrum(k, np.linalg.eigvalsh,
                                           g_mat * basis.ddt)
            else:
                row["lambda"] = measure = norm_dual(hess_k, grad)
                lams_g, lo, hi = _spectrum(k, pencil_eigvals, g_mat,
                                           hess_k.factor)
            row["eig_min"], row["eig_max"] = lo, hi
        else:
            # The Euclidean norm of the gradient in the caller's coordinates.
            gx = basis.dual @ gc if quadratic else gc
            measure = math.sqrt(float(gx @ gx))

        converged = measure <= config.grad_tol
        last = converged or k == config.max_iter
        # The terminal iterate has no outgoing step; on the quadratic path
        # the target is still the fixed operator, so the potentials remain
        # defined.
        target = None if general else hess_k
        u = None
        if not last:
            step = -hg
            try:
                x_next = PrimalVector(x.coords + step)
            except ValueError:  # the typed iterate admits finite coords only
                raise DivergenceError(k, "non-finite iterate") from None
            row["tau"] = schedule.tau_at(k)
            if math.sqrt(float(step @ step)) <= ZERO_DIRECTION_NORM:
                # Zero step: the update is skipped and the iterate does not
                # move; its target is the Hessian at this same iterate.
                row["r"], row["est_error"] = 0.0, 0.0
                target = hess_k
            else:
                u = step
                if quadratic:
                    # The secant A u_k, exact and O(n) in the eigenbasis,
                    # where A is also every step's target.
                    y = problem.spectrum * u
                    if hess_k is not None:
                        target = hess_k
                        row["r"] = math.sqrt(float(y @ u))
                        row["est_error"] = 0.0
                elif hess_k is not None:
                    # J_k is built only to measure the step against it.
                    target, row["est_error"] = _gated_target(
                        problem, x, PrimalVector(u), config.quad_order, k)
                    row["r"] = math.sqrt(max(hess_k.quad_form(u), 0.0))
                grad_next = _gradient(problem, x_next, k + 1)
                if not quadratic:
                    # The secant y_k = grad_{k+1} - grad_k = J_k u_k.
                    y = grad_next.coords - gc
                    if not _secant_holds(problem, b_inv, u, y):
                        y = None  # rounding, not curvature: no update, no nu
                if y is not None and hess_k is not None:
                    try:
                        row["nu"] = nu(y, g_mat, h_mat, u, ref_cond * hi / lo)
                    except ArithmeticError as exc:
                        raise DivergenceError(k, str(exc)) from None
        if hess_k is not None and target is not None:
            lams, row["j_eig_min"], row["j_eig_max"] = (
                (lams_g, lo, hi) if target is hess_k
                else _spectrum(k, pencil_eigvals, g_mat, target.factor))
            row["v"], row["psi"] = spectral_barriers(lams)
        for buf, value in zip(columns, row.values()):
            buf.append(value)
        # Snapshots are O(n^2) each, so a run keeps them only when asked.
        if record:
            records.append((x, grad, u, g_mat, h_mat,
                            None if u is None else target))
        if last:
            break
        if u is not None:
            if y is not None:
                try:
                    g_mat, h_mat, _, _ = update_arrays(y, g_mat, h_mat, u,
                                                       row["tau"])
                except ArithmeticError as exc:
                    raise _lost_definiteness(k, str(exc)) from None
            x, grad = x_next, grad_next
            # Distortion accumulates as exp(M * r) per step; a zero
            # self-concordance constant (every quadratic) pins it to exactly
            # 1, no drift allowed.  Far outside the local region the product
            # saturates at +inf.
            if problem.sc_const > 0.0:
                xi = (xi * math.exp(min(problem.sc_const * row["r"], 709.0))
                      if config.instrument else math.nan)

    objects = _recorded_objects(p, x0, basis, records) if record else {}
    if record:
        x = objects["xs"][-1]
    elif quadratic:
        x = PrimalVector(_mapped(x0.coords, y0, x.coords, basis.v))
    return IterationTrace(
        problem=p, schedule=schedule,
        **{name + "s": np.frombuffer(buf)
           for name, buf in zip(_ROW_COLUMNS, columns)},
        x_final=x, converged=converged, **objects,
    )


def run_quadratic(p: QuadraticProblem, x0: PrimalVector, sched: TauSchedule,
                  cfg: SolverConfig, *,
                  record_operators: bool = False) -> IterationTrace:
    """Minimize a quadratic, updating toward its operator every iteration.

    With ``record_operators=True`` the trace also keeps every iterate, its
    gradient and step, and the G_k, H_k and step-target snapshots, O(n^2)
    per iterate; :func:`secant_residual` needs them.
    """
    if not isinstance(p, QuadraticProblem):
        raise TypeError("run_quadratic needs a QuadraticProblem")
    return _drive(p, x0, sched, cfg, False, record_operators)


def run_general(p: ProblemInstance, x0: PrimalVector, sched: TauSchedule,
                cfg: SolverConfig, *,
                record_operators: bool = False) -> IterationTrace:
    """Minimize a smooth instance, updating toward each segment-mean Hessian;
    ``record_operators`` as for :func:`run_quadratic`."""
    if not isinstance(p, ProblemInstance):
        raise TypeError("run_general needs a ProblemInstance")
    return _drive(p, x0, sched, cfg, True, record_operators)


def secant_residual(trace: IterationTrace, p: ProblemInstance) -> list[float]:
    """Relative secant residuals ||G_{k+1} u_k - dg_k|| / ||dg_k|| per step.

    dg_k is the measured gradient difference across step k.  The general
    path updates from dg_k itself, so there the residual is exact up to
    rounding; the quadratic path updates from A u_k, which dg_k matches up
    to the rounding of the two gradients.  Near-degenerate tail steps are
    skipped: once the gradient difference sinks toward the rounding noise
    of a gradient evaluation (around eps * ell * |x|), its relative
    direction is meaningless.
    """
    if trace.g_ops is None:
        raise ValueError("trace was recorded without operator snapshots")
    eps = np.finfo(float).eps
    out = []
    for k in range(trace.k_final):
        u = trace.us[k]
        if u is None:
            continue
        dg = trace.grads[k + 1].coords - trace.grads[k].coords
        denom = float(np.linalg.norm(dg))
        noise_floor = eps * p.ell * (
            float(np.linalg.norm(trace.xs[k].coords))
            + float(np.linalg.norm(trace.xs[k + 1].coords))
            + 1.0
        )
        if denom <= 1e10 * noise_floor:
            continue
        resid = trace.g_ops[k + 1].matvec(u.coords) - dg
        out.append(float(np.linalg.norm(resid)) / denom)
    return out
