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
G_k * (d d^T) with d = s^(-1/2), formed once.  At exit the final iterate
goes back to the caller's coordinates, and an uninstrumented run stops on
the Euclidean norm of the gradient there, as on the general path.

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

No iteration factors G_k.  The loop holds G_k and H_k as the two halves of
one (2, n, n) array, and each step computes its update scalars once
(:func:`broyden._scalars`: G u, H y and the pairings <y, u>, <G u, u> and
<y, H y>, two matrix-vector products in all).  Without instrumentation a
step costs O(n^2) for the rank-two update of that pair, one call that
corrects G_k and H_k together (:func:`broyden.update_arrays`), which checks
G_k and H_k through the pairings: each must be positive and finite, or the
run stops with a :class:`DivergenceError`.  That is all: no decomposition,
no Hessian and no segment mean, so an uninstrumented run makes no quadrature
and cannot raise :class:`QuadratureError`.  Instrumented, an iteration adds
one eigendecomposition of the approximation relative to each distinct
target, and O(n^2) for the closeness nu (two more matrix-vector products,
as it reads G u and <y, u> from the step's scalars) and both potentials,
which follow from the same eigenvalues.  The spectrum relative to the
Hessian is also the definiteness check: its smallest eigenvalue must exceed
the eigensolver's resolution, n eps times the largest.  Nu reads the
maintained inverse, and its check against the energy form shows H_k still
inverts G_k to 4 n eps cond(G_k), with cond(G_k) bounded by ell / mu,
||B||_inf ||B^{-1}||_inf and that spectrum's extremes (see
:func:`broyden._closeness`, which verify and the typed nu run too).  It runs
before the update's pairing check, so a step that fails both stops on nu's.
On a quadratic the spectrum is that of a scaled G_k (the Hessian is the
update target), so an instrumented quadratic iteration has one matrix
decomposed; the general path takes two pencil spectra, each a ``sygst``
reduction and an ``eigvalsh``, one row at a time.

The measurement runs a block of rows at a time; the trajectory does not
wait for it.  A row writes its measurement's inputs into its record: the
scaled G_k * d d^T (on the general path its pencil spectra, taken at once),
and for nu the step's scalars and the live (G_k, H_k) pair, held without a
copy.  Rows stack only on a quadratic: there a row holds 3 n^2 doubles, and
a block as many rows as ``_BLOCK_BYTES`` (256 KiB) holds: 1,213 at n = 3,
12 at n = 30 and one from n = 74 on.  Any other problem's row is a block
of its own at every n, its spectra already taken.  When the block is full,
and when the run stops, one flush measures it.  A lone row is measured by
the one statement of the row checks, which makes its own calls on its own
arrays and raises its first failing check: its spectrum, its nu, its
target's spectrum.  A block of quadratic rows takes one stacked
``eigvalsh``, one stacked ``nu`` and one ``spectral_barriers`` call, each
returning every row's value bit for bit as a lone call would; a row with
a target, always the Hessian, takes its range and potentials from the
spectrum it has just passed.  If every row passes, that is all, and
otherwise, or if a stacked call raises, the block is measured again a row
at a time, so the first failing row raises with its own k and message.  A
failure anywhere in the loop first measures the rows still pending, so the
earliest failing row is named even when later rows of its block ran.
A run can also be split into W shares, as the CLI splits one whose rows are
measured one at a time (``run`` and ``sweep``, one share per usable CPU).
Share w replays the whole trajectory, which reads no measurement, and owns
the rows k with k % W == w: only those does it measure, and the others keep
their measured cells NaN, with no spectrum, quadrature or nu made for them.
:func:`_merge` takes each row from its owner, so the merged trace is the
one-process trace bit for bit, and a failure is the one that run raises.

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
column once its block is measured, so a trace retains about 13 doubles per
iterate and the final iterate; beyond the pending block, G_k, H_k and the
per-iterate vectors are not kept.  Each n x n matrix of a quadratic run is
held once: V, B V, d d^T, the eigenbasis's diag(s) and its factor, and the
(G_k, H_k) pair, seven arrays (its B is the shared identity), and during
an update the new pair and a pair-sized work array, eleven in all.  B^-1 is
dropped once H_0 and the condition bound are set; only the general path's
secant check reads it again.

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
from functools import partial

import numpy as np

from .broyden import (
    _EPS,
    ZERO_DIRECTION_NORM,
    _cond_inf,
    _disagreement,
    _scalars,
    check_tau,
    update_arrays,
)
from .operators import (
    DualVector,
    NotSpdError,
    PrimalVector,
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
# reason the loop calls the stacked closeness measure under the name nu.
from .broyden import _closeness as nu
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
]


class IterationError(RuntimeError):
    """A run stopped at iteration ``k``; the message names it."""

    def __init__(self, k: int, message: str):
        super().__init__(f"iteration {k}: {message}")
        self.k = k

    def __reduce__(self):
        # Pickled as its class, k and the message after "iteration k: ".
        return type(self), (self.k, str(self).partition(": ")[2])


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
# The row every iterate starts from.
_BLANK_ROW = dict.fromkeys(_ROW_COLUMNS, math.nan)
# Rows that write_columns formats at once (trace.csv and envelopes.csv).
_CSV_BLOCK = 4096


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
    outgoing step.  ``x_final`` is the last iterate, in the coordinates of
    ``problem``, the instance the caller passed, also for a quadratic, which
    runs in its eigenbasis; ``converged`` is false when the run stopped at
    ``max_iter``.
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


def _definite(lo: float, hi: float, n: int) -> bool:
    """Whether a relative spectrum of G_k, with smallest and largest
    eigenvalues ``lo`` and ``hi``, shows G_k positive definite: an
    instrumented iteration's definiteness check (elementwise over arrays of
    ``lo`` and ``hi``).

    A symmetric eigensolver resolves the eigenvalues of an n-by-n matrix to
    its backward error, about n eps times the largest, so the smallest must
    exceed n eps times the largest; below that the matrix is numerically
    singular.  That is the relative form of :func:`operators.spd_factor`'s
    pivot rule, with the eigensolver's resolution in place of
    ``PIVOT_RTOL``, which would refuse every start at kappa >= 1e14 (G_0
    spans [1, kappa] relative to A).
    """
    return (lo > 0.0) & (lo > n * _EPS * hi)


def _indefinite(k: int, lo: float, hi: float) -> DivergenceError:
    """The error of iteration k, whose spectrum fails :func:`_definite`."""
    return _lost_definiteness(k, f"relative spectrum ({lo}, {hi}) "
                              + ("is numerically singular" if lo > 0.0
                                 else "is not positive"))


def _eigvals(k: int, eigvals, *args) -> np.ndarray:
    """``eigvals(*args)``, where a failed solve is a lost definiteness at
    iteration k."""
    try:
        return eigvals(*args)
    except (np.linalg.LinAlgError, NotSpdError) as exc:
        raise _lost_definiteness(k, f"eigenvalue solve failed: {exc}") from None


# Bytes the quadratic rows of a run that wait for their measurement may
# hold.  A row holds 3 n^2 doubles: the scaled G_k * ddt whose eigenvalues
# are its spectrum, and the (G_k, H_k) pair its nu reads.  Other rows do not
# stack, so they wait one at a time.
_BLOCK_BYTES = 256 * 1024


def _block_rows(n: int) -> int:
    """Rows per block at dimension n: as many as ``_BLOCK_BYTES`` holds, and
    at least one."""
    return max(1, _BLOCK_BYTES // (3 * 8 * n * n))


class _Block:
    """The rows of a run that wait for their measurement, and the column
    buffers they then go to.  Quadratic rows wait ``_block_rows(n)`` at a
    time; any other row is measured alone.

    Each pending row is one record, ``[cells, spectrum, closeness,
    target]``: its cells (:meth:`row`, the measured ones NaN), then the
    inputs of its measurement, which the loop writes as it reaches them
    (``None`` until then).  ``spectrum`` gives G_k relative to the Hessian:
    G_k * ddt in a quadratic's eigenbasis, elsewhere the pencil spectrum
    itself.  ``closeness`` holds the update scalars Au, Gu and <Au, u> and
    the live (G_k, H_k) pair that nu reads.  ``target`` is the step target's
    pencil spectrum, or ``spectrum`` itself when the target is the Hessian.
    :meth:`flush` measures the pending rows and drops their inputs.
    """

    def __init__(self, n: int, quadratic: bool, ref_cond: float):
        self.n, self.quadratic, self.ref_cond = n, quadratic, ref_cond
        self.size = _block_rows(n) if quadratic else 1
        self.columns = [array("d") for _ in _ROW_COLUMNS]
        self.pending = []

    def row(self) -> list:
        """A new pending record: every cell NaN, no measurement input."""
        record = [_BLANK_ROW.copy(), None, None, None]
        self.pending.append(record)
        return record

    def flush(self) -> None:
        """Measure the pending rows and append them to the columns.

        A block of quadratic rows takes :meth:`_measure_block`'s stacked
        calls.  A lone row, and a block where a row fails or a stacked call
        raises, is measured a row at a time by :meth:`_measure_row`, so the
        first failing row raises with its own k and message; if none fails
        alone, the stacked call's error is raised.
        """
        records, self.pending = self.pending, []
        measured = [record for record in records if record[1] is not None]
        error = None
        try:
            passed = len(measured) > 1 and self._measure_block(measured)
        except Exception as exc:
            passed, error = False, exc
        if not passed:
            for k, record in enumerate(records, len(self.columns[0])):
                self._measure_row(k, record)
            if error is not None:
                raise error
        # The inputs go first, so that the column buffers can grow into
        # their space.
        for record in records:
            del record[1:]
        for record in records:
            for buf, value in zip(self.columns, record[0].values()):
                buf.append(value)

    def _measure_row(self, k: int, record) -> None:
        """Measure row k through the lone calls and fill in its cells, or
        raise its first failing check: its spectrum, its nu, then its
        target's spectrum."""
        row, spectrum, closeness, target = record
        if spectrum is None:
            return
        lams = (_eigvals(k, np.linalg.eigvalsh, spectrum) if self.quadratic
                else spectrum)
        lo, hi = float(lams[0]), float(lams[-1])
        if not _definite(lo, hi, self.n):
            raise _indefinite(k, lo, hi)
        row["eig_min"], row["eig_max"] = lo, hi
        if closeness is not None:
            *scalars, pair = closeness
            val, ok, quad, energy = nu(scalars, pair[0], pair[1],
                                       self.ref_cond * hi / lo)
            if not ok:
                raise DivergenceError(k, _disagreement(quad, energy))
            row["nu"] = float(val)
        if target is not None:
            lams = lams if target is spectrum else target
            lo, hi = float(lams[0]), float(lams[-1])
            if not _definite(lo, hi, self.n):
                raise _indefinite(k, lo, hi)
            row["j_eig_min"], row["j_eig_max"] = lo, hi
            row["v"], row["psi"] = spectral_barriers(lams)

    def _measure_block(self, records) -> bool:
        """Measure quadratic rows in one stacked call each: ``eigvalsh`` on
        their G_k * ddt, ``nu`` and ``spectral_barriers``, which return what
        :meth:`_measure_row` reads bit for bit.  A quadratic's every target
        is the Hessian, so a row with one takes its range and potentials from
        the spectrum it has just passed.  Say whether every row passes its
        checks; their cells are filled in as the checks pass."""
        rows, spectra, closeness, targets = zip(*records)
        lams = np.linalg.eigvalsh(np.array(spectra))
        los, his = lams[:, 0], lams[:, -1]
        if not _definite(los, his, self.n).all():
            return False
        js = [j for j, nu_in in enumerate(closeness) if nu_in is not None]
        if js:
            au, gu, au_u, pairs = map(np.array,
                                      zip(*[closeness[j] for j in js]))
            vals, ok, _, _ = nu((au, gu, au_u), pairs[:, 0], pairs[:, 1],
                                (self.ref_cond * his / los)[js])
            if not ok.all():
                return False
            for j, val in zip(js, vals.tolist()):
                rows[j]["nu"] = val
        for row, target, *cells in zip(
                rows, targets, los.tolist(), his.tolist(),
                *(x.tolist() for x in spectral_barriers(lams))):
            row["eig_min"], row["eig_max"] = cells[:2]
            if target is not None:
                row["j_eig_min"], row["j_eig_max"], row["v"], row["psi"] = cells
        return True


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


def _drive(p: ProblemInstance, x0: PrimalVector, schedule: TauSchedule,
           config: SolverConfig, general: bool,
           share: tuple[int, int] = (0, 1)) -> IterationTrace:
    if x0.dim != p.n:
        raise ValueError(f"x0 has dimension {x0.dim}, expected {p.n}")
    # A quadratic runs in its eigenbasis, taken here once; the loop reads
    # only the problem in it, and the exit maps what it returns back.
    quadratic = isinstance(p, QuadraticProblem)
    basis = _Eigenbasis.of(p) if quadratic else None
    problem = basis.problem if quadratic else p
    x = PrimalVector(basis.dual.T @ x0.coords) if quadratic else x0
    y0 = x.coords
    b_inv = problem.b_ref.inverse_matrix()
    # G_k and H_k are the two halves of one (2, n, n) array, which each
    # update replaces.
    pair = np.stack((problem.ell * problem.b_ref.entries, b_inv / problem.ell))
    g_mat, h_mat = pair
    # cond(G_k) is at most ref_cond times eig_max / eig_min of G_k relative
    # to the Hessian, which lies between mu B and ell B; the max-row-sum
    # norms of B and B^-1 bound cond(B), exactly for B = I, the eigenbasis's.
    ref_cond = problem.ell / problem.mu * float(
        _cond_inf(problem.b_ref.entries, b_inv))
    if quadratic:
        b_inv = None  # only the general path's _secant_holds reads it again

    # Rows wait in a block for their measurement; a failure anywhere in the
    # loop first measures what is pending, so an earlier row's comes first.
    block = _Block(problem.n, quadratic, ref_cond)
    w, shares = share
    grad = _gradient(problem, x, 0)
    xi = 1.0
    try:
        for k in range(config.max_iter + 1):
            record = block.row()
            row = record[0]
            gc = grad.coords
            hg = h_mat @ gc  # H_k g_k: the norm g and, negated, the step
            row["xi"], row["g"] = xi, math.sqrt(max(float(gc @ hg), 0.0))
            hess_k = problem.hess(x) if config.instrument else None
            # Only the share that owns row k measures it.
            measured = hess_k is not None and k % shares == w
            if hess_k is not None:
                row["lambda"] = measure = (basis.norm_dual(gc) if quadratic
                                           else norm_dual(hess_k, grad))
            else:
                # The Euclidean norm of the gradient in the caller's
                # coordinates.
                gx = basis.dual @ gc if quadratic else gc
                measure = math.sqrt(float(gx @ gx))
            if measured:
                # The spectrum of G_k relative to the Hessian is the
                # iteration's one decomposition and its definiteness check.
                record[1] = (g_mat * basis.ddt if quadratic
                             else _eigvals(k, pencil_eigvals, g_mat,
                                           hess_k.factor))

            converged = measure <= config.grad_tol
            last = converged or k == config.max_iter
            # The terminal iterate has no outgoing step; on the quadratic
            # path the target is still the fixed operator, so the potentials
            # remain defined.
            target = None if general else hess_k
            u = None
            if not last:
                step = -hg
                try:
                    x_next = PrimalVector(x.coords + step)
                except ValueError:  # a typed iterate has finite coords only
                    raise DivergenceError(k, "non-finite iterate") from None
                row["tau"] = schedule.tau_at(k)
                if math.sqrt(float(step @ step)) <= ZERO_DIRECTION_NORM:
                    # Zero step: the update is skipped and the iterate does
                    # not move; its target is the Hessian at this iterate.
                    row["r"], row["est_error"] = 0.0, 0.0
                    target = hess_k
                else:
                    u = step
                    if not quadratic and measured:
                        # J_k is built only to measure the step against it.
                        target, row["est_error"] = _gated_target(
                            problem, x, PrimalVector(u), config.quad_order, k)
                    if not quadratic and hess_k is not None:
                        row["r"] = math.sqrt(max(hess_k.quad_form(u), 0.0))
                    grad_next = _gradient(problem, x_next, k + 1)
                    if quadratic:
                        # The secant A u_k, exact and O(n) in the eigenbasis,
                        # where A is also every step's target.
                        y = problem.spectrum * u
                    else:
                        # The secant y_k = grad_{k+1} - grad_k = J_k u_k.
                        y = grad_next.coords - gc
                        if not _secant_holds(problem, b_inv, u, y):
                            y = None  # noise, not curvature: no update, no nu
                    if y is not None:
                        # One set of update scalars serves r, nu and the
                        # update.
                        scalars = _scalars(y, g_mat, u,
                                           partial(np.matvec, h_mat))
                        if hess_k is not None:
                            if quadratic:
                                target, row["est_error"] = hess_k, 0.0
                                row["r"] = math.sqrt(float(scalars[2]))
                        if measured:
                            record[2] = (*scalars[:3], pair)
            if measured and target is not None:
                record[3] = (record[1] if target is hess_k
                             else _eigvals(k, pencil_eigvals, g_mat,
                                           target.factor))
            if last or len(block.pending) == block.size:
                block.flush()
            if last:
                break
            if u is not None:
                if y is not None:
                    try:
                        pair, _, _ = update_arrays(pair, u, scalars,
                                                   row["tau"])
                    except ArithmeticError as exc:
                        raise _lost_definiteness(k, str(exc)) from None
                    g_mat, h_mat = pair
                x, grad = x_next, grad_next
                # Distortion accumulates as exp(M * r) per step; a zero
                # self-concordance constant (every quadratic) pins it to
                # exactly 1, no drift allowed.  Far outside the local region
                # the product saturates at +inf.
                if problem.sc_const > 0.0:
                    xi = (xi * math.exp(min(problem.sc_const * row["r"],
                                            709.0))
                          if config.instrument else math.nan)
    except Exception:
        try:
            block.flush()
        except Exception as earlier:
            raise earlier from None
        raise

    if quadratic:
        # The caller's own x0 plus the change mapped by V, so a run that
        # never moves returns x0 exactly and only the change carries the
        # basis's rounding.
        x = PrimalVector(x0.coords + basis.v @ (x.coords - y0))
    return IterationTrace(
        problem=p, schedule=schedule,
        **{name + "s": np.frombuffer(buf)
           for name, buf in zip(_ROW_COLUMNS, block.columns)},
        x_final=x, converged=converged,
    )


def run_quadratic(p: QuadraticProblem, x0: PrimalVector, sched: TauSchedule,
                  cfg: SolverConfig, *,
                  share: tuple[int, int] = (0, 1)) -> IterationTrace:
    """Minimize a quadratic, updating toward its operator every iteration.
    ``share`` is private to the CLI's split runs (:func:`_merge`)."""
    if not isinstance(p, QuadraticProblem):
        raise TypeError("run_quadratic needs a QuadraticProblem")
    return _drive(p, x0, sched, cfg, False, share)


def run_general(p: ProblemInstance, x0: PrimalVector, sched: TauSchedule,
                cfg: SolverConfig, *,
                share: tuple[int, int] = (0, 1)) -> IterationTrace:
    """Minimize a smooth instance, updating toward each segment-mean Hessian.
    ``share`` is private to the CLI's split runs (:func:`_merge`)."""
    if not isinstance(p, ProblemInstance):
        raise TypeError("run_general needs a ProblemInstance")
    return _drive(p, x0, sched, cfg, True, share)


def _rows_alone(p: ProblemInstance, config: SolverConfig) -> bool:
    """Whether an instrumented run of ``p`` measures its rows one at a
    time: any problem but a quadratic, and a quadratic from n = 74 on."""
    return config.instrument and (not isinstance(p, QuadraticProblem)
                                  or _block_rows(p.n) == 1)


def _share_outcome(trace: IterationTrace, share: tuple[int, int]) -> tuple:
    """What share (w, W) of a split run returns: the cells of the rows it
    owns, k = w, w + W, ... (one array row each, in ``_ROW_COLUMNS``
    order), the last iterate's coordinates and whether it converged."""
    w, shares = share
    cells = np.stack([getattr(trace, name + "s")[w::shares]
                      for name in _ROW_COLUMNS], axis=1)
    return cells, trace.x_final.coords, trace.converged


def _merge(p: ProblemInstance, schedule: TauSchedule,
           outcomes: list) -> IterationTrace:
    """The trace of a one-process run of ``p``, from its shares' outcomes.

    A run split W = ``len(outcomes)`` ways runs once per share w < W: each
    replays the whole trajectory, which reads no measurement, and measures
    only the rows k with k % W == w, so row k of the one-process trace is
    its owner's row k.  ``outcomes[w]`` is share w's :func:`_share_outcome`
    or :class:`IterationError`.  A share meets every failure of the
    trajectory, and a failing measurement only in a row it owns.  The
    one-process run stops at its first failure; no share fails before it,
    and the owner of its row meets it as that run does.  So the error
    raised is the one of the smallest k, and on a tie the one of k's owner,
    which ran every check of row k.
    """
    shares = len(outcomes)
    errors = [(w, out) for w, out in enumerate(outcomes)
              if isinstance(out, IterationError)]
    if errors:
        _, error = min(errors, key=lambda e: (e[1].k, (e[1].k - e[0]) % shares))
        raise error
    cells, xs, converged = zip(*outcomes)
    n_rows = sum(map(len, cells))
    if (any(len(c) != len(range(w, n_rows, shares))
            for w, c in enumerate(cells))
            or len(set(converged)) > 1
            or not all(np.array_equal(x, xs[0]) for x in xs)):
        raise RuntimeError(f"the {shares} shares of a split run disagree "
                           "on its trajectory")
    columns = np.empty((len(_ROW_COLUMNS), n_rows))
    for w, c in enumerate(cells):
        columns[:, w::shares] = c.T
    return IterationTrace(
        problem=p, schedule=schedule,
        **{name + "s": column for name, column in zip(_ROW_COLUMNS, columns)},
        x_final=PrimalVector(xs[0]), converged=converged[0],
    )
