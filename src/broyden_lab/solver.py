"""Quasi-Newton driver for the convex Broyden class, with instrumentation.

Two entry points share one loop: :func:`run_quadratic` updates toward the
fixed quadratic operator, :func:`run_general` toward the mean Hessian J_k of
each step segment.  Both start from ell * B, step with the analytically
maintained inverse, and record every quantity the convergence analysis
tracks: the local gradient norm lambda, the approximation-metric gradient
norm g, step length r in the local metric, the accumulated distortion xi,
the directional closeness nu, both potentials, and the eigenvalue range of
the approximation relative to the current Hessian.

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

Per iteration the loop costs one validated Cholesky factorization of the
approximation (its definiteness check, made even without instrumentation)
and O(n^2) for the rank-two update of the approximation and its inverse.
Without instrumentation that is all: no Hessian, no segment mean, so an
uninstrumented run makes no quadrature and cannot raise
:class:`QuadratureError`.  Instrumented, it adds one eigendecomposition of
the approximation relative to each distinct target (one on the quadratic
path, where the Hessian is the update target; two on the general path), and
O(n^2) for the closeness nu and both potentials, which follow from the same
eigenvalues.

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

An instrumented general-path iteration on log-sum-exp makes three validated
Cholesky factorizations: the approximation, the one pointwise Hessian (the
gradient is an O(m n) oracle that forms none) and the segment mean J_k,
built only to measure the step.  The mean comes from two structured
Gauss-Legendre rules, of orders q and 2q, at O(m n^2 + q m n) each; the
quadrature check adds two symmetric eigenvalue solves, one for the gap
between the rules and one for the largest eigenvalue of the mean (made only
when the gap is nonzero, so never for a quadratic, whose mean is its
operator).

A single run is single-threaded and deterministic; independent runs share no
mutable state.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .broyden import ZERO_DIRECTION_NORM, check_tau, update_arrays
from .operators import (
    DualVector,
    EigenRange,
    NotSpdError,
    PrimalVector,
    Role,
    SpdOperator,
    check_array,
    check_keys,
    check_number,
    norm_dual,
    rel_eigvals,
)
from .potentials import spectral_barriers

# The loop draws range and potentials from one spectrum per pencil instead
# of calling these; they stay importable here because perfbench/tracer.py
# wraps the instrumentation layer under this module's names.  For the same
# reason the loop calls the secant form of nu under the name nu.
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
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


@dataclass
class IterationTrace:
    """Per-iteration record of a run.

    The 13 float64 column arrays all have one entry per visited iterate.
    Step-dependent fields (r, nu, tau, est_error, and v/psi and the j_eig
    range on the general path) are NaN on the terminal row, which has no
    outgoing step.  ``x_final`` is the last iterate; ``converged`` is false
    when the run stopped at ``max_iter``.  The six object lists
    (see ``_OBJECT_FIELDS``) are kept together by a run called with
    ``record_operators=True`` and are ``None`` otherwise.
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
        cols = [getattr(self, name + "s") for name in _CSV_COLUMNS[1:]]
        write_csv(path, _CSV_COLUMNS, zip(range(len(self)), *cols))


def _wrap_spd(k: int, entries: np.ndarray, role: Role) -> SpdOperator:
    try:
        return SpdOperator(entries, role)
    except NotSpdError as exc:
        raise DivergenceError(k, f"approximation lost definiteness ({exc})") from exc


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


def _extremes(lams: np.ndarray) -> tuple[float, float]:
    """Smallest and largest entry of an ascending, positive spectrum."""
    rng = EigenRange.of_spectrum(lams)
    return rng.min_rel, rng.max_rel


# The quadrature gate: a step fails with QuadratureError when the gap between
# the two Gauss-Legendre rules exceeds this multiple of ||J||.
QUAD_ERROR_RTOL = 1e-9


def _drive(problem: ProblemInstance, x0: PrimalVector, schedule: TauSchedule,
           config: SolverConfig, general: bool, record: bool) -> IterationTrace:
    if x0.dim != problem.n:
        raise ValueError(f"x0 has dimension {x0.dim}, expected {problem.n}")
    g_mat = problem.ell * problem.b_ref.entries
    b_inv = problem.b_ref.inverse_matrix()
    h_mat = b_inv / problem.ell
    quadratic = isinstance(problem, QuadraticProblem)

    columns = {name: array("d") for name in _ROW_COLUMNS}
    objects = {name: [] for name in _OBJECT_FIELDS} if record else {}
    x = x0
    grad = _gradient(problem, x, 0)
    xi = 1.0
    for k in range(config.max_iter + 1):
        row = dict.fromkeys(_ROW_COLUMNS, math.nan)
        g_op = _wrap_spd(k, g_mat, Role.PRIMAL_TO_DUAL)
        row.update(xi=xi, g=math.sqrt(
            max(float(grad.coords @ (h_mat @ grad.coords)), 0.0)))
        # A quadratic's Hessian is its operator object, the same one
        # integral_hessian returns, so "target is hess_k" below reuses the
        # spectrum on every quadratic iterate.
        hess_k = problem.hess(x) if config.instrument else None
        if hess_k is not None:
            row["lambda"] = norm_dual(hess_k, grad)
            lams_g = rel_eigvals(g_op, hess_k)
            row["eig_min"], row["eig_max"] = _extremes(lams_g)
            measure = row["lambda"]
        else:
            measure = float(np.linalg.norm(grad.coords))

        converged = measure <= config.grad_tol
        last = converged or k == config.max_iter
        # The terminal iterate has no outgoing step; on the quadratic path
        # the target is still the fixed operator, so the potentials remain
        # defined.
        target = None if general else hess_k
        u = None
        if not last:
            u_coords = -(h_mat @ grad.coords)
            next_coords = x.coords + u_coords
            if not np.all(np.isfinite(next_coords)):
                raise DivergenceError(k, "non-finite iterate")
            row["tau"] = schedule.tau_at(k)
            if float(np.linalg.norm(u_coords)) <= ZERO_DIRECTION_NORM:
                # Zero step: the update is skipped and the iterate does not
                # move; its target is the Hessian at this same iterate.
                row.update(r=0.0, est_error=0.0)
                target = hess_k
            else:
                u = PrimalVector(u_coords)
                if hess_k is not None:
                    # J_k is built only to measure the step against it.
                    ih = integral_hessian(problem, x, u, config.quad_order)
                    target = ih.j_op
                    row["est_error"] = ih.est_error
                    # ||J|| is only needed when the two rules disagree at all.
                    if ih.est_error > 0.0:
                        j_scale = float(np.linalg.eigvalsh(target.entries)[-1])
                        if ih.est_error > QUAD_ERROR_RTOL * j_scale:
                            raise QuadratureError(
                                k,
                                f"quadrature error {ih.est_error:.3e} above "
                                f"{QUAD_ERROR_RTOL:.1e} * ||J||",
                            )
                    row["r"] = math.sqrt(max(hess_k.quad_form(u_coords), 0.0))
                x_next = PrimalVector(next_coords)
                grad_next = _gradient(problem, x_next, k + 1)
                # The secant y_k = J_k u_k.  A quadratic states it exactly,
                # as the product the typed update forms from its operator.
                y = (np.matvec(problem.a_op.entries, u_coords) if quadratic
                     else grad_next.coords - grad.coords)
                if not (quadratic
                        or _secant_holds(problem, b_inv, u_coords, y)):
                    y = None  # rounding, not curvature: no update, no nu
                elif hess_k is not None:
                    row["nu"] = nu(y, g_op, u_coords)
        if hess_k is not None and target is not None:
            lams = lams_g if target is hess_k else rel_eigvals(g_op, target)
            row["j_eig_min"], row["j_eig_max"] = _extremes(lams)
            row["v"], row["psi"] = spectral_barriers(lams)
        for name, value in row.items():
            columns[name].append(value)
        # Snapshots are O(n^2) each, so a run keeps them only when asked.
        if record:
            for name, obj in zip(_OBJECT_FIELDS, (
                    x, grad, u, g_op, _wrap_spd(k, h_mat, Role.DUAL_TO_PRIMAL),
                    None if u is None else target)):
                objects[name].append(obj)
        if last:
            break
        if u is not None:
            if y is not None:
                g_mat, h_mat, _, _ = update_arrays(
                    y, g_mat, h_mat, u_coords, row["tau"])
            x, grad = x_next, grad_next
            # Distortion accumulates as exp(M * r) per step; a zero
            # self-concordance constant (every quadratic) pins it to exactly
            # 1, no drift allowed.  Far outside the local region the product
            # saturates at +inf.
            if problem.sc_const > 0.0:
                xi = (xi * math.exp(min(problem.sc_const * row["r"], 709.0))
                      if config.instrument else math.nan)

    return IterationTrace(
        problem=problem, schedule=schedule,
        **{name + "s": np.frombuffer(buf) for name, buf in columns.items()},
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
