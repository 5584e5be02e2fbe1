"""Quasi-Newton driver for the convex Broyden class, with instrumentation.

Two entry points share one loop: :func:`run_quadratic` updates toward the
fixed quadratic operator, :func:`run_general` toward the mean Hessian of each
step segment.  Both start from ell * B, step with the analytically maintained
inverse, and record every quantity the convergence analysis tracks: the local
gradient norm lambda, the approximation-metric gradient norm g, step length r
in the local metric, the accumulated distortion xi, the directional closeness
nu, both potentials, and the eigenvalue range of the approximation relative
to the current Hessian.

Per iteration the loop costs one validated Cholesky factorization of the
approximation (its definiteness check, made even without instrumentation),
one eigendecomposition of the approximation relative to each distinct target
(one on the quadratic path, where the Hessian is the update target; two on
the general path), and O(n^2) for the rest: the rank-two update of the
approximation and its inverse, the closeness nu, and both potentials, which
follow from the same eigenvalues.

Every visited iterate takes the same path and leaves one row.  The row starts
with each column NaN and is filled in once: g and xi always; lambda and the
eigenvalue range against the Hessian when instrumented; for an outgoing step
tau, r, nu and the quadrature error, and the potentials and eigenvalue range
against the step target.  A zero step (direction norm at most
ZERO_DIRECTION_NORM) records r = 0, targets the Hessian at the same iterate
and skips the update.  The terminal row has no step; only the quadratic
path, whose target is fixed, still measures its potentials.

An instrumented general-path iteration on log-sum-exp makes three validated
Cholesky factorizations: the approximation, the one pointwise Hessian (the
gradient is an O(m n) oracle that forms none) and the segment-mean Hessian.
The mean comes from two structured Gauss-Legendre rules, of orders q and 2q,
at O(m n^2 + q m n) each; the quadrature check adds two symmetric eigenvalue
solves, one for the gap between the rules and one for the largest
eigenvalue of the mean (made only when the gap is nonzero, so never for a
quadratic, whose mean is its operator).

A single run is single-threaded and deterministic; independent runs share no
mutable state.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .broyden import ZERO_DIRECTION_NORM, check_tau, nu, update_arrays
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

# The loop draws range and potentials from one spectrum per pencil instead of
# calling these; they stay importable here because perfbench/tracer.py wraps
# the instrumentation layer under this module's names.
from .operators import rel_eigen_range  # noqa: F401
from .potentials import augmented_barrier, logdet_barrier  # noqa: F401
from .problems import (
    Kind,
    ProblemInstance,
    QuadraticProblem,
    instance_hash,
    integral_hessian,
)

__all__ = [
    "TauSchedule",
    "SolverConfig",
    "IterationTrace",
    "DivergenceError",
    "QuadratureError",
    "run_quadratic",
    "run_general",
    "secant_residual",
]


class DivergenceError(RuntimeError):
    """The iteration produced a non-finite or non-SPD state."""

    def __init__(self, k: int, message: str):
        super().__init__(f"iteration {k}: {message}")
        self.k = k


class QuadratureError(RuntimeError):
    """Segment-Hessian quadrature error estimate exceeded its threshold."""

    def __init__(self, k: int, message: str):
        super().__init__(f"iteration {k}: {message}")
        self.k = k


@dataclass(frozen=True)
class TauSchedule:
    """Per-iteration choice of the convex-class parameter.

    Either a constant (0 for BFGS, 1 for DFP, anything in between) or an
    explicit sequence; a sequence shorter than the run repeats its last entry.
    """

    constant: float | None = None
    sequence: tuple[float, ...] | None = None

    def __post_init__(self):
        if (self.constant is None) == (self.sequence is None):
            raise ValueError("specify exactly one of constant or sequence")
        if self.constant is not None:
            object.__setattr__(self, "constant", check_tau(self.constant))
        else:
            seq = tuple(check_tau(t) for t in self.sequence)
            if not seq:
                raise ValueError("sequence schedule must be nonempty")
            object.__setattr__(self, "sequence", seq)

    @classmethod
    def bfgs(cls) -> "TauSchedule":
        return cls(constant=0.0)

    @classmethod
    def dfp(cls) -> "TauSchedule":
        return cls(constant=1.0)

    @classmethod
    def of_constant(cls, tau: float) -> "TauSchedule":
        return cls(constant=tau)

    @classmethod
    def of_sequence(cls, taus) -> "TauSchedule":
        return cls(sequence=tuple(taus))

    def tau_at(self, k: int) -> float:
        if self.constant is not None:
            return self.constant
        return self.sequence[min(k, len(self.sequence) - 1)]

    def values(self, k: int) -> np.ndarray:
        """tau_0 .. tau_{k-1}: the first k values of :meth:`tau_at`."""
        if self.constant is not None:
            return np.full(k, self.constant)
        seq = np.asarray(self.sequence)
        return seq[np.minimum(np.arange(k), seq.size - 1)]

    @property
    def sup_tau(self) -> float:
        if self.constant is not None:
            return self.constant
        return max(self.sequence)

    def to_dict(self) -> dict:
        if self.constant is not None:
            return {"kind": "constant", "tau": self.constant}
        return {"kind": "sequence", "taus": list(self.sequence)}

    @classmethod
    def from_dict(cls, d: dict) -> "TauSchedule":
        """The schedule of a JSON ``method``; a key its kind does not read
        is refused."""
        kind = d.get("kind")
        if kind not in ("bfgs", "dfp", "constant", "sequence"):
            raise ValueError(f"unknown schedule kind: {kind!r}")
        own = {"constant": ("tau",), "sequence": ("taus",)}.get(kind, ())
        check_keys(d, ("kind",) + own, f"method {kind!r}")
        if kind == "constant":
            return cls.of_constant(d["tau"])
        if kind == "sequence":
            return cls.of_sequence(check_array(d["taus"], "taus", 1))
        return cls.bfgs() if kind == "bfgs" else cls.dfp()


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.

    The schemes have no intrinsic stopping rule, so the run terminates when
    the local gradient norm drops to ``grad_tol`` or after ``max_iter``
    updates.  ``record_operators`` keeps per-iteration operator snapshots for
    invariant audits.  ``instrument=False`` skips all Hessian-based
    measurements (for timing only; stopping then uses the Euclidean gradient
    norm).
    """

    max_iter: int = 500
    grad_tol: float = 1e-12
    quad_order: int = 16
    record_operators: bool = False
    quad_error_rtol: float = 1e-9
    instrument: bool = True

    def __post_init__(self):
        check_number(self.max_iter, "max_iter", 1, integer=True)
        check_number(self.grad_tol, "grad_tol", 0.0)
        check_number(self.quad_order, "quad_order", 2, integer=True)
        check_number(self.quad_error_rtol, "quad_error_rtol", 0.0)
        for name in ("record_operators", "instrument"):
            if not isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be true or false, "
                                f"got {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return asdict(self)


# One row per visited iterate.  Each column is stored in the IterationTrace
# array named after it plus "s" (lambda -> lambdas); the JSON export writes
# the first eleven columns, trace.csv k and the first ten.
_ROW_COLUMNS = ("lambda", "g", "r", "xi", "nu", "v", "psi", "eig_min",
                "eig_max", "tau", "est_error", "j_eig_min", "j_eig_max")
_JSON_COLUMNS = _ROW_COLUMNS[:11]
_CSV_COLUMNS = ("k",) + _ROW_COLUMNS[:10]
# A stored row also carries the iterate's objects (None where absent; the
# operator snapshots only with record_operators).
_ROW_FIELDS = _ROW_COLUMNS + ("x", "grad", "u", "g_op", "h_op", "j_op")


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

    Arrays all have one entry per visited iterate.  Step-dependent fields
    (r, nu, tau, est_error, and v/psi and the j_eig range on the general
    path) are NaN on the terminal row, which has no outgoing step.
    """

    problem: ProblemInstance
    schedule: TauSchedule
    config: SolverConfig
    general: bool
    xs: list[PrimalVector]
    grads: list[DualVector]
    us: list[PrimalVector | None]
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
    converged: bool
    stop_reason: str
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
        out = []
        for k in range(1, self.k_final):
            if self.lambdas[k + 1] >= self.lambdas[k]:
                out.append(k + 1)
        return out

    def _column(self, name: str) -> np.ndarray:
        return getattr(self, name + "s")

    def to_csv(self, path) -> None:
        cols = [self._column(name) for name in _CSV_COLUMNS[1:]]
        write_csv(path, _CSV_COLUMNS, zip(range(len(self)), *cols))

    def to_json_dict(self) -> dict:
        return {
            "instance_hash": instance_hash(self.problem),
            "schedule": self.schedule.to_dict(),
            "config": self.config.to_dict(),
            "general_path": self.general,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "iterations": self.k_final,
            "columns": {name: [_json_num(v) for v in self._column(name)]
                        for name in _JSON_COLUMNS},
        }

    def to_json(self, path) -> None:
        with open(path, "w", newline="\n") as f:
            json.dump(self.to_json_dict(), f, indent=1)
            f.write("\n")


def _json_num(v: float):
    v = float(v)
    return None if math.isnan(v) else v


def _wrap_spd(k: int, entries: np.ndarray, role: Role) -> SpdOperator:
    try:
        return SpdOperator(entries, role)
    except NotSpdError as exc:
        raise DivergenceError(k, f"approximation lost definiteness ({exc})") from exc


def _extremes(lams: np.ndarray) -> tuple[float, float]:
    """Smallest and largest entry of an ascending, positive spectrum."""
    rng = EigenRange.of_spectrum(lams)
    return rng.min_rel, rng.max_rel


def _drive(problem: ProblemInstance, x0: PrimalVector, schedule: TauSchedule,
           config: SolverConfig, general: bool) -> IterationTrace:
    if x0.dim != problem.n:
        raise ValueError(f"x0 has dimension {x0.dim}, expected {problem.n}")
    g_mat = problem.ell * problem.b_ref.entries
    h_mat = problem.b_ref.inverse_matrix() / problem.ell

    rows = []
    x = x0
    xi = 1.0
    for k in range(config.max_iter + 1):
        row = dict.fromkeys(_ROW_COLUMNS, math.nan)
        try:
            grad = problem.grad(x)
        except ValueError as exc:  # an overflowed gradient is no DualVector
            raise DivergenceError(k, f"non-finite gradient ({exc})") from exc
        g_op = _wrap_spd(k, g_mat, Role.PRIMAL_TO_DUAL)
        row.update(x=x, grad=grad, xi=xi,
                   g=math.sqrt(max(float(grad.coords @ (h_mat @ grad.coords)), 0.0)))
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
        # Snapshots are O(n^2) each, so a row holds them only when asked.
        if config.record_operators:
            row.update(g_op=g_op, h_op=_wrap_spd(k, h_mat, Role.DUAL_TO_PRIMAL))

        converged = measure <= config.grad_tol
        last = converged or k == config.max_iter
        # The terminal iterate has no outgoing step; on the quadratic path
        # the target is still the fixed operator, so the potentials remain
        # defined.
        target = None if general else hess_k
        if not last:
            u_coords = -(h_mat @ grad.coords)
            x_next = x.coords + u_coords
            if not np.all(np.isfinite(x_next)):
                raise DivergenceError(k, "non-finite iterate")
            row["tau"] = schedule.tau_at(k)
            if float(np.linalg.norm(u_coords)) <= ZERO_DIRECTION_NORM:
                # Zero step: the update is skipped and the iterate does not
                # move; its target is the Hessian at this same iterate.
                row.update(r=0.0, est_error=0.0)
                target = hess_k
            else:
                u = row["u"] = PrimalVector(u_coords)
                ih = integral_hessian(problem, x, u, config.quad_order)
                target = ih.j_op
                if config.record_operators:
                    row["j_op"] = target
                row["est_error"] = ih.est_error
                # ||J|| is only needed when the two rules disagree at all.
                if ih.est_error > 0.0:
                    j_scale = float(np.linalg.eigvalsh(target.entries)[-1])
                    if ih.est_error > config.quad_error_rtol * j_scale:
                        raise QuadratureError(
                            k,
                            f"quadrature error {ih.est_error:.3e} above "
                            f"{config.quad_error_rtol:.1e} * ||J||",
                        )
                if hess_k is not None:
                    row["r"] = math.sqrt(
                        max(float(u_coords @ (hess_k.entries @ u_coords)), 0.0))
                    row["nu"] = nu(target, g_op, u)
        if hess_k is not None and target is not None:
            lams = lams_g if target is hess_k else rel_eigvals(g_op, target)
            row["j_eig_min"], row["j_eig_max"] = _extremes(lams)
            row["v"], row["psi"] = spectral_barriers(lams)
        rows.append(tuple(map(row.get, _ROW_FIELDS)))
        if last:
            break
        if "u" in row:
            g_mat, h_mat, _, _ = update_arrays(
                target.entries, g_mat, h_mat, u_coords, row["tau"]
            )
            x = PrimalVector(x_next)
            # Distortion accumulates as exp(M * r) per step; a zero
            # self-concordance constant (every quadratic) pins it to exactly
            # 1, no drift allowed.  Far outside the local region the product
            # saturates at +inf.
            if problem.sc_const > 0.0:
                xi = (xi * math.exp(min(problem.sc_const * row["r"], 709.0))
                      if config.instrument else math.nan)

    def column(name):
        i = _ROW_FIELDS.index(name)
        return [row[i] for row in rows]

    snapshots = config.record_operators
    return IterationTrace(
        problem=problem, schedule=schedule, config=config, general=general,
        xs=column("x"), grads=column("grad"), us=column("u"),
        **{name + "s": np.asarray(column(name)) for name in _ROW_COLUMNS},
        converged=converged, stop_reason="grad_tol" if converged else "max_iter",
        g_ops=column("g_op") if snapshots else None,
        h_ops=column("h_op") if snapshots else None,
        j_ops=column("j_op") if snapshots else None,
    )


def run_quadratic(p: QuadraticProblem, x0: PrimalVector, sched: TauSchedule,
                  cfg: SolverConfig) -> IterationTrace:
    """Minimize a quadratic, updating toward its operator every iteration."""
    instance = p if isinstance(p, ProblemInstance) else ProblemInstance.quadratic(p)
    if instance.kind is not Kind.QUADRATIC:
        raise TypeError("run_quadratic needs a quadratic instance")
    return _drive(instance, x0, sched, cfg, general=False)


def run_general(p: ProblemInstance, x0: PrimalVector, sched: TauSchedule,
                cfg: SolverConfig) -> IterationTrace:
    """Minimize a smooth instance, updating toward each segment-mean Hessian."""
    if not isinstance(p, ProblemInstance):
        raise TypeError("run_general needs a ProblemInstance")
    return _drive(p, x0, sched, cfg, general=True)


def secant_residual(trace: IterationTrace, p: ProblemInstance) -> list[float]:
    """Relative secant residuals ||G_{k+1} u_k - dg_k|| / ||dg_k|| per step.

    dg_k is the measured gradient difference across step k.  Exact up to
    rounding on the quadratic path and up to quadrature error on the general
    path.  Near-degenerate tail steps are skipped: once the gradient
    difference sinks toward the rounding noise of a gradient evaluation
    (around eps * ell * |x|), its relative direction is meaningless.
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
