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

A single run is single-threaded and deterministic; independent runs share no
mutable state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .broyden import ZERO_DIRECTION_NORM, check_tau, nu, update_arrays
from .operators import (
    DualVector,
    EigenRange,
    NotSpdError,
    PrimalVector,
    Role,
    SpdOperator,
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

    @property
    def sup_tau(self) -> float:
        if self.constant is not None:
            return self.constant
        return max(self.sequence)

    @property
    def name(self) -> str:
        if self.constant == 0.0:
            return "bfgs"
        if self.constant == 1.0:
            return "dfp"
        if self.constant is not None:
            return f"constant({self.constant})"
        return f"sequence(len={len(self.sequence)})"

    def to_dict(self) -> dict:
        if self.constant is not None:
            return {"kind": "constant", "tau": self.constant}
        return {"kind": "sequence", "taus": list(self.sequence)}

    @classmethod
    def from_dict(cls, d: dict) -> "TauSchedule":
        kind = d.get("kind")
        if kind == "bfgs":
            return cls.bfgs()
        if kind == "dfp":
            return cls.dfp()
        if kind == "constant":
            return cls.of_constant(float(d["tau"]))
        if kind == "sequence":
            return cls.of_sequence(d["taus"])
        raise ValueError(f"unknown schedule kind: {kind!r}")


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
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.grad_tol < 0.0:
            raise ValueError("grad_tol must be nonnegative")
        if self.quad_order < 2:
            raise ValueError("quad_order must be at least 2")

    def to_dict(self) -> dict:
        return {
            "max_iter": self.max_iter,
            "grad_tol": self.grad_tol,
            "quad_order": self.quad_order,
            "record_operators": self.record_operators,
            "quad_error_rtol": self.quad_error_rtol,
            "instrument": self.instrument,
        }


_CSV_COLUMNS = ("k", "lambda", "g", "r", "xi", "nu", "v", "psi",
                "eig_min", "eig_max", "tau")


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass
class IterationTrace:
    """Per-iteration record of a run.

    Arrays all have one entry per visited iterate.  Step-dependent fields
    (r, nu, v/psi on the general path, tau) are NaN on the terminal row,
    which has no outgoing step.
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

    def eig_range(self, k: int) -> EigenRange:
        return EigenRange(float(self.eig_mins[k]), float(self.eig_maxs[k]))

    def to_csv(self, path) -> None:
        rows = []
        for k in range(len(self)):
            rows.append(",".join([str(k)] + [_fmt(v) for v in (
                self.lambdas[k], self.gs[k], self.rs[k], self.xis[k],
                self.nus[k], self.vs[k], self.psis[k],
                self.eig_mins[k], self.eig_maxs[k], self.taus[k],
            )]))
        with open(path, "w", newline="\n") as f:
            f.write(",".join(_CSV_COLUMNS) + "\n")
            f.write("\n".join(rows) + "\n")

    def to_json_dict(self) -> dict:
        cols = {
            "lambda": self.lambdas, "g": self.gs, "r": self.rs,
            "xi": self.xis, "nu": self.nus, "v": self.vs, "psi": self.psis,
            "eig_min": self.eig_mins, "eig_max": self.eig_maxs,
            "tau": self.taus, "est_error": self.est_errors,
        }
        return {
            "instance_hash": instance_hash(self.problem),
            "schedule": self.schedule.to_dict(),
            "config": self.config.to_dict(),
            "general_path": self.general,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "iterations": self.k_final,
            "columns": {name: [_json_num(v) for v in arr]
                        for name, arr in cols.items()},
        }

    def to_json(self, path) -> None:
        with open(path, "w", newline="\n") as f:
            json.dump(self.to_json_dict(), f, indent=1)
            f.write("\n")


def _json_num(v: float):
    v = float(v)
    return None if math.isnan(v) else v


def _check_finite(k: int, *arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise DivergenceError(k, "non-finite iterate")


def _wrap_spd(k: int, entries: np.ndarray, role: Role) -> SpdOperator:
    try:
        return SpdOperator(entries, role)
    except NotSpdError as exc:
        raise DivergenceError(k, f"approximation lost definiteness ({exc})") from exc


def _drive(problem: ProblemInstance, x0: PrimalVector, schedule: TauSchedule,
           config: SolverConfig, general: bool) -> IterationTrace:
    n = problem.n
    if x0.dim != n:
        raise ValueError(f"x0 has dimension {x0.dim}, expected {n}")
    ell = problem.ell
    big_m = problem.sc_const if general else 0.0
    b_ref = problem.b_ref

    g_mat = ell * b_ref.entries
    h_mat = b_ref.solve_mat(np.eye(n))
    h_mat = 0.5 * (h_mat + h_mat.T) / ell
    a_op = problem.payload.a_op if problem.kind is Kind.QUADRATIC else None

    xs: list[PrimalVector] = []
    grads: list[DualVector] = []
    us: list[PrimalVector | None] = []
    lam, gs, rs, xis, nus, vs, psis, taus = ([] for _ in range(8))
    eig_mins, eig_maxs, j_eig_mins, j_eig_maxs, est_errors = ([] for _ in range(5))
    g_ops = [] if config.record_operators else None
    h_ops = [] if config.record_operators else None
    j_ops = [] if config.record_operators else None

    x = x0
    xi = 1.0
    converged = False
    stop_reason = "max_iter"

    def record_step_instrumentation(g_op, target_op):
        """Step-dependent potentials and eigen range against the update target.

        The spectrum of G relative to the Hessian is reused when the target
        is that same operator, so each distinct pencil is decomposed once.
        """
        if not config.instrument or target_op is None:
            vs.append(math.nan)
            psis.append(math.nan)
            j_eig_mins.append(math.nan)
            j_eig_maxs.append(math.nan)
            return
        lams = lams_g if target_op is hess_k else rel_eigvals(g_op, target_op)
        rng_j = EigenRange.of_spectrum(lams)
        j_eig_mins.append(rng_j.min_rel)
        j_eig_maxs.append(rng_j.max_rel)
        v, psi = spectral_barriers(lams)
        vs.append(v)
        psis.append(psi)

    for k in range(config.max_iter + 1):
        grad = problem.grad(x)
        _check_finite(k, x.coords, grad.coords)
        g_op = _wrap_spd(k, g_mat, Role.PRIMAL_TO_DUAL)

        if config.instrument:
            hess_k = a_op if a_op is not None else problem.hess(x)
            lambda_k = norm_dual(hess_k, grad)
            lams_g = rel_eigvals(g_op, hess_k)
            rng_g = EigenRange.of_spectrum(lams_g)
        else:
            hess_k = lams_g = None
            lambda_k = math.nan
            rng_g = None
        g_k = math.sqrt(max(float(grad.coords @ (h_mat @ grad.coords)), 0.0))

        xs.append(x)
        grads.append(grad)
        lam.append(lambda_k)
        gs.append(g_k)
        xis.append(xi)
        eig_mins.append(rng_g.min_rel if rng_g else math.nan)
        eig_maxs.append(rng_g.max_rel if rng_g else math.nan)
        if g_ops is not None:
            g_ops.append(g_op)
            h_ops.append(_wrap_spd(k, h_mat, Role.DUAL_TO_PRIMAL))

        measure = lambda_k if config.instrument else float(
            np.linalg.norm(grad.coords)
        )
        if measure <= config.grad_tol:
            converged = True
            stop_reason = "grad_tol"
        if converged or k == config.max_iter:
            us.append(None)
            rs.append(math.nan)
            nus.append(math.nan)
            taus.append(math.nan)
            est_errors.append(math.nan)
            # The terminal iterate has no outgoing step; on the quadratic
            # path the target is still the fixed operator, so the potentials
            # remain defined.
            record_step_instrumentation(g_op, a_op if not general else None)
            if j_ops is not None:
                j_ops.append(None)
            break

        u_coords = -(h_mat @ grad.coords)
        _check_finite(k, u_coords)
        degenerate = float(np.linalg.norm(u_coords)) <= ZERO_DIRECTION_NORM
        tau_k = schedule.tau_at(k)
        taus.append(tau_k)

        if degenerate:
            # Zero step: by convention the update is skipped and the iterate
            # does not move; bookkeeping records a zero step length.
            us.append(None)
            rs.append(0.0)
            nus.append(math.nan)
            est_errors.append(0.0)
            # hess_k is the Hessian at this same iterate when instrumented.
            target_op = hess_k if general else a_op
            record_step_instrumentation(g_op, target_op)
            if j_ops is not None:
                j_ops.append(None)
            continue

        u = PrimalVector(u_coords)
        us.append(u)
        if general:
            ih = integral_hessian(problem, x, u, config.quad_order)
            target_op = ih.j_op
            est_errors.append(ih.est_error)
            if problem.kind is not Kind.QUADRATIC:
                j_scale = float(np.linalg.eigvalsh(target_op.entries)[-1])
                if ih.est_error > config.quad_error_rtol * j_scale:
                    raise QuadratureError(
                        k,
                        f"quadrature error {ih.est_error:.3e} above "
                        f"{config.quad_error_rtol:.1e} * ||J||",
                    )
        else:
            target_op = a_op
            est_errors.append(0.0)

        if config.instrument:
            r_k = math.sqrt(max(float(u_coords @ (hess_k.entries @ u_coords)), 0.0))
            nus.append(nu(target_op, g_op, u))
        else:
            r_k = math.nan
            nus.append(math.nan)
        rs.append(r_k)
        record_step_instrumentation(g_op, target_op)
        if j_ops is not None:
            j_ops.append(target_op)

        g_mat, h_mat, _, _ = update_arrays(
            target_op.entries, g_mat, h_mat, u_coords, tau_k
        )
        x = PrimalVector(x.coords + u_coords)

        # Distortion accumulates as exp(M * r) per step; a zero
        # self-concordance constant pins it to exactly 1, no drift allowed.
        # Far outside the local region the product saturates at +inf.
        if big_m > 0.0:
            xi = (xi * math.exp(min(big_m * r_k, 709.0))
                  if config.instrument else math.nan)

    arr = np.asarray
    return IterationTrace(
        problem=problem, schedule=schedule, config=config, general=general,
        xs=xs, grads=grads, us=us,
        lambdas=arr(lam), gs=arr(gs), rs=arr(rs), xis=arr(xis),
        nus=arr(nus), vs=arr(vs), psis=arr(psis), taus=arr(taus),
        eig_mins=arr(eig_mins), eig_maxs=arr(eig_maxs),
        j_eig_mins=arr(j_eig_mins), j_eig_maxs=arr(j_eig_maxs),
        est_errors=arr(est_errors),
        converged=converged, stop_reason=stop_reason,
        g_ops=g_ops, h_ops=h_ops, j_ops=j_ops,
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
