"""Span tracer around broyden_lab's layers, installed from outside the package.

Each traced function is wrapped at the name its caller looks it up under
(``broyden_lab.solver.update_arrays`` rather than the ``broyden`` original,
``broyden_lab.cli.run_quadratic`` rather than the ``solver`` original), so
the span is recorded at the layer boundary the call crosses.  Spans
(name, layer, start, end, parent, extra) stay in memory until the run ends.
Installing raises if any wrapped name is missing, so a rename cannot
silently zero a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

LAYERS = ("cli", "problems", "operators", "broyden", "potentials", "solver",
          "bounds", "verify")

_SUITES = ("inverse_identity_suite", "det_ratio_suite", "eigen_containment_suite",
           "logdet_progress_suite", "augmented_progress_suite",
           "metric_change_suite", "scalar_gap_suite")


def _iterations(args, kwargs, result):
    return result.k_final


def _envelope_points(args, kwargs, result):
    return sum(len(report.ks) for report in result)


def _hess_evals(args, kwargs, result):
    # One Gauss-Legendre rule of the given order plus its doubled check rule.
    order = args[3] if len(args) > 3 else kwargs.get("order", 16)
    return 3 * order


def _suite_trials(args, kwargs, result):
    return result.trials


# (layer, "module:attribute", extra) where extra maps a call to a number.
TARGETS = (
    ("solver", "broyden_lab.cli:run_quadratic", _iterations),
    ("solver", "broyden_lab.cli:run_general", _iterations),
    ("problems", "broyden_lab.cli:instance_from_dict", None),
    ("problems", "broyden_lab.cli:instance_hash", None),
    ("problems", "broyden_lab.cli:quad_make", None),
    ("problems", "broyden_lab.problems:ProblemInstance.grad", None),
    ("problems", "broyden_lab.problems:ProblemInstance.hess", None),
    ("problems", "broyden_lab.solver:integral_hessian", _hess_evals),
    ("problems", "broyden_lab.verify:random_orthogonal", None),
    ("operators", "broyden_lab.operators:SpdOperator.__post_init__", None),
    ("operators", "broyden_lab.operators:SpdOperator.solve_mat", None),
    ("operators", "broyden_lab.cli:norm_primal", None),
    ("operators", "broyden_lab.cli:norm_dual", None),
    ("operators", "broyden_lab.solver:norm_dual", None),
    ("operators", "broyden_lab.solver:rel_eigen_range", None),
    ("operators", "broyden_lab.potentials:rel_eigen_range", None),
    ("operators", "broyden_lab.verify:rel_eigen_range", None),
    ("operators", "broyden_lab.verify:rel_det", None),
    ("broyden", "broyden_lab.solver:update_arrays", None),
    ("broyden", "broyden_lab.broyden:update_arrays", None),
    ("broyden", "broyden_lab.solver:nu", None),
    ("broyden", "broyden_lab.potentials:nu", None),
    ("broyden", "broyden_lab.verify:nu", None),
    ("broyden", "broyden_lab.potentials:broyd", None),
    ("broyden", "broyden_lab.verify:broyd", None),
    ("broyden", "broyden_lab.verify:broyd_det_ratio", None),
    ("potentials", "broyden_lab.solver:logdet_barrier", None),
    ("potentials", "broyden_lab.solver:augmented_barrier", None),
    ("potentials", "broyden_lab.verify:logdet_barrier", None),
    ("potentials", "broyden_lab.verify:augmented_barrier", None),
    ("potentials", "broyden_lab.verify:metric_change_lb", None),
    ("potentials", "broyden_lab.verify:progress_lb_v", None),
    ("potentials", "broyden_lab.verify:progress_lb_psi", None),
    ("potentials", "broyden_lab.verify:scalar_gap", None),
    ("bounds", "broyden_lab.cli:trace_reports", _envelope_points),
    ("bounds", "broyden_lab.cli:k0", None),
    ("bounds", "broyden_lab.cli:region_radius", None),
    ("bounds", "broyden_lab.cli:first_superlinear_crossover", None),
    ("verify", "broyden_lab.verify:run_all", None),
) + tuple(("verify", f"broyden_lab.verify:{s}", _suite_trials) for s in _SUITES)

# Calls that cost O(n^3): a validated SPD construction (Cholesky), a
# generalized eigenvalue reduction, and an n-by-n factorized solve.
CUBIC = ("SpdOperator.__post_init__", "rel_eigen_range", "SpdOperator.solve_mat")


class TracerError(RuntimeError):
    """A wrapped name is missing from the program."""


class Tracer:
    """Records spans around the target functions while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        try:
            for layer, target, extra in self.targets:
                owner, attr, original = _resolve(target)
                name = target.partition(":")[2]
                setattr(owner, attr, self._wrap(original, layer, name, extra))
                self._undo.append((owner, attr, original))
        except TracerError:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, layer: str, name: str):
        rec = self._open(layer, name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, layer, name):
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer, name, extra):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = open_(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(rec)
            if extra is not None:
                rec[5] = extra(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"columns": ["name", "layer", "start", "end", "parent", "extra"],
                       "spans": self.spans}, f)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise TracerError(f"cannot trace {target}: {exc}") from exc


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times from a finished span list.

    A layer's self time is its span time minus the time its child spans
    cover.  Per-iteration latency is the gap between successive gradient
    oracle calls inside one solver span.
    """
    child_time = [0.0] * len(spans)
    solver_of = [-1] * len(spans)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    extra: dict[str, float] = {}
    grad_starts: dict[int, list[float]] = {}
    cubic_in_solver = 0
    for name, layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, layer, start, end, parent, ex) in enumerate(spans):
        if parent >= 0:
            solver_of[i] = parent if spans[parent][1] == "solver" else solver_of[parent]
        self_s[layer] += end - start - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + end - start
        extra[name] = extra.get(name, 0.0) + ex
        if solver_of[i] >= 0:
            cubic_in_solver += name in CUBIC
            if name == "ProblemInstance.grad":
                grad_starts.setdefault(solver_of[i], []).append(start)

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    def secs(*names):
        return sum(incl.get(n, 0.0) for n in names)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    iter_ms = [1e3 * (b - a) for starts in grad_starts.values()
               for a, b in zip(starts, starts[1:])]
    iterations = extra.get("run_quadratic", 0.0) + extra.get("run_general", 0.0)
    solver_s = secs("run_quadratic", "run_general")
    envelope_s = secs("trace_reports")
    points = extra.get("trace_reports", 0.0)
    suite_s = secs(*_SUITES)
    trials = sum(extra.get(s, 0.0) for s in _SUITES)
    out = {
        "problems.quadrature_calls": count("integral_hessian"),
        "problems.quadrature_s": secs("integral_hessian"),
        "problems.hess_evals": extra.get("integral_hessian", 0.0),
        "problems.grad_calls": count("ProblemInstance.grad"),
        "problems.grad_s": secs("ProblemInstance.grad"),
        "problems.hess_calls": count("ProblemInstance.hess"),
        "problems.hess_s": secs("ProblemInstance.hess"),
        "operators.spd_builds": count("SpdOperator.__post_init__"),
        "operators.spd_build_s": secs("SpdOperator.__post_init__"),
        "operators.eigen_range_calls": count("rel_eigen_range"),
        "operators.eigen_range_s": secs("rel_eigen_range"),
        "operators.solve_mat_calls": count("SpdOperator.solve_mat"),
        "operators.cubic_ops_per_iter": ratio(cubic_in_solver, iterations),
        "broyden.update_calls": count("update_arrays"),
        "broyden.update_s": secs("update_arrays"),
        "broyden.nu_s": secs("nu"),
        "broyden.broyd_calls": count("broyd"),
        "potentials.barrier_calls": count("logdet_barrier", "augmented_barrier"),
        "potentials.barrier_s": secs("logdet_barrier", "augmented_barrier"),
        "solver.iterations": iterations,
        "solver.iter_ms_p50": _percentile(iter_ms, 0.50),
        "solver.iter_ms_p99": _percentile(iter_ms, 0.99),
        "solver.iters_per_s": ratio(iterations, solver_s),
        "bounds.envelope_s": envelope_s,
        "bounds.envelope_points": points,
        "bounds.us_per_point": ratio(envelope_s, points, 1e6),
        "verify.trials": trials,
        "verify.suite_s": suite_s,
        "verify.trials_per_s": ratio(trials, suite_s),
    }
    out.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    return out
