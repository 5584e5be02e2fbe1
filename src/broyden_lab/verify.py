"""Randomized identity and inequality suites over the update family.

Each random suite draws seeded (target, approximation, direction) triples:
n uniform in [1, n_max], A with a log-uniform spectrum, G independent of A or
dominating it, and a standard normal u.  It evaluates one identity or
inequality of the update calculus at every tau of ``TAU_GRID`` and reports
the most adverse value against its pass threshold, together with its
witness: the suite's seed, the trial index, n and tau of that value.

Drawing and evaluating are separate.  The draws run one trial at a time in
a fixed RNG order, and a draw holds only raw inputs: n, each matrix's
spectrum and Gaussian block (or the dominating bump's block and scale),
and u.  Drawn triples are grouped by n and wait until their raw inputs hold
``_STACK_ELEMENTS`` entries between them.  Each group is then assembled as
one (T, n, n) stack (a stacked QR with its sign fix, then Q diag(eigs) Q^T)
and goes through stacked LAPACK calls and the solver's own update kernel
(``broyden._scalars`` and ``broyden._apply_update``).  Every stacked value
is bitwise the value of its triple alone, so no result depends on how the
draws were grouped.  The stack gets every check the typed API makes on one
triple: A, G and each G_plus, H_plus pass the ``SpdOperator`` acceptance
rule, the three update pairings are positive, the two closeness formulas
agree and relative spectra are positive.  A triple that fails one of them,
or yields a non-finite value, is the suite's witness with worst value
+-inf (a FAIL) rather than an exception.  The scalar gap evaluates its
whole (alpha, beta) grid as arrays, under the same rule for a non-finite
value.

Each random suite is one evaluator over a stack, which yields per tau
whether each value counts, the intermediate values and the value itself.
:func:`replay` re-draws one triple and runs it through that same evaluator
as a one-triple stack, so it prints the very value the suite computed, with
every intermediate; ``broyden-lab verify --suite NAME --trial T`` runs it.
It draws the raw inputs of the trials before T without assembling them.
The CLI ``verify`` command drives the suites and exits nonzero on any
failure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import broyden as kernel
from .operators import Role, SpdOperator, chol_logdet, rel_eigen_range, spd_factor
from .potentials import (
    SCALAR_GAP_CONST,
    SCALAR_GAP_MIDDLE_CONST,
    metric_change_rhs,
    progress_lb_psi,
    progress_lb_v,
    spectral_barriers,
)
from .problems import haar_spd

# The suites evaluate stacks through the kernel, assemble their draws as
# stacks and take the scalar gap as arrays instead of calling these; they
# stay importable here because perfbench/tracer.py wraps the typed
# per-triple API under this module's names.
from .broyden import broyd, broyd_det_ratio, nu  # noqa: F401
from .operators import rel_det  # noqa: F401
from .problems import random_orthogonal  # noqa: F401
from .potentials import (  # noqa: F401
    augmented_barrier,
    logdet_barrier,
    metric_change_lb,
    scalar_gap,
)

__all__ = [
    "CheckResult",
    "random_spd",
    "random_spd_dominating",
    "random_spd_matrix",
    "random_dominating_matrix",
    "TAU_GRID",
    "SUITES",
    "inverse_identity_suite",
    "det_ratio_suite",
    "eigen_containment_suite",
    "logdet_progress_suite",
    "augmented_progress_suite",
    "metric_change_suite",
    "scalar_gap_suite",
    "run_suite",
    "run_all",
    "suite_size",
    "replay",
]

TAU_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

# Entries the raw draws waiting for assembly may hold (Gaussian blocks,
# spectra, scales and directions) before they are assembled into stacks and
# evaluated, so memory stays flat in trials and n_max.
_STACK_ELEMENTS = 1 << 16

SCALAR_GAP_GRID = 100


@dataclass(frozen=True)
class CheckResult:
    """One suite outcome: the most adverse value against its threshold.

    ``trials`` counts evaluations (trials times the tau grid for a random
    suite).  The witness locates the worst value: the suite's own seed, the
    trial index (a grid index for the scalar gap), n and tau.
    """

    name: str
    worst: float
    threshold: float
    higher_is_worse: bool
    trials: int
    seed: int | None = None
    trial: int | None = None
    n: int | None = None
    tau: float | None = None

    @property
    def passed(self) -> bool:
        if self.higher_is_worse:
            return self.worst <= self.threshold
        return self.worst >= self.threshold

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        rel = "<=" if self.higher_is_worse else ">="
        return (f"{self.name:<28s} worst={self.worst: .3e} "
                f"({rel} {self.threshold: .1e})  trials={self.trials}  {status}")


def _draw_spd(rng: np.random.Generator, n: int, log_cond_max: float = 3.0):
    """The raw inputs of one random SPD matrix: its log-uniform spectrum,
    condition <= 10^log_cond_max, and the Gaussian block of its
    eigenvectors."""
    span = rng.uniform(0.0, log_cond_max)
    eigs = 10.0 ** rng.uniform(-span / 2.0, span / 2.0, size=n)
    return eigs, rng.standard_normal((n, n))


def _draw_bump(rng: np.random.Generator, n: int):
    """The raw inputs of one semidefinite bump w w^T * scale: the Gaussian
    block of w (before its 1/sqrt(n)) and the scale."""
    return rng.standard_normal((n, n)), 10.0 ** rng.uniform(-2.0, 1.0)


def _dominating_stack(a: np.ndarray, z: np.ndarray,
                      scale: np.ndarray) -> np.ndarray:
    """Exactly symmetric A + w w^T * scale, w = z / sqrt(n), of a stack."""
    w = z / np.sqrt(z.shape[-1])
    bump = w @ w.mT * scale[..., None, None]
    m = a + 0.5 * (bump + bump.mT)
    return 0.5 * (m + m.mT)


def random_spd_matrix(rng: np.random.Generator, n: int,
                      log_cond_max: float = 3.0) -> np.ndarray:
    """Random exactly symmetric SPD matrix with log-uniform spectrum,
    condition <= 10^log_cond_max: a one-matrix stack of the suites' draw."""
    eigs, z = _draw_spd(rng, n, log_cond_max)
    return haar_spd(eigs[None], z[None])[0]


def random_dominating_matrix(rng: np.random.Generator,
                             a_mat: np.ndarray) -> np.ndarray:
    """Random exactly symmetric G with A below G in the semidefinite order:
    a one-matrix stack of the suites' draw."""
    z, scale = _draw_bump(rng, a_mat.shape[0])
    return _dominating_stack(a_mat[None], z[None], np.array([scale]))[0]


def random_spd(rng: np.random.Generator, n: int,
               log_cond_max: float = 3.0) -> SpdOperator:
    """:func:`random_spd_matrix` as a validated operator."""
    return SpdOperator(random_spd_matrix(rng, n, log_cond_max),
                       Role.PRIMAL_TO_DUAL)


def random_spd_dominating(rng: np.random.Generator,
                          a: SpdOperator) -> SpdOperator:
    """:func:`random_dominating_matrix` as a validated operator."""
    return SpdOperator(random_dominating_matrix(rng, a.entries),
                       Role.PRIMAL_TO_DUAL)


def straddle_normalize(g: SpdOperator, a: SpdOperator) -> SpdOperator:
    """Rescale G so its eigenvalue range relative to A straddles 1.

    Every update pins a relative eigenvalue at exactly 1 (the secant
    direction), so range-containment statements are exact only for brackets
    of the form [1/xi, eta] with xi, eta >= 1.  Geometric centering puts an
    arbitrary pair into that regime without changing its geometry.
    """
    rng_ga = rel_eigen_range(g, a)
    return g.scaled(1.0 / math.sqrt(rng_ga.min_rel * rng_ga.max_rel))


def _draw(rng: np.random.Generator, n_max: int, dominating: bool):
    """The raw inputs of one (A, G, u) triple, drawn without assembling a
    matrix: (n, A's spectrum, A's Gaussian block, G's spectrum and block or
    its bump's block and scale, u).  Every suite and every replay draws its
    trials through this, in this RNG order."""
    n = int(rng.integers(1, n_max + 1))
    a_eigs, a_z = _draw_spd(rng, n)
    g_1, g_2 = _draw_bump(rng, n) if dominating else _draw_spd(rng, n)
    return n, a_eigs, a_z, g_1, g_2, rng.standard_normal(n)


def _assemble(draws, dominating: bool):
    """The (A, G, u) stacks of raw draws of one n, each matrix of the stack
    built in the same stacked calls."""
    _, a_eigs, a_z, g_1, g_2, u = map(np.array, zip(*draws))
    a = haar_spd(a_eigs, a_z)
    g = _dominating_stack(a, g_1, g_2) if dominating else haar_spd(g_1, g_2)
    return a, g, u


def _stacks(rng: np.random.Generator, trials: int, n_max: int,
            dominating: bool):
    """Draw the trials in order; yield (trial indices, A, G, u) stacks of one n.

    Raw draws wait until they hold ``_STACK_ELEMENTS`` entries (or the
    trials run out) and then leave as one assembled stack per dimension, in
    trial order.
    """
    pending: dict[int, list] = {}
    held = 0
    for trial in range(trials):
        draw = _draw(rng, n_max, dominating)
        n = draw[0]
        pending.setdefault(n, []).append((trial, draw))
        # Two n-by-n blocks, A's spectrum, u, and G's spectrum or the
        # bump's scale.
        held += 2 * n * n + 2 * n + (1 if dominating else n)
        if held >= _STACK_ELEMENTS or trial == trials - 1:
            while pending:
                idx, draws = zip(*pending.popitem()[1])
                stack = (np.array(idx), *_assemble(draws, dominating))
                del idx, draws  # the raw draws are not held while it runs
                yield stack
            held = 0


class _Update(NamedTuple):
    g_plus: np.ndarray
    h_plus: np.ndarray
    phi: np.ndarray
    det_ratio: np.ndarray
    lg_plus: np.ndarray
    ok: np.ndarray


class _Stack:
    """A stack of triples with the factors and update scalars every suite uses.

    ``ok`` marks the triples the typed API would accept: A and G pass the
    SPD rule and the three update pairings are positive.
    """

    def __init__(self, a, g, u):
        self.g, self.u, self.au = g, u, np.matvec(a, u)
        _, self.la, fault_a = spd_factor(a)
        _, self.lg, fault_g = spd_factor(g)
        self.lg_inv = np.linalg.inv(self.lg)
        h = self.lg_inv.mT @ self.lg_inv
        self.h = 0.5 * (h + h.mT)
        self.scalars = kernel._scalars(self.au, g, u, self.apply_h, check=False)
        au_u, gu_u, aha = self.scalars[2], self.scalars[3], self.scalars[5]
        self.ok = ((fault_a == 0) & (fault_g == 0)
                   & kernel._positive_pairings(au_u, gu_u, aha))

    def apply_h(self, v):
        """G^{-1} v through the explicit inverse, as the solver applies it."""
        return np.matvec(self.h, v)

    def solve_g(self, v):
        """G^{-1} v through two triangular factors, as a factorized solve."""
        return np.matvec(self.lg_inv.mT, np.matvec(self.lg_inv, v))

    def closeness(self):
        """nu of every triple, and where its two formulas agree."""
        def inv_quad(w):
            y = np.matvec(self.lg_inv, w)
            return np.vecdot(y, y)
        val_quad, val_norm = kernel._closeness(self.au, self.g, self.u,
                                               self.apply_h, inv_quad)
        return val_quad, ~kernel._nu_disagree(val_quad, val_norm)

    @functools.cached_property
    def la_inv(self):
        """Inverse Cholesky factor of A, formed for the suites that use it."""
        return np.linalg.inv(self.la)

    def rel_spectrum(self, x):
        """Ascending eigenvalues of each X relative to A, and where they are
        all positive."""
        lams = np.linalg.eigvalsh(self.la_inv @ x @ self.la_inv.mT)
        return lams, lams[:, 0] > 0.0

    def update(self, tau):
        """The update at one tau, with the factor of G_plus and where both
        G_plus and its closed-form inverse H_plus pass the SPD rule."""
        g_plus, h_plus, phi, det_ratio = kernel._apply_update(
            self.g, self.h, self.u, self.scalars, tau)
        _, lg_plus, fault_g = spd_factor(g_plus)
        _, _, fault_h = spd_factor(h_plus)
        return _Update(g_plus, h_plus, phi, det_ratio, lg_plus,
                       (fault_g == 0) & (fault_h == 0))


# ---------------------------------------------------------------------------
# The random suites.  Each evaluator takes a _Stack and yields one row per
# tau of the grid: a dict of per-triple arrays holding ``ok`` (where the
# suite's own checks accept the triple), the intermediate values and last
# the suite's ``value``.  The batched run and the replay of one trial both
# go through it.


def _inverse_identity(st):
    eye = np.eye(st.u.shape[-1])
    for tau in TAU_GRID:
        up = st.update(tau)
        yield {"ok": up.ok, "phi": up.phi, "det_ratio": up.det_ratio,
               "value": np.linalg.norm(up.g_plus @ up.h_plus - eye, 2,
                                       axis=(-2, -1))}


def _det_ratio(st):
    solved = kernel._scalars(st.au, st.g, st.u, st.solve_g, check=False)
    au_u, gu_u, aha = solved[2], solved[3], solved[5]
    solved_ok = kernel._positive_pairings(au_u, gu_u, aha)
    logdet_g = chol_logdet(st.lg)
    for tau in TAU_GRID:
        up = st.update(tau)
        reference = np.exp(logdet_g - chol_logdet(up.lg_plus))
        closed = kernel._phi_det(tau, au_u, gu_u, aha)[1]
        yield {"ok": up.ok & solved_ok, "det_ratio": up.det_ratio,
               "closed_form": closed, "reference": reference,
               "value": np.maximum(np.abs(up.det_ratio - reference),
                                   np.abs(closed - reference))
               / np.abs(reference)}


def _eigen_containment(st):
    before, ok = st.rel_spectrum(st.g)
    lo = np.minimum(1.0, before[:, 0])
    hi = np.maximum(1.0, before[:, -1])
    for tau in TAU_GRID:
        up = st.update(tau)
        after, after_ok = st.rel_spectrum(up.g_plus)
        yield {"ok": ok & up.ok & after_ok, "lo": lo, "hi": hi,
               "min_rel": after[:, 0], "max_rel": after[:, -1],
               "value": np.minimum(after[:, 0] - lo, hi - after[:, -1])}


def _logdet_progress(st):
    before, ok = st.rel_spectrum(st.g)
    eta = np.maximum(1.0, before[:, -1])
    nu_val, nu_ok = st.closeness()
    v_before, _ = spectral_barriers(before)
    for tau in TAU_GRID:
        up = st.update(tau)
        after, after_ok = st.rel_spectrum(up.g_plus)
        decrease = v_before - spectral_barriers(after)[0]
        bound = progress_lb_v(eta, tau, nu_val)
        yield {"ok": ok & nu_ok & up.ok & after_ok, "eta": eta, "nu": nu_val,
               "decrease": decrease, "bound": bound,
               "value": decrease - bound}


def _augmented_progress(st):
    before, ok = st.rel_spectrum(st.g)
    xi = np.maximum(1.0, 1.0 / before[:, 0])
    eta = np.maximum(1.0, before[:, -1])
    nu_val, nu_ok = st.closeness()
    _, psi_before = spectral_barriers(before)
    for tau in TAU_GRID:
        up = st.update(tau)
        after, after_ok = st.rel_spectrum(up.g_plus)
        decrease = psi_before - spectral_barriers(after)[1]
        bound = progress_lb_psi(xi, eta, tau, nu_val)
        yield {"ok": ok & nu_ok & up.ok & after_ok, "xi": xi, "eta": eta,
               "nu": nu_val, "decrease": decrease, "bound": bound,
               "value": decrease - bound}


def _metric_change(st):
    before, ok = st.rel_spectrum(st.g)
    xi = 1.0 / before[:, 0]
    nu_val, nu_ok = st.closeness()
    for tau in TAU_GRID:
        up = st.update(tau)
        rhs = metric_change_rhs(st.au, st.g, st.u, up.h_plus, xi)
        yield {"ok": ok & nu_ok & up.ok, "nu": nu_val, "xi": xi, "rhs": rhs,
               "value": nu_val * nu_val - rhs}


# Every suite by name, in run order; a suite's seed is the base seed plus
# its position here.  Each row: (threshold, higher_is_worse, evaluator over
# a _Stack or None for the scalar gap's grid, whether G dominates A in the
# semidefinite order).
_SUITES = {
    "inverse_identity": (1e-10, True, _inverse_identity, False),
    "det_ratio": (1e-9, True, _det_ratio, False),
    "eigen_containment": (-1e-9, False, _eigen_containment, False),
    "logdet_progress": (-1e-8, False, _logdet_progress, True),
    "augmented_progress": (-1e-8, False, _augmented_progress, False),
    "metric_change": (-1e-8, False, _metric_change, False),
    "scalar_gap": (-1e-12, False, None, False),
}
SUITES = tuple(_SUITES)


def _evaluate(name: str, a, g, u):
    """The suite's rows on the stack of triples (A, G, u), with ``ok``
    narrowed to the values that count: accepted by the stack and the row,
    and finite; and a (T, tau) array of the values, NaN where one does not
    count."""
    with np.errstate(all="ignore"):
        stack = _Stack(a, g, u)
        rows = [{**row, "ok": stack.ok & row["ok"] & np.isfinite(row["value"])}
                for row in _SUITES[name][2](stack)]
    values = np.stack([np.where(row["ok"], row["value"], np.nan)
                       for row in rows], axis=1)
    return rows, values


def _worst(values: np.ndarray, sign: float):
    """(trial row, tau index, value) of the most adverse value of a stack.

    A value that does not count (NaN) is worst of all, +-inf; ties go to
    the earliest trial and tau, as a trial-by-trial scan would find them.
    """
    key = np.where(np.isnan(values), np.inf, sign * values)
    t, k = divmod(int(np.argmax(key)), values.shape[1])
    return t, k, sign * float(key[t, k])


def _run(name: str, n_max: int, trials: int, seed: int) -> CheckResult:
    """Evaluate a random suite stack by stack and keep its worst value."""
    threshold, higher_is_worse, _, dominating = _SUITES[name]
    sign = 1.0 if higher_is_worse else -1.0
    rng = np.random.default_rng(seed)
    best = None
    for idx, a, g, u in _stacks(rng, trials, n_max, dominating):
        t, k, worst = _worst(_evaluate(name, a, g, u)[1], sign)
        rank = (sign * worst, -idx[t], -k)
        if best is None or rank > best[0]:
            best = (rank, int(idx[t]), k, worst, u.shape[-1])
    _, trial, k, worst, n = best
    return CheckResult(name, worst, threshold, higher_is_worse,
                       trials * len(TAU_GRID), seed, trial, n, TAU_GRID[k])


def inverse_identity_suite(n_max: int = 8, trials: int = 1000,
                           seed: int = 0) -> CheckResult:
    """Spectral residual of (updated operator) x (closed-form inverse) vs identity."""
    return _run("inverse_identity", n_max, trials, seed)


def det_ratio_suite(n_max: int = 8, trials: int = 1000,
                    seed: int = 1) -> CheckResult:
    """Closed-form determinant ratio vs a factorized log-det evaluation.

    The closed form is evaluated twice: from the update itself (G^{-1}Au
    through the explicit inverse) and from a factorized solve.
    """
    return _run("det_ratio", n_max, trials, seed)


def eigen_containment_suite(n_max: int = 8, trials: int = 1000,
                            seed: int = 2) -> CheckResult:
    """Updates never leave the bracket [min(1, lo), max(1, hi)] of the input.

    The secant direction always carries relative eigenvalue 1 after an
    update, so the preserved bracket is the input range widened to
    include 1.
    """
    return _run("eigen_containment", n_max, trials, seed)


def logdet_progress_suite(n_max: int = 8, trials: int = 1000,
                          seed: int = 3) -> CheckResult:
    """Measured log-det barrier decrease dominates its guaranteed bound."""
    return _run("logdet_progress", n_max, trials, seed)


def augmented_progress_suite(n_max: int = 8, trials: int = 1000,
                             seed: int = 4) -> CheckResult:
    """Measured augmented-barrier decrease dominates its guaranteed bound."""
    return _run("augmented_progress", n_max, trials, seed)


def metric_change_suite(n_max: int = 8, trials: int = 1000,
                        seed: int = 5) -> CheckResult:
    """Squared closeness dominates its post-update metric bound."""
    return _run("metric_change", n_max, trials, seed)


def _scalar_gap_grid(grid: int):
    """(alpha, beta) arrays of the points in suite order: beta in
    [1e-6, 1e6] varies slowest, alpha = beta * m with m in [1, 1e6], both
    log-spaced."""
    betas = np.repeat(np.logspace(-6.0, 6.0, grid), grid)
    return betas * np.tile(np.logspace(0.0, 6.0, grid), grid), betas


def _scalar_gap_terms(alpha: np.ndarray, beta: np.ndarray):
    """Both sides of the scalar gap, its middle term and shared argument at
    each point; the value is the least of the three margins.  Returns the
    terms and (index, value) of the first most adverse value, a non-finite
    value being worst of all (-inf)."""
    with np.errstate(all="ignore"):
        lhs = alpha - np.log(beta) - 1.0
        arg = alpha + 1.0 / beta - 1.0
        log_arg = np.log(arg)
        middle = SCALAR_GAP_MIDDLE_CONST * log_arg
        rhs = SCALAR_GAP_CONST * log_arg
        value = np.minimum(np.minimum(lhs - middle, middle - rhs), arg - 1.0)
    index, _, worst = _worst(
        np.where(np.isfinite(value), value, np.nan)[:, None], -1.0)
    return ({"lhs": lhs, "middle": middle, "rhs": rhs, "arg": arg,
             "value": value}, index, worst)


def scalar_gap_suite(grid: int = SCALAR_GAP_GRID) -> CheckResult:
    """Scalar gap chain over a log-spaced (alpha, beta) grid.

    beta spans [1e-6, 1e6] and alpha = beta * m with m in [1, 1e6]; both the
    sharp and the relaxed constants must be dominated and the shared
    argument must stay at or above 1.  The witness is the grid index.
    """
    _, witness, worst = _scalar_gap_terms(*_scalar_gap_grid(grid))
    return CheckResult("scalar_gap", worst, *_SUITES["scalar_gap"][:2],
                       grid * grid, trial=witness)


def run_suite(name: str, n_max: int = 8, trials: int = 1000,
              seed: int = 0) -> CheckResult:
    """One suite as :func:`run_all` runs it from the base seed."""
    if name == "scalar_gap":
        return scalar_gap_suite()
    # Looked up at call time, so a wrapper installed on the module attribute
    # (perfbench/tracer.py) sees the call.
    suite = globals()[f"{name}_suite"]
    return suite(n_max, trials, seed + SUITES.index(name))


def run_all(n_max: int = 8, trials: int = 1000, seed: int = 0) -> list[CheckResult]:
    """Run every suite with seeds derived from the base seed."""
    return [run_suite(name, n_max, trials, seed) for name in SUITES]


def suite_size(name: str, trials: int) -> int:
    """Number of replayable trials (grid points for the scalar gap)."""
    return SCALAR_GAP_GRID ** 2 if name == "scalar_gap" else trials


def _fmt_values(values: dict) -> str:
    return "  ".join(f"{key}={np.asarray(val).item()!r}"
                     for key, val in values.items())


def replay(name: str, trial: int, n_max: int = 8, seed: int = 0) -> CheckResult:
    """Re-draw one trial of a suite and evaluate it as the suite does.

    ``seed`` is the base seed, as for :func:`run_all`.  The triple goes
    through the suite's own evaluator as a one-triple stack, so each value
    is the one the suite computed for it.  Prints the triple and, for each
    tau, whether the value counts (``ok``), the intermediate values and the
    value; returns the result of that one trial.
    """
    threshold, higher_is_worse, _, dominating = _SUITES[name]
    if name == "scalar_gap":
        alpha, beta = (x[trial:trial + 1]
                       for x in _scalar_gap_grid(SCALAR_GAP_GRID))
        terms, _, worst = _scalar_gap_terms(alpha, beta)
        print(f"scalar_gap grid point {trial}: alpha={float(alpha[0])!r}  "
              f"beta={float(beta[0])!r}")
        print(_fmt_values(terms))
        return CheckResult(name, worst, threshold, higher_is_worse, 1,
                           trial=trial)
    suite_seed = seed + SUITES.index(name)
    rng = np.random.default_rng(suite_seed)
    for _ in range(trial):
        _draw(rng, n_max, dominating)
    a, g, u = _assemble([_draw(rng, n_max, dominating)], dominating)
    print(f"{name} seed={suite_seed} trial={trial} n={u.shape[-1]}")
    with np.printoptions(precision=17, linewidth=100):
        for label, arr in (("A", a[0]), ("G", g[0]), ("u", u[0])):
            print(f"{label} = {np.array2string(arr, prefix=label + ' = ')}")
    rows, values = _evaluate(name, a, g, u)
    for tau, row in zip(TAU_GRID, rows):
        print(_fmt_values({"tau": tau, **row}))
    _, k, worst = _worst(values, 1.0 if higher_is_worse else -1.0)
    return CheckResult(name, worst, threshold, higher_is_worse,
                       len(TAU_GRID), suite_seed, trial, u.shape[-1], TAU_GRID[k])
