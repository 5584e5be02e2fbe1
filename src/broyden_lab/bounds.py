"""Convergence-rate envelopes and measured-trace comparison.

Every theoretical bound is an explicit function of the certified constants
(n, mu, ell, self-concordance), the tau schedule, the iteration index and the
initial residual.  Builders turn a solver trace into per-iteration
bound-versus-measured reports with explicit slacks.  They take their
constants from :func:`envelope_constants`, the one owner of the override
rule, which the CLI also runs before it writes anything.  The sharpened
quadratic factor reads the spectrum the instance keeps.

All envelope evaluation happens in log space so that values stay finite for
iteration counts up to 1e6 and condition numbers up to 1e12; returned values
are clamped at the largest representable double, which only ever loosens a
bound.  Every superlinear envelope goes through one vectorised kernel
(:func:`_sup_log`) fed with prefix sums of ln p_i, so an envelope over a
K-step trace costs O(K); the scalar ``env_*`` functions are views that return
one entry of the same arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import check_number
from .problems import ProblemInstance, QuadraticProblem
from .solver import IterationTrace, TauSchedule

__all__ = [
    "EnvelopeReport",
    "Section6Envelopes",
    "SATISFIED_RTOL",
    "SATISFIED_ATOL",
    "env_quad_linear",
    "env_quad_superlinear",
    "env_quad_superlinear_log",
    "env_quad_sharpened_factor",
    "envelope_constants",
    "k0",
    "region_radius",
    "env_general_linear",
    "env_general_superlinear",
    "env_section6",
    "report_quad_linear",
    "report_quad_superlinear",
    "first_superlinear_crossover",
    "trace_reports",
    "ENVELOPE_NAMES",
    "QUADRATIC_ENVELOPES",
    "GENERAL_ENVELOPES",
]

# A measured value satisfies a bound up to this combined slack; the bounds
# are exact-arithmetic statements while measured residuals carry rounding.
SATISFIED_RTOL = 1e-8
SATISFIED_ATOL = 1e-14

# Prefactor of the local-convergence region: ln(3/2) / (3/2)^{3/2}.
REGION_CONST = math.log(1.5) / 1.5 ** 1.5

_EXP_CLAMP = 709.5  # just under ln(float64 max)

_PSI_EXPONENT = 13.0 / 6.0


def _ln_expm1(t):
    """ln(e^t - 1) elementwise without overflow; -inf where t = 0."""
    t = np.asarray(t, dtype=float)
    big = t > 36.8
    with np.errstate(divide="ignore"):
        return np.where(big, t + np.log1p(-np.exp(-t)),
                        np.log(np.expm1(np.where(big, 0.0, t))))


def _exp_clamped(t):
    return np.exp(np.minimum(t, _EXP_CLAMP))


def _ln_pos(x):
    """ln x elementwise, -inf where x is not positive."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, np.log(x), -np.inf)


def _ln_p(taus, ratio):
    """ln p_i with p_i = tau_i * ratio + 1 - tau_i (-inf where p_i <= 0)."""
    return _ln_pos(taus * ratio + 1.0 - taus)


def _tau_array(taus, k: int) -> np.ndarray:
    """tau_0 .. tau_{k-1} from a schedule or a sequence, read as one."""
    if not isinstance(taus, TauSchedule):
        taus = TauSchedule(taus)
    return taus.values(k)


def _sup_log(ks, ln_c, cum_ln_p, t, offset, lambda0: float):
    """ln of [c / prod_{i<k} p_i^{1/k} * (e^{t/k} - 1)]^{k/2} e^offset lambda0.

    The one superlinear envelope kernel.  Every argument but ``lambda0``
    broadcasts against the iteration indices ``ks``; ``cum_ln_p`` holds the
    prefix sums sum_{i<k} ln p_i.  A zero bound comes out as -inf: t = 0
    through ln(e^0 - 1), and a zero initial residual even where the bracket
    is +inf.
    """
    ks = np.asarray(ks, dtype=float)
    if lambda0 <= 0.0:
        return np.full(ks.shape, -np.inf)
    return (0.5 * ks * (ln_c - cum_ln_p / ks + _ln_expm1(t / ks)) + offset
            + math.log(lambda0))


@dataclass
class EnvelopeReport:
    """A theoretical bound evaluated along a trace.

    ``satisfied`` marks measured <= bound within the fixed slack; when
    ``asserted`` is false (a hypothesis of the bound was not verified, e.g.
    the starting point fell outside the local-convergence region) the
    verdicts are informational only.
    """

    name: str
    ks: np.ndarray
    measured: np.ndarray
    bound: np.ndarray
    asserted: bool = True
    satisfied: np.ndarray = field(init=False)

    def __post_init__(self):
        self.ks = np.asarray(self.ks, dtype=int)
        self.measured = np.asarray(self.measured, dtype=float)
        self.bound = np.asarray(self.bound, dtype=float)
        self.satisfied = (
            self.measured <= self.bound * (1.0 + SATISFIED_RTOL) + SATISFIED_ATOL
        )

    @property
    def first_violation(self) -> int | None:
        bad = np.flatnonzero(~self.satisfied)
        return int(self.ks[bad[0]]) if bad.size else None

    @property
    def min_slack(self) -> float:
        return float(np.min(self.bound - self.measured, initial=math.inf))

    @property
    def all_satisfied(self) -> bool:
        return bool(self.satisfied.all())


def env_quad_linear(mu: float, ell: float, k, lambda0: float):
    """Plain linear-rate envelope (1 - mu/ell)^k * lambda0.

    ``k`` may be an array of iteration indices.
    """
    _check_constants(mu, ell)
    if np.any(np.asarray(k) < 0):
        raise ValueError("k must be nonnegative")
    return (1.0 - mu / ell) ** k * lambda0


def _check_constants(mu: float, ell: float) -> None:
    if not (0.0 < mu <= ell):
        raise ValueError(f"need 0 < mu <= ell, got ({mu}, {ell})")


def _quad_sup_logs(n: int, mu: float, ell: float, taus, kk: int,
                   lambda0: float, psi_variant: bool,
                   log_factor: float | None) -> np.ndarray:
    """ln of the quadratic superlinear envelope at k = 1 .. kk."""
    _check_constants(mu, ell)
    kappa_log = math.log(ell / mu)
    factor = n * kappa_log if log_factor is None else float(log_factor)
    if factor < 0.0:
        raise ValueError(f"log factor must be nonnegative, got {factor}")
    scale = _PSI_EXPONENT if psi_variant else 1.0
    return _sup_log(
        np.arange(1, kk + 1), math.log(2.0),
        np.cumsum(_ln_p(_tau_array(taus, kk), mu / ell)),
        scale * factor, 0.5 * kappa_log, lambda0,
    )


def env_quad_superlinear(n: int, mu: float, ell: float, taus, k: int,
                         lambda0: float, psi_variant: bool = False,
                         log_factor: float | None = None) -> float:
    """Superlinear envelope from the log-det barrier analysis.

    ``[2 / prod_i(tau_i mu/ell + 1 - tau_i)^{1/k} * (e^{n/k ln(ell/mu)} - 1)]^{k/2}
    * sqrt(ell/mu) * lambda0``.  ``psi_variant`` gives the envelope from the
    augmented-barrier analysis instead: the exponent scaled by 13/6, so
    always at least as large.  ``log_factor`` substitutes a sharper value
    for n*ln(ell/mu) in the exponent (see
    :func:`env_quad_sharpened_factor`).
    """
    return float(_exp_clamped(env_quad_superlinear_log(
        n, mu, ell, taus, k, lambda0, psi_variant, log_factor)))


def env_quad_superlinear_log(n: int, mu: float, ell: float, taus, k: int,
                             lambda0: float, psi_variant: bool = False,
                             log_factor: float | None = None) -> float:
    """Natural log of the superlinear envelope (-inf for a zero bound)."""
    if k < 1:
        raise ValueError("superlinear envelopes start at k = 1")
    return float(_quad_sup_logs(n, mu, ell, taus, k, lambda0, psi_variant,
                                log_factor)[-1])


def env_quad_sharpened_factor(p: QuadraticProblem) -> float:
    """Sharper substitute sum_i ln(ell / lambda_i) for n * ln(ell/mu).

    The lambda_i are the eigenvalues of the quadratic operator relative to
    the reference operator, as the instance keeps them; the sum can be much
    smaller than n*ln(ell/mu) when most of the spectrum sits far above mu.
    """
    return float(np.sum(np.log(p.ell / p.spectrum)))


def k0(n: int, mu: float, ell: float, sup_tau: float) -> int:
    """Iteration index from which the superlinear envelope turns informative.

    ``ceil(8 n ln(2 ell/mu) / (tau 4mu/(9 ell) + 1 - tau))`` with tau the
    schedule supremum; the endpoints reduce to the closed forms
    ``ceil(8 n ln(2 ell/mu))`` (BFGS) and ``ceil(18 n ell/mu ln(2 ell/mu))``
    (DFP), which are evaluated directly so they match exactly.
    """
    _check_constants(mu, ell)
    if not (0.0 <= sup_tau <= 1.0):
        raise ValueError(f"sup_tau must lie in [0, 1], got {sup_tau}")
    log_term = math.log(2.0 * ell / mu)
    if sup_tau == 0.0:
        val = 8.0 * n * log_term
    elif sup_tau == 1.0:
        val = 18.0 * n * ell / mu * log_term
    else:
        val = 8.0 * n * log_term / (sup_tau * 4.0 * mu / (9.0 * ell)
                                    + 1.0 - sup_tau)
    return max(1, math.ceil(val))


def region_radius(mu: float, ell: float, n: int, sup_tau: float,
                  big_m: float) -> float:
    """Largest admissible initial residual for local convergence.

    Returns ``REGION_CONST * max(mu/(2 ell), 1/(K0 + 9)) / M``; a zero
    self-concordance constant means global convergence, reported as +inf.
    """
    _check_constants(mu, ell)
    if big_m < 0.0:
        raise ValueError("self-concordance constant must be nonnegative")
    if big_m == 0.0:
        return math.inf
    return REGION_CONST * max(mu / (2.0 * ell),
                              1.0 / (k0(n, mu, ell, sup_tau) + 9)) / big_m


def envelope_constants(problem: ProblemInstance,
                       overrides: dict | None = None):
    """(n, mu, ell, M) for the envelopes of an instance, M = 0 for quadratics.

    ``overrides`` substitutes any of mu, ell and M (``sc_const``) inside
    the envelope formulas only, for fault injection: a deliberately wrong
    constant must surface as a violation.  Each must be a positive number,
    and the constants must keep 0 < mu <= ell.
    """
    consts = {"mu": problem.mu, "ell": problem.ell, "sc_const": problem.sc_const}
    if overrides is not None:
        if not isinstance(overrides, dict) or not set(overrides) <= set(consts):
            raise ValueError("envelope_overrides allows only mu/ell/sc_const")
        for key, val in overrides.items():
            consts[key] = check_number(val, f"envelope override {key}")
            if not consts[key] > 0.0:
                raise ValueError(f"envelope override {key} must be positive")
    mu, ell = consts["mu"], consts["ell"]
    if not mu <= ell:
        raise ValueError(f"envelope_overrides give mu = {mu} above ell = "
                         f"{ell}; the envelopes need 0 < mu <= ell")
    return problem.n, mu, ell, consts["sc_const"]


def report_quad_linear(trace: IterationTrace,
                       overrides: dict | None = None) -> EnvelopeReport:
    """Linear-rate envelope along a quadratic-scheme trace.

    ``overrides`` substitutes envelope constants, as in
    :func:`envelope_constants`.
    """
    _, mu, ell, _ = envelope_constants(trace.problem, overrides)
    ks = np.arange(len(trace))
    return EnvelopeReport(
        name="quad_linear", ks=ks, measured=trace.lambdas,
        bound=env_quad_linear(mu, ell, ks, trace.lambda0),
    )


def report_quad_superlinear(trace: IterationTrace, psi_variant: bool = False,
                            sharpened: bool = False,
                            overrides: dict | None = None) -> EnvelopeReport:
    """Superlinear envelope along a quadratic-scheme trace (from k = 1)."""
    n, mu, ell, _ = envelope_constants(trace.problem, overrides)
    log_factor = None
    if sharpened:
        log_factor = env_quad_sharpened_factor(trace.problem)
    ln_bound = _quad_sup_logs(n, mu, ell, trace.schedule, len(trace) - 1,
                              trace.lambda0, psi_variant, log_factor)
    name = "quad_superlinear_psi" if psi_variant else "quad_superlinear"
    if sharpened:
        name += "_sharpened"
    return EnvelopeReport(
        name=name, ks=np.arange(1, len(trace)), measured=trace.lambdas[1:],
        bound=_exp_clamped(ln_bound),
    )


def env_general_linear(trace: IterationTrace, overrides: dict | None = None
                       ) -> tuple[EnvelopeReport, EnvelopeReport]:
    """Both linear envelopes for the general scheme.

    The first uses the measured distortion sequence
    (sqrt(xi_k) * lambda0 * prod q_i with
    q_i = max(1 - mu/(xi_{i+1} ell), xi_{i+1} - 1)); the second is the
    fixed-rate (1 - mu/(2 ell))^k * sqrt(3/2) * lambda0 form, asserted only
    when the starting residual was inside the local-convergence region.
    ``overrides`` substitutes envelope constants as in
    :func:`envelope_constants`.
    """
    consts = envelope_constants(trace.problem, overrides)
    _, mu, ell, _ = consts
    lam0 = trace.lambda0
    xis = trace.xis
    ks = np.arange(len(trace))

    # q_i needs the one-step-ahead distortion, available for every completed
    # step.  The product is a prefix sum in log space: the factors can be
    # huge when the trajectory leaves the local region, and xi * ell may
    # overflow to +inf on the way, as intended: q is then xi - 1.
    with np.errstate(over="ignore"):
        q = np.maximum(1.0 - mu / (xis[1:] * ell), xis[1:] - 1.0)
    ln_prod = np.concatenate(([0.0], np.cumsum(_ln_pos(q))))
    if lam0 > 0.0:
        bound_xi = _exp_clamped(0.5 * np.log(xis) + math.log(lam0) + ln_prod)
    else:
        bound_xi = np.zeros(len(xis))
    bound_fixed = math.sqrt(1.5) * lam0 * (1.0 - mu / (2.0 * ell)) ** ks
    return _general_pair(trace, consts, "linear", ks, bound_xi, bound_fixed)


def env_general_superlinear(trace: IterationTrace,
                            overrides: dict | None = None
                            ) -> tuple[EnvelopeReport, EnvelopeReport]:
    """Both superlinear envelopes for the general scheme (from k = 1).

    The first tracks the measured distortion sequence.  Its exponent at k
    reads the one-step-ahead distortion xi_{k+1}, which does not exist at
    the end of the trace, so its final entry reuses the last distortion and
    is provisional.  The second is the uniform in-region form, asserted only
    when the starting residual was inside the local-convergence region.
    ``overrides`` substitutes envelope constants as in
    :func:`envelope_constants`.
    """
    consts = envelope_constants(trace.problem, overrides)
    n, mu, ell, _ = consts
    lam0 = trace.lambda0
    kk = len(trace)
    kappa_log = math.log(ell / mu)
    ks = np.arange(1, kk)
    taus = _tau_array(trace.schedule, kk - 1)  # tau_{k-1}
    xi = trace.xis[1:]  # xi_k, the xi_{i+1} of the last factor p_{k-1}
    xi_ahead = np.append(trace.xis[2:], trace.xis[-1])[:kk - 1]

    # Saturated distortion drives the DFP weight to zero (xi^2 may overflow
    # to +inf on the way, as intended); the bound then degenerates to +inf,
    # which the log-space clamp handles.
    with np.errstate(over="ignore"):
        weight = mu / (xi ** 2 * ell)
    ln_xi = _sup_log(
        ks, np.log1p(xi), np.cumsum(_ln_p(taus, weight)),
        _PSI_EXPONENT * n * (xi_ahead * np.log(xi_ahead) + kappa_log),
        0.5 * (np.log(xi) + kappa_log), lam0,
    )
    ln_fixed = _sup_log(
        ks, math.log(2.5), np.cumsum(_ln_p(taus, 4.0 * mu / (9.0 * ell))),
        _PSI_EXPONENT * n * math.log(2.0 * ell / mu),
        0.5 * math.log(1.5 * ell / mu), lam0,
    )
    return _general_pair(trace, consts, "superlinear", ks,
                         _exp_clamped(ln_xi), _exp_clamped(ln_fixed))


def _general_pair(trace: IterationTrace, consts, kind: str, ks, bound_xi,
                  bound_fixed) -> tuple[EnvelopeReport, EnvelopeReport]:
    """The distortion-tracking and the uniform report of one envelope kind.

    The uniform report is asserted only when the starting residual was
    inside the local-convergence region.
    """
    n, mu, ell, big_m = consts
    common = dict(ks=ks, measured=trace.lambdas[ks])
    in_region = trace.lambda0 <= region_radius(
        mu, ell, n, trace.schedule.sup_tau, big_m)
    return (
        EnvelopeReport(name=f"general_{kind}_xi", bound=bound_xi, **common),
        EnvelopeReport(name=f"general_{kind}", bound=bound_fixed,
                       asserted=in_region, **common),
    )


@dataclass(frozen=True)
class Section6Envelopes:
    """Old-versus-new envelope comparison at one iteration index."""

    prev: float
    new: float
    start_prev: float
    start_new: float


def env_section6(n: int, mu: float, ell: float, k: int, lambda0: float,
                 method: str) -> Section6Envelopes:
    """Previously known envelope, the simplified new one, and their starting
    moments, for the two extreme methods.

    The simplified new bound is only valid from its starting moment onward
    and is reported as NaN before that.  The ratio of old to new starting
    moments is reported by the caller, not asserted, since the two formulas
    follow different ceiling conventions.
    """
    _check_constants(mu, ell)
    if k < 1:
        raise ValueError("k must be at least 1")
    method = method.lower()
    kappa = ell / mu
    kappa_log = math.log(kappa)
    if method == "bfgs":
        start_prev = n * kappa
        start_new = 4.0 * n * kappa_log
    elif method == "dfp":
        start_prev = n * kappa ** 2
        start_new = 4.0 * n * kappa * kappa_log
    else:
        raise ValueError(f"method must be 'bfgs' or 'dfp', got {method!r}")
    # Each envelope is (start / k)^{k/2} * lambda0 for its starting moment.
    new_base = start_new / k
    if lambda0 <= 0.0:
        prev = new = 0.0
    else:
        prev = float(_exp_clamped(0.5 * k * math.log(start_prev / k)
                                  + math.log(lambda0)))
        if k >= start_new and new_base > 0.0:
            new = float(_exp_clamped(0.5 * k * math.log(new_base)
                                      + math.log(lambda0)))
        else:
            new = math.nan
    return Section6Envelopes(prev=prev, new=new,
                             start_prev=start_prev, start_new=start_new)


def first_superlinear_crossover(n: int, mu: float, ell: float, sup_tau: float,
                                k_max: int = 1 << 40) -> int | None:
    """Smallest k at which the superlinear envelope undercuts the linear one.

    Compared in log space for a constant-tau schedule with unit initial
    residual.  Returns None if no crossover is found below ``k_max``.
    """
    _check_constants(mu, ell)
    if mu == ell:
        return 1
    ln_p = float(_ln_p(sup_tau, mu / ell))
    log_rate = math.log(1.0 - mu / ell)
    kappa_log = math.log(ell / mu)

    def gap(k: int) -> float:
        ln_sup = _sup_log(k, math.log(2.0), k * ln_p, n * kappa_log,
                          0.5 * kappa_log, 1.0)
        return float(ln_sup) - k * log_rate

    hi = 1
    while gap(hi) >= 0.0:
        hi *= 2
        if hi > k_max:
            return None
    lo = hi // 2  # gap(lo) >= 0 (or lo == 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gap(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _single(build, **kwargs):
    """A one-report builder in the table's (trace, overrides) form."""
    return lambda trace, overrides: [build(trace, overrides=overrides, **kwargs)]


# Every envelope by name: (builder of its reports from a trace and optional
# constant overrides, whether it needs a quadratic instance).  The general
# kinds each give a distortion-tracking and a uniform report.
_ENVELOPES = {
    "quad_linear": (_single(report_quad_linear), True),
    "quad_superlinear": (_single(report_quad_superlinear), True),
    "quad_superlinear_psi": (_single(report_quad_superlinear,
                                     psi_variant=True), True),
    "general_linear": (env_general_linear, False),
    "general_superlinear": (env_general_superlinear, False),
}
ENVELOPE_NAMES = tuple(_ENVELOPES)
# The default sets: the quadratic-only envelopes for a quadratic on its
# fixed-target path, the general ones for every other run.
QUADRATIC_ENVELOPES = tuple(k for k, (_, quad) in _ENVELOPES.items() if quad)
GENERAL_ENVELOPES = tuple(k for k, (_, quad) in _ENVELOPES.items() if not quad)


def trace_reports(trace: IterationTrace, names,
                  overrides: dict | None = None) -> list[EnvelopeReport]:
    """Build the named envelope reports for a trace, in the order named.

    Names come from :data:`ENVELOPE_NAMES`; a ``general_*`` name yields two
    reports (distortion-tracking, then uniform).  ``overrides`` replaces the
    certified constants inside every envelope formula, quadratic and
    general; the measured trace is untouched.
    """
    out: list[EnvelopeReport] = []
    for name in names:
        if name not in _ENVELOPES:
            raise ValueError(f"unknown envelope name: {name!r}")
        out.extend(_ENVELOPES[name][0](trace, overrides))
    return out
