"""Convex Broyden-class quasi-Newton methods with a verification harness.

The package provides the update family itself (DFP, BFGS and every convex
blend), the log-determinant potentials and progress inequalities that govern
it, quadratic and regularized log-sum-exp problem instances with certified
constants, instrumented solvers for both, and every convergence-rate
envelope as an explicit function that can be checked against measured
trajectories.
"""

from .broyden import (
    UpdateResult,
    broyd,
    broyd_det_ratio,
    broyd_inverse,
    nu,
    phi_tau,
)
from .bounds import (
    EnvelopeReport,
    Section6Envelopes,
    env_general_linear,
    env_general_superlinear,
    env_quad_linear,
    env_quad_sharpened_factor,
    env_quad_superlinear,
    env_quad_superlinear_psi,
    env_section6,
    first_superlinear_crossover,
    k0,
    region_condition_holds,
    region_radius,
    report_quad_linear,
    report_quad_superlinear,
    trace_reports,
)
from .operators import (
    DimensionMismatch,
    DualVector,
    EigenRange,
    NotSpdError,
    PrimalVector,
    Role,
    SpdOperator,
    ZeroDirectionError,
    loewner_leq,
    loewner_slack,
    norm_dual,
    norm_primal,
    pair,
    rel_det,
    rel_eigen_range,
    rel_eigvals,
    rel_trace,
    spd_solve,
)
from .potentials import (
    augmented_barrier,
    logdet_barrier,
    metric_change_lb,
    progress_lb_psi,
    progress_lb_v,
    scalar_gap,
    spectral_barriers,
)
from .problems import (
    IntegralHessian,
    LogSumExpProblem,
    ProblemInstance,
    QuadraticProblem,
    SandwichReport,
    instance_from_dict,
    instance_hash,
    instance_to_dict,
    integral_hessian,
    lse_make,
    lse_value_grad_hess,
    quad_make,
    sandwich_check,
)
from .solver import (
    DivergenceError,
    IterationTrace,
    QuadratureError,
    SolverConfig,
    TauSchedule,
    run_general,
    run_quadratic,
    secant_residual,
)

__version__ = "0.1.0"
