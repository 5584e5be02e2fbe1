"""Command-line runner: experiment suites, verification, and sweeps.

Three subcommands:

``run <config.json>``
    Execute one experiment or a suite (a JSON array), writing per experiment
    a trace CSV, an envelope CSV and a summary JSON.  Exit 0 only if every
    asserted envelope holds at every iteration and no run diverged.

``verify``
    Run the randomized identity/inequality suites and print the most adverse
    slack per check.

``sweep <grid.json>``
    Run a quadratic grid over (n, condition number, method) and write one
    summary CSV row per cell comparing measured iteration counts with the
    predicted superlinear starting moments.

Exit codes: 0 success, 1 bound violation or divergence, 2 malformed input.
The environment variable ``BROYDEN_LAB_SEED`` overrides every experiment
seed.  Validation completes before any file is written.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .bounds import (
    ENVELOPE_NAMES,
    EnvelopeReport,
    env_section6,
    first_superlinear_crossover,
    k0,
    region_radius,
    trace_reports,
)
from .operators import PrimalVector, norm_dual, norm_primal
from .problems import (
    Kind,
    ProblemInstance,
    instance_from_dict,
    instance_hash,
    quad_make,
)
from .solver import (
    DivergenceError,
    QuadratureError,
    SolverConfig,
    TauSchedule,
    run_general,
    run_quadratic,
)

SEED_ENV_VAR = "BROYDEN_LAB_SEED"

_QUAD_ONLY = {"quad_linear", "quad_superlinear", "quad_superlinear_psi"}


class ConfigError(ValueError):
    """Malformed configuration input."""


def _fmt(x) -> str:
    return repr(float(x))


def _load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _normalize_experiment(raw: dict, idx: int, out_override: str | None) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"experiment #{idx} must be a JSON object")
    exp = dict(raw)
    exp.setdefault("name", f"exp{idx:03d}")
    name = exp["name"]
    # The name becomes a directory under the output root: one plain path
    # component, so no experiment can write outside it.
    if (not isinstance(name, str) or name in ("", ".", "..")
            or Path(name).name != name or "\\" in name or "\0" in name):
        raise ConfigError(
            f"experiment #{idx}: name must be a single plain path component, "
            f"got {name!r}"
        )
    exp.setdefault("seed", 0)
    exp.setdefault("scheme", "auto")
    exp.setdefault("solver", {})
    if exp["scheme"] not in ("auto", "general"):
        raise ConfigError(f"{exp['name']}: scheme must be 'auto' or 'general'")
    env_seed = _env_seed()
    if env_seed is not None:
        exp["seed"] = env_seed
    _bounded(exp["seed"], f"{exp['name']}: seed", 0, integer=True)
    if "instance" not in exp or "method" not in exp or "x0" not in exp:
        raise ConfigError(
            f"{exp['name']}: needs 'instance', 'method' and 'x0' entries"
        )
    try:
        problem = instance_from_dict(exp["instance"])
        TauSchedule.from_dict(exp["method"])
        config = SolverConfig(**exp["solver"])
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"{exp['name']}: {exc}") from exc

    x0 = exp["x0"]
    if isinstance(x0, dict) and "coords" in x0:
        coords = _numeric(exp, "x0 coords",
                          lambda: np.asarray(x0["coords"], dtype=float))
        if coords.shape != (problem.n,):
            raise ConfigError(
                f"{exp['name']}: x0 has {coords.size} coords, expected {problem.n}"
            )
    elif isinstance(x0, dict) and "random_ball" in x0:
        if not _numeric(exp, "random_ball", lambda: float(x0["random_ball"])) > 0.0:
            raise ConfigError(f"{exp['name']}: random_ball radius must be positive")
    else:
        raise ConfigError(
            f"{exp['name']}: x0 must carry 'coords' or 'random_ball'"
        )

    default_env = (["quad_linear", "quad_superlinear", "quad_superlinear_psi"]
                   if problem.kind is Kind.QUADRATIC and exp["scheme"] == "auto"
                   else ["general_linear", "general_superlinear"])
    exp.setdefault("envelopes", default_env)
    if not isinstance(exp["envelopes"], list):
        raise ConfigError(f"{exp['name']}: envelopes must be a list of names")
    if exp["envelopes"] and not config.instrument:
        # Without instrumentation the residual lambda_k is never measured,
        # so no envelope can be checked against it.
        raise ConfigError(
            f"{exp['name']}: envelopes need an instrumented run; with "
            "\"instrument\": false set \"envelopes\": []"
        )
    for env in exp["envelopes"]:
        if env not in ENVELOPE_NAMES:
            raise ConfigError(f"{exp['name']}: unknown envelope {env!r}")
        if env in _QUAD_ONLY and problem.kind is not Kind.QUADRATIC:
            raise ConfigError(
                f"{exp['name']}: envelope {env!r} needs a quadratic instance"
            )
    overrides = exp.get("envelope_overrides")
    if overrides is not None:
        if not isinstance(overrides, dict) or not set(overrides) <= {
            "mu", "ell", "sc_const"
        }:
            raise ConfigError(
                f"{exp['name']}: envelope_overrides allows only "
                "mu/ell/sc_const"
            )
        for key, val in overrides.items():
            if not _numeric(exp, f"envelope override {key}",
                            lambda: float(val)) > 0.0:
                raise ConfigError(
                    f"{exp['name']}: envelope override {key} must be positive"
                )
        mu = float(overrides.get("mu", problem.mu))
        ell = float(overrides.get("ell", problem.ell))
        if not mu <= ell:
            raise ConfigError(
                f"{exp['name']}: envelope_overrides give mu = {mu} above "
                f"ell = {ell}; the envelopes need 0 < mu <= ell"
            )
    exp["output_dir"] = out_override or exp.get("output_dir", "out")
    return exp


def _bounded(value, what: str, minimum: float, integer: bool = False) -> None:
    """Reject anything but a finite JSON number (an integer if asked) of at
    least ``minimum``."""
    ok = (isinstance(value, int if integer else (int, float))
          and not isinstance(value, bool))
    try:
        ok = ok and math.isfinite(float(value)) and value >= minimum
    except OverflowError:
        ok = False
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{what} must be {kind} >= {minimum}, got {value!r}")


def _numeric(exp: dict, what: str, parse):
    """Run a numeric conversion, turning a malformed value into a ConfigError."""
    try:
        return parse()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{exp['name']}: {what} must be numeric ({exc})") from exc


def _make_x0(spec, n: int, seed: int, problem: ProblemInstance) -> PrimalVector:
    if "coords" in spec:
        return PrimalVector(np.asarray(spec["coords"], dtype=float))
    radius = float(spec["random_ball"])
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n)
    scale = norm_primal(problem.b_ref, PrimalVector(d))
    return PrimalVector(d * (radius * rng.uniform() ** (1.0 / n) / scale))


def _report_rows(reports: list[EnvelopeReport], measured):
    n_rows = len(measured)
    header = ["k", "measured"]
    per_k = {}
    for rep in reports:
        header += [f"bound_{rep.name}", f"ok_{rep.name}"]
        for j, k in enumerate(rep.ks):
            per_k.setdefault(int(k), {})[rep.name] = (
                rep.bound[j], bool(rep.satisfied[j])
            )
    rows = []
    for k in range(n_rows):
        cells = [str(k), _fmt(measured[k])]
        for rep in reports:
            if k in per_k and rep.name in per_k[k]:
                bound, ok = per_k[k][rep.name]
                cells += [_fmt(bound), "1" if ok else "0"]
            else:
                cells += ["", ""]
        rows.append(",".join(cells))
    return ",".join(header), rows


def _execute_experiment(exp: dict) -> dict:
    """Run one normalized experiment and write its three output files."""
    problem = instance_from_dict(exp["instance"])
    schedule = TauSchedule.from_dict(exp["method"])
    config = SolverConfig(**exp["solver"])
    x0 = _make_x0(exp["x0"], problem.n, exp["seed"], problem)

    out_dir = Path(exp["output_dir"]) / exp["name"]
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    error = None
    trace = None
    try:
        if problem.kind is Kind.QUADRATIC and exp["scheme"] == "auto":
            trace = run_quadratic(problem, x0, schedule, config)
        else:
            trace = run_general(problem, x0, schedule, config)
    except (DivergenceError, QuadratureError) as exc:
        error = {"kind": type(exc).__name__, "k": exc.k, "message": str(exc)}
    wall = time.perf_counter() - started

    summary = {
        "name": exp["name"],
        "seed": exp["seed"],
        "instance_hash": instance_hash(problem),
        "wall_time_s": wall,
    }
    if error is not None:
        summary.update({
            "pass": False, "error": error, "iterations": None,
            "first_violation": None, "min_slack": None,
            "K0": None, "region_radius": None, "converged": False,
        })
        reports = []
    else:
        reports = trace_reports(trace, exp["envelopes"],
                                overrides=exp.get("envelope_overrides"))
        asserted = [r for r in reports if r.asserted]
        violations = {r.name: r.first_violation for r in asserted
                      if r.first_violation is not None}
        min_slack = min((r.min_slack for r in asserted), default=math.inf)
        k0_val = k0(problem.n, problem.mu, problem.ell, schedule.sup_tau)
        radius = region_radius(problem.mu, problem.ell, problem.n,
                               schedule.sup_tau, problem.sc_const)
        summary.update({
            "pass": not violations,
            "iterations": trace.k_final,
            "converged": trace.converged,
            "first_violation": violations or None,
            "min_slack": None if math.isinf(min_slack) else min_slack,
            "K0": k0_val,
            "region_radius": None if math.isinf(radius) else radius,
            "not_asserted": [r.name for r in reports if not r.asserted] or None,
            # Diagnostic only: strict residual decrease is an empirical
            # regularity, not a guarantee.
            "lambda_increases": trace.lambda_increase_indices or None,
        })
        trace.to_csv(out_dir / "trace.csv")
        header, rows = _report_rows(reports, trace.lambdas)
        with open(out_dir / "envelopes.csv", "w", newline="\n") as f:
            f.write(header + "\n")
            f.write("\n".join(rows) + "\n")
    with open(out_dir / "summary.json", "w", newline="\n") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    return summary


def cmd_run(config_path: str, jobs: int = 1, out: str | None = None) -> int:
    try:
        raw = _load_json(config_path)
        raw_list = raw if isinstance(raw, list) else [raw]
        if not raw_list:
            raise ConfigError("config contains no experiments")
        experiments = [
            _normalize_experiment(r, i, out) for i, r in enumerate(raw_list)
        ]
        seen = set()
        for exp in experiments:
            if exp["name"] in seen:
                raise ConfigError(
                    f"duplicate experiment name {exp['name']!r}: each "
                    "experiment writes to its own directory"
                )
            seen.add(exp["name"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if jobs > 1 and len(experiments) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            summaries = list(pool.map(_execute_experiment, experiments))
    else:
        summaries = [_execute_experiment(e) for e in experiments]

    ok = True
    for s in summaries:
        if s["pass"]:
            print(f"{s['name']}: PASS  iterations={s['iterations']} "
                  f"wall={s['wall_time_s']:.3f}s")
        else:
            ok = False
            detail = s.get("error") or s.get("first_violation")
            print(f"{s['name']}: FAIL  {detail}")
    return 0 if ok else 1


def cmd_verify(n_max: int = 8, trials: int = 1000, seed: int = 0) -> int:
    if n_max < 1:
        print("verify error: --n-max must be at least 1", file=sys.stderr)
        return 2
    if trials < 1:
        print("verify error: --trials must be at least 1", file=sys.stderr)
        return 2
    results = verify_mod.run_all(n_max=n_max, trials=trials, seed=seed)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


def _normalize_grid(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("grid spec must be a JSON object")
    grid = dict(raw)
    for key in ("n", "L_over_mu", "method"):
        vals = grid.get(key)
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"grid needs a nonempty list {key!r}")
    for m in grid["method"]:
        if m not in ("bfgs", "dfp"):
            raise ConfigError(f"grid method must be 'bfgs' or 'dfp', got {m!r}")
    grid.setdefault("seed", 0)
    grid.setdefault("max_iter", 20000)
    grid.setdefault("target", 1e-10)
    grid.setdefault("output_dir", "sweep_out")
    env_seed = _env_seed()
    if env_seed is not None:
        grid["seed"] = env_seed
    for n in grid["n"]:
        _bounded(n, "grid n", 2, integer=True)
    for kappa in grid["L_over_mu"]:
        _bounded(kappa, "grid L_over_mu", 1)
    _bounded(grid["seed"], "grid seed", 0, integer=True)
    _bounded(grid["max_iter"], "grid max_iter", 1, integer=True)
    _bounded(grid["target"], "grid target", 0)
    if not isinstance(grid["output_dir"], str):
        raise ConfigError("grid output_dir must be a string")
    return grid


def _sweep_cell(n: int, kappa: float, method: str, seed: int,
                max_iter: int, target: float) -> dict:
    quad = quad_make(np.geomspace(1.0, kappa, n), seed=seed)
    rng = np.random.default_rng(seed + 1)
    x0 = PrimalVector(rng.standard_normal(n))
    schedule = TauSchedule.bfgs() if method == "bfgs" else TauSchedule.dfp()

    lam0 = norm_dual(quad.a_op, quad.grad(x0))
    config = SolverConfig(max_iter=max_iter, grad_tol=target * lam0)
    trace = run_quadratic(quad, x0, schedule, config)

    reports = trace_reports(
        trace, ["quad_linear", "quad_superlinear", "quad_superlinear_psi"]
    )
    envelopes_ok = all(r.all_satisfied for r in reports)
    moments = env_section6(n, quad.mu, quad.ell, 1, 1.0, method)
    cross = first_superlinear_crossover(
        n, quad.mu, quad.ell, schedule.sup_tau
    )
    return {
        "n": n,
        "L_over_mu": kappa,
        "method": method,
        "iters_to_target": trace.k_final if trace.converged else None,
        "converged": trace.converged,
        "K0_new": moments.start_new,
        "K0_prev": moments.start_prev,
        "first_k_superlinear_env_below_linear_env": cross,
        "envelopes_ok": envelopes_ok,
    }


def cmd_sweep(grid_path: str, out: str | None = None) -> int:
    try:
        grid = _normalize_grid(_load_json(grid_path))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(out or grid["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    ok = True
    for n in grid["n"]:
        for kappa in grid["L_over_mu"]:
            for method in grid["method"]:
                cell = _sweep_cell(n, float(kappa), method, grid["seed"],
                                   grid["max_iter"], float(grid["target"]))
                rows.append(cell)
                if not (cell["envelopes_ok"] and cell["converged"]):
                    ok = False
                print(f"n={cell['n']} L/mu={cell['L_over_mu']} "
                      f"{cell['method']}: iters={cell['iters_to_target']} "
                      f"K0_new={cell['K0_new']:.1f} K0_prev={cell['K0_prev']:.1f} "
                      f"{'ok' if cell['envelopes_ok'] else 'VIOLATION'}")

    header = ("n,L_over_mu,method,iters_to_1e-10,K0_new,K0_prev,"
              "first_k_superlinear_env_below_linear_env,envelopes_ok")
    with open(out_dir / "sweep.csv", "w", newline="\n") as f:
        f.write(header + "\n")
        for c in rows:
            f.write(",".join([
                str(c["n"]), _fmt(c["L_over_mu"]), c["method"],
                "" if c["iters_to_target"] is None else str(c["iters_to_target"]),
                _fmt(c["K0_new"]), _fmt(c["K0_prev"]),
                "" if c["first_k_superlinear_env_below_linear_env"] is None
                else str(c["first_k_superlinear_env_below_linear_env"]),
                "1" if c["envelopes_ok"] else "0",
            ]) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="broyden-lab",
        description="Convex Broyden-class quasi-Newton runs with "
                    "convergence-envelope verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="experiment JSON (object or array)")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="max parallel experiments")
    p_run.add_argument("--out", default=None,
                       help="override the output directory")

    p_verify = sub.add_parser("verify", help="run the randomized check suites")
    p_verify.add_argument("--n-max", type=int, default=8)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser("sweep", help="run a quadratic comparison grid")
    p_sweep.add_argument("grid", help="grid JSON spec")
    p_sweep.add_argument("--out", default=None,
                         help="override the output directory")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, jobs=args.jobs, out=args.out)
    if args.command == "verify":
        return cmd_verify(n_max=args.n_max, trials=args.trials, seed=args.seed)
    return cmd_sweep(args.grid, out=args.out)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
