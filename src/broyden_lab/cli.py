"""Command-line runner: experiment suites, verification, and sweeps.

Three subcommands:

``run <config.json>``
    Execute one experiment or a suite (a JSON array), writing per experiment
    a trace CSV, an envelope CSV and a summary JSON.  Exit 0 only if every
    asserted envelope holds at every iteration and no run diverged.

``verify``
    Run the randomized identity/inequality suites and print the most adverse
    slack per check, each followed by a ``replay:`` line whose command
    (``verify --suite NAME --trial T``) re-evaluates the witness of that
    value through the suite's own code and prints, per tau, whether the
    value counts (``ok``), every intermediate value and the value.
    The suites run on forked worker processes, one per usable CPU, and
    print in suite order, so the output is byte for byte that of a serial
    run; with one usable CPU (``taskset -c 0``) they run one after another
    in this process.

``sweep <grid.json>``
    Run a quadratic grid over (n, condition number, method) and write one
    summary CSV row per cell comparing measured iteration counts with the
    predicted superlinear starting moments.  A cell that diverges keeps its
    row, with an empty count, and names its witness on stderr.

Exit codes: 0 success, 1 bound violation or divergence, 2 malformed input,
an output directory that is a file, or an output file that is a directory,
included.  Validation completes before any file is written.

``run`` and ``sweep`` share one path.  A config experiment or a grid cell
is checked and built once, into an :class:`_Experiment` holding the
instance, schedule, solver settings and starting point; :func:`_solve` runs
any of them.  Every experiment of a suite and every cell of a grid is built
before the first write.  A run whose rows are measured one at a time (an
instrumented run on the general path, or of a quadratic from n = 74 on) is
split W ways, W the usable CPUs divided among the experiments that ``--jobs``
runs at once: W forked children each replay the trajectory and measure every
W-th row (:func:`_split_run`), and the merged trace is the one-process trace
bit for bit.  With one usable CPU (``taskset -c 0``) it runs in this process.

Writing a run's output takes bounded memory, whatever the instance's size
or the trace's length: ``summary.json``'s ``instance_hash`` digests the
instance a matrix row at a time
(:func:`~broyden_lab.problems.instance_hash`), and ``envelopes.csv``, like
``trace.csv``, is written one block of rows at a time by
:func:`~broyden_lab.solver.write_columns`.

Every number read from a config, a grid or the command line passes one
rule, :func:`~broyden_lab.operators.check_number`: JSON numbers only, with
booleans, strings and null rejected; finite; and for an integer field (a
count or a seed) no ``1.0``.  Arrays pass
:func:`~broyden_lab.operators.check_array`: rectangular and all-numeric.
An experiment, method, instance, ``x0``, ``solver`` or grid key that its
form does not read is refused by :func:`~broyden_lab.operators.check_keys`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .bounds import (
    ENVELOPE_NAMES,
    GENERAL_ENVELOPES,
    QUADRATIC_ENVELOPES,
    EnvelopeReport,
    env_section6,
    envelope_constants,
    first_superlinear_crossover,
    k0,
    region_radius,
    trace_reports,
)
from .operators import (
    PrimalVector,
    check_array,
    check_keys,
    check_number,
    norm_dual,
    norm_primal,
)
from .problems import (
    ProblemInstance,
    QuadraticProblem,
    instance_from_dict,
    instance_hash,
    quad_make,
)
from .solver import (
    IterationError,
    SolverConfig,
    TauSchedule,
    _merge,
    _rows_alone,
    _share_outcome,
    run_general,
    run_quadratic,
    write_columns,
    write_csv,
)

class ConfigError(ValueError):
    """Malformed configuration input."""


def _load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


@dataclass(frozen=True)
class _Experiment:
    """A checked experiment or sweep cell, with everything its run reads
    built once; the objects pickle, so ``run --jobs`` sends them as they
    are."""

    name: str
    seed: int
    problem: ProblemInstance
    schedule: TauSchedule
    config: SolverConfig
    x0: PrimalVector
    envelopes: tuple
    overrides: dict | None
    general: bool  # the segment-mean-Hessian path rather than run_quadratic
    output_dir: Path


_EXPERIMENT_KEYS = ("name", "seed", "scheme", "instance", "method", "x0",
                    "solver", "envelopes", "envelope_overrides", "output_dir")


def _check_experiment(raw, idx: int, out: str | None) -> _Experiment:
    """Check experiment #idx of a config and build what its run reads."""
    if not isinstance(raw, dict):
        raise ConfigError(f"experiment #{idx} must be a JSON object")
    exp = {"name": f"exp{idx:03d}", "seed": 0, "scheme": "auto",
           "solver": {}, **raw}
    name = exp["name"]
    # The name becomes a directory under the output root: one plain path
    # component, so no experiment can write outside it.
    if (not isinstance(name, str) or name in ("", ".", "..")
            or Path(name).name != name or "\\" in name or "\0" in name):
        raise ConfigError(
            f"experiment #{idx}: name must be a single plain path component, "
            f"got {name!r}"
        )
    try:
        check_keys(exp, _EXPERIMENT_KEYS, "an experiment",
                   ("instance", "method", "x0"))
        if exp["scheme"] not in ("auto", "general"):
            raise ConfigError("scheme must be 'auto' or 'general'")
        seed = check_number(exp["seed"], "seed", 0, integer=True)
        for key in ("instance", "method", "x0", "solver"):
            if not isinstance(exp.get(key), dict):
                raise ConfigError(f"{key} must be given as a JSON object")
        problem = instance_from_dict(exp["instance"])
        schedule = TauSchedule.from_dict(exp["method"])
        check_keys(exp["solver"], [f.name for f in fields(SolverConfig)],
                   "the solver object")
        config = SolverConfig(**exp["solver"])

        x0, n = exp["x0"], problem.n
        if "coords" in x0:
            check_keys(x0, ("coords",), "an x0 given by coords")
            coords = check_array(x0["coords"], "x0 coords", 1)
            if coords.shape != (n,):
                raise ConfigError(f"x0 has {coords.size} coords, expected {n}")
        elif "random_ball" in x0:
            check_keys(x0, ("random_ball",), "an x0 given by random_ball")
            radius = check_number(x0["random_ball"], "random_ball")
            if not radius > 0.0:
                raise ConfigError("random_ball radius must be positive")
            rng = np.random.default_rng(seed)
            d = rng.standard_normal(n)
            scale = norm_primal(problem.b_ref, PrimalVector(d))
            coords = d * (radius * rng.uniform() ** (1.0 / n) / scale)
        else:
            raise ConfigError("x0 must carry 'coords' or 'random_ball'")

        quadratic = isinstance(problem, QuadraticProblem)
        general = not quadratic or exp["scheme"] == "general"
        envelopes = exp.get("envelopes", list(
            GENERAL_ENVELOPES if general else QUADRATIC_ENVELOPES))
        if not isinstance(envelopes, list):
            raise ConfigError("envelopes must be a list of names")
        if envelopes and not config.instrument:
            # Without instrumentation the residual lambda_k is never
            # measured, so no envelope can be checked against it.
            raise ConfigError(
                "envelopes need an instrumented run; with "
                "\"instrument\": false set \"envelopes\": []"
            )
        for i, env in enumerate(envelopes):
            if env not in ENVELOPE_NAMES:
                raise ConfigError(f"unknown envelope {env!r}")
            if env in envelopes[:i]:
                # One name is one column pair of envelopes.csv.
                raise ConfigError(f"envelope {env!r} is named twice")
            if env in QUADRATIC_ENVELOPES and not quadratic:
                raise ConfigError(
                    f"envelope {env!r} needs a quadratic instance")
        overrides = exp.get("envelope_overrides")
        envelope_constants(problem, overrides)
        return _Experiment(
            name=name, seed=seed, problem=problem, schedule=schedule,
            config=config, x0=PrimalVector(coords),
            envelopes=tuple(envelopes), overrides=overrides, general=general,
            output_dir=Path(out or exp.get("output_dir", "out")))
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


# The files run writes into each experiment's directory, and sweep into its
# output directory.
_RUN_FILES = ("trace.csv", "envelopes.csv", "summary.json")
_SWEEP_FILE = "sweep.csv"


def _check_output_dir(path: Path, files) -> None:
    """Refuse a directory to be made where a file is, and a file to be
    written where anything is, so no earlier output is overwritten: the
    path itself or the nearest of its ancestors that exists must be a
    directory, and none of ``files`` in it may exist."""
    for p in (path, *path.parents):
        if p.exists():
            if not p.is_dir():
                raise ConfigError(f"output path {str(p)!r} exists and is "
                                  "not a directory")
            break
    for p in (path / name for name in files):
        if p.exists():
            raise ConfigError(f"output file {str(p)!r} already exists")


def _write_envelopes(path, reports: list[EnvelopeReport], measured) -> None:
    """Write envelopes.csv: k, the measured residual, then a bound and a
    verdict column per report, empty where it has no entry."""
    header, columns = ["k", "measured"], [measured]
    for rep in reports:
        header += [f"bound_{rep.name}", f"ok_{rep.name}"]
        columns += [(rep.ks, rep.bound), (rep.ks, rep.satisfied)]
    write_columns(path, header, len(measured), columns)


def _split_run(run, exp: _Experiment, shares: int):
    """``run``'s trace of ``exp``, its rows measured ``shares`` ways (see
    :func:`~broyden_lab.solver._merge`).

    Each share runs in a child forked from this process, which runs none:
    an OpenBLAS call made after a fork takes a second work buffer, so a
    parent that ran a share would hold a buffer's working set more.  A
    child sends back through a pipe its share's outcome or its
    :class:`IterationError`, and leaves by ``os._exit``.  A child that ends
    without one, or on any other exception, makes this call raise.  Every
    child has been reaped when it returns or raises.
    """
    import pickle
    import signal

    reads, pids = [], []
    try:
        for w in range(shares):
            read, write = os.pipe()
            reads.append(read)
            try:
                pids.append(os.fork())
                if pids[-1] == 0:
                    _share_child(run, exp, (w, shares), write)
            finally:
                os.close(write)
        outcomes = []
        for w, read in enumerate(reads):
            with open(read, "rb", closefd=False) as f:
                data = f.read()
            outcome = pickle.loads(data) if data else "ended without a result"
            if isinstance(outcome, str):
                raise RuntimeError(f"measurement share {w} of {shares}: "
                                   f"{outcome}")
            outcomes.append(outcome)
    finally:
        for read in reads:
            os.close(read)
        for pid in pids:
            # A child whose pipe was read to its end has exited, and the
            # kill is a no-op; any other is stopped where it is.
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return _merge(exp.problem, exp.schedule, outcomes)


def _share_child(run, exp: _Experiment, share: tuple[int, int],
                 write: int) -> None:
    """A forked share of :func:`_split_run`: run it, write its outcome, its
    :class:`IterationError` or the text of any other exception to
    ``write``, and leave by ``os._exit``, never returning to the caller."""
    import pickle

    try:
        try:
            outcome = _share_outcome(run(exp.problem, exp.x0, exp.schedule,
                                         exp.config, share=share), share)
        except IterationError as exc:
            outcome = exc
        except Exception as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        # The pipe stays open until os._exit, so the parent's end of file
        # means this process has ended.
        with open(write, "wb", closefd=False) as f:
            f.write(pickle.dumps(outcome))
    finally:
        os._exit(0)


def _solve(exp: _Experiment, shares: int):
    """Run a built experiment: its result fields, its trace and its envelope
    reports.  A run that diverges or whose quadrature fails has no trace
    and no reports; its result records the error.  A run whose rows are
    measured one at a time is split ``shares`` ways (:func:`_split_run`)."""
    started = time.perf_counter()
    try:
        run = run_general if exp.general else run_quadratic
        if shares > 1 and _rows_alone(exp.problem, exp.config):
            trace = _split_run(run, exp, shares)
        else:
            trace = run(exp.problem, exp.x0, exp.schedule, exp.config)
    except IterationError as exc:
        return {
            "wall_time_s": time.perf_counter() - started,
            "pass": False,
            "error": {"kind": type(exc).__name__, "k": exc.k,
                      "message": str(exc)},
            "iterations": None, "first_violation": None, "min_slack": None,
            "K0": None, "region_radius": None, "converged": False,
        }, None, []
    wall = time.perf_counter() - started

    problem, sup_tau = exp.problem, exp.schedule.sup_tau
    reports = trace_reports(trace, exp.envelopes, overrides=exp.overrides)
    asserted = [r for r in reports if r.asserted]
    violations = {r.name: r.first_violation for r in asserted
                  if r.first_violation is not None}
    min_slack = min((r.min_slack for r in asserted), default=math.inf)
    radius = region_radius(problem.mu, problem.ell, problem.n, sup_tau,
                           problem.sc_const)
    increases = trace.lambda_increase_indices
    return {
        "wall_time_s": wall,
        "pass": not violations,
        "iterations": trace.k_final,
        "converged": trace.converged,
        "first_violation": violations or None,
        "min_slack": None if math.isinf(min_slack) else min_slack,
        "K0": k0(problem.n, problem.mu, problem.ell, sup_tau),
        "region_radius": None if math.isinf(radius) else radius,
        "not_asserted": [r.name for r in reports if not r.asserted] or None,
        # Diagnostic only: strict residual decrease is an empirical
        # regularity, not a guarantee.  The count and the first ten
        # indices keep the summary's size independent of K.
        "lambda_increases": ({"count": len(increases), "first": increases[:10]}
                             if increases else None),
    }, trace, reports


def _execute_experiment(exp: _Experiment, shares: int) -> dict:
    """Run one built experiment, split ``shares`` ways where its rows are
    measured one at a time, and write its three output files."""
    out_dir = exp.output_dir / exp.name
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_csv, envelopes_csv, summary_json = (out_dir / f for f in _RUN_FILES)
    result, trace, reports = _solve(exp, shares)
    summary = {"name": exp.name, "seed": exp.seed,
               "instance_hash": instance_hash(exp.problem), **result}
    if trace is not None:
        trace.to_csv(trace_csv)
        _write_envelopes(envelopes_csv, reports, trace.lambdas)
    with open(summary_json, "w", newline="\n") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    return summary


def _fan_out(fn, items: list, workers: int) -> list:
    """``[fn(item) for item in items]``, computed on up to ``workers``
    worker processes, or in this process when that is one worker or one
    item.

    The workers are forked, whatever the platform's default start method:
    a forked worker starts with this process's modules, so it re-imports
    nothing, and sees any attribute replaced on them since (a test's
    monkeypatch, a tracer's wrapper).  ``fn`` and the results pass through
    pickle.  Every worker has exited when this returns.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, items))


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))


def cmd_run(config_path: str, jobs: int = 1, out: str | None = None) -> int:
    try:
        check_number(jobs, "--jobs", 1, integer=True)
        raw = _load_json(config_path)
        raw_list = raw if isinstance(raw, list) else [raw]
        if not raw_list:
            raise ConfigError("config contains no experiments")
        experiments = [
            _check_experiment(r, i, out) for i, r in enumerate(raw_list)
        ]
        seen = set()
        for exp in experiments:
            if exp.name in seen:
                raise ConfigError(
                    f"duplicate experiment name {exp.name!r}: each "
                    "experiment writes to its own directory"
                )
            seen.add(exp.name)
            _check_output_dir(exp.output_dir / exp.name, _RUN_FILES)
    except (TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    from functools import partial

    # The parallel experiments share the usable CPUs among their splits.
    workers = min(jobs, len(experiments))
    summaries = _fan_out(partial(_execute_experiment,
                                 shares=max(1, _usable_cpus() // workers)),
                         experiments, workers)

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


def _run_suite(args: tuple) -> verify_mod.CheckResult:
    """``verify.run_suite(name, n_max, trials, seed)``, looked up when
    called, so a worker runs the function its module holds."""
    return verify_mod.run_suite(*args)


def _replay_line(res, n_max: int, trials: int, seed: int) -> str:
    """The command that replays a result's witness, with the witness in a
    trailing shell comment."""
    if res.name == "scalar_gap":
        return (f"replay: broyden-lab verify --suite scalar_gap "
                f"--trial {res.trial}")
    return (f"replay: broyden-lab verify --suite {res.name} --seed {seed} "
            f"--trial {res.trial} --n-max {n_max} --trials {trials}  "
            f"# seed={res.seed} n={res.n} tau={res.tau}")


def cmd_verify(n_max: int = 8, trials: int = 1000, seed: int = 0,
               suite: str | None = None, trial: int | None = None) -> int:
    """Run the suites (or one), printing each result and its replay command;
    with ``trial``, replay that one trial of ``suite`` instead."""
    try:
        check_number(n_max, "--n-max", 1, integer=True)
        check_number(trials, "--trials", 1, integer=True)
        check_number(seed, "--seed", 0, integer=True)
        if suite is not None and suite not in verify_mod.SUITES:
            raise ConfigError(f"--suite must be one of "
                              f"{', '.join(verify_mod.SUITES)}; got {suite!r}")
        if trial is not None:
            if suite is None:
                raise ConfigError("--trial needs --suite")
            check_number(trial, "--trial", 0, integer=True)
            size = verify_mod.suite_size(suite, trials)
            if trial >= size:
                raise ConfigError(f"--trial must be below {size}, got {trial}")
    except (TypeError, ValueError) as exc:
        print(f"verify error: {exc}", file=sys.stderr)
        return 2
    if trial is not None:
        res = verify_mod.replay(suite, trial, n_max=n_max, seed=seed)
        print(res.line())
        return 0 if res.passed else 1
    names = verify_mod.SUITES if suite is None else (suite,)
    # Each suite draws from its own seed and shares no state, so workers
    # may run them in any order; the results come back in SUITES order.
    results = _fan_out(_run_suite, [(name, n_max, trials, seed)
                                    for name in names], _usable_cpus())
    for res in results:
        print(res.line())
        print(_replay_line(res, n_max, trials, seed))
    return 0 if all(r.passed for r in results) else 1


_GRID_KEYS = ("n", "L_over_mu", "method", "seed", "max_iter", "target",
              "output_dir")


def _grid_experiments(raw: dict, out: str | None):
    """The output directory of a sweep grid and its cells in row order, each
    a ((n, L_over_mu, method), built experiment) pair.

    Cell (n, kappa, method) minimizes ``quad_make(geomspace(1, kappa, n),
    seed)`` from a standard normal x0 drawn with seed + 1, down to
    ``target`` times its starting residual, checking the quadratic
    envelopes.  The cells of one (n, kappa) share their instance.
    """
    if not isinstance(raw, dict):
        raise ConfigError("grid spec must be a JSON object")
    check_keys(raw, _GRID_KEYS, "a sweep grid", ("n", "L_over_mu", "method"))
    for key in ("n", "L_over_mu", "method"):
        if not isinstance(raw.get(key), list) or not raw[key]:
            raise ConfigError(f"grid needs a nonempty list {key!r}")
    for m in raw["method"]:
        if m not in ("bfgs", "dfp"):
            raise ConfigError(f"grid method must be 'bfgs' or 'dfp', got {m!r}")
    seed = check_number(raw.get("seed", 0), "grid seed", 0, integer=True)
    ns = [check_number(n, "grid n", 2, integer=True) for n in raw["n"]]
    kappas = [check_number(kappa, "grid L_over_mu", 1)
              for kappa in raw["L_over_mu"]]
    max_iter = check_number(raw.get("max_iter", 20000), "grid max_iter", 1,
                            integer=True)
    target = check_number(raw.get("target", 1e-10), "grid target", 0)
    if not isinstance(raw.get("output_dir", ""), str):
        raise ConfigError("grid output_dir must be a string")
    out_dir = Path(out or raw.get("output_dir", "sweep_out"))

    cells = []
    for n in ns:
        for kappa in kappas:
            try:
                problem = quad_make(np.geomspace(1.0, kappa, n), seed=seed)
                x0 = PrimalVector(
                    np.random.default_rng(seed + 1).standard_normal(n))
                lam0 = norm_dual(problem.a_op, problem.grad(x0))
                config = SolverConfig(max_iter=max_iter,
                                      grad_tol=target * lam0)
            except ValueError as exc:
                raise ConfigError(
                    f"grid cell n={n} L_over_mu={kappa}: {exc}") from exc
            for method in raw["method"]:
                cells.append(((n, kappa, method), _Experiment(
                    name=f"n={n} L/mu={kappa} {method}", seed=seed,
                    problem=problem, schedule=TauSchedule.from_dict(
                        {"kind": method}),
                    config=config, x0=x0, envelopes=QUADRATIC_ENVELOPES,
                    overrides=None, general=False, output_dir=out_dir)))
    return out_dir, cells


# sweep.csv columns, in the order of a row.  The iteration count is empty
# for a cell that did not reach its target.
_SWEEP_COLUMNS = ("n", "L_over_mu", "method", "iters_to_1e-10", "K0_new",
                  "K0_prev", "first_k_superlinear_env_below_linear_env",
                  "envelopes_ok")


def cmd_sweep(grid_path: str, out: str | None = None) -> int:
    try:
        out_dir, cells = _grid_experiments(_load_json(grid_path), out)
        _check_output_dir(out_dir, (_SWEEP_FILE,))
    except (TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir.mkdir(parents=True, exist_ok=True)
    rows, shares = [], _usable_cpus()
    for (n, kappa, method), exp in cells:
        result, _, _ = _solve(exp, shares)
        mu, ell = exp.problem.mu, exp.problem.ell
        moments = env_section6(n, mu, ell, 1, 1.0, method)
        iters = result["iterations"] if result["converged"] else None
        rows.append((n, kappa, method, iters, moments.start_new,
                     moments.start_prev,
                     first_superlinear_crossover(n, mu, ell,
                                                 exp.schedule.sup_tau),
                     result["pass"]))
        error = result.get("error")
        status = (error["kind"] if error else "VIOLATION" if not result["pass"]
                  else "max_iter" if iters is None else "ok")
        print(f"{exp.name}: iters={iters} K0_new={moments.start_new:.1f} "
              f"K0_prev={moments.start_prev:.1f} {status}")
        if error is not None:
            print(f"sweep cell failed: n={n} L_over_mu={kappa} "
                  f"method={method} seed={exp.seed} k={error['k']}: "
                  f"{error['kind']}: {error['message']}", file=sys.stderr)

    write_csv(out_dir / _SWEEP_FILE, _SWEEP_COLUMNS, rows)
    return 0 if all(row[3] is not None and row[-1] for row in rows) else 1


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
                       help="max parallel experiments; they share the "
                            "usable CPUs that split each run's rows")
    p_run.add_argument("--out", default=None,
                       help="override the output directory")

    p_verify = sub.add_parser("verify", help="run the randomized check suites")
    p_verify.add_argument("--n-max", type=int, default=8)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0,
                          help="base seed; suite i draws from seed + i")
    p_verify.add_argument("--suite", default=None,
                          help="run only this suite")
    p_verify.add_argument("--trial", type=int, default=None,
                          help="replay this trial of --suite, printing "
                               "every intermediate value")

    p_sweep = sub.add_parser("sweep", help="run a quadratic comparison grid")
    p_sweep.add_argument("grid", help="grid JSON spec")
    p_sweep.add_argument("--out", default=None,
                         help="override the output directory")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, jobs=args.jobs, out=args.out)
    if args.command == "verify":
        return cmd_verify(n_max=args.n_max, trials=args.trials, seed=args.seed,
                          suite=args.suite, trial=args.trial)
    return cmd_sweep(args.grid, out=args.out)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
