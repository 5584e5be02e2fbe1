"""broyden-lab benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload quad-suite --seed 1 --seconds 20 --trace 0

Each operation runs in a fresh child interpreter (``child.py``) that imports
``broyden_lab.cli`` from ``src/`` and calls ``main(argv)`` on config files
generated from the seed.  Children run one at a time, with BLAS pinned to
one thread unless ``--inherit-threads`` is given.  The benchmark measures
for ``--seconds`` seconds (at least three operations), checks every output
against reference values from an independent implementation
(``workloads.py``), and prints two JSON lines: a detail record (environment,
per-operation samples, error rate, problems found) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, medians over the run: ``setup_s``, ``peak_rss_mb`` and
``verdict_cal``, the verdict time of a call divided by the time of a fixed
calibration kernel run in the same child just before and after it.  On a
shared 2-vCPU Xeon virtual machine the speed one process sees changed by a
third or more between runs minutes apart, which moves raw seconds by more
than a regression bound can allow; the ratio removes most of that drift.
Raw seconds are kept in the detail record.  With
``--trace 1`` traced and untraced operations alternate, and the metrics are
the per-layer metrics (medians over the traced operations, in raw seconds)
plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
MIN_OPS = 3          # operations per run, whatever --seconds says
MIN_SETUPS = 7       # set-up samples per run; set-up-only children fill up
RUN_LIMIT_S = 170    # every child is stopped by then
PROBE_RESERVE_S = 15  # left for set-up-only children after the last operation


def child_env(root: Path, inherit_threads: bool, inherited: dict) -> dict:
    env = dict(inherited)
    env.pop("BROYDEN_LAB_SEED", None)
    env["PYTHONPATH"] = str(root / "src")
    if not inherit_threads:
        env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def run_child(root, args, work: Path, env, deadline: float, *, trace=False,
              setup_only=False, spans: Path | None = None):
    """Run one child, killed at the deadline; return (record or None, stdout, stderr)."""
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(work)]
    if trace:
        cmd.append("--trace")
    if args.inject_fault:
        cmd.append("--fault")
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        return None, "", f"stopped at the run's {RUN_LIMIT_S} s limit"
    record_path = work / "record.json"
    if proc.returncode != 0 or not record_path.exists():
        return None, proc.stdout, proc.stderr
    return json.loads(record_path.read_text()), proc.stdout, proc.stderr


def run_operation(root, args, env, expected, work: Path, deadline: float, *,
                  traced=False, spans: Path | None = None):
    """One ``broyden-lab`` call in a child, checked; return (record, outcome)."""
    import workloads

    record, stdout, stderr = run_child(root, args, work, env, deadline,
                                       trace=traced, spans=spans)
    if record is None:
        # A crash or timeout fails every operation of the call.
        outcome = workloads.Outcome(len(expected), len(expected),
                                    [f"child failed: {stderr.strip()[-500:]}"])
    else:
        outcome = workloads.WORKLOADS[args.workload].check(
            expected, work, record["rc"], stdout)
    shutil.rmtree(work, ignore_errors=True)
    return record, outcome


def _cal(op) -> float:
    return statistics.mean(sum(parts.values()) for parts in op["cal_s"])


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(root: Path, args, env, work_root: Path, results: Path,
            deadline: float) -> tuple[dict, dict]:
    import workloads  # uses numpy: imported once main() has pinned BLAS threads

    ref_started = time.monotonic()
    expected = workloads.WORKLOADS[args.workload].reference(args.seed)
    reference_s = time.monotonic() - ref_started

    ops, setups, problems = [], [], []
    attempted = failed = 0
    started = time.monotonic()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        op_started = time.monotonic()
        work = work_root / f"op{len(ops)}"
        spans = results / f"{args.workload}-seed{args.seed}-spans.json" if traced else None
        record, outcome = run_operation(root, args, env, expected, work, deadline,
                                        traced=traced, spans=spans)
        if record is not None:
            setups.append(record["setup_s"])
        attempted += outcome.attempted
        failed += outcome.failed
        problems += outcome.problems
        ops.append({"traced": traced, "attempted": outcome.attempted,
                    "failed": outcome.failed, **(record or {})})
        now = time.monotonic()
        last = now - op_started
        if record is None or now + last > deadline - PROBE_RESERVE_S:
            break
        if len(ops) >= MIN_OPS and now - started + 0.5 * last >= args.seconds:
            break

    while len(setups) < MIN_SETUPS and time.monotonic() < deadline - 5:
        work = work_root / f"setup{len(setups)}"
        record, _, stderr = run_child(root, args, work, env, deadline, setup_only=True)
        shutil.rmtree(work, ignore_errors=True)
        if record is None:
            problems.append(f"set-up child failed: {stderr.strip()[-500:]}")
            attempted += 1
            failed += 1
            break
        setups.append(record["setup_s"])

    untraced = [op for op in ops if not op["traced"] and "verdict_s" in op]
    traced_ops = [op for op in ops if op["traced"] and "layers" in op]
    verdict_s = _median([op["verdict_s"] for op in untraced])
    metrics = {
        "setup_s": _median(setups),
        "verdict_cal": _median([op["verdict_s"] / _cal(op) for op in untraced]),
        "peak_rss_mb": _median([op["peak_rss_mb"] for op in untraced]),
    }
    if args.trace:
        names = traced_ops[0]["layers"] if traced_ops else {}
        metrics = {name: _median([op["layers"][name] for op in traced_ops])
                   for name in names}
        traced_verdict = _median([op["verdict_s"] for op in traced_ops])
        metrics["trace.verdict_s"] = traced_verdict
        metrics["trace.overhead_s"] = traced_verdict - verdict_s

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fault_injected": args.inject_fault,
        "environment": environment(root, env, args),
        "measured_s": time.monotonic() - started,
        "reference_s": reference_s,
        "reference": expected,
        "error_rate": failed / attempted if attempted else 1.0,
        "verdict_s": verdict_s,
        "cal_s": _median([_cal(op) for op in untraced]),
        "setup_samples": setups,
        "ops": [{k: v for k, v in op.items() if k != "layers"} for op in ops],
        "problems": problems[:20],
    }
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


def _read(path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def environment(root: Path, env: dict, args) -> dict:
    """Machine, toolchain and source identity behind a result."""
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level.strip()}-{(kind or '').strip()}"] = size.strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "broyden_lab").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: env.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads": "inherited" if args.inherit_threads else "pinned to 1",
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": args.seed,
    }


def select_metrics(spec: dict, result: dict, trace: bool) -> dict:
    """The declared metrics of BENCHMARK.json, in order, with their units.

    A run whose operations crashed may lack values; they read 0 there, and
    the run is reported as incorrect anyway.
    """
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing and result["correct"]:
        raise KeyError(f"benchmark produced no value for {missing}")
    return {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inherit-threads", action="store_true",
                        help="leave the BLAS thread variables as inherited "
                             "(informational runs only)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="self-test: wrong envelope constants, so every "
                             "operation must fail (quad-suite only)")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "broyden_lab" / "cli.py").is_file():
        print(f"error: no broyden_lab sources under {root / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # The parent computes reference results with numpy; keep it on one
    # BLAS thread too, but hand the children the environment as inherited.
    inherited = dict(os.environ)
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    env = child_env(root, args.inherit_threads, inherited)

    compileall.compile_dir(str(root / "src" / "broyden_lab"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    work_root = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    try:
        detail, result = measure(root, args, env, work_root, results, deadline)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    result["metrics"] = select_metrics(spec, result, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
