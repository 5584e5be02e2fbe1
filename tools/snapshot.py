"""Snapshot the benchmark workloads' command-line outputs, for a byte diff.

Runs the ``broyden-lab`` call of each named workload at each seed, with the
inputs that ``perfbench/workloads.py`` writes for it, in a fresh interpreter
whose BLAS is pinned to one thread.  Each call runs in its own directory,
``OUT/<workload>-<seed>/``, with relative paths, so nothing in its output
depends on where the snapshot sits.  The directory keeps the inputs, every
file the call wrote, and the call's ``stdout.txt``, ``stderr.txt`` and
``exit_code.txt``.  Wall times are set to a fixed value (``wall=0.000s`` on
stdout, ``"wall_time_s": 0.0`` in ``summary.json``), so the JSON stays valid.
Each ``replay: broyden-lab ...`` line the call prints (``verify`` prints one
per suite) is run too, and its stdout kept as ``replay-<suite>.txt``: the
replay prints every value of its witness with ``!r``, so the snapshot holds
verify's values to the last bit, where its result lines hold four digits.

Two snapshots of one tree then agree byte for byte, and comparing two trees
is ``diff -r OUT_A OUT_B``:

    python tools/snapshot.py OUT_A --root path/to/parent/checkout
    python tools/snapshot.py OUT_B
    diff -r OUT_A OUT_B

Usage: python tools/snapshot.py OUT [--root REPO] [--workload NAME ...]
       [--seed S ...]   (defaults: this checkout, every workload, seed 1)
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

# The same variables perfbench/run.py pins, so BLAS rounding matches it.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
_WALL_STDOUT = re.compile(r"wall=[0-9.e+-]+s")
_WALL_JSON = re.compile(r'"wall_time_s": [0-9.e+-]+')


def load_workloads(root: Path):
    """The ``WORKLOADS`` table of a checkout's ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location(
        "snapshot_workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def mask_wall_times(work: Path) -> None:
    """Replace the wall times in a finished call's stdout and summaries."""
    stdout = work / "stdout.txt"
    stdout.write_text(_WALL_STDOUT.sub("wall=0.000s", stdout.read_text()))
    for summary in work.rglob("summary.json"):
        summary.write_text(_WALL_JSON.sub('"wall_time_s": 0.0',
                                          summary.read_text()))


def run_cli(argv: list[str], work: Path, env: dict):
    """One ``broyden-lab`` call in a fresh interpreter, run in ``work``."""
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from broyden_lab.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        cwd=work, env=env, capture_output=True, text=True)


def replay_calls(stdout: str):
    """(suite, argv) of each ``replay:`` line of a call's stdout, without
    the trailing witness comment."""
    for line in stdout.splitlines():
        if line.startswith("replay: broyden-lab "):
            argv = shlex.split(line.removeprefix("replay: broyden-lab ")
                               .split("#")[0])
            yield argv[argv.index("--suite") + 1], argv


def snapshot(root: Path, workload, seed: int, out: Path) -> int:
    """Run one workload's call at one seed into ``out/<name>-<seed>``,
    then each replay it prints; returns the call's exit code."""
    work = out / f"{workload.name}-{seed}"
    work.mkdir(parents=True)
    cwd = Path.cwd()
    os.chdir(work)
    try:
        # Relative to the call's directory: the argv names no absolute path.
        argv = workload.write_inputs(seed, Path("."))
    finally:
        os.chdir(cwd)
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"))
    env.update({var: "1" for var in _BLAS_THREAD_VARS})
    proc = run_cli(argv, work, env)
    (work / "stdout.txt").write_text(proc.stdout)
    (work / "stderr.txt").write_text(proc.stderr)
    (work / "exit_code.txt").write_text(f"{proc.returncode}\n")
    mask_wall_times(work)
    for suite, replay in replay_calls(proc.stdout):
        (work / f"replay-{suite}.txt").write_text(
            run_cli(replay, work, env).stdout)
    return proc.returncode


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="snapshot directory (new)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and perfbench/ to run")
    parser.add_argument("--workload", nargs="+", action="extend",
                        default=None,
                        help="workload names (repeatable; default: all)")
    parser.add_argument("--seed", type=int, nargs="+", action="extend",
                        default=None,
                        help="workload seeds (repeatable; default: 1)")
    args = parser.parse_args(argv)
    workloads = load_workloads(args.root)
    names = args.workload or list(workloads)
    unknown = [name for name in names if name not in workloads]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads)}")
    for name in names:
        for seed in args.seed or [1]:
            rc = snapshot(args.root, workloads[name], seed, args.out)
            print(f"{name}-{seed}: exit {rc}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
