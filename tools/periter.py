"""Per-iteration cost of the quadratic solver loop, in microseconds, by n.

Runs DFP on a generated quadratic (spectrum geomspace(1, 1e3, n), B = I)
from x0 = 1 for a fixed number of iterations at ``grad_tol`` 0, instrumented
and not, and prints one markdown row per n:

- ``uninstrumented`` and ``instrumented``: the time per iteration of the
  whole run, less a one-iteration run's time, so the set-up (the
  eigenbasis, one ``eigh``) is not counted;
- ``update``: the time of one ``update_arrays`` call inside the
  uninstrumented loop, the O(n^2) rank-two update of G_k and H_k;
- ``eigvalsh``: the time of one ``np.linalg.eigvalsh`` call inside the
  instrumented loop, the instrumented iteration's one decomposition.

Each figure is the best of ``--repeat`` runs.  The first line names the BLAS
thread setting, the environment variables that pin it (run with
``OPENBLAS_NUM_THREADS=1`` for the single-thread figures).

Usage: PYTHONPATH=src python tools/periter.py [--n N ...] [--iters K]
       [--repeat R]   (defaults: n = 30 100 200 400, K = 300, R = 3)
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

import broyden_lab.solver as solver_mod
from broyden_lab import (
    PrimalVector,
    SolverConfig,
    TauSchedule,
    quad_make,
    run_quadratic,
)

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def thread_setting() -> str:
    return "BLAS threads: " + " ".join(
        f"{var}={os.environ.get(var, 'unset')}" for var in _THREAD_VARS)


class _Timed:
    """Wraps ``owner.name`` to add each call's wall time to ``seconds``."""

    def __init__(self, owner, name: str):
        self.owner, self.name = owner, name
        self.inner = getattr(owner, name)
        self.seconds, self.calls = 0.0, 0

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self.inner(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start
            self.calls += 1

    def __enter__(self):
        setattr(self.owner, self.name, self)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.name, self.inner)


def _run(quad, iters: int, instrument: bool):
    """Wall time and iteration count of one run."""
    cfg = SolverConfig(max_iter=iters, grad_tol=0.0, instrument=instrument)
    start = time.perf_counter()
    trace = run_quadratic(quad, PrimalVector(np.ones(quad.n)),
                          TauSchedule.dfp(), cfg)
    return time.perf_counter() - start, len(trace) - 1


def row(n: int, iters: int, repeat: int) -> tuple[float, float, float, float]:
    """``(uninstrumented, instrumented, update, eigvalsh)`` in us."""
    quad = quad_make(np.geomspace(1.0, 1e3, n), seed=n)
    per_iter = []
    for instrument in (False, True):
        best = np.inf
        for _ in range(repeat):
            base, _ = _run(quad, 1, instrument)
            total, steps = _run(quad, iters, instrument)
            best = min(best, (total - base) / max(steps - 1, 1))
        per_iter.append(best)
    per_call = []
    for owner, name, instrument in ((solver_mod, "update_arrays", False),
                                    (np.linalg, "eigvalsh", True)):
        best = np.inf
        for _ in range(repeat):
            with _Timed(owner, name) as timed:
                _run(quad, iters, instrument)
            best = min(best, timed.seconds / timed.calls)
        per_call.append(best)
    return tuple(1e6 * t for t in per_iter + per_call)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[30, 100, 200, 400])
    parser.add_argument("--iters", type=int, default=300)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    print(thread_setting())
    print(f"DFP, kappa = 1e3, {args.iters} iterations, best of {args.repeat}; "
          "per iteration, in us")
    print()
    print("| n | uninstrumented | instrumented | update | eigvalsh |")
    print("| --- | --- | --- | --- | --- |")
    for n in args.n:
        cells = " | ".join(f"{t:,.0f}" for t in row(n, args.iters, args.repeat))
        print(f"| {n} | {cells} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
