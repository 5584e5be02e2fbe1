"""Per-iteration cost of the quadratic solver loop, in microseconds, by n.

Runs DFP on a generated quadratic (spectrum geomspace(1, 1e3, n), B = I)
from x0 = 1 for a fixed number of iterations at ``grad_tol`` 0, instrumented
and not, and prints one markdown row per n:

- ``block``: the rows the instrumented loop measures together at that n,
  as many as the solver's byte budget for a block holds;
- ``uninstrumented`` and ``instrumented``: the time per iteration of one
  run, from the loop's first gradient call to the run's return, so the
  set-up before the loop (the eigenbasis, one ``eigh``) is not counted;
- ``update``: the time of one ``update_arrays`` call inside the
  uninstrumented loop, the O(n^2) rank-two update of G_k and H_k;
- ``eigvalsh``: the time ``np.linalg.eigvalsh`` takes per row inside the
  instrumented loop, which makes one stacked call per block: the
  instrumented iteration's one decomposition;
- ``nu``: the time ``nu`` takes per row inside the instrumented loop, also
  one stacked call per block: the closeness measure and its check;
- ``rest``: the step's fixed cost outside those three, from an
  instrumented run with a timer on each: its time per iteration (as above)
  less one ``update_arrays`` call and the per-row time of the other two.

Each figure but ``rest`` is one run's own time, never the difference of
two runs', so none of them is negative.

Each figure is the best of ``--repeat`` runs.  The first line names the BLAS
thread setting, the environment variables that pin it (run with
``OPENBLAS_NUM_THREADS=1`` for the single-thread figures).

Usage: PYTHONPATH=src python tools/periter.py [--n N ...] [--iters K]
       [--repeat R]   (defaults: n = 8 30 100 200 400, K = 300, R = 3)
"""

from __future__ import annotations

import argparse
import contextlib
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
    """Wraps ``owner.name`` to add each call's wall time to ``seconds``;
    ``first`` is when the first call started."""

    def __init__(self, owner, name: str):
        self.owner, self.name = owner, name
        self.inner = getattr(owner, name)
        self.seconds, self.calls, self.first = 0.0, 0, None

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        if self.first is None:
            self.first = start
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


def _per_iter(quad, iters: int, instrument: bool,
              timers=()) -> tuple[float, int]:
    """Time per iteration of one run with ``timers`` installed, from the
    loop's first gradient call to the run's return, and the run's rows."""
    cfg = SolverConfig(max_iter=iters, grad_tol=0.0, instrument=instrument)
    with contextlib.ExitStack() as stack:
        for timer in timers:
            stack.enter_context(timer)
        # The eigenbasis and the block are built before the first gradient.
        loop = stack.enter_context(_Timed(solver_mod, "_gradient"))
        trace = run_quadratic(quad, PrimalVector(np.ones(quad.n)),
                              TauSchedule.dfp(), cfg)
        stop = time.perf_counter()
    return (stop - loop.first) / max(len(trace) - 1, 1), len(trace)


def row(n: int, iters: int, repeat: int) -> tuple[float, ...]:
    """``(uninstrumented, instrumented, update, eigvalsh, nu, rest)`` in
    us."""
    quad = quad_make(np.geomspace(1.0, 1e3, n), seed=n)
    runs = []
    for _ in range(repeat):
        plain, _ = _per_iter(quad, iters, False)
        instrumented, _ = _per_iter(quad, iters, True)
        update = _Timed(solver_mod, "update_arrays")
        _per_iter(quad, iters, False, [update])
        timers = [_Timed(solver_mod, "update_arrays"),
                  _Timed(np.linalg, "eigvalsh"), _Timed(solver_mod, "nu")]
        timed, rows = _per_iter(quad, iters, True, timers)
        costs = [timers[0].seconds / timers[0].calls,
                 *(t.seconds / rows for t in timers[1:])]
        runs.append((plain, instrumented, update.seconds / update.calls,
                     *costs[1:], timed - sum(costs)))
    return tuple(1e6 * t for t in np.min(runs, axis=0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+",
                        default=[8, 30, 100, 200, 400])
    parser.add_argument("--iters", type=int, default=300)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    print(thread_setting())
    print(f"DFP, kappa = 1e3, {args.iters} iterations, best of {args.repeat}; "
          "per iteration, in us")
    print()
    print("| n | block | uninstrumented | instrumented | update | eigvalsh "
          "| nu | rest |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for n in args.n:
        cells = " | ".join(f"{t:,.0f}" for t in row(n, args.iters, args.repeat))
        print(f"| {n} | {solver_mod._block_rows(n)} | {cells} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
