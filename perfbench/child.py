"""One benchmark operation in a fresh interpreter.

Imports ``broyden_lab.cli``, writes the workload's inputs for the seed, then
calls ``broyden_lab.cli.main(argv)`` (the code behind the ``broyden-lab``
console script), optionally under the span tracer.  Writes its timings to
``record.json`` in the work directory:

- ``setup_s``: from the parent's spawn time (a system-wide monotonic clock
  reading passed as ``--spawned-at``) until the CLI module is imported and
  the inputs are written;
- ``verdict_s``: from the ``main(argv)`` call until it returns its exit code,
  with every output written;
- ``cal_s``: the calibration kernel's time just before and just after it;
- ``peak_rss_mb``: this process's peak resident set size.

Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def calibrate() -> dict[str, float]:
    """Seconds for each part of a fixed, program-independent mix of the work
    the workloads do: n=100 factorizations, a 100x400 matrix product, tiny
    numpy calls and interpreter-bound list and generator loops.  Dividing a
    call's time by it removes most of the drift in the machine's speed
    between runs."""
    import math

    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((100, 100)))
    a = (q * np.geomspace(1.0, 1e3, 100)) @ q.T
    a = 0.5 * (a + a.T)
    b = a + np.eye(100)
    rows = rng.standard_normal((400, 100))
    w = rng.uniform(size=400)
    small = rng.standard_normal((6, 6))
    small = small @ small.T + np.eye(6)
    times = {}
    started = time.perf_counter()
    for _ in range(70):
        scipy.linalg.eigh(a, b, eigvals_only=True)
        scipy.linalg.cho_solve((np.linalg.cholesky(b), True), a)
    times["lapack"] = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(300):
        (rows.T * w) @ rows
    times["gemm"] = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(6000):
        np.linalg.cholesky(small)
        np.outer(small[0], small[1])
    times["tiny"] = time.perf_counter() - started
    started = time.perf_counter()
    for k in range(1, 900):
        seq = [float(i % 7) for i in range(k)]
        sum(math.log(x * 0.5 + 1.0) for x in seq)
    times["interp"] = time.perf_counter() - started
    return times


def _bytes_under(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--fault", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    started = time.monotonic()
    import broyden_lab.cli as cli
    import_s = time.monotonic() - started
    import tracer
    import workloads

    cli_argv = workloads.WORKLOADS[args.workload].write_inputs(
        args.seed, args.dir, fault=args.fault)
    record = {"setup_s": time.monotonic() - args.spawned_at,
              "import_s": import_s, "program": cli.__file__}

    if not args.setup_only:
        cal_before = calibrate()
        tr = tracer.Tracer() if args.trace else None
        if tr is not None:
            tr.install()
        with tr.span("cli", "main") if tr else contextlib.nullcontext():
            called = time.monotonic()
            rc = cli.main(cli_argv)
            record["verdict_s"] = time.monotonic() - called
        sys.stdout.flush()
        if tr is not None:
            tr.uninstall()
        record["cal_s"] = [cal_before, calibrate()]
        record["rc"] = rc
        if tr is not None:
            layers = tracer.layer_metrics(tr.spans)
            layers["cli.import_s"] = import_s
            layers["cli.bytes_written"] = _bytes_under(args.dir / "out")
            record["layers"] = layers
            if args.spans is not None:
                tr.write(args.spans)

    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (args.dir / "record.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
