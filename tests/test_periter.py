"""tools/periter.py: the per-iteration cost table, on a small n."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "periter_tool", ROOT / "tools" / "periter.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_the_thread_setting_and_one_row_per_n(capsys):
    tool = load_tool()
    assert tool.main(["--n", "8", "--iters", "6", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("BLAS threads: OPENBLAS_NUM_THREADS=")
    assert lines[3] == ("| n | block | uninstrumented | instrumented "
                        "| update | eigvalsh | nu | rest | peak |")
    cells = lines[5].strip("| ").split(" | ")
    assert len(cells) == 9
    assert cells[:2] == ["8", str(tool.solver_mod._block_rows(8))]
    # Each cell but rest is one run's own time.  rest is the timed run's
    # per-iteration time less the three timed calls' per-row times in that
    # run, a difference, so it is only checked to be a number.
    assert all(float(c.replace(",", "")) >= 0.0 for c in cells[2:7])
    float(cells[7].replace(",", ""))
    # peak counts n x n arrays, and a run holds at least its (G, H) pair.
    assert float(cells[8]) >= 2.0
    assert not tool.tracemalloc.is_tracing()
    # The timers are taken off again.
    assert not isinstance(np.linalg.eigvalsh, tool._Timed)
    assert not isinstance(tool.solver_mod.update_arrays, tool._Timed)
    assert not isinstance(tool.solver_mod.nu, tool._Timed)
