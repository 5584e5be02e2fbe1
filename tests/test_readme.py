"""README examples run as written, and scipy stays behind one module."""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from broyden_lab.cli import main

ROOT = Path(__file__).resolve().parents[1]
# A fenced block: its language tag and its body, up to the closing fence.
_FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)


def readme_blocks(lang: str) -> list[str]:
    text = (ROOT / "README.md").read_text()
    return [body for tag, body in _FENCE.findall(text) if tag == lang]


def test_run_config_and_sweep_grid(tmp_path):
    config, grid = readme_blocks("json")
    (tmp_path / "config.json").write_text(config)
    (tmp_path / "grid.json").write_text(grid)
    assert main(["run", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "bfgs-quad" / "summary.json").is_file()
    assert main(["sweep", str(tmp_path / "grid.json"),
                 "--out", str(tmp_path / "sweep")]) == 0
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2 * 2


def test_library_example():
    (snippet,) = readme_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    k_final, satisfied, _ = out.getvalue().split()
    assert int(k_final) > 0 and satisfied == "True"


def test_only_operators_imports_scipy():
    # The package reaches scipy through operators alone, so that one module
    # decides when scipy is loaded.
    importers = set()
    for path in sorted((ROOT / "src" / "broyden_lab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.name)
    assert importers == {"operators.py"}


def run_without_scipy(argv, cwd=None) -> str:
    """The stdout of ``broyden-lab ARGV`` in a fresh interpreter, which must
    exit 0 without having loaded scipy."""
    code = ("import sys; from broyden_lab.cli import main; "
            f"code = main({argv!r}); "
            "sys.exit(code or 3 * ('scipy' in sys.modules))")
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), text=True,
                          cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_verify_never_imports_scipy():
    # operators fetches its LAPACK handles on first use, and verify's suites
    # call only numpy, so a verify run loads no scipy.
    assert "scalar_gap" in run_without_scipy(["verify", "--trials", "2"])


def test_generated_quadratic_run_never_imports_scipy(tmp_path):
    # A generated quadratic has B = I, whose solves return their right-hand
    # side without LAPACK, and the loop's one decomposition is numpy's
    # eigvalsh, so the run loads no scipy.
    (tmp_path / "config.json").write_text(json.dumps({
        "name": "quad", "seed": 1,
        "instance": {"kind": "quadratic", "seed": 3,
                     "spectrum": [1, 2, 5, 10, 20, 50, 100, 200]},
        "method": {"kind": "constant", "tau": 0.5},
        "x0": {"random_ball": 1.0}}))
    out = run_without_scipy(["run", "config.json", "--out", "out"],
                            cwd=tmp_path)
    assert out.startswith("quad: PASS")
    assert (tmp_path / "out" / "quad" / "summary.json").is_file()
