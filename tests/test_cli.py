"""Command-line surface: configs, outputs, exit codes, determinism."""

import copy
import json
import shutil

import numpy as np
import pytest

from broyden_lab.cli import cmd_run, cmd_sweep, cmd_verify, main
from broyden_lab.problems import instance_from_dict
from broyden_lab.verify import SUITES, run_all


def quad_experiment(out_dir, name="exp-quad", **extra):
    exp = {
        "name": name,
        "seed": 11,
        "instance": {"kind": "quadratic", "n": 6,
                     "spectrum": [1.0, 2.0, 5.0, 10.0, 20.0, 50.0],
                     "seed": 3},
        "method": {"kind": "bfgs"},
        "x0": {"random_ball": 1.0},
        "solver": {"max_iter": 300, "grad_tol": 1e-12},
        "output_dir": str(out_dir),
    }
    exp.update(extra)
    return exp


def write_config(tmp_path, payload, fname="config.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(payload))
    return str(path)


# envelopes.csv header of the default general envelope set.
GENERAL_HEADER = ("k,measured"
                  ",bound_general_linear_xi,ok_general_linear_xi"
                  ",bound_general_linear,ok_general_linear"
                  ",bound_general_superlinear_xi,ok_general_superlinear_xi"
                  ",bound_general_superlinear,ok_general_superlinear")


class TestRun:
    def test_single_quadratic_writes_three_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path, quad_experiment(tmp_path / "out"))
        assert cmd_run(cfg) == 0
        exp_dir = tmp_path / "out" / "exp-quad"
        files = sorted(p.name for p in exp_dir.iterdir())
        assert files == ["envelopes.csv", "summary.json", "trace.csv"]
        summary = json.loads((exp_dir / "summary.json").read_text())
        assert summary["pass"] is True
        assert summary["converged"] is True
        assert summary["region_radius"] is None
        assert "PASS" in capsys.readouterr().out

    def test_trace_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path, quad_experiment(tmp_path / "out"))
        cmd_run(cfg)
        lines = (tmp_path / "out" / "exp-quad" / "trace.csv").read_text()
        assert lines.splitlines()[0] == \
            "k,lambda,g,r,xi,nu,v,psi,eig_min,eig_max,tau"

    def test_envelope_csv_columns(self, tmp_path):
        cfg = write_config(tmp_path, quad_experiment(tmp_path / "out"))
        cmd_run(cfg)
        header = (tmp_path / "out" / "exp-quad" / "envelopes.csv") \
            .read_text().splitlines()[0]
        assert header.startswith("k,measured,")
        assert "bound_quad_linear" in header
        assert "ok_quad_superlinear" in header

    @pytest.mark.parametrize("scheme,instance,header", [
        ("auto", None, "k,measured"
         ",bound_quad_linear,ok_quad_linear"
         ",bound_quad_superlinear,ok_quad_superlinear"
         ",bound_quad_superlinear_psi,ok_quad_superlinear_psi"),
        ("general", None, GENERAL_HEADER),
        ("auto", {"kind": "log_sum_exp", "n": 4, "m": 1, "mu": 0.5,
                  "seed": 2}, GENERAL_HEADER),
    ])
    def test_default_envelope_set(self, tmp_path, scheme, instance, header):
        exp = quad_experiment(tmp_path / "out", scheme=scheme)
        if instance is not None:
            exp["instance"] = instance
        assert cmd_run(write_config(tmp_path, exp)) == 0
        csv_text = (tmp_path / "out" / "exp-quad" / "envelopes.csv").read_text()
        assert csv_text.splitlines()[0] == header

    def test_invalid_mu_rejected_without_files(self, tmp_path, capsys):
        exp = quad_experiment(tmp_path / "out")
        exp["instance"] = {"kind": "log_sum_exp", "n": 3, "m": 4,
                           "mu": -1.0, "seed": 0}
        cfg = write_config(tmp_path, exp)
        assert cmd_run(cfg) == 2
        assert not (tmp_path / "out").exists()
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cmd_run(str(path)) == 2

    def test_unknown_envelope_rejected(self, tmp_path):
        exp = quad_experiment(tmp_path / "out", envelopes=["no_such"])
        assert cmd_run(write_config(tmp_path, exp)) == 2

    def test_quad_envelope_needs_quadratic_instance(self, tmp_path):
        exp = quad_experiment(tmp_path / "out", envelopes=["quad_linear"])
        exp["instance"] = {"kind": "log_sum_exp", "n": 3, "m": 4,
                           "mu": 0.1, "seed": 0}
        assert cmd_run(write_config(tmp_path, exp)) == 2

    def test_x0_dimension_checked(self, tmp_path):
        exp = quad_experiment(tmp_path / "out", x0={"coords": [1.0, 2.0]})
        assert cmd_run(write_config(tmp_path, exp)) == 2

    def test_forced_violation_exits_one(self, tmp_path, capsys):
        # Fault injection: a deliberately inflated mu inside the envelope
        # formulas claims a linear rate faster than the run can deliver,
        # which must surface as a violation.
        exp = quad_experiment(tmp_path / "out",
                              envelopes=["quad_linear"],
                              envelope_overrides={"mu": 25.0})
        assert cmd_run(write_config(tmp_path, exp)) == 1
        summary = json.loads(
            (tmp_path / "out" / "exp-quad" / "summary.json").read_text()
        )
        assert summary["pass"] is False
        assert summary["first_violation"]["quad_linear"] >= 1
        assert "FAIL" in capsys.readouterr().out

    def test_divergent_run_exits_one(self, tmp_path):
        exp = quad_experiment(tmp_path / "out", name="diverge")
        exp["instance"] = {"kind": "log_sum_exp", "n": 3, "m": 5,
                           "mu": 0.1, "gamma": 1.0, "seed": 41}
        exp["x0"] = {"coords": [1e308, 1e308, 1e308]}
        with np.errstate(over="ignore", invalid="ignore"):
            assert cmd_run(write_config(tmp_path, exp)) == 1
        summary = json.loads(
            (tmp_path / "out" / "diverge" / "summary.json").read_text()
        )
        assert summary["error"]["kind"] == "DivergenceError"

    def test_overflowing_gradient_exits_one(self, tmp_path, capsys):
        # A valid instance whose gradient overflows at k = 0; the typed
        # gradient used to raise a ValueError with no summary written.
        exp = quad_experiment(
            tmp_path / "out", name="overflow",
            instance={"kind": "quadratic", "a": [[1e300]], "b": [0],
                      "mu": 1e300, "ell": 1e300},
            x0={"coords": [1e10]})
        with np.errstate(over="ignore"):
            assert cmd_run(write_config(tmp_path, exp)) == 1
        summary = json.loads(
            (tmp_path / "out" / "overflow" / "summary.json").read_text()
        )
        assert summary["error"]["kind"] == "DivergenceError"
        assert summary["error"]["k"] == 0
        assert "FAIL" in capsys.readouterr().out

    def test_suite_array_and_jobs(self, tmp_path):
        exps = [quad_experiment(tmp_path / "out", name=f"e{i}", seed=i)
                for i in range(3)]
        cfg = write_config(tmp_path, exps)
        assert cmd_run(cfg, jobs=2) == 0
        for i in range(3):
            assert (tmp_path / "out" / f"e{i}" / "summary.json").exists()
        # The pool runs the built experiments it is sent, byte for byte.
        assert cmd_run(cfg, jobs=1, out=str(tmp_path / "serial")) == 0
        for i in range(3):
            for fname in ("trace.csv", "envelopes.csv"):
                assert ((tmp_path / "out" / f"e{i}" / fname).read_bytes()
                        == (tmp_path / "serial" / f"e{i}" / fname).read_bytes())

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_exit_two(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path, quad_experiment(tmp_path / "out"))
        assert main(["run", cfg, "--jobs", jobs]) == 2
        assert not (tmp_path / "out").exists()
        assert "--jobs must be an integer >= 1" in capsys.readouterr().err

    def test_reruns_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg1 = write_config(tmp_path, quad_experiment(out1), "c1.json")
        cfg2 = write_config(tmp_path, quad_experiment(out2), "c2.json")
        assert cmd_run(cfg1) == 0
        assert cmd_run(cfg2) == 0
        for fname in ("trace.csv", "envelopes.csv"):
            b1 = (out1 / "exp-quad" / fname).read_bytes()
            b2 = (out2 / "exp-quad" / fname).read_bytes()
            assert b1 == b2

    def test_general_scheme_forced_on_quadratic(self, tmp_path):
        exp = quad_experiment(tmp_path / "out", scheme="general",
                              envelopes=["general_linear",
                                         "general_superlinear"])
        assert cmd_run(write_config(tmp_path, exp)) == 0

    def test_lse_experiment(self, tmp_path):
        exp = {
            "name": "lse",
            "seed": 2,
            "instance": {"kind": "log_sum_exp", "n": 4, "m": 8,
                         "mu": 0.1, "gamma": 1.0, "seed": 5},
            "method": {"kind": "dfp"},
            "x0": {"random_ball": 0.001},
            "solver": {"max_iter": 400, "grad_tol": 1e-11},
            "output_dir": str(tmp_path / "out"),
        }
        assert cmd_run(write_config(tmp_path, exp)) == 0

    def test_explicit_lse_gamma_defaults_to_tight_certificate(self, tmp_path):
        # Under B = I/4 the dual row norms are twice the Euclidean ones, so
        # the tight gamma is 2.  The default used to be the Euclidean 1.0,
        # which the instance then refused as below its largest row norm.
        instance = {"kind": "log_sum_exp",
                    "a_rows": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
                    "b": [0.0, 0.1, 0.2], "mu": 0.5,
                    "b_ref": [[0.25, 0.0], [0.0, 0.25]]}
        assert instance_from_dict(instance).gamma == 2.0
        exp = quad_experiment(tmp_path / "out", instance=instance,
                              x0={"coords": [0.01, -0.02]})
        assert cmd_run(write_config(tmp_path, exp)) == 0

    def test_saturated_distortion_passes_without_warning(self, tmp_path,
                                                         capsys):
        # At mu = 1e-6 the distortion xi reaches the 1e308 range; xi * ell in
        # the tracked linear envelope used to overflow with a RuntimeWarning,
        # which the suite turns into an error.
        exp = {"name": "lse", "seed": 1,
               "instance": {"kind": "log_sum_exp", "n": 5, "m": 20,
                            "mu": 1e-06, "seed": 2},
               "method": {"kind": "bfgs"}, "x0": {"random_ball": 1.0},
               "solver": {"max_iter": 3000, "grad_tol": 1e-12}}
        cfg = write_config(tmp_path, exp)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("instrument", [True, False])
    def test_lse_run_past_rounding_floor(self, tmp_path, capsys, instrument):
        # With grad_tol 0 the run goes on past convergence, where the
        # gradient difference is rounding noise and can pair negatively with
        # the step.  The update from it used to end the run in an
        # ArithmeticError traceback; the solver now skips it and the run
        # reaches max_iter.
        exp = {"name": "floor", "seed": 1,
               "instance": {"kind": "log_sum_exp", "n": 4, "m": 12,
                            "mu": 0.01, "seed": 1},
               "method": {"kind": "bfgs"}, "x0": {"coords": [0.0] * 4},
               "solver": {"max_iter": 200, "grad_tol": 0.0,
                          "instrument": instrument},
               "output_dir": str(tmp_path / "out")}
        if not instrument:
            exp["envelopes"] = []
        assert main(["run", write_config(tmp_path, exp)]) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads(
            (tmp_path / "out" / "floor" / "summary.json").read_text())
        assert summary["iterations"] == 200 and "error" not in summary

    def test_lambda_increases_bounded_in_k(self, tmp_path):
        # At its rounding floor this DFP run's residual rises on about half
        # of its iterations; the summary keeps the count and the first ten
        # indices, not every index.
        exp = {"name": "floor",
               "instance": {"kind": "quadratic", "seed": 2,
                            "spectrum": [1.0, 3.0, 10.0, 30.0]},
               "method": {"kind": "dfp"}, "x0": {"random_ball": 1.0},
               "solver": {"max_iter": 3000, "grad_tol": 0.0},
               "envelopes": [], "output_dir": str(tmp_path / "out")}
        assert cmd_run(write_config(tmp_path, exp)) == 0
        exp_dir = tmp_path / "out" / "floor"
        lam = np.loadtxt(exp_dir / "trace.csv", delimiter=",", skiprows=1,
                         usecols=1)
        rises = np.flatnonzero(lam[2:] >= lam[1:-1]) + 2
        assert rises.size > 100
        summary = json.loads((exp_dir / "summary.json").read_text())
        assert summary["lambda_increases"] == {"count": int(rises.size),
                                               "first": rises[:10].tolist()}


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        assert cmd_verify(n_max=4, trials=40, seed=1) == 0
        out = capsys.readouterr().out
        assert "inverse_identity" in out
        assert "PASS" in out

    def test_default_suite_within_budget(self, capsys):
        import time
        started = time.perf_counter()
        assert cmd_verify() == 0
        assert time.perf_counter() - started < 30.0
        capsys.readouterr()

    def test_bad_arguments_exit_two(self):
        assert cmd_verify(n_max=0, trials=10) == 2
        assert cmd_verify(n_max=4, trials=0) == 2

    def test_seeded_reproducibility(self):
        r1 = run_all(n_max=3, trials=25, seed=7)
        r2 = run_all(n_max=3, trials=25, seed=7)
        assert [c.worst for c in r1] == [c.worst for c in r2]

    def test_negative_seed_exits_two_before_any_suite(self, capsys):
        assert cmd_verify(n_max=3, trials=5, seed=-1) == 2
        assert main(["verify", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed must be an integer >= 0" in captured.err

    def test_bad_suite_or_trial_exits_two(self, capsys):
        assert cmd_verify(suite="no_such_suite") == 2
        assert cmd_verify(trials=10, suite="det_ratio", trial=10) == 2
        assert cmd_verify(suite="det_ratio", trial=-1) == 2
        assert cmd_verify(trial=3) == 2
        assert cmd_verify(suite="scalar_gap", trial=10000) == 2
        assert capsys.readouterr().out == ""

    def test_each_result_line_is_followed_by_its_replay(self, capsys):
        assert cmd_verify(n_max=3, trials=10, seed=2) == 0
        lines = capsys.readouterr().out.splitlines()
        results, replays = lines[0::2], lines[1::2]
        assert [ln.split()[0] for ln in results] == list(SUITES)
        for ln in results:
            assert "trials=" in ln and ln.endswith("PASS")
        assert replays[1].startswith(
            "replay: broyden-lab verify --suite det_ratio --seed 2 --trial ")
        assert replays[-1].startswith(
            "replay: broyden-lab verify --suite scalar_gap --trial ")

    def test_single_suite_matches_its_line_in_the_full_run(self, capsys):
        assert cmd_verify(n_max=3, trials=10, seed=4) == 0
        full = capsys.readouterr().out.splitlines()
        assert main(["verify", "--n-max", "3", "--trials", "10", "--seed", "4",
                     "--suite", "metric_change"]) == 0
        assert capsys.readouterr().out.splitlines() == full[10:12]


class TestSweep:
    def test_grid_rows_and_exit(self, tmp_path, capsys):
        grid = {"n": [4, 6], "L_over_mu": [10.0, 100.0],
                "method": ["bfgs", "dfp"], "max_iter": 20000,
                "output_dir": str(tmp_path / "sweep")}
        path = write_config(tmp_path, grid, "grid.json")
        assert cmd_sweep(path) == 0
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().strip() \
            .splitlines()
        assert len(rows) == 1 + 8
        header = rows[0].split(",")
        assert header[:3] == ["n", "L_over_mu", "method"]
        # New starting moments beat the old ones on every cell here.
        for row in rows[1:]:
            cells = row.split(",")
            k0_new, k0_prev = float(cells[4]), float(cells[5])
            assert k0_new < k0_prev
            assert cells[7] == "1"

    def test_unconverged_cell_exits_one(self, tmp_path, capsys):
        # One update cannot reach the target, so the count cell is empty.
        grid = {"n": [4], "L_over_mu": [10.0], "method": ["bfgs"],
                "max_iter": 1, "output_dir": str(tmp_path / "sweep")}
        assert cmd_sweep(write_config(tmp_path, grid, "grid.json")) == 1
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].split(",")[3] == ""
        assert "iters=None" in capsys.readouterr().out

    def test_unconverged_cell_status(self, tmp_path, capsys):
        # A cell that stops at max_iter used to print "ok": only the
        # envelope verdict chose the word.
        grid = {"n": [5], "L_over_mu": [100], "method": ["dfp"],
                "max_iter": 2, "output_dir": str(tmp_path / "sweep")}
        assert cmd_sweep(write_config(tmp_path, grid, "grid.json")) == 1
        line, = capsys.readouterr().out.splitlines()
        assert line.startswith("n=5 L/mu=100.0 dfp: iters=None ")
        assert line.endswith(" max_iter")

    def test_failed_cell_keeps_its_row(self, tmp_path, capsys):
        # DFP at n = 2 loses definiteness at k = 2; the cell used to raise,
        # and sweep.csv, with the rows already finished, was never written.
        grid = {"n": [4, 2], "L_over_mu": [1e12], "method": ["bfgs", "dfp"],
                "max_iter": 100, "output_dir": str(tmp_path / "sweep")}
        assert cmd_sweep(write_config(tmp_path, grid, "grid.json")) == 1
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        cells = [row.split(",") for row in rows[1:]]
        assert [c[:3] for c in cells] == [
            ["4", "1000000000000.0", "bfgs"], ["4", "1000000000000.0", "dfp"],
            ["2", "1000000000000.0", "bfgs"], ["2", "1000000000000.0", "dfp"]]
        assert cells[0][3] and cells[2][3]
        assert cells[3][3] == "" and cells[3][7] == "0"
        assert [c[7] for c in cells[:3]] == ["1", "1", "1"]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert ("n=2 L_over_mu=1000000000000.0 method=dfp seed=0 k=2: "
                "DivergenceError") in err[0]

    def test_malformed_grid(self, tmp_path):
        path = write_config(tmp_path, {"n": [], "L_over_mu": [10],
                                       "method": ["bfgs"]}, "g.json")
        assert cmd_sweep(path) == 2
        path = write_config(tmp_path, {"n": [4], "L_over_mu": [10],
                                       "method": ["sr1"]}, "g2.json")
        assert cmd_sweep(path) == 2


class TestMain:
    def test_run_via_main(self, tmp_path):
        cfg = write_config(tmp_path, quad_experiment(tmp_path / "out"))
        assert main(["run", cfg]) == 0

    def test_verify_via_main(self):
        assert main(["verify", "--n-max", "3", "--trials", "20",
                     "--seed", "4"]) == 0

    def test_sweep_via_main(self, tmp_path, capsys):
        grid = {"n": [4], "L_over_mu": [10.0], "method": ["bfgs"]}
        path = write_config(tmp_path, grid, "grid.json")
        assert main(["sweep", path, "--out", str(tmp_path / "sw")]) == 0
        assert (tmp_path / "sw" / "sweep.csv").read_text().startswith("n,")
        assert "bfgs: iters=" in capsys.readouterr().out

    def test_out_flag_overrides_directory(self, tmp_path):
        cfg = write_config(tmp_path, quad_experiment(tmp_path / "ignored"))
        assert main(["run", cfg, "--out", str(tmp_path / "forced")]) == 0
        assert (tmp_path / "forced" / "exp-quad" / "trace.csv").exists()
        assert not (tmp_path / "ignored").exists()


def numeric_leaves(node, path=()):
    """Paths to every number in a JSON value; a bool is not a number."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from numeric_leaves(value, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def replaced(node, path, value):
    """A copy of ``node`` with the entry at ``path`` set to ``value``."""
    out = copy.deepcopy(node)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


# Valid run configs that between them hold every kind of number a run
# reads: both instance families in generator and explicit form, constant
# and sequence schedules, both x0 forms, solver fields and overrides.
LEAF_CONFIGS = {
    "spectrum_quadratic": {
        "seed": 11,
        "instance": {"kind": "quadratic", "n": 3, "spectrum": [1, 2.0, 5.0],
                     "seed": 3, "b": [0.5, 0.0, -1]},
        "method": {"kind": "bfgs"},
        "x0": {"random_ball": 1.0},
        "solver": {"max_iter": 100, "grad_tol": 1e-12, "quad_order": 8},
        "envelope_overrides": {"mu": 0.5, "ell": 5, "sc_const": 1.0},
    },
    "explicit_quadratic": {
        "seed": 0,
        "instance": {"kind": "quadratic", "n": 2, "a": [[2.0, 0.5], [0.5, 3]],
                     "b": [1.0, 0], "b_ref": [[1.0, 0.0], [0.0, 1.5]],
                     "mu": 1.0, "ell": 4},
        "method": {"kind": "constant", "tau": 0.5},
        "x0": {"coords": [0.5, -0.5]},
        "solver": {"max_iter": 100, "grad_tol": 1e-12},
    },
    "generator_lse": {
        "seed": 2,
        "instance": {"kind": "log_sum_exp", "n": 3, "m": 4, "mu": 0.5,
                     "gamma": 1.0, "seed": 2, "b": [0.0, 0.1, 0.2, 0.3]},
        "method": {"kind": "sequence", "taus": [0, 0.5, 1.0]},
        "x0": {"random_ball": 0.1},
        "solver": {"max_iter": 100, "grad_tol": 1e-11},
    },
    "explicit_lse": {
        "seed": 0,
        "instance": {"kind": "log_sum_exp", "n": 2, "m": 3,
                     "a_rows": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
                     "b": [0.0, 0.1, 0.2], "b_ref": [[1.0, 0.0], [0.0, 1.0]],
                     "mu": 0.5, "gamma": 1.0},
        "method": {"kind": "dfp"},
        "x0": {"coords": [0.01, -0.02]},
        "solver": {"max_iter": 100, "grad_tol": 1e-11},
    },
}


class TestConfigContract:
    """Malformed or unsafe configs exit 2 before anything is written."""

    def assert_rejected(self, tmp_path, capsys, payload, needle=None):
        cfg = write_config(tmp_path, payload)
        assert cmd_run(cfg) == 2
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert "config error" in err
        if needle is not None:
            assert needle in err

    def test_uninstrumented_run_rejects_envelopes(self, tmp_path, capsys):
        # lambda_k is never measured without instrumentation, so no envelope
        # can be checked; this used to report a quad_linear violation at k=0.
        exp = quad_experiment(tmp_path / "out",
                              solver={"max_iter": 300, "grad_tol": 1e-12,
                                      "instrument": False})
        self.assert_rejected(tmp_path, capsys, exp, "instrumented run")
        exp["envelopes"] = ["quad_linear"]
        self.assert_rejected(tmp_path, capsys, exp, "instrumented run")

    def test_uninstrumented_run_without_envelopes_passes(self, tmp_path):
        exp = quad_experiment(tmp_path / "out", envelopes=[],
                              solver={"max_iter": 300, "grad_tol": 1e-12,
                                      "instrument": False})
        assert cmd_run(write_config(tmp_path, exp)) == 0
        summary = json.loads(
            (tmp_path / "out" / "exp-quad" / "summary.json").read_text()
        )
        assert summary["pass"] is True and summary["first_violation"] is None

    @pytest.mark.parametrize("name", ["../../escape", "a/b", "/abs", "..", ".",
                                      "", "dir\\file", 7])
    def test_unsafe_name_rejected(self, tmp_path, capsys, name):
        nested = tmp_path / "deep" / "er"
        nested.mkdir(parents=True)
        exp = quad_experiment(nested / "out", name=name)
        cfg = write_config(nested, exp)
        assert cmd_run(cfg) == 2
        assert "single plain path component" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == \
            ["config.json", "deep", "er"]

    def test_duplicate_names_rejected(self, tmp_path, capsys):
        exps = [quad_experiment(tmp_path / "out", name="same", seed=s)
                for s in (1, 2)]
        self.assert_rejected(tmp_path, capsys, exps, "duplicate")

    @pytest.mark.parametrize("x0", [{"random_ball": "abc"},
                                    {"random_ball": None},
                                    {"coords": [1.0, "x", 0, 0, 0, 0]}])
    def test_non_numeric_x0_rejected(self, tmp_path, capsys, x0):
        exp = quad_experiment(tmp_path / "out", x0=x0)
        self.assert_rejected(tmp_path, capsys, exp, "numeric")

    def test_non_numeric_override_rejected(self, tmp_path, capsys):
        exp = quad_experiment(tmp_path / "out",
                              envelope_overrides={"mu": "big"})
        self.assert_rejected(tmp_path, capsys, exp, "numeric")

    @pytest.mark.parametrize("field", [
        {"envelope_override": {"mu": 25.0}},
        {"method": {"kind": "bfgs", "tau": 1.0}},
        {"method": {"kind": "constant", "tau": 0.5, "taus": [0.5]}},
        {"instance": {"kind": "quadratic", "spectrum": [1.0, 2.0],
                      "b_ref": [[4.0, 0.0], [0.0, 4.0]]}},
        {"instance": {"kind": "log_sum_exp", "n": 2, "m": 3, "mu": 0.5,
                      "seed": 1, "b_ref": [[4.0, 0.0], [0.0, 4.0]]}},
        {"instance": {"kind": "quadratic", "spectrum": [1.0, 2.0], "sed": 3}},
        {"instance": {"kind": "log_sum_exp", "n": 2, "m": 3, "mu": 0.5,
                      "sed": 3}},
        {"x0": {"random_ball": 1.0, "seed": 5}},
        {"x0": {"random_ball": 1.0, "coords": [0.1] * 6}},
        {"solver": {"grad_tol": 1e-12, "quad_error_rtol": 1e-9}},
        {"solver": {"grad_tol": 1e-12, "record_operators": True}},
    ], ids=["experiment", "bfgs_tau", "constant_taus", "quadratic_b_ref",
            "lse_b_ref", "quadratic_sed", "lse_sed", "x0_seed", "x0_both",
            "solver_stale", "solver_record_operators"])
    def test_unknown_key_rejected(self, tmp_path, capsys, field):
        # Each of these used to run without the key: a misspelled override
        # dropped the fault and printed PASS, a tau beside "bfgs" ran BFGS,
        # a b_ref beside a generator spec ran with B = I, and "sed" seed 0.
        # An x0 seed was ignored, and an x0 with both forms ran from coords.
        # A solver key that is gone was a Python keyword-argument error.
        exp = quad_experiment(tmp_path / "out", **field)
        self.assert_rejected(tmp_path, capsys, exp, "does not read")

    def test_unknown_solver_key_lists_what_it_reads(self, tmp_path, capsys):
        # A typo used to exit 2 with "SolverConfig.__init__() got an
        # unexpected keyword argument 'max_iters'".
        exp = quad_experiment(tmp_path / "out", solver={"max_iters": 5})
        self.assert_rejected(
            tmp_path, capsys, exp,
            "the solver object does not read 'max_iters'; it reads max_iter, "
            "grad_tol, quad_order, instrument")

    @pytest.mark.parametrize("config, path", [
        ("explicit_quadratic", ("instance", "b")),
        ("explicit_quadratic", ("instance", "mu")),
        ("explicit_quadratic", ("instance", "ell")),
        ("spectrum_quadratic", ("instance", "spectrum")),
        ("explicit_lse", ("instance", "b")),
        ("explicit_lse", ("instance", "mu")),
        ("generator_lse", ("instance", "n")),
        ("generator_lse", ("instance", "m")),
        ("generator_lse", ("instance", "mu")),
        ("explicit_quadratic", ("method", "tau")),
        ("generator_lse", ("method", "taus")),
        ("spectrum_quadratic", ("instance",)),
        ("spectrum_quadratic", ("method",)),
        ("spectrum_quadratic", ("x0",)),
    ])
    def test_missing_required_key_rejected(self, tmp_path, capsys, config,
                                           path):
        # Every required key of every form, but the "a" or "a_rows" that
        # makes a form explicit.  A missing one used to surface as a bare
        # KeyError repr, "config error: exp000: 'b'".
        exp = dict(copy.deepcopy(LEAF_CONFIGS[config]),
                   output_dir=str(tmp_path / "out"))
        parent = exp
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        self.assert_rejected(tmp_path, capsys, exp,
                             f"missing required key {path[-1]!r}")

    def test_stated_spectrum_must_agree(self, tmp_path, capsys):
        # The spectrum instance_to_dict writes beside an explicit matrix is
        # checked like a stated n, so a round trip keeps working.
        instance = {"kind": "quadratic", "a": [[2.0, 0.0], [0.0, 3.0]],
                    "b": [1.0, 0.0], "mu": 2.0, "ell": 3.0,
                    "spectrum": [2.0, 3.0]}
        exp = quad_experiment(tmp_path / "out", instance=instance)
        assert cmd_run(write_config(tmp_path, exp)) == 0
        shutil.rmtree(tmp_path / "out")
        instance["spectrum"] = [2.0, 3.0 * (1.0 + 1e-9)]
        self.assert_rejected(tmp_path, capsys, exp, "spectrum disagrees")

    def test_envelopes_must_be_a_list(self, tmp_path, capsys):
        exp = quad_experiment(tmp_path / "out", envelopes="quad_linear")
        self.assert_rejected(tmp_path, capsys, exp, "must be a list")

    def test_repeated_envelope_rejected(self, tmp_path, capsys):
        # Each name is one column pair of envelopes.csv.
        exp = quad_experiment(tmp_path / "out",
                              envelopes=["quad_linear", "quad_linear"])
        self.assert_rejected(tmp_path, capsys, exp,
                             "envelope 'quad_linear' is named twice")

    @pytest.mark.parametrize("blocked", ["root", "experiment"])
    def test_out_that_is_a_file_rejected(self, tmp_path, capsys, blocked):
        out = tmp_path / "out"
        if blocked == "root":
            out.write_text("keep")
            path = out
        else:
            out.mkdir()
            path = out / "exp-quad"
            path.write_text("keep")
        cfg = write_config(tmp_path, quad_experiment(tmp_path / "elsewhere"))
        assert main(["run", cfg, "--out", str(out)]) == 2
        assert path.read_text() == "keep"
        assert not (tmp_path / "elsewhere").exists()
        err = capsys.readouterr().err
        assert "config error" in err and repr(str(path)) in err

    @pytest.mark.parametrize("blocked", ["trace.csv", "envelopes.csv",
                                         "summary.json"])
    def test_output_file_that_is_a_directory_rejected(self, tmp_path, capsys,
                                                      blocked):
        # A directory where an output file goes used to end the run in an
        # IsADirectoryError traceback, after the experiments before it had
        # run and written their files.
        out = tmp_path / "out"
        path = out / "exp-quad" / blocked
        path.mkdir(parents=True)
        cfg = write_config(tmp_path, [quad_experiment(out, name="first"),
                                      quad_experiment(out)])
        assert main(["run", cfg]) == 2
        assert sorted(out.iterdir()) == [out / "exp-quad"]
        assert list((out / "exp-quad").iterdir()) == [path]
        err = capsys.readouterr().err
        assert "config error" in err and repr(str(path)) in err

    def test_existing_output_file_not_overwritten(self, tmp_path, capsys):
        # Used to exit 0 and replace the file with this run's summary.
        out = tmp_path / "out"
        path = out / "ow" / "summary.json"
        path.parent.mkdir(parents=True)
        path.write_text("precious")
        cfg = write_config(tmp_path, [quad_experiment(out, name="first"),
                                      quad_experiment(out, name="ow")])
        assert main(["run", cfg]) == 2
        assert path.read_text() == "precious"
        assert sorted(out.rglob("*")) == [out / "ow", path]
        err = capsys.readouterr().err
        assert "config error" in err and repr(str(path)) in err
        assert "already exists" in err

    @pytest.mark.parametrize("overrides", [{"mu": 60.0},
                                           {"ell": 0.5},
                                           {"mu": 8.0, "ell": 4.0}])
    def test_override_above_ell_rejected(self, tmp_path, capsys, overrides):
        # The quadratic's spectrum runs from 1 to 50; an override that puts
        # mu above ell used to crash inside the envelope code after the
        # output directory had been created.
        exp = quad_experiment(tmp_path / "out", envelope_overrides=overrides)
        self.assert_rejected(tmp_path, capsys, exp, "mu <= ell")

    @pytest.mark.parametrize("seed", ["abc", -1, 1.5, True, None])
    def test_bad_seed_rejected(self, tmp_path, capsys, seed):
        exp = quad_experiment(tmp_path / "out", seed=seed)
        self.assert_rejected(tmp_path, capsys, exp, "seed")

    @pytest.mark.parametrize("instance", [
        {"kind": "log_sum_exp", "n": 4.9, "m": True, "mu": 0.5, "seed": 2.7},
        {"kind": "log_sum_exp", "n": 4.0, "m": 1, "mu": 0.5},
        {"kind": "log_sum_exp", "n": 4, "m": True, "mu": 0.5},
        {"kind": "log_sum_exp", "n": 4, "m": 1, "mu": 0.5, "seed": 2.7},
        {"kind": "quadratic", "spectrum": [1.0, 2.0, 5.0], "seed": 1.5},
        {"kind": "quadratic", "spectrum": [1.0, 2.0, 5.0], "seed": False},
    ])
    def test_non_integer_generator_field_rejected(self, tmp_path, capsys,
                                                  instance):
        # int() used to truncate these, so a PASS was printed for a
        # different instance than the one written.
        exp = quad_experiment(tmp_path / "out", instance=instance)
        self.assert_rejected(tmp_path, capsys, exp, "must be an integer")

    @pytest.mark.parametrize("solver", [{"max_iter": 1.5},
                                        {"max_iter": True},
                                        {"max_iter": "300"},
                                        {"quad_order": 16.0},
                                        {"grad_tol": "tiny"},
                                        {"quad_error_rtol": -1.0},
                                        {"instrument": "no"},
                                        {"instrument": 0},
                                        {"record_operators": "yes"}])
    def test_mistyped_solver_field_rejected(self, tmp_path, capsys, solver):
        # max_iter 1.5 used to create out/<name> and then crash in range().
        exp = quad_experiment(tmp_path / "out", envelopes=[],
                              solver={"grad_tol": 1e-12, **solver})
        self.assert_rejected(tmp_path, capsys, exp, next(iter(solver)))


    @pytest.mark.parametrize("name", sorted(LEAF_CONFIGS))
    def test_every_numeric_leaf_checked(self, tmp_path, capsys, name):
        # One input rule for every number: replacing any of them by a bool,
        # a numeric string or null is refused before any write.
        exp = dict(LEAF_CONFIGS[name], output_dir=str(tmp_path / "out"))
        assert cmd_run(write_config(tmp_path, exp, "valid.json")) == 0
        shutil.rmtree(tmp_path / "out")
        capsys.readouterr()
        leaves = list(numeric_leaves(exp))
        assert len(leaves) >= 6
        accepted = []
        for path in leaves:
            for bad in (True, "1", None):
                cfg = write_config(tmp_path, replaced(exp, path, bad))
                if cmd_run(cfg) != 2 or (tmp_path / "out").exists():
                    accepted.append((path, bad))
                    shutil.rmtree(tmp_path / "out", ignore_errors=True)
        assert accepted == []
        for key in ("instance", "method", "x0", "solver"):
            cfg = write_config(tmp_path, dict(exp, **{key: [exp[key]]}))
            assert cmd_run(cfg) == 2, key
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", [
        {"method": {"kind": "sequence", "taus": "01"}},
        {"instance": {"kind": "quadratic", "spectrum": [True, 2.0, "4"]}},
        {"instance": {"kind": "quadratic", "spectrum": [[1.0, 2.0]]}},
        {"instance": {"kind": "quadratic", "n": 4, "spectrum": [1, 2, 5]}},
        {"instance": {"kind": "log_sum_exp", "n": 3, "m": 4, "mu": 0.5,
                      "gamma": None}},
        {"x0": {"coords": [True, False, True]}},
        {"x0": {"coords": [[1.0, 2.0], [3.0]]}},
        {"solver": {"grad_tol": 1e400}},
    ])
    def test_malformed_number_rejected(self, tmp_path, capsys, field):
        path = tmp_path / "config.json"
        exp = {**LEAF_CONFIGS["spectrum_quadratic"], **field,
               "output_dir": str(tmp_path / "out")}
        # json.dumps writes 1e400 (inf) as Infinity; the file keeps the
        # literal a user would have written.
        path.write_text(json.dumps(exp).replace("Infinity", "1e400"))
        assert cmd_run(str(path)) == 2
        assert not (tmp_path / "out").exists()
        assert "config error" in capsys.readouterr().err


class TestGridContract:
    """Malformed sweep grids exit 2 before the output directory exists."""

    def test_every_numeric_leaf_checked(self, tmp_path, capsys):
        grid = {"n": [2, 3], "L_over_mu": [10.0, 20], "method": ["bfgs"],
                "seed": 1, "max_iter": 500, "target": 1e-8,
                "output_dir": str(tmp_path / "sweep")}
        assert cmd_sweep(write_config(tmp_path, grid, "valid.json")) == 0
        shutil.rmtree(tmp_path / "sweep")
        capsys.readouterr()
        leaves = list(numeric_leaves(grid))
        assert len(leaves) == 7
        accepted = []
        for path in leaves:
            for bad in (True, "1", None):
                cfg = write_config(tmp_path, replaced(grid, path, bad),
                                   "grid.json")
                if cmd_sweep(cfg) != 2 or (tmp_path / "sweep").exists():
                    accepted.append((path, bad))
                    shutil.rmtree(tmp_path / "sweep", ignore_errors=True)
        assert accepted == []

    @pytest.mark.parametrize("override", [
        {"n": ["four"]}, {"n": [4.5]}, {"n": [True]},
        {"L_over_mu": ["ten"]}, {"L_over_mu": [None]},
        {"seed": "abc"}, {"seed": -1}, {"seed": 1.5},
        {"max_iter": 0}, {"max_iter": 2.5},
        {"target": -1}, {"target": "small"},
        {"output_dir": 7},
        {"max_iters": 1},
    ])
    def test_bad_value_rejected(self, tmp_path, capsys, override):
        grid = {"n": [4], "L_over_mu": [10.0], "method": ["bfgs"],
                "output_dir": str(tmp_path / "sweep"), **override}
        assert cmd_sweep(write_config(tmp_path, grid, "grid.json")) == 2
        assert not (tmp_path / "sweep").exists()
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n", "L_over_mu", "method"])
    def test_missing_required_key_rejected(self, tmp_path, capsys, key):
        grid = {"n": [4], "L_over_mu": [10.0], "method": ["bfgs"],
                "output_dir": str(tmp_path / "sweep")}
        del grid[key]
        assert cmd_sweep(write_config(tmp_path, grid, "grid.json")) == 2
        assert not (tmp_path / "sweep").exists()
        assert f"missing required key {key!r}" in capsys.readouterr().err

    def test_singular_condition_number_rejected(self, tmp_path, capsys):
        # quad_make cannot factorize at this condition number; the grid used
        # to exit 1 with a traceback after creating the output directory.
        grid = {"n": [5], "L_over_mu": [1e17], "method": ["bfgs"],
                "output_dir": str(tmp_path / "sweep")}
        assert cmd_sweep(write_config(tmp_path, grid, "grid.json")) == 2
        assert not (tmp_path / "sweep").exists()
        assert "n=5 L_over_mu=1e+17" in capsys.readouterr().err

    def test_out_that_is_a_file_rejected(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        out.write_text("keep")
        grid = {"n": [4], "L_over_mu": [10.0], "method": ["bfgs"]}
        cfg = write_config(tmp_path, grid, "grid.json")
        assert main(["sweep", cfg, "--out", str(out)]) == 2
        assert out.read_text() == "keep"
        err = capsys.readouterr().err
        assert "config error" in err and repr(str(out)) in err

    def test_output_file_that_is_a_directory_rejected(self, tmp_path,
                                                      capsys):
        # Used to run every cell, then end in an IsADirectoryError traceback.
        path = tmp_path / "sweep" / "sweep.csv"
        path.mkdir(parents=True)
        grid = {"n": [4], "L_over_mu": [10.0], "method": ["bfgs"]}
        cfg = write_config(tmp_path, grid, "grid.json")
        assert main(["sweep", cfg, "--out", str(tmp_path / "sweep")]) == 2
        assert list((tmp_path / "sweep").iterdir()) == [path]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("config error" in captured.err
                and repr(str(path)) in captured.err)

    def test_existing_output_file_not_overwritten(self, tmp_path, capsys):
        # Used to run every cell and replace the file with the new table.
        path = tmp_path / "sweep" / "sweep.csv"
        path.parent.mkdir()
        path.write_text("precious")
        grid = {"n": [4], "L_over_mu": [10.0], "method": ["bfgs"]}
        cfg = write_config(tmp_path, grid, "grid.json")
        assert main(["sweep", cfg, "--out", str(tmp_path / "sweep")]) == 2
        assert path.read_text() == "precious"
        assert list((tmp_path / "sweep").iterdir()) == [path]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("config error" in captured.err
                and repr(str(path)) in captured.err)
        assert "already exists" in captured.err

    def test_overflowing_condition_number_rejected(self, tmp_path, capsys):
        # JSON 1e400 reads as inf; the cell used to crash in quad_make.
        path = tmp_path / "grid.json"
        path.write_text('{"n": [4], "L_over_mu": [1e400], "method": ["bfgs"],'
                        f' "output_dir": {json.dumps(str(tmp_path / "sweep"))}}}')
        assert cmd_sweep(str(path)) == 2
        assert not (tmp_path / "sweep").exists()
        assert "L_over_mu" in capsys.readouterr().err


class TestGeneralOverrides:
    """envelope_overrides reach the general-scheme envelopes too."""

    def lse_experiment(self, out_dir, **extra):
        exp = {
            "name": "lse-ovr",
            "scheme": "general",
            "instance": {"kind": "log_sum_exp", "n": 5, "m": 12,
                         "mu": 0.1, "gamma": 1.0, "seed": 3},
            "method": {"kind": "bfgs"},
            "x0": {"random_ball": 0.5},
            "output_dir": str(out_dir),
        }
        exp.update(extra)
        return exp

    def test_honest_constants_pass(self, tmp_path):
        exp = self.lse_experiment(tmp_path / "out")
        assert cmd_run(write_config(tmp_path, exp)) == 0

    def test_inflated_mu_fails_general_linear(self, tmp_path, capsys):
        # mu = 1 claims a linear rate the run cannot deliver, and the tiny
        # self-concordance constant puts the start inside the local region,
        # so the uniform linear envelope is asserted and violated at k = 1.
        exp = self.lse_experiment(
            tmp_path / "out",
            envelope_overrides={"mu": 1.0, "sc_const": 1e-6},
        )
        assert cmd_run(write_config(tmp_path, exp)) == 1
        summary = json.loads(
            (tmp_path / "out" / "lse-ovr" / "summary.json").read_text()
        )
        assert summary["pass"] is False
        assert summary["first_violation"] == {"general_linear": 1}
        assert "FAIL" in capsys.readouterr().out
