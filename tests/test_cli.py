"""Command-line surface: configs, outputs, exit codes, determinism."""

import json
import os

import numpy as np
import pytest

from broyden_lab.cli import SEED_ENV_VAR, cmd_run, cmd_sweep, cmd_verify, main
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

    def test_suite_array_and_jobs(self, tmp_path):
        exps = [quad_experiment(tmp_path / "out", name=f"e{i}", seed=i)
                for i in range(3)]
        cfg = write_config(tmp_path, exps)
        assert cmd_run(cfg, jobs=2) == 0
        for i in range(3):
            assert (tmp_path / "out" / f"e{i}" / "summary.json").exists()

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

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "999")
        cfg = write_config(tmp_path, quad_experiment(tmp_path / "out"))
        assert cmd_run(cfg) == 0
        summary = json.loads(
            (tmp_path / "out" / "exp-quad" / "summary.json").read_text()
        )
        assert summary["seed"] == 999

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

    def test_out_flag_overrides_directory(self, tmp_path):
        cfg = write_config(tmp_path, quad_experiment(tmp_path / "ignored"))
        assert main(["run", cfg, "--out", str(tmp_path / "forced")]) == 0
        assert (tmp_path / "forced" / "exp-quad" / "trace.csv").exists()
        assert not (tmp_path / "ignored").exists()


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

    def test_envelopes_must_be_a_list(self, tmp_path, capsys):
        exp = quad_experiment(tmp_path / "out", envelopes="quad_linear")
        self.assert_rejected(tmp_path, capsys, exp, "must be a list")

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

    def test_negative_env_seed_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "-1")
        self.assert_rejected(tmp_path, capsys,
                             quad_experiment(tmp_path / "out"), "seed")

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


class TestGridContract:
    """Malformed sweep grids exit 2 before the output directory exists."""

    @pytest.mark.parametrize("override", [
        {"n": ["four"]}, {"n": [4.5]}, {"n": [True]},
        {"L_over_mu": ["ten"]}, {"L_over_mu": [None]},
        {"seed": "abc"}, {"seed": -1}, {"seed": 1.5},
        {"max_iter": 0}, {"max_iter": 2.5},
        {"target": -1}, {"target": "small"},
        {"output_dir": 7},
    ])
    def test_bad_value_rejected(self, tmp_path, capsys, override):
        grid = {"n": [4], "L_over_mu": [10.0], "method": ["bfgs"],
                "output_dir": str(tmp_path / "sweep"), **override}
        assert cmd_sweep(write_config(tmp_path, grid, "grid.json")) == 2
        assert not (tmp_path / "sweep").exists()
        assert "config error" in capsys.readouterr().err

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
