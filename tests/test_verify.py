"""Batched verify suites against the per-trial typed reference.

The reference suites below are the trial-by-trial typed-API loops the
batched suites in ``broyden_lab.verify`` replaced, kept here (as
``tests/test_bounds.py`` keeps the old envelope loops) with one change: they
also return the value of every (trial, tau), so a batched witness can be
checked against them.
"""

import math
import shlex

import numpy as np
import pytest

from broyden_lab import broyden as broyden_mod
from broyden_lab import verify
from broyden_lab.broyden import broyd, broyd_det_ratio, nu
from broyden_lab.cli import cmd_verify, main
from broyden_lab.operators import PrimalVector, rel_det, rel_eigen_range
from broyden_lab.potentials import (
    SCALAR_GAP_MIDDLE_CONST,
    augmented_barrier,
    logdet_barrier,
    metric_change_lb,
    progress_lb_psi,
    progress_lb_v,
    scalar_gap,
)
from broyden_lab.verify import (
    TAU_GRID,
    CheckResult,
    random_spd,
    random_spd_dominating,
)

TRIALS = 20
RTOL, ATOL = 1e-9, 1e-12


# ---------------------------------------------------------------------------
# Per-trial typed reference


def _triples(rng, trials, n_max, dominating):
    for _ in range(trials):
        n = int(rng.integers(1, n_max + 1))
        a = random_spd(rng, n)
        g = random_spd_dominating(rng, a) if dominating else random_spd(rng, n)
        u = PrimalVector(rng.standard_normal(n))
        yield a, g, u


def _collect(name, threshold, higher_is_worse, rows, ns, trials):
    values = np.array(rows)
    worst = values.max() if higher_is_worse else values.min()
    res = CheckResult(name, float(worst), threshold, higher_is_worse,
                      trials * len(TAU_GRID))
    return res, values, ns


def ref_inverse_identity(n_max, trials, seed):
    rng = np.random.default_rng(seed)
    rows, ns = [], []
    for a, g, u in _triples(rng, trials, n_max, dominating=False):
        eye = np.eye(a.dim)
        row = []
        for tau in TAU_GRID:
            res = broyd(a, g, u, tau)
            row.append(float(np.linalg.norm(
                res.g_plus.entries @ res.g_plus_inv.entries - eye, 2)))
        rows.append(row)
        ns.append(a.dim)
    return _collect("inverse_identity", 1e-10, True, rows, ns, trials)


def ref_det_ratio(n_max, trials, seed):
    rng = np.random.default_rng(seed)
    rows, ns = [], []
    for a, g, u in _triples(rng, trials, n_max, dominating=False):
        row = []
        for tau in TAU_GRID:
            res = broyd(a, g, u, tau)
            reference = rel_det(res.g_plus.inverse(), g)
            rel_err = abs(res.det_ratio - reference) / abs(reference)
            closed = broyd_det_ratio(a, g, u, tau)
            row.append(max(rel_err, abs(closed - reference) / abs(reference)))
        rows.append(row)
        ns.append(a.dim)
    return _collect("det_ratio", 1e-9, True, rows, ns, trials)


def ref_eigen_containment(n_max, trials, seed):
    rng = np.random.default_rng(seed)
    rows, ns = [], []
    for a, g, u in _triples(rng, trials, n_max, dominating=False):
        before = rel_eigen_range(g, a)
        lo = min(1.0, before.min_rel)
        hi = max(1.0, before.max_rel)
        row = []
        for tau in TAU_GRID:
            after = rel_eigen_range(broyd(a, g, u, tau).g_plus, a)
            row.append(min(after.min_rel - lo, hi - after.max_rel))
        rows.append(row)
        ns.append(a.dim)
    return _collect("eigen_containment", -1e-9, False, rows, ns, trials)


def ref_logdet_progress(n_max, trials, seed):
    rng = np.random.default_rng(seed)
    rows, ns = [], []
    for a, g, u in _triples(rng, trials, n_max, dominating=True):
        eta = max(1.0, rel_eigen_range(g, a).max_rel)
        nu_val = nu(a, g, u)
        v_before = logdet_barrier(a, g)
        row = []
        for tau in TAU_GRID:
            g_plus = broyd(a, g, u, tau).g_plus
            decrease = v_before - logdet_barrier(a, g_plus)
            row.append(decrease - progress_lb_v(eta, tau, nu_val))
        rows.append(row)
        ns.append(a.dim)
    return _collect("logdet_progress", -1e-8, False, rows, ns, trials)


def ref_augmented_progress(n_max, trials, seed):
    rng = np.random.default_rng(seed)
    rows, ns = [], []
    for a, g, u in _triples(rng, trials, n_max, dominating=False):
        rng_ga = rel_eigen_range(g, a)
        xi = max(1.0, 1.0 / rng_ga.min_rel)
        eta = max(1.0, rng_ga.max_rel)
        nu_val = nu(a, g, u)
        psi_before = augmented_barrier(g, a)
        row = []
        for tau in TAU_GRID:
            g_plus = broyd(a, g, u, tau).g_plus
            decrease = psi_before - augmented_barrier(g_plus, a)
            row.append(decrease - progress_lb_psi(xi, eta, tau, nu_val))
        rows.append(row)
        ns.append(a.dim)
    return _collect("augmented_progress", -1e-8, False, rows, ns, trials)


def ref_metric_change(n_max, trials, seed):
    rng = np.random.default_rng(seed)
    rows, ns = [], []
    for a, g, u in _triples(rng, trials, n_max, dominating=False):
        row = []
        for tau in TAU_GRID:
            nu_sq, rhs = metric_change_lb(a, g, u, tau)
            row.append(nu_sq - rhs)
        rows.append(row)
        ns.append(a.dim)
    return _collect("metric_change", -1e-8, False, rows, ns, trials)


def ref_scalar_gap(grid=100):
    betas = np.logspace(-6.0, 6.0, grid)
    mults = np.logspace(0.0, 6.0, grid)
    worst = np.inf
    for beta in betas:
        for m in mults:
            alpha = beta * m
            if alpha < beta:
                continue
            lhs, rhs = scalar_gap(alpha, beta)
            arg = alpha + 1.0 / beta - 1.0
            middle = SCALAR_GAP_MIDDLE_CONST * np.log(arg)
            worst = min(worst, lhs - middle, middle - rhs, arg - 1.0)
    return CheckResult("scalar_gap", float(worst), -1e-12, False, grid * grid)


REFERENCE = {
    "inverse_identity": ref_inverse_identity,
    "det_ratio": ref_det_ratio,
    "eigen_containment": ref_eigen_containment,
    "logdet_progress": ref_logdet_progress,
    "augmented_progress": ref_augmented_progress,
    "metric_change": ref_metric_change,
}


# ---------------------------------------------------------------------------
# Batched suites == reference


def _close(got, want):
    return got == pytest.approx(want, rel=RTOL, abs=ATOL)


@pytest.mark.parametrize("n_max", [3, 8])
@pytest.mark.parametrize("seed", range(10))
def test_batched_suites_match_reference(seed, n_max):
    for name, reference in REFERENCE.items():
        got = getattr(verify, f"{name}_suite")(n_max, TRIALS, seed)
        want, values, ns = reference(n_max, TRIALS, seed)
        assert _close(got.worst, want.worst), name
        assert got.passed == want.passed, name
        assert got.trials == want.trials, name
        assert got.threshold == want.threshold, name
        assert got.higher_is_worse == want.higher_is_worse, name
        # The witness is where the reference's worst value occurs (to
        # rounding: values that are rounding noise may tie).
        assert got.seed == seed
        assert got.n == ns[got.trial], name
        assert _close(values[got.trial, TAU_GRID.index(got.tau)], want.worst), name


def test_scalar_gap_matches_reference():
    got, want = verify.scalar_gap_suite(), ref_scalar_gap()
    assert got.worst == want.worst
    assert (got.threshold, got.trials, got.passed) == \
        (want.threshold, want.trials, want.passed)


def test_scalar_gap_grid_matches_typed_chain():
    """The array grid evaluates the typed scalar_gap chain at every point,
    to the last bits (math.log and np.log may differ by an ulp), and a
    one-point slice gives the grid's own bits."""
    alpha, beta = verify._scalar_gap_grid(verify.SCALAR_GAP_GRID)
    terms, _, _ = verify._scalar_gap_terms(alpha, beta)
    want = {key: [] for key in terms}
    for a, b in zip(alpha.tolist(), beta.tolist()):
        lhs, rhs = scalar_gap(a, b)
        arg = a + 1.0 / b - 1.0
        middle = SCALAR_GAP_MIDDLE_CONST * math.log(arg)
        for key, val in zip(want, (lhs, middle, rhs, arg, min(
                lhs - middle, middle - rhs, arg - 1.0))):
            want[key].append(val)
    assert alpha.size == verify.SCALAR_GAP_GRID ** 2
    for key, val in terms.items():
        np.testing.assert_allclose(val, want[key], rtol=1e-15, atol=0.0,
                                   err_msg=key)
    for i in range(0, alpha.size, 97):
        one, _, _ = verify._scalar_gap_terms(alpha[i:i + 1], beta[i:i + 1])
        assert all(one[key][0] == val[i] for key, val in terms.items()), i


def test_scalar_gap_non_finite_or_invalid_point_fails(monkeypatch, capsys):
    # A NaN term is the witness with worst -inf, not a silent PASS.
    monkeypatch.setattr(verify, "SCALAR_GAP_MIDDLE_CONST", math.nan)
    res = verify.scalar_gap_suite()
    assert (res.worst, res.trial, res.passed) == (-math.inf, 0, False)
    assert verify.replay("scalar_gap", 0).worst == -math.inf
    monkeypatch.undo()
    # A point off the domain (alpha < beta) fails through its margins
    # rather than raising: arg - 1 at the second point, NaN at the third.
    grid = (np.array([2.0, 0.5, 0.1]), np.array([1.0, 1.5, 2.0]))
    monkeypatch.setattr(verify, "_scalar_gap_grid", lambda size: grid)
    res = verify.scalar_gap_suite()
    assert (res.worst, res.trial, res.passed) == (-math.inf, 2, False)
    terms, index, worst = verify._scalar_gap_terms(grid[0][:2], grid[1][:2])
    assert index == 1 and worst == terms["value"][1] == pytest.approx(
        0.5 + 1.0 / 1.5 - 2.0)
    capsys.readouterr()


def test_run_all_derives_suite_seeds_from_base():
    results = verify.run_all(n_max=3, trials=5, seed=10)
    assert [r.name for r in results] == list(verify.SUITES)
    assert [r.seed for r in results[:-1]] == list(range(10, 16))


def test_result_independent_of_stack_budget(monkeypatch):
    """Chunking is an evaluation detail: tiny stacks give the same results,
    bit for bit."""
    full = verify.run_all(n_max=6, trials=30, seed=2)[:-1]
    sizes = []
    original = verify._assemble

    def spy(draws, dominating):
        sizes.append(sum(np.size(x) for draw in draws for x in draw[1:]))
        return original(draws, dominating)

    monkeypatch.setattr(verify, "_STACK_ELEMENTS", 60)
    monkeypatch.setattr(verify, "_assemble", spy)
    small = verify.run_all(n_max=6, trials=30, seed=2)[:-1]
    assert small == full
    # Raw draws wait only until they pass the budget: no stack holds more
    # raw entries than the budget plus those of one n = 6 trial (two 6 x 6
    # Gaussian blocks, two spectra and u).
    assert max(sizes) <= 60 + 2 * 36 + 3 * 6


@pytest.mark.parametrize("suite", sorted(REFERENCE))
def test_stack_evaluates_each_triple_as_alone(suite):
    """Every row of a stack is bitwise the row of its triple evaluated as a
    one-triple stack, as the replay evaluates it, so neither a witness nor
    a replayed value depends on which draws shared a stack."""
    dominating = verify._SUITES[suite][3]
    for idx, a, g, u in verify._stacks(np.random.default_rng(4), 60, 4,
                                       dominating):
        rows, values = verify._evaluate(suite, a, g, u)
        for t in range(len(idx)):
            one_rows, one = verify._evaluate(suite, a[t:t + 1], g[t:t + 1],
                                             u[t:t + 1])
            assert np.array_equal(one[0], values[t], equal_nan=True), t
            for row, one_row in zip(rows, one_rows):
                for key, val in row.items():
                    assert np.array_equal(one_row[key][0], val[t],
                                          equal_nan=True), (t, key)


@pytest.mark.parametrize("dominating", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_draws_match_typed_draws(seed, dominating):
    """The suites' stacked assembly builds every A, G and u bit for bit as
    the typed per-trial random_spd / random_spd_dominating draws do, for
    every n from 1 to 8."""
    stacked = {}
    for idx, a, g, u in verify._stacks(np.random.default_rng(seed), 80, 8,
                                       dominating):
        for t, a_t, g_t, u_t in zip(idx, a, g, u):
            stacked[int(t)] = (a_t, g_t, u_t)
    typed = _triples(np.random.default_rng(seed), 80, 8, dominating)
    for t, (a, g, u) in enumerate(typed):
        a_t, g_t, u_t = stacked[t]
        assert np.array_equal(a.entries, a_t), t
        assert np.array_equal(g.entries, g_t), t
        assert np.array_equal(u.coords, u_t), t
    assert {u.size for _, _, u in stacked.values()} == set(range(1, 9))


# ---------------------------------------------------------------------------
# The checks still bite, and a replay reproduces the failing value


def _replay_argv(out: str, suite: str) -> list[str]:
    line = next(ln for ln in out.splitlines()
                if ln.startswith(f"replay: broyden-lab verify --suite {suite} "))
    return shlex.split(line.removeprefix("replay: broyden-lab").split("#")[0])


def _replayed_row(lines, tau: float) -> dict:
    line = next(ln for ln in lines if ln.startswith(f"tau={tau!r} "))
    return dict(item.split("=", 1) for item in line.split("  "))


@pytest.mark.parametrize("suite, kernel_fn, wrong", [
    ("det_ratio", "_phi_det",
     lambda fn: lambda *args: (fn(*args)[0], fn(*args)[1] * (1.0 + 1e-6))),
    ("inverse_identity", "_inverse_core",
     lambda fn: lambda tau, au_u, aha: fn(tau + 1e-6, au_u, aha)),
])
def test_wrong_closed_form_fails_and_replays(monkeypatch, capsys, suite,
                                             kernel_fn, wrong):
    original = getattr(broyden_mod, kernel_fn)
    monkeypatch.setattr(broyden_mod, kernel_fn, wrong(original))
    assert cmd_verify(n_max=4, trials=30, seed=0) == 1
    out = capsys.readouterr().out
    result_line = next(ln for ln in out.splitlines() if ln.startswith(suite))
    assert result_line.endswith("FAIL")
    res = verify.run_suite(suite, n_max=4, trials=30, seed=0)
    assert not res.passed

    assert main(_replay_argv(out, suite)) == 1
    replayed = capsys.readouterr().out.splitlines()
    assert replayed[-1].endswith("FAIL")
    assert float(_replayed_row(replayed, res.tau)["value"]) == res.worst


@pytest.mark.parametrize("suite, sign", [("inverse_identity", 1.0),
                                         ("eigen_containment", -1.0)])
def test_update_leaving_spd_cone_is_a_witnessed_fail(monkeypatch, capsys,
                                                     suite, sign):
    """A stacked G_plus outside the SPD cone fails its suite, naming it,
    and the replay of that witness shows the value does not count."""
    original = broyden_mod._apply_update

    def corrupt(g_mat, h_mat, u, scalars, tau):
        g_plus, h_plus, phi, det_ratio = original(g_mat, h_mat, u, scalars, tau)
        if tau == 0.5 and g_plus.ndim == 3 and g_plus.shape[-1] == 3:
            g_plus = g_plus.copy()
            g_plus[0] = -g_plus[0]
        return g_plus, h_plus, phi, det_ratio

    monkeypatch.setattr(broyden_mod, "_apply_update", corrupt)
    res = verify.run_suite(suite, n_max=4, trials=30, seed=0)
    assert not res.passed
    assert res.worst == sign * np.inf
    # The corrupted entry is the first trial with n = 3.
    rng = np.random.default_rng(res.seed)
    ns = [verify._draw(rng, 4, False)[0] for _ in range(30)]
    assert (res.trial, res.n, res.tau) == (ns.index(3), 3, 0.5)

    capsys.readouterr()
    assert main(["verify", "--suite", suite, "--seed", "0", "--trial",
                 str(res.trial), "--n-max", "4", "--trials", "30"]) == 1
    out = capsys.readouterr().out.splitlines()
    oks = {tau: _replayed_row(out, tau)["ok"] for tau in TAU_GRID}
    assert oks == {tau: repr(tau != 0.5) for tau in TAU_GRID}
    assert out[-1].endswith("FAIL")


def test_replay_prints_every_tau(capsys):
    assert main(["verify", "--suite", "logdet_progress", "--seed", "2",
                 "--trial", "7", "--trials", "10", "--n-max", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("logdet_progress seed=5 trial=7 n=")
    for tau in TAU_GRID:
        row = _replayed_row(out, tau)
        assert list(row) == ["tau", "ok", "eta", "nu", "decrease", "bound",
                             "value"]
        assert row["ok"] == "True"
        assert float(row["value"]) == \
            float(row["decrease"]) - float(row["bound"])
    assert out[-1].endswith("PASS")


@pytest.mark.parametrize("suite", verify.SUITES)
def test_replay_matches_batched_witness(capsys, suite):
    # The replay runs the suite's own evaluator on a one-triple stack, so
    # its value is the batched worst to the bit.
    res = verify.run_suite(suite, n_max=6, trials=40, seed=3)
    one = verify.replay(suite, res.trial, n_max=6, seed=3)
    capsys.readouterr()
    assert (one.n, one.tau, one.seed) == (res.n, res.tau, res.seed)
    assert one.worst == res.worst


@pytest.mark.parametrize("suite", sorted(REFERENCE))
def test_replayed_witness_matches_typed_reference(capsys, suite):
    # The typed per-trial API cross-checks every value the replay prints.
    res = verify.run_suite(suite, n_max=6, trials=40, seed=3)
    verify.replay(suite, res.trial, n_max=6, seed=3)
    out = capsys.readouterr().out.splitlines()
    _, values, ns = REFERENCE[suite](6, 40, res.seed)
    assert ns[res.trial] == res.n
    for k, tau in enumerate(TAU_GRID):
        row = _replayed_row(out, tau)
        assert row["ok"] == "True", tau
        assert _close(float(row["value"]), values[res.trial, k]), tau
