"""Tests of the benchmark's own check and span code.

Run from the root of a checkout with  python3 -m pytest -q perfbench
Each check is shown to hold on a right value and to fail on a wrong one.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_rel_close():
    assert checks.rel_close(1.5004, 1.5, 1e-3, "ground") is None
    assert "ground" in checks.rel_close(1.51, 1.5, 1e-3, "ground")


def test_slopes():
    xs = [1e2, 1e3, 1e4]
    assert checks.loglog_slope(xs, [3 * x ** 0.5 for x in xs]) == pytest.approx(0.5, abs=1e-12)
    assert checks.slope_within(0.5, 0.5, 0.05, "sigma") is None
    assert checks.slope_within(0.4, 0.5, 0.05, "sigma") is not None
    assert checks.slope_within(0.34, 1 / 3, 0.05, "psi") is None
    assert checks.slope_within(0.4, 1 / 3, 0.05, "psi") is not None


def test_fit_ok():
    assert checks.fit_ok({"slope": 0.5, "excluded_alphas": []}, 0.5, 0.05, "fit") is None
    assert checks.fit_ok({"slope": 0.4, "excluded_alphas": []}, 0.5, 0.05, "fit") is not None
    assert checks.fit_ok({"slope": 0.5, "excluded_alphas": [1e5]}, 0.5, 0.05, "fit") is not None


def test_angle_invariant():
    assert checks.angle_invariant(100.0, True, 100.5, "row") is None
    assert "converged" in checks.angle_invariant(105.0, True, 100.0, "row")
    # a row the program reports as not converged makes no claim to check
    assert checks.angle_invariant(105.0, False, 100.0, "row") is None


def test_orderings_and_bands():
    assert checks.at_most(9.3, 31.6, "Psi against Sigma") is None
    assert checks.at_most(31.7, 31.6, "Psi against Sigma") is not None
    assert checks.at_least(22.4, 20.7, "Sigma against W") is None
    assert checks.at_least(20.0, 20.7, "Sigma against W") is not None
    assert checks.in_open_unit(0.47, "nu") is None
    assert checks.in_open_unit(1.2, "nu") is not None
    assert checks.in_open_unit(0.0, "nu") is not None
    assert checks.in_band(3.6, 0.1, 10, "scaled") is None
    assert checks.in_band(21.4, 0.1, 10, "scaled") is not None
    assert checks.spread_at_most([3.6, 4.3, 4.4], 2.0, "spread") is None
    assert checks.spread_at_most([3.6, 8.0], 2.0, "spread") is not None


def test_smin_gesvd_matches_the_definition():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    ref = np.linalg.svd(a - 0.7j * np.eye(40), compute_uv=False)[-1]
    assert checks.smin_gesvd(a, 0.7) == pytest.approx(ref, rel=1e-12)
    assert checks.rel_close(ref * (1 + 1e-6), checks.smin_gesvd(a, 0.7), 1e-8, "psi") is not None


def test_quasimode_residual_continuum_value():
    # the continuum residual of the closed-form field at beta_1 = 1e3
    assert checks.quasimode_residual(1e3) == pytest.approx(36.3725, rel=1e-5)
    assert checks.quasimode_residual(-1e3) == pytest.approx(36.3725, rel=1e-5)


def test_run_knows_every_workload():
    import run
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_ladder_scale_is_seeded():
    assert workloads.ladder_scale(3) == workloads.ladder_scale(3)
    scales = [workloads.ladder_scale(s) for s in range(50)]
    assert all(1.0 <= s < 10 ** 0.25 for s in scales)
    assert len(set(scales)) == 50


def _row(alpha, k, value, **extra):
    row = {"alpha": alpha, "k": k, "n": 600, "r_max": 30.0, "value": value,
           "lambda_star": None, "converged": True}
    row.update(extra)
    return {"rows": [row]}


def test_sigma_ladder_checks():
    w = workloads.SigmaLadder(0)
    assert w.check("spectrum-k1-alpha0", _row(0.0, 1, 1.49996)) is None
    assert w.check("spectrum-k1-alpha0", _row(0.0, 1, 1.0)) is not None
    assert w.check("spectrum-k2-alpha0", _row(0.0, 2, 0.99995)) is None
    alpha, k = w.rows["spectrum-k1-b1e5"]
    w._refs[("angle", "spectrum-k1-b1e5", 600, 30.0)] = 215.92
    w._refs[("range", "spectrum-k1-b1e5", 600, 30.0)] = 100.0
    msg = w.check("spectrum-k1-b1e5", _row(alpha, k, 223.61))   # 3.6% apart
    assert "pi/16" in msg and "n-doubling" in msg
    assert w.check("spectrum-k1-b1e5", _row(alpha, k, 223.61, converged=False)) is None
    assert w.check("spectrum-k1-b1e5", _row(alpha, k, 216.0)) is None
    alpha2, k2 = w.rows["spectrum-k1-b1e4"]
    w._refs[("angle", "spectrum-k1-b1e4", 600, 30.0)] = 70.0
    w._refs[("range", "spectrum-k1-b1e4", 600, 30.0)] = 60.0
    msg = w.check("spectrum-k1-b1e4", _row(alpha2, k2, 73.5))
    assert "pi/16" in msg and "n-doubling" not in msg
    w._refs[("range", "spectrum-k1-b1e5", 600, 30.0)] = 220.0
    assert "numerical range" in w.check("spectrum-k1-b1e5", _row(alpha, k, 216.0))
    docs = {name: _row(w.rows[name][0], 1, 0.7 * w.rows[name][0] ** 0.5)
            for name in w.SLOPE_ROWS}
    assert w.cross(docs) == []
    docs = {name: _row(w.rows[name][0], 1, 0.7 * w.rows[name][0] ** 0.4)
            for name in w.SLOPE_ROWS}
    assert len(w.cross(docs)) == 1


def test_psi_pseudo_row_checks():
    w = workloads.PsiSweep(0)
    mode_beta = w.alpha_k * 2 / (8 * math.pi)
    row = _row(w.alpha_k, 2, 9.3, lambda_star=0.3 * mode_beta)
    w._refs[("sigma", 2)] = 31.6
    w._refs[("smin", w.alpha_k, 2, 600, 30.0, 0.3 * mode_beta)] = 9.3
    assert w.check("pseudo-k2", row) is None
    w._refs[("sigma", 2)] = 9.0
    assert "against Sigma" in w.check("pseudo-k2", row)
    w._refs[("sigma", 2)] = 31.6
    w._refs[("smin", w.alpha_k, 2, 600, 30.0, 0.3 * mode_beta)] = 9.2
    assert "gesvd" in w.check("pseudo-k2", row)
    bad = _row(w.alpha_k, 2, 9.3, lambda_star=1.3 * mode_beta)
    assert "lambda*/beta_k" in w.check("pseudo-k2", bad)


def test_certify_checks():
    w = workloads.Certify(0)
    rows = [{"check_id": "c%d" % i, "passed": True} for i in range(20)]
    assert w.check("verify", {"rows": rows}) is None
    rows[3]["passed"] = False
    assert "c3" in w.check("verify", {"rows": rows})
    assert w.check("verify", {"rows": rows[:19]}) is not None
    name = "quasimode-b1e3"
    exact = checks.quasimode_residual(w.betas[name])
    doc = {"rows": [{"value": 0.99 * exact}, {"value": 3.6}]}
    assert w.check(name, doc) is None
    doc = {"rows": [{"value": 0.97 * exact}, {"value": 3.6}]}
    assert "continuum" in w.check(name, doc)
    doc = {"rows": [{"value": exact}, {"value": 21.4}]}
    assert "scaled" in w.check(name, doc)
    docs = {n: {"rows": [{}, {"value": v}]} for n, v in zip(w.betas, (3.6, 4.3, 4.4, 4.4))}
    assert w.cross(docs) == []
    docs = {n: {"rows": [{}, {"value": v}]} for n, v in zip(w.betas, (3.6, 4.3, 4.4, 8.0))}
    assert len(w.cross(docs)) == 1
    fit = {"fit": {"slope": 0.4, "excluded_alphas": []}}
    assert w.check("sweep-range-k1", fit) is not None


def _span(sid, parent, layer, name, t0, t1, size=None, thread=1):
    return spans.Span(sid, parent, thread, layer, name, t0, t1, size)


def test_self_times_subtract_children_once():
    ss = [_span(1, None, "cli", "main", 0.0, 10.0),
          _span(2, 1, "analysis", "spectral_bound", 1.0, 4.0),
          _span(3, 1, "analysis", "spectral_bound", 3.0, 6.0),   # overlaps 2
          _span(4, 2, "solver", "eigenvalues", 1.5, 3.5, size=600)]
    own = spans.self_times(ss)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(1.0)
    assert own[4] == pytest.approx(2.0)


def test_layer_metrics_from_synthetic_spans():
    ss = [_span(1, None, "cli", "main", 0.0, 10.0),
          _span(2, 1, "analysis", "pseudospectral_bound", 1.0, 9.0),
          _span(3, 2, "operators", "assemble_L1", 1.0, 1.5, size=2 ** 21),
          _span(4, 3, "operators", "assemble_A", 1.0, 1.2, size=2 ** 20),
          _span(5, 2, "solver", "smallest_singular_value", 2.0, 3.0, size=300),
          _span(6, 2, "solver", "smallest_singular_value", 3.0, 5.0, size=300),
          _span(7, 2, "operators", "assemble_L1", 5.0, 5.5, size=2 ** 22),
          _span(8, 2, "solver", "smallest_singular_value", 6.0, 7.0, size=600)]
    m = spans.layer_metrics(ss)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["analysis.self_s"] == pytest.approx(3.0)
    assert m["analysis.smin_per_psi"] == 3
    assert m["analysis.levels_per_bound"] == 2
    assert m["operators.assemble_calls"] == 2
    assert m["operators.assemble_s"] == pytest.approx(1.0)
    assert m["operators.matrix_mb"] == 4
    assert m["solver.svd_calls"] == 3
    assert m["solver.svd_call_s"] == pytest.approx(1.0)
    assert m["solver.dense_n3"] == pytest.approx((2 * 300 ** 3 + 600 ** 3) / 1e9)
    assert m["solver.eig_calls"] == 0
    assert spans.unit("verify.check_s_max") == "s"
    assert spans.unit("solver.eig_calls") == "count"


def test_recorder_wraps_cross_module_calls_and_restores():
    import oseenspec
    from oseenspec import analysis, grids
    original = grids.make_grid
    rec = spans.Recorder()
    rec.install(oseenspec)
    try:
        assert analysis.make_grid is not original   # bound by name in analysis
        analysis.sigma_grid(oseenspec.ModeSpec(alpha=8 * math.pi * 1e4, k=1), n=32)
    finally:
        rec.uninstall()
    assert grids.make_grid is original and analysis.make_grid is original
    names = [(s.layer, s.name) for s in rec.spans]
    assert ("analysis", "sigma_grid") in names
    assert ("grids", "make_grid") in names
    by_id = {s.id: s for s in rec.spans}
    grid_spans = [s for s in rec.spans if s.name == "make_grid"]
    assert all(by_id[s.parent].layer in ("analysis", "grids") for s in grid_spans)
    assert spans.layer_metrics(rec.spans)["grids.finest_n"] == 32
