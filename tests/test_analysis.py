import functools
import json
import math
import os

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.integrate import quad

import oracle
from oseenspec import analysis, operators, solver, specfun, verify
from oseenspec.grids import Field, ModeSpec, default_grid, make_grid, quadrature

EIGHT_PI = 8 * math.pi

with open(os.path.join(os.path.dirname(__file__), "golden_bounds.json")) as fh:
    GOLDEN = json.load(fh)


def golden_value(table, alpha, k):
    for entry in GOLDEN[table]:
        if entry["alpha"] == alpha and entry["k"] == k:
            return entry["value"]
    raise KeyError((table, alpha, k))


@pytest.fixture(scope="module")
def sigma_ladder():
    # k = 1 spectral bounds across the four sweep decades, shared below
    out = {}
    for b in (1e2, 1e3, 1e4, 1e5):
        out[b] = analysis.spectral_bound(ModeSpec(alpha=EIGHT_PI * b, k=1))
    return out


@pytest.fixture(scope="module")
def psi_1e2():
    return analysis.pseudospectral_bound(ModeSpec(alpha=EIGHT_PI * 1e2, k=1))


def test_sigma_selfadjoint_ground_values():
    r1 = analysis.spectral_bound(ModeSpec(alpha=0.0, k=1))
    r2 = analysis.spectral_bound(ModeSpec(alpha=0.0, k=2))
    assert abs(r1.value - 1.5) < 2e-3
    assert abs(r2.value - 1.0) < 2e-3
    assert r1.converged and r2.converged


def test_sigma_golden_ladder(sigma_ladder):
    for b, res in sigma_ladder.items():
        ref = golden_value("sigma", EIGHT_PI * b, 1)
        assert res.converged
        assert abs(res.value - ref) / ref < 1e-2


def test_sigma_golden_k2_and_k3():
    for alpha, k in ((EIGHT_PI * 1e3, 2), (0.0, 3)):
        res = analysis.spectral_bound(ModeSpec(alpha=alpha, k=k))
        ref = golden_value("sigma", alpha, k)
        assert res.converged
        assert abs(res.value - ref) / ref < 1e-2


def test_sigma_monotone_in_beta(sigma_ladder):
    vals = [sigma_ladder[b].value for b in (1e2, 1e3, 1e4, 1e5)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= 0.98 * lo


def test_sigma_symmetry(sigma_ladder):
    # the bound is even under alpha -> -alpha and k -> -k separately
    base1 = sigma_ladder[1e3].value
    base2 = analysis.spectral_bound(ModeSpec(alpha=EIGHT_PI * 1e3, k=2)).value
    for k, base in ((1, base1), (2, base2)):
        neg_a = analysis.spectral_bound(ModeSpec(alpha=-EIGHT_PI * 1e3, k=k))
        neg_k = analysis.spectral_bound(ModeSpec(alpha=EIGHT_PI * 1e3, k=-k))
        assert abs(neg_a.value - base) <= 1e-10 * base
        assert abs(neg_k.value - base) <= 1e-10 * base


def test_sigma_explicit_grid_is_respected():
    grid = make_grid(300, 30.0)
    res = analysis.spectral_bound(ModeSpec(alpha=0.0, k=1), grid)
    assert res.grid_n in (600, 1200)
    assert abs(res.value - 1.5) < 2e-3


def test_psi_selfadjoint_matches_sigma():
    # at beta_k = 0 the window is the one shift 0 and one slope settles each
    # level: Psi is Sigma on the same grid to rounding, at lambda* = 0 and
    # on the same finest grid, for the tridiagonal kind (k = 1) and the
    # pencil kind (k = 2)
    for k, ground in ((1, 1.5), (2, 1.0)):
        mode = ModeSpec(alpha=0.0, k=k)
        res = analysis.pseudospectral_bound(mode)
        sig = analysis.spectral_bound(mode, analysis.bound_grid(mode, "psi"))
        assert abs(res.value - sig.value) <= 1e-12 * sig.value
        assert res.lambda_star == 0.0
        assert res.grid_n == sig.grid_n
        assert abs(res.value - ground) < 2e-3


def test_psi_golden_value(psi_1e2):
    ref = golden_value("psi", EIGHT_PI * 1e2, 1)
    assert psi_1e2.converged
    assert abs(psi_1e2.value - ref) / ref < 1e-2


def test_psi_past_the_dense_cap():
    # base grid n = 4800 (levels 4800 and 9600) runs on the banded path,
    # which has no size cap; the dense oracle keeps n <= 4000
    mode = ModeSpec(alpha=EIGHT_PI * 1e2, k=1)
    res = analysis.pseudospectral_bound(mode, default_grid(n=4800))
    ref = golden_value("psi", EIGHT_PI * 1e2, 1)
    assert res.converged and res.grid_n >= 4800
    assert abs(res.value - ref) / ref < 1e-2


def test_sigma_past_the_old_dense_cap():
    # base grid n = 4800 (levels 4800 and 9600), past the n = 4000 cap of
    # the dense eigensolver the Sigma path used to run on
    mode = ModeSpec(alpha=EIGHT_PI * 1e3, k=1)
    res = analysis.spectral_bound(mode, analysis.sigma_grid(mode, n=4800))
    ref = golden_value("sigma", EIGHT_PI * 1e3, 1)
    assert res.converged and res.grid_n >= 4800
    assert abs(res.value - ref) / ref < 1e-2


def test_sigma_never_calls_the_dense_eigensolver(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("the Sigma path reached the dense oracle")

    monkeypatch.setattr(solver, "eigenvalues", dense)
    monkeypatch.setattr(operators, "assemble_H_deformed", dense)
    for k in (1, 2):
        assert analysis.spectral_bound(ModeSpec(alpha=EIGHT_PI * 1e3, k=k)).converged


def test_range_and_verify_never_call_the_dense_eigensolver(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("the range path or verify reached the dense oracle")

    monkeypatch.setattr(solver, "eigenvalues", dense)
    for name in ("assemble_H_deformed", "assemble_A", "assemble_K", "assemble_B",
                 "assemble_H", "assemble_L1"):
        monkeypatch.setattr(operators, name, dense)
    for lib in (scipy.linalg, np.linalg):
        monkeypatch.setattr(lib, "eigh", dense)
        monkeypatch.setattr(lib, "eigvalsh", dense)
    for k in (1, 2):
        mode = ModeSpec(alpha=EIGHT_PI * 1e3, k=k)
        pt = analysis.sweep_point(mode, "range", analysis.sigma_grid(mode, n=300))
        assert pt.converged and pt.value > 0
    reports = verify.run_all()
    assert len(reports) == 20 and all(rep.passed for rep in reports)


@pytest.mark.parametrize("k,beta_k", [(1, 1e5), (2, 5e4)])
def test_sigma_is_not_a_wall_mode(k, beta_k):
    # wall eigenvalues sit near cos(2 theta) r_max^2 / 16 and are stable
    # under n-doubling; at the same h, an interval 1.5x longer moves them
    # but must leave Sigma where it is
    mode = ModeSpec(alpha=EIGHT_PI * beta_k / k, k=k)
    grid = analysis.sigma_grid(mode)
    near = analysis.spectral_bound(mode, grid)
    far = analysis.spectral_bound(mode, make_grid(grid.n * 3 // 2, 1.5 * grid.r_max))
    assert near.converged and far.converged
    assert far.grid_n == near.grid_n * 3 // 2
    assert abs(near.value - far.value) < 1e-9 * far.value


def test_psi_independent_of_r_max():
    # the default grid keeps r_max = 30 even where the critical radius of
    # lambda* is 18.4 (beta_1 = 1e5): at the same h, r_max = 65 moves nothing
    mode = ModeSpec(alpha=EIGHT_PI * 1e5, k=1)
    near = analysis.pseudospectral_bound(mode, make_grid(600, 30.0))
    far = analysis.pseudospectral_bound(mode, make_grid(1300, 65.0))
    assert near.converged and far.converged
    assert specfun.sigma_inverse(near.lambda_star / mode.beta_k) > 18.0
    assert abs(near.value - far.value) <= 1e-12 * far.value
    assert abs(near.lambda_star - far.lambda_star) <= 1e-3 * abs(far.lambda_star)


@pytest.mark.parametrize("beta_1", [3e6, 1e7])
def test_psi_grid_contains_the_critical_radius(beta_1):
    # the resolvent peak sits near r* = 2.7 beta_1^{1/6} (32.4 and 39.6
    # here); on r_max = 30, n-doubling converged on the cut-off problem,
    # 2% and 23% high.  The default grid must give the r_max = 60 value at
    # the same h
    mode = ModeSpec(alpha=EIGHT_PI * beta_1, k=1)
    res = analysis.pseudospectral_bound(mode)
    h = analysis.bound_grid(mode, "psi").h
    n = math.ceil(60.0 / h)
    far = analysis.pseudospectral_bound(mode, make_grid(n, n * h))
    assert res.converged and far.converged
    assert far.grid_n // n == res.grid_n // 600
    assert abs(res.value - far.value) <= 1e-5 * far.value


def test_psi_levels_start_at_the_critical_radius_then_at_the_coarser_minimum(
        monkeypatch, psi_1e2):
    # every level runs the one secant, bracketed by the window's ends: the
    # first from the shift of the critical radius with no curvature, each
    # refined level from the coarser level's lambda* and curvature
    secant, calls = analysis._slope_min, []

    def recorded(fn, a, b, x, curvature=None):
        calls.append(((a, b), x, curvature, secant(fn, a, b, x, curvature)))
        return calls[-1][-1]

    monkeypatch.setattr(analysis, "_slope_min", recorded)
    mode = ModeSpec(alpha=EIGHT_PI * 1e2, k=1)
    res = analysis.pseudospectral_bound(mode)
    edge, far, centre = analysis._psi_window(mode)
    assert len(calls) == 2 and all(call[0] == (far, edge) for call in calls)
    assert calls[0][1:3] == (centre, None)
    assert calls[1][1:3] == calls[0][3][1:3]
    assert (res.value, res.lambda_star) == calls[1][3][:2]
    assert (res.value, res.lambda_star, res.grid_n) == (
        psi_1e2.value, psi_1e2.lambda_star, psi_1e2.grid_n)


def test_psi_without_an_interior_minimum_reports_the_window_edge(monkeypatch, caplog):
    # a window wholly below lambda*, where s descends to its top end, the
    # end at 0.65 r_c: each level's secant closes its bracket on that end,
    # whose slope points out of the window, and reports the lowest s_min it
    # measured, at that edge; no cold call is made beyond the secants' own,
    # the next level starts at the reported lambda* with no curvature, and
    # the bound is flagged
    mode, grid = ModeSpec(alpha=EIGHT_PI * 1e2, k=1), default_grid(n=300)
    lam = analysis.pseudospectral_bound(mode, grid).lambda_star
    monkeypatch.setattr(analysis, "_psi_window", lambda m: (0.8 * lam, 0.6 * lam, 0.7 * lam))
    cold, secant, calls, levels = solver.smallest_singular_value, analysis._slope_min, [], []

    def counted(matrix, shift):
        calls.append((cold(matrix, shift), shift))
        return calls[-1][0]

    def recorded(fn, a, b, x, curvature=None):
        first = len(calls)
        hit = secant(fn, a, b, x, curvature)
        levels.append(((x, curvature), calls[first:], hit))
        return hit

    monkeypatch.setattr(solver, "smallest_singular_value", counted)
    monkeypatch.setattr(analysis, "_slope_min", recorded)
    res = analysis.pseudospectral_bound(mode, grid)
    monkeypatch.undo()
    assert not res.converged
    assert "no interior resolvent minimum" in caplog.text
    assert sum(len(measured) for _, measured, _ in levels) == len(calls)
    assert len(levels) >= 2
    for _, measured, hit in levels:
        assert hit[2:] == (None, False)
        assert hit[:2] == min((s, shift) for (s, _), shift in measured)
    for (_, _, hit), (start, _, _) in zip(levels, levels[1:]):
        assert start == (hit[1], None)
    assert (res.value, res.lambda_star) == levels[-1][2][:2]
    assert res.lambda_star == 0.8 * lam
    band = operators.assemble_banded(mode, make_grid(res.grid_n, grid.r_max))
    assert res.value == solver.smallest_singular_value(band, res.lambda_star)[0]


def test_psi_secant_from_the_window_edge_finds_the_minimum(monkeypatch):
    # with the first level stubbed to find no interior minimum, that level
    # reports s_min measured at the window's 0.65 r_c end, and the next
    # level starts the secant there, with no curvature and the whole window
    # as its bracket: it finds the minimum inside the window, the value a
    # bound started on that level's grid reports, and the bound stays
    # flagged
    mode, grid = ModeSpec(alpha=EIGHT_PI * 1e2, k=1), default_grid(n=300)
    edge, far, _ = analysis._psi_window(mode)
    secant, starts = analysis._slope_min, []

    def first_finds_none(fn, a, b, x, curvature=None):
        starts.append((x, curvature))
        if len(starts) == 1:
            return fn(edge)[0], edge, None, False
        return secant(fn, a, b, x, curvature)

    monkeypatch.setattr(analysis, "_slope_min", first_finds_none)
    res = analysis.pseudospectral_bound(mode, grid)
    monkeypatch.undo()
    assert starts[1] == (edge, None)
    ref = analysis.pseudospectral_bound(mode, default_grid(n=600))
    assert not res.converged and ref.converged
    assert res.grid_n == ref.grid_n == 1200
    assert far < res.lambda_star < edge
    assert abs(res.value - ref.value) <= 1e-6 * ref.value
    assert abs(res.lambda_star - ref.lambda_star) <= analysis._REFINE_TOL * ref.lambda_star

def _first_level(mode, grid):
    # (Psi, lambda*, curvature) of a bound's first level on the grid: the
    # cold slope secant from the critical radius, bracketed by the window
    band = operators.assemble_banded(mode, grid)
    edge, far, centre = analysis._psi_window(mode)
    return analysis._slope_min(functools.partial(solver.smallest_singular_value, band),
                               *sorted((edge, far)), centre)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_psi_lowest_scan_minimum_is_the_refined_minimum(k):
    # at beta_k = 1e6 a cold scan over beta_k [-0.2, 1.2] has about 11
    # interior minima; refining every one of them measures nothing below
    # what the first level's secant, started at the critical radius,
    # refines to
    mode, grid = ModeSpec(alpha=EIGHT_PI * 1e6 / k, k=k), default_grid(n=300)
    band = operators.assemble_banded(mode, grid)
    lams = mode.beta_k * np.linspace(-0.2, 1.2, 64)
    vals = np.array([solver.smallest_singular_value(band, lam)[0] for lam in lams])
    inner = np.where((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1
    assert inner.size >= 10
    psi, _, _, _ = _first_level(mode, grid)
    measured = []

    def cold(lam):
        s, ds = solver.smallest_singular_value(band, lam)
        measured.append(s)
        return s, ds

    for i in inner:
        a, b = sorted((lams[i - 1], lams[i + 1]))
        analysis._slope_min(cold, a, b, lams[i])
    assert min(measured) >= psi * (1.0 - 1e-7)


@pytest.mark.parametrize("k,beta_k,off_law", [(1, 1e6, False), (2, 1e6, False),
                                              (5, 1e6, False), (3, -1e4, False),
                                              (2, 1e2, True), (2, -1e2, True),
                                              (1, 1.0, True), (5, 3.0, True),
                                              (5, -3.0, True), (1, 1e-2, True),
                                              (4, 1e-2, True), (6, 1.0, True),
                                              (7, 0.3, True), (8, 0.1, True),
                                              (-8, -10.0, True)])
def test_psi_short_window_finds_the_full_window_minimum(monkeypatch, k, beta_k, off_law):
    # the first level's secant, started at the critical radius and
    # bracketed by the window, reaches the minimum that oracle.psi_scan
    # refines from a cold 64-shift scan over beta_k [-0.2, 1.2] on the same
    # band: also at beta_k = 1e6, where that scan has 10 or more interior
    # minima, and where r* is off its law 2.70 |beta_k|^{1/6} (off_law:
    # |beta_k| <= 100, where the window finds it by its width and the floor
    # max(4, 2 sqrt|k|) of r_c; with the floor 4 alone, |k| = 7 and 8 find
    # no interior minimum)
    mode, grid = ModeSpec(alpha=EIGHT_PI * beta_k / k, k=k), default_grid(n=300)
    secant, levels = analysis._slope_min, []

    def recorded(fn, a, b, x, curvature=None):
        levels.append(secant(fn, a, b, x, curvature))
        return levels[-1]

    monkeypatch.setattr(analysis, "_slope_min", recorded)
    analysis.pseudospectral_bound(mode, grid)
    monkeypatch.undo()
    hit = _first_level(mode, grid)
    band = operators.assemble_banded(mode, grid)
    psi, lam, _ = oracle.psi_scan(band, mode.beta_k * np.linspace(-0.2, 1.2, 64))
    assert levels[0] == hit
    assert abs(hit[0] - psi) <= 1e-7 * psi
    assert abs(hit[1] - lam) <= analysis._REFINE_TOL * max(abs(lam), 1.0)
    ratio = specfun.sigma_inverse(lam / mode.beta_k) / abs(mode.beta_k) ** (1 / 6)
    assert (abs(ratio - 2.7) > 0.1) == off_law


def test_psi_window_of_three_refine_widths_measures_its_edge():
    # at (k, beta_k) = (5, +-1e-2) the window spans 3.1e-3, three refine
    # widths: the refined level's secant, started within one refine width
    # of the window's edge, closes its bracket on that edge after one
    # slope; one cold measurement at the edge, whose slope points into the
    # bracket, settles it, and the bound reports what a cold scan of the
    # window on its finest grid refines to
    for beta_k in (1e-2, -1e-2):
        mode, grid = ModeSpec(alpha=EIGHT_PI * beta_k / 5, k=5), default_grid(n=300)
        res = analysis.pseudospectral_bound(mode, grid)
        assert res.converged and res.grid_n == 600
        band = operators.assemble_banded(mode, make_grid(res.grid_n, grid.r_max))
        psi, lam, _ = oracle.psi_window_scan(band, mode)
        assert abs(res.value - psi) <= 1e-7 * psi
        assert abs(res.lambda_star - lam) <= analysis._REFINE_TOL


def _golden_evaluations(a, b, tol):
    # golden section on [a, b]: two points, then one per shrink by the
    # golden ratio until the width reaches tol
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    return 2 + math.ceil(math.log(tol / (b - a)) / math.log(ratio))


@pytest.mark.parametrize("fn,dfn,a,b,x,argmin", [
    (lambda t: (t - 0.3) ** 2 + 1.0, lambda t: 2.0 * (t - 0.3), -1.0, 2.0, 0.5, 0.3),
    (lambda t: math.exp(t) - 2.0 * t, lambda t: math.exp(t) - 2.0, -1.0, 2.0, 0.5,
     math.log(2.0)),
    (lambda t: math.exp(10.0 * (t - 19.5)) - 10.0 * (t - 19.5),
     lambda t: 10.0 * math.exp(10.0 * (t - 19.5)) - 10.0, 10.0, 20.0, 15.0, 19.5),
    (lambda t: math.cosh(t - 50.2), lambda t: math.sinh(t - 50.2), 49.0, 51.0, 50.0, 50.2),
], ids=["quadratic", "asymmetric", "near-end", "off-centre"])
def test_slope_min_reaches_the_refine_width_in_fewer_calls_than_golden(fn, dfn, a, b, x,
                                                                       argmin):
    # a quadratic, an asymmetric smooth minimum, a minimum next to the
    # bracket's end, and one off the centre of a bracket away from the
    # origin, each started from a point no higher than the bracket's ends:
    # the slope secant stops within _REFINE_TOL max(|lambda*|, 1) of the
    # minimizer, returns its lowest evaluation, and evaluates less often
    # than golden section takes to shrink the same bracket to that width
    assert fn(x) <= min(fn(a), fn(b))
    calls = []

    def counted(t):
        calls.append((t, fn(t), dfn(t)))
        return calls[-1][1:]

    val, lam, curvature, inside = analysis._slope_min(counted, a, b, x)
    tol = analysis._REFINE_TOL * max(abs(argmin), 1.0)
    assert calls[0][0] == x
    assert all(a <= t <= b for t, _, _ in calls)
    assert (lam, val) == min(calls, key=lambda c: c[1])[:2]
    assert abs(lam - argmin) <= tol
    assert curvature > 0.0 and inside
    assert len(calls) < _golden_evaluations(a, b, tol)


def test_psi_cold_calls_per_bound(monkeypatch):
    # one bound at beta_1 = 1e2 (two levels, n = 600 and 1200): the slope
    # refinements measure at most 8 shifts cold in all, where Brent took
    # about 11 and golden section about 28
    cold, calls = solver.smallest_singular_value, []

    def counted(matrix, lam, **kwargs):
        calls.append(lam)
        return cold(matrix, lam, **kwargs)

    monkeypatch.setattr(solver, "smallest_singular_value", counted)
    res = analysis.pseudospectral_bound(ModeSpec(alpha=EIGHT_PI * 1e2, k=1))
    assert res.converged and res.grid_n == 1200
    assert len(calls) <= 8


def test_psi_lambda_star_is_the_zero_of_the_slope():
    # the refinement stops within _REFINE_TOL |lambda*| of the zero of s'
    # on the finest grid (bound_grid's r_max), also at beta_1 = 1e6, where
    # the refined level's window spans 3010 to 12990 around lambda* ~ 5490,
    # so a width relative to the window's ends would be 2.4 times too
    # loose, and at beta_1 = 3e7, where a refined level that stopped on
    # the coarser level's curvature kept its wrong minimum (lambda* 67929,
    # 3.6% high, against the zero of s' at 53146), and whose first level
    # now runs on the n floor ceil(r_max |beta_1|^{1/6}) = 1181, so that
    # h <= |beta_1|^{-1/6}; the zero is found here by bisection on cold
    # slopes
    for beta_1, grid_n in ((1e6, 1200), (3e7, 2362)):
        mode = ModeSpec(alpha=EIGHT_PI * beta_1, k=1)
        res = analysis.pseudospectral_bound(mode)
        assert res.converged and res.grid_n == grid_n
        r_max = analysis.bound_grid(mode, "psi").r_max
        band = operators.assemble_banded(mode, make_grid(res.grid_n, r_max))

        def slope(lam):
            return solver.smallest_singular_value(band, lam)[1]

        lo, hi = 0.9 * res.lambda_star, 1.1 * res.lambda_star
        assert slope(lo) < 0.0 < slope(hi)
        while hi - lo > 1e-6 * res.lambda_star:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
        assert abs(res.lambda_star - 0.5 * (lo + hi)) <= analysis._REFINE_TOL * abs(res.lambda_star)


@pytest.mark.parametrize("k,beta_k,psi,lam", [
    (1, 0.01, 1.4999899746411258, 0.0025277777777777772),
    (1, -1e-4, 1.4999896669961021, -2.5277777777777776e-05),
    (2, 0.02, 0.99998764779054, 0.0050555555555555545),
], ids=["beta1=1e-2", "beta1=-1e-4", "beta2=2e-2"])
def test_psi_small_beta_converges(k, beta_k, psi, lam):
    # below |beta_k| ~ 0.045 the first level's bracket, and below ~ 0.006
    # the refined level's window too, is narrower than twice the refine
    # width 1e-3: one slope resolves it, so the refinement returns its
    # measured point instead of reporting no minimum, and the bound
    # converges to Psi and lambda* of the Brent refinement it replaced
    # (values of that refinement, default grid, finest n = 1200) within
    # the 1e-7 and _REFINE_TOL the slope refinement keeps on the surveys
    res = analysis.pseudospectral_bound(ModeSpec(alpha=EIGHT_PI * beta_k / k, k=k))
    assert res.converged and res.grid_n == 1200
    assert abs(res.value - psi) <= 1e-7 * psi
    assert abs(res.lambda_star - lam) <= analysis._REFINE_TOL * max(abs(lam), 1.0)


def test_psi_lambda_star_in_unit_band(psi_1e2):
    # the resolvent peak sits at nu = lambda/beta inside (0, 1)
    assert 0.0 < psi_1e2.lambda_star / 1e2 < 1.0


def test_psi_scan_endpoints_exceed_interior(psi_1e2):
    mode = ModeSpec(alpha=EIGHT_PI * 1e2, k=1)
    matrix = operators.assemble_banded(mode, make_grid(600, 30.0))
    for edge in (-0.2 * 1e2, 1.2 * 1e2):
        smin, _ = solver.smallest_singular_value(matrix, edge)
        assert smin > 2.0 * psi_1e2.value


def test_psi_below_sigma(sigma_ladder, psi_1e2):
    assert psi_1e2.value <= sigma_ladder[1e2].value + 1e-6


@pytest.mark.parametrize("k,beta_k", [(1, 3.0), (1, 1e2), (1, -1e5), (-1, 1e3),
                                      (2, 1e4), (2, -1e3), (3, 1e5), (-3, -1e2),
                                      (5, 3e4)])
def test_psi_reported_values_do_not_depend_on_the_scan(monkeypatch, k, beta_k):
    # a bound whose first level starts its secant at what a cold 16-shift
    # scan of the window refines to, as Psi started it when it scanned,
    # reports Psi within 1e-7, lambda* within the refine width, and the
    # same n and flag as the bound started at the critical radius
    mode = ModeSpec(alpha=EIGHT_PI * beta_k / k, k=k)
    grid = default_grid(n=300)
    got = analysis.pseudospectral_bound(mode, grid)
    edge, far, _ = analysis._psi_window(mode)
    scan = oracle.psi_window_scan(operators.assemble_banded(mode, grid), mode)
    monkeypatch.setattr(analysis, "_psi_window", lambda m: (edge, far, scan[1]))
    ref = analysis.pseudospectral_bound(mode, grid)
    assert abs(got.value - ref.value) <= 1e-7 * ref.value
    assert abs(got.lambda_star - ref.lambda_star) <= analysis._REFINE_TOL * abs(ref.lambda_star)
    assert (got.grid_n, got.converged) == (ref.grid_n, ref.converged)


def test_combined_bounds_at_zero_alpha():
    # minimum over k sits at k = 2 (value 1.0, against 1.5 at k = 1 and 3);
    # higher k only grow, so k_max = 3 already exhibits the attainment
    sig, res = analysis.combined_bounds(0.0, k_max=3)
    assert res.mode.k == 2
    assert abs(sig.value - 1.0) < 2e-3
    # both default grids are n = 600 on r_max = 30 at beta_k = 0
    assert analysis.bound_grid(res.mode, "psi") == analysis.bound_grid(sig.mode, "sigma")
    assert abs(res.value - sig.value) <= 1e-12 * sig.value
    assert res.lambda_star == 0.0
    assert res.grid_n == sig.grid_n


def test_combined_bounds_label_each_bound_with_its_own_mode():
    # at alpha = 8 pi 20 Sigma is least at k = 1 and Psi at k = 2; each
    # result carries its own mode, grid and lambda*, so lambda*/beta_k is
    # the minimizing mode's nu (0.219 at k = 2, against 0.187 at k = 1)
    alpha, grid = EIGHT_PI * 20, default_grid(n=300)
    sig, psi = analysis.combined_bounds(alpha, k_max=3, grid=grid)
    assert (sig.mode.k, psi.mode.k) == (1, 2)
    assert sig == analysis.spectral_bound(ModeSpec(alpha=alpha, k=1), grid)
    assert psi == analysis.pseudospectral_bound(ModeSpec(alpha=alpha, k=2), grid)
    for k in (1, 3):
        other = analysis.pseudospectral_bound(ModeSpec(alpha=alpha, k=k), grid)
        assert psi.value < other.value


def test_combined_attainment_moves_to_k1():
    # beta_k grows with k, so for alpha >= 8 pi 1e2 the k = 1 mode is lowest
    s1 = analysis.spectral_bound(ModeSpec(alpha=EIGHT_PI * 1e2, k=1))
    s2 = analysis.spectral_bound(ModeSpec(alpha=EIGHT_PI * 1e2, k=2))
    assert s1.value < s2.value


def test_combined_rejects_bad_kmax():
    with pytest.raises(ValueError):
        analysis.combined_bounds(0.0, k_max=0)


def test_numerical_range_bound_selfadjoint_case():
    # frozen at n = 600: 1.1648075306747117; positive and below the
    # spectral value 1.5, as a numerical-range bound must be
    val = analysis.numerical_range_bound(ModeSpec(alpha=0.0, k=1))
    assert 0.0 < val <= 1.5
    assert abs(val - 1.1648075306747117) < 1e-2


def test_range_golden_table(sigma_ladder):
    for b in (1e2, 1e3, 1e4, 1e5):
        mode = ModeSpec(alpha=EIGHT_PI * b, k=1)
        grid = analysis.sigma_grid(mode)
        val = analysis.numerical_range_bound(mode, make_grid(1200, grid.r_max))
        ref = golden_value("range", EIGHT_PI * b, 1)
        assert abs(val - ref) / ref < 1e-2
        # the certified bound sits below the spectral value
        assert val <= sigma_ladder[b].value + 2e-2


def test_sigma_grid_policy():
    # wall pushed out once 4.4 |beta|^{1/4} passes the default 30
    assert analysis.sigma_grid(ModeSpec(alpha=EIGHT_PI * 1e2, k=1)).r_max == 30.0
    g = analysis.sigma_grid(ModeSpec(alpha=EIGHT_PI * 1e5, k=1))
    assert_allclose(g.r_max, 4.4 * 1e5 ** 0.25, rtol=1e-12)


def continuum_quasimode_ratio(beta_1):
    # ||L1 u|| / ||u|| for the closed-form field u = eta((r - r1)/w + 1/2),
    # w = 3/r1, with the exact eta'' and adaptive quadrature, so no part of
    # it goes through the finite-difference operator
    r1 = beta_1 ** (1.0 / 6.0)
    w = 3.0 / r1
    lam = beta_1 * specfun.sigma(r1)
    a = r1 - w / 2

    def residual_sq(r):
        x = (r - a) / w
        u = x ** 2 * (x - 1.0) ** 2
        u_rr = (2.0 - 12.0 * x + 12.0 * x ** 2) / w ** 2
        pot = 0.75 / r ** 2 + r ** 2 / 16 - 0.5 + specfun.f(r)
        skew = beta_1 * specfun.sigma(r) - lam
        return (pot * u - u_rr) ** 2 + (skew * u) ** 2

    num = quad(residual_sq, a, a + w, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return math.sqrt(num / (w / 630.0))


def test_quasimode_norm_identity():
    # ||u|| = (3/r1)^{1/2} ||eta|| with ||eta||^2 = 1/630 on the centred window
    grid = make_grid(800, 12.0)
    r1 = 1e3 ** (1.0 / 6.0)
    x = r1 * (grid.nodes - r1) / 3.0 + 0.5
    eta = np.where((x > 0) & (x < 1), x ** 2 * (x - 1.0) ** 2, 0.0)
    u = Field(grid, eta)
    assert_allclose(u.norm(), (3.0 / r1) ** 0.5 / math.sqrt(630.0), rtol=1e-3)


def test_quasimode_orthogonality_and_frozen_ratio():
    # the discrete ratio converges to the continuum one at first order in h
    # (eta'' jumps at the window ends): 0.44% below it at n = 1600
    grid = make_grid(1600, 12.0)
    v, ratio = analysis.quasimode(1e3, grid)
    chi = Field(grid, grid.nodes ** 1.5 * specfun.g(grid.nodes))
    overlap = abs(quadrature(v, chi)) / (v.norm() * chi.norm())
    assert overlap <= 1e-6
    exact = continuum_quasimode_ratio(1e3)
    assert abs(exact - 36.3725) / 36.3725 < 1e-5
    assert abs(ratio - exact) / exact < 1e-2


def test_quasimode_certifies_resolvent_at_its_shift():
    # s_min at the quasimode's shift is below the quasimode ratio
    grid = make_grid(800, 12.0)
    v, ratio = analysis.quasimode(1e3, grid)
    r1 = 1e3 ** (1.0 / 6.0)
    lam_q = 1e3 * specfun.sigma(r1)
    matrix = operators.assemble_banded(ModeSpec(alpha=EIGHT_PI * 1e3, k=1), grid)
    assert solver.smallest_singular_value(matrix, lam_q)[0] <= ratio


def test_quasimode_guards():
    with pytest.raises(ValueError):
        analysis.quasimode(0.5, make_grid(800, 12.0))
    with pytest.raises(ValueError):
        # the centred window reaches the origin below |beta_1| = 27/8
        analysis.quasimode(-3.0, make_grid(800, 12.0))
    with pytest.raises(ValueError):
        # support reaches past r_max for beta = 1e12 (r1 = 100)
        analysis.quasimode(1e12, make_grid(2000, 40.0))
    with pytest.raises(ValueError):
        # h = 0.1 is far above 1/(20 r1)
        analysis.quasimode(1e3, make_grid(120, 12.0))


def test_fit_loglog_recovers_exact_line():
    xs = np.log([10.0, 100.0, 1000.0, 10000.0])
    pts = [(x, 0.5 * x - 1.0) for x in xs]
    fit = analysis.fit_loglog(pts)
    assert abs(fit.slope - 0.5) < 1e-12
    assert abs(fit.intercept + 1.0) < 1e-12
    assert fit.max_residual < 1e-12


def test_fit_loglog_needs_points():
    with pytest.raises(ValueError):
        analysis.fit_loglog([(1.0, 1.0)])


def test_scaling_sweep_guards():
    with pytest.raises(ValueError):
        analysis.scaling_sweep([1.0, 2.0, 3.0], 1, "sigma")
    with pytest.raises(ValueError):
        analysis.scaling_sweep([5.0, 5.0, 5.0, 5.0], 1, "sigma")
    with pytest.raises(ValueError):
        analysis.scaling_sweep([1.0, 2.0, 4.0, 8.0], 1, "slope")


def test_scaling_sweep_rejects_zero_alpha_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        pytest.fail("sweep_point ran before the fit guard")

    monkeypatch.setattr(analysis, "sweep_point", no_solve)
    with pytest.raises(ValueError, match="alpha = 0"):
        analysis.scaling_sweep([0.0, 1e3, 1e4, 1e5], 1, "range")


@pytest.mark.parametrize("values, grid_n, converged, steps", [
    ((1.0, 1.001, 5.0), 600, True, 2),     # levels 0 and 1 agree
    ((1.0, 2.0, 2.001), 1200, True, 3),    # levels 1 and 2 agree
    ((1.0, 2.0, 4.0), 1200, False, 3),     # no two levels agree
])
def test_grid_doubling_protocol(values, grid_n, converged, steps):
    grid = make_grid(300, 30.0)
    seen = []

    def step(g, prev):
        assert g.r_max == grid.r_max
        assert prev == ((values[len(seen) - 1],) if seen else None)
        seen.append(g.n)
        return (values[len(seen) - 1],)

    res, out = analysis._grid_doubling(grid, step, "stub", ModeSpec(alpha=0.0, k=1))
    assert (res.grid_n, res.converged, len(seen)) == (grid_n, converged, steps)
    assert seen == [300, 600, 1200][:steps]
    assert out == (values[steps - 1],) and res.value == values[steps - 1]
    assert (res.quantity, res.r_max, res.lambda_star) == ("stub", 30.0, None)
    assert res.levels == tuple(zip(seen, values))


@pytest.mark.parametrize("quantity", analysis.QUANTITIES)
@pytest.mark.parametrize("k,beta_k", [(1, 1e3), (2, -1e4)])
def test_levels_agree_with_the_flag(quantity, k, beta_k):
    # every level the protocol ran, n doubling from the first, the last
    # one the reported value and grid; converged is the last two levels'
    # 1e-2 agreement, which for psi also needs an interior minimum
    mode = ModeSpec(alpha=EIGHT_PI * beta_k / k, k=k)
    res = analysis.sweep_point(mode, quantity, analysis.bound_grid(mode, quantity, 300))
    assert res.quantity == quantity and res.levels[-1] == (res.grid_n, res.value)
    ns = [n for n, _ in res.levels]
    assert 2 <= len(ns) <= 3 and all(b == 2 * a for a, b in zip(ns, ns[1:]))
    (_, before), (_, last) = res.levels[-2:]
    agree = abs(before - last) / abs(last) < 1e-2
    assert res.converged == agree if quantity != "psi" else agree or not res.converged


def test_sweep_point_psi_row():
    pt = analysis.sweep_point(ModeSpec(alpha=0.0, k=1), "psi", default_grid(n=300))
    assert pt.quantity == "psi"
    assert pt.lambda_star == 0.0
    assert abs(pt.value - 1.5) < 2e-3
    with pytest.raises(ValueError):
        analysis.sweep_point(ModeSpec(alpha=0.0, k=1), "spectrum")
    with pytest.raises(ValueError):
        analysis.sweep_point(ModeSpec(alpha=0.0, k=1), "spectrum", default_grid(n=300))


@pytest.mark.parametrize("scale", [1.0, 10 ** 0.2])
@pytest.mark.parametrize("k,alpha_per_8pi", [(1, 1e2), (1, 1e3), (1, 1e4), (1, 1e5),
                                             (2, 1e3), (3, 1e3), (2, -1e3)])
def test_psi_row_is_its_own_cold_measurement(k, alpha_per_8pi, scale):
    # the benchmark's psi-sweep rows at n = 300, at the ends of its ladder
    # scale [1, 10^0.25): the reported Psi is the cold s_min of the band on
    # the row's finest grid at the reported lambda*, to the last bit, and
    # lambda*/beta_k lies in (0, 1)
    mode = ModeSpec(alpha=EIGHT_PI * alpha_per_8pi * scale, k=k)
    grid = analysis.bound_grid(mode, "psi", 300)
    row = analysis.sweep_point(mode, "psi", grid)
    band = operators.assemble_banded(mode, make_grid(row.grid_n, grid.r_max))
    assert row.value == solver.smallest_singular_value(band, row.lambda_star)[0]
    assert 0.0 < row.lambda_star / mode.beta_k < 1.0


def test_bound_grid_policy():
    # psi on r_max = 30 up to |beta_k| = 2.1e5 and on 3.8 |beta_k|^{1/6}
    # beyond, sigma and range on the wall-aware r_max (here above 30),
    # n = 600 by default, and an explicit r_max for every quantity
    mode = ModeSpec(alpha=EIGHT_PI * 1e5, k=1)
    assert analysis.bound_grid(mode, "psi", 300) == default_grid(n=300)
    for beta_k in (2.1e5, -2.1e5):
        assert analysis.bound_grid(ModeSpec(alpha=EIGHT_PI * beta_k / 2, k=2), "psi") == default_grid()
    far = ModeSpec(alpha=-EIGHT_PI * 1e7 / 5, k=5)
    assert analysis.bound_grid(far, "psi") == make_grid(600, 3.8 * 1e7 ** (1 / 6))
    # Psi's scan window reaches out to r = 1.35 r_c, 3.65 |beta_k|^{1/6}
    # past |beta_k| = 10.6 for |k| <= 4: inside r_max = 30 up to 2.4e5, and
    # under r_max = _PSI_RADIUS |beta_k|^{1/6} = 3.8 |beta_k|^{1/6} beyond;
    # below, r_c is the floor max(4, 2 sqrt|k|)
    assert analysis._WINDOW[1] * analysis._CRITICAL == pytest.approx(3.645)
    assert analysis._WINDOW[1] * analysis._CRITICAL < analysis._PSI_RADIUS
    for k, beta_k in [(1, 1e-2), (1, 1.0), (1, 1e2), (1, 2.4e5), (1, -2.4e5), (1, 1e6),
                      (1, 3e7), (1, -1e9), (8, 1e-2), (-8, -10.0), (5, 2.4e5)]:
        window_mode = ModeSpec(alpha=EIGHT_PI * beta_k / k, k=k)
        _, far, _ = analysis._psi_window(window_mode)
        top = specfun.sigma_inverse(far / beta_k)
        r_c = max(2.7 * abs(beta_k) ** (1 / 6), 4.0, 2.0 * abs(k) ** 0.5)
        assert top == pytest.approx(1.35 * r_c, rel=1e-6)
        assert top < analysis.bound_grid(window_mode, "psi").r_max
    for quantity in ("sigma", "range"):
        assert analysis.bound_grid(mode, quantity, 300) == analysis.sigma_grid(mode, n=300)
        assert analysis.bound_grid(mode, quantity) == analysis.sigma_grid(mode)
    assert analysis.sigma_grid(mode).r_max > 30.0
    for quantity in analysis.QUANTITIES:
        assert analysis.bound_grid(mode, quantity, 64, 12.0) == make_grid(64, 12.0)
    with pytest.raises(ValueError):
        analysis.bound_grid(mode, "spectrum")
