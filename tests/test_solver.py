import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose
from scipy.linalg import lapack

import oracle
from oseenspec import _lapack, analysis, operators, solver
from oseenspec.grids import ModeSpec, OperatorMatrix, default_grid, make_grid


@pytest.fixture(scope="module")
def grid600():
    return make_grid(600, 30.0)


def test_eigenvalues_of_diagonal():
    d = np.array([2.0 + 1j, -1.0, 2.0 - 3j, 0.5])
    res = solver.eigenvalues(np.diag(d))
    expect = d[np.lexsort((d.imag, d.real))]
    assert_allclose(res.values, expect, atol=1e-14)


def test_eigenvalue_ordering_breaks_real_ties():
    d = np.array([1.0 + 2j, 1.0 - 2j, 1.0])
    res = solver.eigenvalues(np.diag(d))
    assert_allclose(res.values, np.array([1.0 - 2j, 1.0, 1.0 + 2j]), atol=1e-14)


def test_A2_ground_state(grid600):
    res = solver.eigenvalues(operators.assemble_A(2, grid600))
    assert abs(res.values[0] - 1.0) < 1e-3
    # backward error far under the budget relative to the matrix scale
    assert res.backward_error < 1e-8 * np.linalg.norm(operators.assemble_A(2, grid600).data, "fro")


def test_eigenvalues_shift_identity(grid600):
    base = ModeSpec(alpha=8 * math.pi * 3, k=2, lam=0.0)
    shifted = ModeSpec(alpha=8 * math.pi * 3, k=2, lam=0.9)
    e0 = solver.eigenvalues(operators.assemble_H(base, grid600)).values
    e1 = solver.eigenvalues(operators.assemble_H(shifted, grid600)).values
    assert np.abs((e0 - 0.9j) - e1).max() < 1e-8


def test_mode_conjugation_symmetry(grid600):
    # conj(H_{-k, lam}) equals H_{k, -lam} entrywise, hence spectra conjugate
    neg = operators.assemble_H(ModeSpec(alpha=8 * math.pi * 3, k=-2, lam=0.9), grid600)
    pos = operators.assemble_H(ModeSpec(alpha=8 * math.pi * 3, k=2, lam=-0.9), grid600)
    assert np.array_equal(np.conj(neg.data), pos.data)
    eneg = solver.eigenvalues(neg).values
    epos = solver.eigenvalues(pos).values
    assert np.abs(np.sort_complex(np.conj(eneg)) - np.sort_complex(epos)).max() < 1e-8


def _tridiagonal_band(grid, diag, off):
    data = np.zeros((grid.n, 3), dtype=complex)
    data[1:, 0], data[:, 1], data[:-1, 2] = off, diag, off
    return OperatorMatrix(kind="L1_band", grid=grid, data=data)


def test_smallest_singular_value_identity():
    grid = make_grid(40, 10.0)
    eye = _tridiagonal_band(grid, np.ones(40), np.zeros(39))
    assert solver.smallest_singular_value(eye, 0.0)[0] == pytest.approx(1.0, abs=1e-12)


def test_smallest_singular_value_hermitian(grid600):
    band = _tridiagonal_band(grid600, *operators.harmonic_bands(1, grid600))
    smin, _ = solver.smallest_singular_value(band, 0.0)
    lo = sla.eigvalsh(operators.assemble_A(1, grid600).data, subset_by_index=(0, 0))[0]
    assert abs(smin - lo) < 1e-10


def test_resolvent_distance_at_zero_rotation(grid600):
    # with beta = 0 the model operator is self-adjoint with spectrum
    # {3/2, 5/2, ...}; the resolvent-norm minimum over shifts sits at 0
    mode = ModeSpec(alpha=0.0, k=1, lam=0.0)
    l1 = operators.assemble_banded(mode, grid600)
    assert l1.kind == "L1_band"
    s0, _ = solver.smallest_singular_value(l1, 0.0)
    assert abs(s0 - 1.5) < 1e-3
    assert solver.smallest_singular_value(l1, 0.4)[0] > s0
    assert solver.smallest_singular_value(l1, -0.7)[0] > s0


def test_smallest_singular_value_lipschitz_in_shift():
    lams = (-3.0, -0.3, 0.2, 1.7, 4.0, 11.0)
    for k, kind in ((1, "L1_band"), (2, "H_band")):
        band = operators.assemble_banded(ModeSpec(alpha=8 * math.pi * 10 / k, k=k),
                                         make_grid(300, 30.0))
        assert band.kind == kind
        vals = [solver.smallest_singular_value(band, lam)[0] for lam in lams]
        for i in range(len(lams)):
            for j in range(i + 1, len(lams)):
                assert abs(vals[i] - vals[j]) <= abs(lams[i] - lams[j]) + 1e-10


def test_hermitian_part_of_full_mode_operator(grid600):
    # i beta B is skew-Hermitian, so the Hermitian part of H at theta = 0
    # is A_k: the bottom of the 3n pencil of the straight H_band
    mode = ModeSpec(alpha=8 * math.pi * 3, k=2, lam=0.9)
    band = operators.assemble_banded(mode, grid600)
    assert band.kind == "H_band"
    hp = solver.hermitian_part_min_eig(band)
    lo = sla.eigvalsh(operators.assemble_A(2, grid600).data, subset_by_index=(0, 0))[0]
    assert abs(hp - lo) < 1e-9


def test_hermitian_part_bounds_spectrum():
    # the dense oracle's Hermitian part against the dense spectrum
    rng = np.random.default_rng(7)
    a = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
    hp = oracle.hermitian_part_min_eig(a)
    re_min = solver.eigenvalues(a).values.real.min()
    assert re_min >= hp - 1e-8


@pytest.mark.parametrize("routine", [solver.smallest_singular_value,
                                     solver.hermitian_part_min_eig])
def test_band_only_routines_reject_dense_input(routine, grid600):
    dense = operators.assemble_L1(ModeSpec(alpha=8 * math.pi * 10, k=1), grid600)
    for m in (np.eye(20, dtype=complex), dense):
        with pytest.raises(ValueError, match="banded operator"):
            routine(m)


def test_size_cap():
    big = np.zeros((4001, 4001), dtype=np.float32)
    with pytest.raises(ValueError):
        solver.eigenvalues(big)


# banded s_min against the dense oracle: (k, alpha) with |beta_k| = 1e3,
# both signs of alpha, and the pencil path for |k| >= 2
ORACLE_MODES = [(1, 1.0), (1, -1.0), (-1, -1.0), (2, 1.0), (2, -1.0), (3, -1.0)]


@pytest.mark.parametrize("n", [300, 600, 1200])
@pytest.mark.parametrize("k,sign", ORACLE_MODES)
def test_banded_smin_matches_dense_svd(n, k, sign):
    mode = ModeSpec(alpha=sign * 8 * math.pi * 1e3 / abs(k), k=k)
    grid = default_grid(n=n)
    band = operators.assemble_banded(mode, grid)
    dense = (operators.assemble_L1 if abs(k) == 1 else operators.assemble_H)(mode, grid)
    lam_star = analysis.pseudospectral_bound(mode, grid).lambda_star
    for lam in [nu * mode.beta_k for nu in (-0.2, 0.25, 0.75, 1.2)] + [lam_star]:
        if abs(k) == 1:
            # the tridiagonal kind's Golub-Kahan band reference, held to
            # the dense svdvals wherever n <= 600
            ref = oracle.tridiagonal_smallest_singular_value(dense, lam)
            if n <= 600:
                svd = oracle.smallest_singular_value(dense, lam)
                assert abs(ref - svd) <= 1e-12 * svd, (lam, ref, svd)
        else:
            ref = oracle.smallest_singular_value(dense, lam)
        got, _ = solver.smallest_singular_value(band, lam)
        assert abs(got - ref) <= 1e-10 * ref, (lam, got, ref)


# a Psi bound's first level, the cold slope secant from the critical
# radius bracketed by the window, against the minimum oracle.psi_scan
# refines from a cold 64-shift scan over beta_k [-0.2, 1.2], which holds
# that window and more interior minima: the oracle modes across beta_k =
# 1e2..1e5 (the name dates from the warm-started scan this test once held
# to cold calls)
SCAN_CASES = [(k, sign, beta, n) for k, sign in ORACLE_MODES
              for beta in (1e2, 1e3, 1e4, 1e5) for n in (300, 600)]


@pytest.mark.parametrize("k,sign,beta,n", SCAN_CASES)
def test_scan_smin_matches_cold_smin(k, sign, beta, n):
    mode = ModeSpec(alpha=sign * 8 * math.pi * beta / abs(k), k=k)
    band = operators.assemble_banded(mode, default_grid(n=n))
    edge, far, centre = analysis._psi_window(mode)
    psi, lam, _, _ = analysis._slope_min(functools.partial(solver.smallest_singular_value, band),
                                         *sorted((edge, far)), centre)
    ref, ref_lam, _ = oracle.psi_scan(band, mode.beta_k * np.linspace(-0.2, 1.2, 64))
    assert abs(psi - ref) <= 1e-7 * ref
    assert abs(lam - ref_lam) <= analysis._REFINE_TOL * max(abs(ref_lam), 1.0)


@pytest.mark.parametrize("k,sign", [(1, 1.0), (-1, -1.0), (2, 1.0), (-3, 1.0)])
def test_dilated_banded_smin_matches_dense_svd(k, sign):
    # the dilated operator at the standard angle, as the Sigma path builds it
    theta = sign * (math.pi / 12 if abs(k) == 1 else math.pi / 24)
    mode = ModeSpec(alpha=sign * 8 * math.pi * 1e3 / k, k=k, theta=theta)
    grid = make_grid(300, 30.0)
    band = operators.assemble_banded(mode, grid)
    dense = operators.assemble_H_deformed(mode, grid)
    for lam in [nu * mode.beta_k for nu in (-0.2, 0.05, 0.25, 0.75, 1.2)]:
        ref = oracle.smallest_singular_value(dense, lam)
        got, _ = solver.smallest_singular_value(band, lam)
        assert abs(got - ref) <= 1e-10 * ref, (lam, got, ref)


# Sigma's first level, banded from its seeded shift, against the dense eig
# of the same rotated operator on the same grid: every oracle mode at n = 300
# across beta_k = 0..1e5, and the two widest cases at n = 1200
SIGMA_CASES = [(k, sign, beta, 300) for k, sign in ORACLE_MODES
               for beta in (0.0, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5)]
SIGMA_CASES += [(1, 1.0, 1e5, 1200), (2, -1.0, 1e4, 1200)]


@pytest.mark.parametrize("k,sign,beta,n", SIGMA_CASES)
def test_banded_sigma_matches_dense_eig(k, sign, beta, n):
    mode = ModeSpec(alpha=sign * 8 * math.pi * beta / abs(k), k=k)
    rotated, seed = analysis._sigma_mode(mode)
    grid = analysis.sigma_grid(mode, n=n)
    got = solver.bottom_eigenvalue(operators.assemble_banded(rotated, grid), seed).real
    # eigenvalues without vectors: LAPACK's zgeev, as solver.eigenvalues
    # calls it, less the eigenvectors and residuals the gate does not read
    ref = np.linalg.eigvals(operators.assemble_H_deformed(rotated, grid).data)
    assert abs(got - ref.real.min()) <= 1e-10 * ref.real.min(), (got, ref.real.min())


def _follow(band, shift, follow=solver.follow_eigenvalue):
    """follow(band, shift), and whether it declined: ran the Arnoldi loop,
    solver._arnoldi, on its band and shift; either way the follow makes
    exactly one band LU."""
    arnoldi, lu, runs, lus = solver._arnoldi, solver._band_lu, [], []

    def recorded(m, z, solve):
        runs.append((m, z))
        return arnoldi(m, z, solve)

    def counted(m, z):
        lus.append((m, z))
        return lu(m, z)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_arnoldi", recorded)
        mp.setattr(solver, "_band_lu", counted)
        got = follow(band, shift)
    assert [(m is band, z == shift) for m, z in lus] == [(True, True)], lus
    assert all(m is band and z == shift for m, z in runs) and len(runs) <= 1, runs
    return got, bool(runs)


def _levels(monkeypatch, quantity, mode, grid):
    """sweep_point(mode, quantity, grid), and each refined level's
    solver.follow_eigenvalue call, as (band, shift, returned, declined)."""
    calls = []

    def recorded(band, shift):
        calls.append((band, shift) + _follow(band, shift))
        return calls[-1][2]

    monkeypatch.setattr(solver, "follow_eigenvalue", recorded)
    return analysis.sweep_point(mode, quantity, grid), calls


@pytest.mark.parametrize("k,sign", ORACLE_MODES)
def test_followed_sigma_matches_dense_eig(monkeypatch, k, sign):
    # a whole Sigma bound, its refined level followed from the first level's
    # eigenvalue, against the dense eig of the rotated operator on its
    # final grid (n = 600)
    mode = ModeSpec(alpha=sign * 8 * math.pi * 1e3 / abs(k), k=k)
    grid = analysis.sigma_grid(mode, n=300)
    res, calls = _levels(monkeypatch, "sigma", mode, grid)
    assert res.grid_n == 600 and res.converged
    assert len(calls) == 1 and not calls[0][3]
    rotated, _ = analysis._sigma_mode(mode)
    ref = np.linalg.eigvals(operators.assemble_H_deformed(
        rotated, make_grid(600, grid.r_max)).data).real.min()
    assert abs(res.value - ref) <= 1e-10 * ref, (res.value, ref)


@pytest.mark.parametrize("k,sign,beta,n", [case for case in SIGMA_CASES if case[3] == 300])
def test_followed_level_matches_bottom_eigenvalue(monkeypatch, k, sign, beta, n):
    # every refined level the follow settles returns what the Arnoldi
    # returns from the same shift on the same band
    mode = ModeSpec(alpha=sign * 8 * math.pi * beta / abs(k), k=k)
    _, calls = _levels(monkeypatch, "sigma", mode, analysis.sigma_grid(mode, n=n))
    assert calls and not any(declined for *_, declined in calls)
    for band, shift, got, _ in calls:
        ref = solver.bottom_eigenvalue(band, shift)
        assert abs(got - ref) <= 1e-12 * abs(ref), (shift, got, ref)


def test_follow_declines_between_two_eigenvalues():
    # eigenvalues -1 and 1 equally far from the shift 0, the rest from 5
    # east: inverse iteration cannot choose and declines to the Arnoldi from
    # 0, which finds the bottom -1, while from 0.99 it settles on 1
    n = 100
    data = np.zeros((n, 3), dtype=complex)
    data[:, 1] = np.concatenate([[-1.0, 1.0], np.geomspace(5.0, 100.0, n - 2)])
    band = OperatorMatrix(kind="L1_band", grid=make_grid(n, 10.0), data=data)
    assert _follow(band, 0.0) == (solver.bottom_eigenvalue(band, 0.0), True)
    assert solver.bottom_eigenvalue(band, 0.0) == pytest.approx(-1.0, rel=1e-12)
    got, declined = _follow(band, 0.99)
    assert got == pytest.approx(1.0, rel=1e-12) and not declined
    with pytest.raises(ValueError, match="banded operator"):
        solver.follow_eigenvalue(np.eye(20, dtype=complex), 0.0)


def test_follow_declines_a_residual_that_stalls_above_its_floor():
    # eigenvalues 1 and 1 + 1e-9 seen from the shift 0, the rest from 200
    # east: from the sixth solve the residual sits at 5e-10, the pair's
    # mixing, not rounding; it has stopped falling, but 5000 times above
    # _FOLLOW_FLOOR, so the follow declines rather than report the mix,
    # and returns the Arnoldi's eigenvalue from the same shift
    n = 100
    data = np.zeros((n, 3), dtype=complex)
    data[:, 1] = np.concatenate([[1.0, 1.0 + 1e-9], np.geomspace(200.0, 1000.0, n - 2)])
    band = OperatorMatrix(kind="L1_band", grid=make_grid(n, 10.0), data=data)
    assert _follow(band, 0.0) == (solver.bottom_eigenvalue(band, 0.0), True)


def test_declined_refined_level_runs_the_arnoldi(monkeypatch):
    # k = 1, beta_1 = 3e7 from n = 300: on the refined level at n = 600 the
    # follow's residual falls by about 70 per solve and is still 9e-14 after
    # 8, over 1e-14 and still falling, so the follow declines: it runs the
    # Arnoldi on its band and the band LU it made, from its shift, the first
    # level's eigenvalue, and the level reports that call's value bitwise
    arnoldi, runs = solver._arnoldi, []

    def recorded(band, shift, solve):
        runs.append((band, shift, arnoldi(band, shift, solve)))
        return runs[-1][2]

    monkeypatch.setattr(solver, "_arnoldi", recorded)
    mode = ModeSpec(alpha=8 * math.pi * 3e7, k=1)
    res, calls = _levels(monkeypatch, "sigma", mode, analysis.sigma_grid(mode, n=300))
    assert res.grid_n == 600 and res.converged
    assert len(calls) == 1 and calls[0][3] and len(runs) == 2
    band, shift, got, _ = calls[0]
    assert band.grid.n == 600 and shift == runs[0][2]
    assert runs[1][0] is band and runs[1][1] == shift
    assert got == runs[1][2] == solver.bottom_eigenvalue(band, shift) and res.value == got.real


def test_follow_stops_at_its_rounding_floor(monkeypatch):
    # k = 1, beta_1 = 1 from n = 600: on the 1200-point level the residual
    # per solve reads 65, 3.1e-5, 1.2e-9, 6.7e-14, 1.2e-14, 2.2e-14, ...,
    # never under 1e-14 within the budget; it stopped falling at 2.2e-14,
    # under _FOLLOW_FLOOR, so the follow settles there, on the Arnoldi's
    # eigenvalue from the same shift.  Without the floor it declines, and
    # returns that eigenvalue bitwise.
    mode = ModeSpec(alpha=8 * math.pi, k=1)
    res, calls = _levels(monkeypatch, "sigma", mode, analysis.sigma_grid(mode, n=600))
    assert res.grid_n == 1200 and res.converged
    (band, shift, got, declined), = calls
    assert band.grid.n == 1200 and not declined and res.value == got.real
    ref = solver.bottom_eigenvalue(band, shift)
    assert abs(got - ref) <= 1e-14 * abs(ref), (got, ref)
    monkeypatch.setattr(solver, "_FOLLOW_FLOOR", 0.0)
    assert _follow(band, shift) == (ref, True)


# the numerical-range bound on the band against dense eigvalsh of the same
# tilted operator on the same grid: the oracle modes and (5, +) across
# beta_k = 0..1e5 at n = 300, and the widest k = 1, 2 cases at n = 1200
RANGE_CASES = [(k, sign, beta, 300) for k, sign in ORACLE_MODES + [(5, 1.0)]
               for beta in (0.0, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5)]
RANGE_CASES += [(1, 1.0, 1e5, 1200), (2, 1.0, 1e5, 1200)]


@pytest.mark.parametrize("k,sign,beta,n", RANGE_CASES)
def test_banded_range_matches_dense_eigvalsh(k, sign, beta, n):
    mode = ModeSpec(alpha=sign * 8 * math.pi * beta / abs(k), k=k)
    grid = analysis.sigma_grid(mode, n=n)
    got = analysis.numerical_range_bound(mode, grid)
    tilted = analysis._range_mode(mode)
    ref = oracle.hermitian_part_min_eig(operators.assemble_H_deformed(tilted, grid))
    assert abs(got - ref) <= 1e-10 * abs(ref), (got, ref)


@pytest.mark.parametrize("beta", [1.0, 10.0, 1e2, 1e3, 1e4, 1e5])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_range_bound_matches_dense_eigvalsh(monkeypatch, k, sign, beta):
    # a whole range bound from n = 300, its refined level followed from the
    # first level's value, against dense eigvalsh of the Hermitian part of
    # the tilted operator on its final grid
    mode = ModeSpec(alpha=sign * 8 * math.pi * beta / k, k=k)
    grid = analysis.sigma_grid(mode, n=300)
    res, calls = _levels(monkeypatch, "range", mode, grid)
    assert res.converged and calls and not any(declined for *_, declined in calls)
    tilted = analysis._range_mode(mode)
    ref = oracle.hermitian_part_min_eig(operators.assemble_H_deformed(
        tilted, make_grid(res.grid_n, grid.r_max)))
    assert abs(res.value - ref) <= 1e-10 * abs(ref), (res.value, ref)


@pytest.mark.parametrize("k,beta", [(2, 1e2), (2, -1e2), (3, 10.0)])
def test_range_bound_follows_a_followed_level(monkeypatch, k, beta):
    # from n = 32 the bound runs levels of 32, 64 and 128 points, so the
    # 128-point level follows the value the 64-point level followed, on
    # its own pencil, and the bound is dense eigvalsh of the Hermitian part
    # of the tilted operator on its final grid (measured: 1.3e-14)
    mode = ModeSpec(alpha=8 * math.pi * beta / k, k=k)
    grid = analysis.sigma_grid(mode, n=32)
    res, calls = _levels(monkeypatch, "range", mode, grid)
    assert [n for n, _ in res.levels] == [32, 64, 128] and res.converged
    assert [band.grid.n for band, *_ in calls] == [64, 128]
    assert calls[1][1] == calls[0][2] and res.value == calls[1][2].real
    ref = oracle.hermitian_part_min_eig(operators.assemble_H_deformed(
        analysis._range_mode(mode), make_grid(128, grid.r_max)))
    assert abs(res.value - ref) <= 1e-10 * abs(ref), (res.value, ref)


@pytest.mark.parametrize("k,beta", [(1, 1e3), (-1, -10.0), (2, 1e2), (2, -1e4), (3, 1.0),
                                    (5, 1e5)])
def test_range_bound_without_the_follow(monkeypatch, k, beta):
    # where every follow declines, with no inverse iteration allowed: at
    # |k| = 1 the follow is never called and each level is
    # numerical_range_bound on its grid, bitwise; at |k| >= 2 it is called
    # once per refined level, and each such level is bottom_eigenvalue on
    # the pencil the follow got, from the coarser level's value, bitwise;
    # either way the bound is dense eigvalsh of the tilted operator's
    # Hermitian part on the final grid
    monkeypatch.setattr(solver, "_FOLLOW_SOLVES", 0)
    mode = ModeSpec(alpha=8 * math.pi * beta / k, k=k)
    grid = analysis.sigma_grid(mode, n=300)
    res, calls = _levels(monkeypatch, "range", mode, grid)
    assert res.levels[0] == (300, analysis.numerical_range_bound(mode, grid))
    if abs(k) == 1:
        assert not calls and res.levels == tuple((n, analysis.numerical_range_bound(
            mode, make_grid(n, grid.r_max))) for n, _ in res.levels)
    else:
        assert len(calls) == len(res.levels) - 1
        for (band, shift, _, declined), (_, coarser), (n, value) in zip(
                calls, res.levels, res.levels[1:]):
            assert band.grid.n == n and shift == coarser and declined
            assert value == solver.bottom_eigenvalue(band, shift).real
    assert (res.grid_n, res.value) == res.levels[-1]
    ref = oracle.hermitian_part_min_eig(operators.assemble_H_deformed(
        analysis._range_mode(mode), make_grid(res.grid_n, grid.r_max)))
    assert abs(res.value - ref) <= 1e-10 * abs(ref), (res.value, ref)


def test_declined_range_level_runs_the_arnoldi_on_its_pencil(monkeypatch):
    # k = 2, beta_2 = 3e7 from n = 300: the follow declines on the 600-point
    # level and runs the Arnoldi on the very pencil it got and the band LU it
    # made, from the first level's value, and the level reports that call's
    # value bitwise; the level assembles its band once and bisects nothing
    arnoldi, runs = solver._arnoldi, []
    assemble, assembled = operators.assemble_banded, []
    bisect, bisected = solver._tridiagonal_eigenvalue, []

    def recorded(band, shift, solve):
        runs.append((band, shift, arnoldi(band, shift, solve)))
        return runs[-1][2]

    def counted(mode, grid):
        assembled.append(grid.n)
        return assemble(mode, grid)

    def counted_bisection(diag, off, index):
        bisected.append(len(diag))
        return bisect(diag, off, index)

    monkeypatch.setattr(solver, "_arnoldi", recorded)
    monkeypatch.setattr(operators, "assemble_banded", counted)
    monkeypatch.setattr(solver, "_tridiagonal_eigenvalue", counted_bisection)
    mode = ModeSpec(alpha=8 * math.pi * 3e7 / 2, k=2)
    res, calls = _levels(monkeypatch, "range", mode, analysis.sigma_grid(mode, n=300))
    assert res.grid_n == 600 and res.converged
    assert len(calls) == 1 and calls[0][3] and len(runs) == 2
    band, shift, got, _ = calls[0]
    assert band.grid.n == 600 and shift == res.levels[0][1] == runs[0][2].real
    assert runs[1][0] is band and runs[1][1] == shift
    assert got == runs[1][2] and res.value == got.real
    assert assembled == [300, 600] and bisected == [300]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("theta", [math.pi / 24, math.pi / 16])
def test_theta_invariance_eigenvalues_match_dense_eig(k, theta):
    # the four bottom eigenvalues that verify's deform.thetaInvariance compares
    mode = ModeSpec(alpha=100.0, k=k, theta=theta)
    grid = make_grid(600, 30.0)
    seed = math.sqrt(abs(mode.beta_k) / 2) * (1 + 1j)
    got = solver.bottom_eigenvalue(operators.assemble_banded(mode, grid), seed)
    ref = solver.eigenvalues(operators.assemble_H_deformed(mode, grid)).values
    ref = ref[np.argmin(ref.real)]
    assert abs(got - ref) <= 1e-10 * abs(ref), (got, ref)


def test_bottom_eigenvalue_errors(monkeypatch):
    with pytest.raises(ValueError):
        solver.bottom_eigenvalue(np.eye(20, dtype=complex), 0.0)

    # a cap of a few steps, under the first Ritz check: no convergence
    monkeypatch.setattr(solver, "_ARNOLDI_MAX", 8)
    band = operators.assemble_banded(ModeSpec(alpha=8 * math.pi, k=1), make_grid(32, 10.0))
    with pytest.raises(solver.SolverError, match="did not converge"):
        solver.bottom_eigenvalue(band, 1.0)


def test_bottom_eigenvalue_on_an_exhausted_krylov_space():
    # at n = 16, the smallest grid, the sixteenth step spans the whole
    # space and its Ritz values are the eigenvalues
    rng = np.random.default_rng(3)
    grid = make_grid(16, 10.0)
    data = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    band = OperatorMatrix(kind="L1_band", grid=grid, data=data)
    dense = np.diag(data[:, 1]) + np.diag(data[1:, 0], -1) + np.diag(data[:-1, 2], 1)
    ref = sla.eigvals(dense)
    ref = min(ref[np.argsort(np.abs(ref - 0.3))[:solver._ARNOLDI_COUNT]], key=lambda v: v.real)
    got = solver.bottom_eigenvalue(band, 0.3)
    assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)
    # two distinct eigenvalues: the space is invariant after two steps
    diag = np.where(np.arange(40) % 2 == 0, 1.0, 3.0 + 1j)
    two = OperatorMatrix(kind="L1_band", grid=make_grid(40, 10.0),
                         data=np.stack([np.zeros(40), diag, np.zeros(40)], axis=1))
    assert solver.bottom_eigenvalue(two, 2.5 + 1j) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("k,sign,beta,n", [case for case in SIGMA_CASES if case[3] == 300])
def test_bottom_eigenvalue_matches_arpack(k, sign, beta, n):
    # the in-house Arnoldi against the ARPACK call it replaces, on Sigma's
    # first level: same band, shift, start vector and selection
    mode = ModeSpec(alpha=sign * 8 * math.pi * beta / abs(k), k=k)
    rotated, seed = analysis._sigma_mode(mode)
    band = operators.assemble_banded(rotated, analysis.sigma_grid(mode, n=n))
    got = solver.bottom_eigenvalue(band, seed)
    ref = oracle.bottom_eigenvalue(band, seed)
    assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)


def test_bottom_eigenvalue_is_not_the_nearest_eigenvalue():
    # shift a tenth of the gap past the second-lowest eigenvalue: the
    # nearest eigenvalue is that one, and the answer is still the bottom
    mode = ModeSpec(alpha=8 * math.pi * 1e3, k=1)
    rotated, _ = analysis._sigma_mode(mode)
    grid = analysis.sigma_grid(mode, n=300)
    ref = solver.eigenvalues(operators.assemble_H_deformed(rotated, grid)).values
    shift = ref[1] + 0.1 * (ref[1] - ref[0])
    assert abs(ref[0] - (22.3634 + 22.3578j)) < 1e-4
    assert abs(ref[1] - (23.3629 + 22.3574j)) < 1e-4
    assert np.argmin(np.abs(ref - shift)) == 1
    got = solver.bottom_eigenvalue(operators.assemble_banded(rotated, grid), shift)
    assert abs(got - ref[0]) <= 1e-10 * abs(ref[0]), (got, ref[0])


@pytest.mark.parametrize("beta,sizes", [(1e4, [20]), (1e3, [20, 24])])
def test_sigma_first_level_runs_no_early_ritz_check(monkeypatch, beta, sizes):
    # k = 1 at n = 300: Sigma's first level runs its first Ritz check, an
    # eig of the Hessenberg, at step 20; it stops there at beta_1 = 1e4 and
    # at the next check, step 24, at 1e3 (checks from step 12 ran 3 and 4)
    mode = ModeSpec(alpha=8 * math.pi * beta, k=1)
    rotated, seed = analysis._sigma_mode(mode)
    band = operators.assemble_banded(rotated, analysis.sigma_grid(mode, n=300))
    ref = solver.bottom_eigenvalue(band, seed)
    eig, seen = np.linalg.eig, []

    def counted(a):
        seen.append(a.shape[0])
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    assert solver.bottom_eigenvalue(band, seed) == ref
    assert seen == sizes


def _hidden_bottom_band(n=300, angle=1e-11):
    """A real symmetric L1_band: the eigenvalues 0.01 and 0.5..0.8 east of
    the shift 0, a cluster 5.5..1000 further east, and the bottom -5,
    sixth nearest, in a 2 x 2 block with 1000 on rows 0 and 1 whose -5
    eigenvector is at angle `angle` off orthogonal to the start vector
    there, so the start vector barely sees it."""
    v = solver._start_vector(n).real
    phi = math.atan2(-v[0], v[1]) + angle
    u, w = np.array([math.cos(phi), math.sin(phi)]), np.array([-math.sin(phi), math.cos(phi)])
    block = -5.0 * np.outer(u, u) + 1000.0 * np.outer(w, w)
    data = np.zeros((n, 3), dtype=complex)
    data[2:, 1] = np.concatenate([[0.01, 0.5, 0.6, 0.7, 0.8], np.geomspace(5.5, 1000.0, n - 7)])
    data[0, 1], data[1, 1] = block[0, 0], block[1, 1]
    data[1, 0] = data[0, 2] = block[0, 1]
    return OperatorMatrix(kind="L1_band", grid=make_grid(n, 10.0), data=data)


def test_ritz_guard_waits_for_a_hidden_bottom(monkeypatch):
    # The bottom enters the Krylov space late: at the first Ritz check
    # (step 20) the sixth Ritz pair nearest the shift is an unconverged one
    # from the cluster, at 5.504 with residual 8.5e-3, east of 0.01, while
    # the nearest eigenvalue 0.01 has long converged; the bottom is there
    # from step 24.  The guard keeps the loop going until the bottom
    # arrives, as ARPACK's all-six test does; 1e-3 still does, and a guard
    # of 1e-1, or none, stops at the nearest eigenvalue.  Angles from 1e-9
    # down hide the bottom at step 20; from 1e-8 up it is already there.
    band = _hidden_bottom_band()
    assert oracle.bottom_eigenvalue(band, 0.0) == pytest.approx(-5.0, rel=1e-12)
    for guard, bottom in ((solver._RITZ_GUARD, -5.0), (1e-3, -5.0), (1e-1, 0.01),
                          (math.inf, 0.01)):
        monkeypatch.setattr(solver, "_RITZ_GUARD", guard)
        assert solver.bottom_eigenvalue(band, 0.0) == pytest.approx(bottom, rel=1e-12), guard


def test_bottom_eigenvalue_holds_the_chosen_pair_to_1e14():
    # The bottom -3 is the sixth nearest eigenvalue to the shift 0, and the
    # eigenvalues past the six nearest lie at moduli 4 to 100 in every
    # direction around it, so of the six nearest pairs it converges
    # slowest: its residual reads 2.4e-3 at the first Ritz check (step 20)
    # and 7.4e-5 at the second.  There all six are under the 1e-4 guard and
    # its Ritz value is still 1.6e-8 off: the guard alone would stop there,
    # and only the 1e-14 residual test on the chosen pair carries it to the
    # eps level (step 44).
    n = 100
    ring = np.geomspace(4.0, 100.0, n - 6) * np.exp(1j * np.pi * (math.sqrt(5) - 1)
                                                     * np.arange(n - 6))
    data = np.zeros((n, 3), dtype=complex)
    data[:, 1] = np.concatenate([[-3.0, 0.5, 0.6, 0.7, 0.8, 0.9], ring])
    band = OperatorMatrix(kind="L1_band", grid=make_grid(n, 10.0), data=data)
    assert solver.bottom_eigenvalue(band, 0.0) == pytest.approx(-3.0, rel=1e-12)


def test_start_vector_is_cached_and_read_only():
    for n in (32, 300):
        v = solver._start_vector(n)
        assert v is solver._start_vector(n)
        assert not v.flags.writeable
        assert np.array_equal(v, np.random.default_rng(0).standard_normal(n) + 0j)
        with pytest.raises(ValueError):
            v[0] = 0.0


def test_banded_smin_exact_singularity_raises():
    grid = make_grid(32, 10.0)
    zero = OperatorMatrix(kind="L1_band", grid=grid,
                          data=np.zeros((32, 3), dtype=complex))
    with pytest.raises(solver.SolverError):
        solver.smallest_singular_value(zero, 0.0)


@pytest.mark.parametrize("kind,rows,cols", [("L1_band", 1, 3), ("H_band", 2, 5)])
def test_all_zero_band_raises_solver_error(kind, rows, cols):
    # the LU's info != 0 branch: an exactly singular band stops at the
    # first zero pivot, which the bindings report and the solver raises
    n = 32
    zero = OperatorMatrix(kind=kind, grid=make_grid(n, 10.0),
                          data=np.zeros((rows * n, cols), dtype=complex))
    with pytest.raises(solver.SolverError, match="band LU failed"):
        solver.smallest_singular_value(zero, 0.0)


def test_lapack_bindings_fail_at_import_without_numpys_openblas():
    # a numpy whose linalg extension exports no scipy-openblas64 LAPACK (a
    # conda or distribution build) stops the import with the cause named
    script = ("import ctypes, sys\n"
              "sys.path.insert(0, %r)\n"
              "def missing(*args, **kwargs):\n"
              "    raise OSError('no library')\n"
              "ctypes.CDLL = missing\n"
              "try:\n"
              "    import oseenspec._lapack\n"
              "except ImportError as exc:\n"
              "    print(exc)\n"
              % os.path.dirname(os.path.dirname(os.path.abspath(solver.__file__))))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, check=True)
    assert "scipy-openblas64" in out.stdout and "no library" in out.stdout


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("trans", [b"N", b"C"])
def test_gttrs_binding_matches_scipy(trans):
    rng = np.random.default_rng(1)
    n = 200
    dl, d, du, v = (_random_complex(rng, size) for size in (n - 1, n, n - 1, n))
    info, rhs, solve = _lapack.tridiagonal_lu(dl, d, du)
    rhs[:] = v
    solve(trans)
    ref = lapack.zgttrs(*lapack.zgttrf(dl, d, du)[:5], v, trans=trans.decode())[0]
    assert info == 0
    assert np.abs(rhs - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("b", [2, 3])
@pytest.mark.parametrize("trans", [b"N", b"C"])
def test_gbtrs_binding_matches_scipy(b, trans):
    rng = np.random.default_rng(b)
    n = 150
    ab = _random_complex(rng, 3 * b + 1, n)
    ab[:b] = 0.0                    # the spare rows zgbtrf fills
    v = _random_complex(rng, n)
    info, rhs, solve = _lapack.band_lu(np.asfortranarray(ab), b, b)
    rhs[:] = v
    solve(trans)
    lu, ipiv, ref_info = lapack.zgbtrf(ab, b, b)
    ref = lapack.zgbtrs(lu, b, b, v, ipiv, trans=0 if trans == b"N" else 2)[0]
    assert info == ref_info == 0
    assert np.abs(rhs - ref).max() <= 1e-13 * np.abs(ref).max()
    for bad in (ab, np.asfortranarray(ab[1:]), np.asfortranarray(ab.real)):
        with pytest.raises(ValueError):
            _lapack.band_lu(bad, b, b)


def test_stebz_and_stein_bindings():
    # one workspace serves every size up to its capacity: the leading
    # block's extreme eigenvalues match scipy's dstebz, and the dstein
    # vector of the top one is a unit eigenvector to the eps level
    rng = np.random.default_rng(3)
    n = 120
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    tri = _lapack.Tridiagonal(n + 40)
    tri.d[:n], tri.e[:n - 1] = d, e
    for index in (1, n):
        info, value = tri.eigenvalue(n, index)
        ref = lapack.dstebz(d, e, 2, 0.0, 0.0, index, index, 0.0, "E")[1][0]
        assert info == 0
        assert abs(value - ref) <= 1e-13 * abs(ref)
    info, z = tri.vector()
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert info == 0 and z.shape == (n,)
    assert abs(np.linalg.norm(z) - 1.0) <= 1e-13
    assert np.linalg.norm(t @ z - value * z) <= 1e-13 * np.abs(t).sum(axis=1).max()
    for size, index in ((n + 41, 1), (n, 0), (n, n + 1)):
        with pytest.raises(ValueError):
            tri.eigenvalue(size, index)
