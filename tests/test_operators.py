import math

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

import oracle
from oseenspec import operators, specfun
from oseenspec.grids import Field, ModeSpec, make_grid, quadrature


@pytest.fixture(scope="module")
def grid600():
    return make_grid(600, 30.0)


@pytest.fixture(scope="module")
def gridref():
    # reference grid for the wave-identity suite
    return make_grid(2000, 40.0)


def seeded_field(grid, seed, k=1):
    """r^{k+1/2} e^{-r^2/8} times a degree-3 polynomial with seeded coefficients."""
    r = grid.nodes
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(4)
    poly = sum(c * (r / 10.0) ** j for j, c in enumerate(coef))
    return Field(grid, r ** (k + 0.5) * np.exp(-r ** 2 / 8) * poly)


def test_k_validation(grid600):
    for bad in (0, 1.5):
        with pytest.raises(ValueError):
            operators.assemble_A(bad, grid600)
        with pytest.raises(ValueError):
            operators.assemble_K(bad, grid600)


def test_A_ground_state_eigenvalues(grid600):
    # smallest eigenvalue of A_k is k/2 with eigenfunction r^{k+1/2} g
    for k in (1, 2, 3):
        ev = sla.eigvalsh(operators.assemble_A(k, grid600).data)
        assert abs(ev[0] - k / 2) < 2e-4


def test_A_ground_state_error_refines(grid600):
    e600 = abs(sla.eigvalsh(operators.assemble_A(1, grid600).data)[0] - 0.5)
    e1200 = abs(sla.eigvalsh(operators.assemble_A(1, make_grid(1200, 30.0)).data)[0] - 0.5)
    assert e1200 < e600 / 2.5


def test_A_symmetric(grid600):
    m = operators.assemble_A(2, grid600).data
    assert np.array_equal(m, m.T)


def test_K_entries(grid600):
    r, h = grid600.nodes, grid600.h
    for k in (1, 3):
        m = operators.assemble_K(k, grid600).data
        assert np.array_equal(m, m.T)
        assert_allclose(m.diagonal(), h * r / (2 * k), rtol=1e-13)
        i, j = 40, 333
        expect = h / (2 * k) * (r[i] / r[j]) ** k * math.sqrt(r[i] * r[j])
        assert_allclose(m[i, j], expect, rtol=1e-13)


def test_K_inverts_singular_part_on_ground_density(grid600):
    # K_1 applied to s^{3/2} g^2 gives sigma r^{3/2}; measured 4.5e-5 at this grid
    r = grid600.nodes
    m = operators.assemble_K(1, grid600).data
    lhs = m @ (r ** 1.5 * specfun.g(r) ** 2)
    rhs = specfun.sigma(r) * r ** 1.5
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-4


def test_B_symmetric_and_annihilates_ground(grid600):
    r = grid600.nodes
    m = operators.assemble_B(1, grid600).data
    assert np.array_equal(m, m.T)
    chi = r ** 1.5 * specfun.g(r)
    assert np.linalg.norm(m @ chi) / np.linalg.norm(chi) < 1e-4


def test_kernel_sandwich_eigenvalue_range(grid600):
    # eigenvalues of g K_k g lie in [0, max sigma / k]
    r = grid600.nodes
    top = specfun.sigma(r).max()
    for k in (1, 2):
        kk = operators.assemble_K(k, grid600).data
        ev = sla.eigvalsh(np.outer(specfun.g(r), specfun.g(r)) * kk)
        assert ev[0] > -1e-6
        assert ev[-1] < top / k + 1e-6


def test_H_symmetric_and_theta_guard(grid600):
    mode = ModeSpec(alpha=8 * math.pi * 5, k=2, lam=0.3)
    m = operators.assemble_H(mode, grid600).data
    assert np.array_equal(m, m.T)
    tilted = ModeSpec(alpha=8 * math.pi * 5, k=2, lam=0.3, theta=math.pi / 12)
    with pytest.raises(ValueError):
        operators.assemble_H(tilted, grid600)


def test_L1_requires_unit_k(grid600):
    with pytest.raises(ValueError):
        operators.assemble_L1(ModeSpec(alpha=10.0, k=2), grid600)


def test_L1_matrix_free_matches_assembly(grid600):
    mode = ModeSpec(alpha=8 * math.pi * 5, k=1, lam=0.3)
    m = operators.assemble_L1(mode, grid600).data
    v = seeded_field(grid600, 11).values.astype(complex)
    out = operators.apply_L1(operators.assemble_banded(mode, grid600), Field(grid600, v))
    ref = m @ v
    assert np.linalg.norm(out.values - ref) / np.linalg.norm(ref) < 1e-12


def test_L1_matrix_free_matches_deformed_assembly(grid600):
    # at a nonzero angle apply_L1 acts as the dilated |k| = 1 operator
    mode = ModeSpec(alpha=8 * math.pi * 5, k=1, lam=0.3, theta=math.pi / 12)
    m = operators.assemble_H_deformed(mode, grid600).data
    v = seeded_field(grid600, 11).values.astype(complex)
    ref = m @ v
    out = operators.apply_L1(operators.assemble_banded(mode, grid600), Field(grid600, v))
    assert np.linalg.norm(out.values - ref) / np.linalg.norm(ref) < 1e-12


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [600, 1200])
def test_structured_products_match_assembly(n, k, complex_field):
    # the O(n) products (tridiagonal A_k, semiseparable K_k, and B_k, H
    # built from them) against the dense oracle, on rough fields
    grid = make_grid(n, 30.0)
    rng = np.random.default_rng([n, k, complex_field])
    v = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_field else 0)
    w = Field(grid, v)
    mode = ModeSpec(alpha=8 * math.pi * 1e3, k=-k if complex_field else k, lam=0.3)
    for fast, dense in ((operators.apply_A(k, w), operators.assemble_A(k, grid)),
                        (operators.apply_K(k, w), operators.assemble_K(k, grid)),
                        (operators.apply_B(k, w), operators.assemble_B(k, grid)),
                        (operators.apply_H(mode, w), operators.assemble_H(mode, grid))):
        ref = dense.data @ v
        assert np.linalg.norm(fast.values - ref) <= 1e-12 * np.linalg.norm(ref), dense.kind


def test_apply_H_theta_guard(grid600):
    mode = ModeSpec(alpha=100.0, k=1, theta=0.1)
    with pytest.raises(ValueError):
        operators.apply_H(mode, Field(grid600, np.ones(grid600.n)))


def test_wave_rule_is_built_once_and_read_only(gridref):
    rule = operators._wave_rule(gridref)
    assert operators._wave_rule(make_grid(gridref.n, gridref.r_max)) is rule
    for a in (rule.lam, rule.chi, rule.pref) + rule.full + rule.half:
        with pytest.raises(ValueError):
            a[0] = 1.0


@pytest.mark.parametrize("n,r_max", [(2000, 40.0), (600, 30.0), (2000, 30.0), (16, 10.0)])
def test_wave_rule_gamma_closed_forms_match_scipy(n, r_max):
    # the wave rule's P(2, x) = specfun.E0(x) and P(5/2, x), closed forms
    # above the series' switch points and the series below, against scipy's
    # gammainc on the nodes and cell edges of every grid verify builds (and
    # the smallest grid): 1e-14 relative, so log P keeps its digits near
    # r = 0, and exactly 0 at 0
    from scipy.special import gammainc

    grid = make_grid(n, r_max)
    for x in (grid.nodes ** 2 / 4, (np.arange(n + 1) * grid.h) ** 2 / 4):
        for a, p in ((2, specfun.E0), (2.5, operators._gamma_p52)):
            ref, got = gammainc(a, x), p(x)
            assert np.all(got[ref == 0.0] == 0.0)
            assert np.all(np.abs(got - ref) <= 1e-14 * ref)


def test_deformed_reduces_at_theta_zero(grid600):
    mode2 = ModeSpec(alpha=8 * math.pi * 5, k=2, lam=0.3)
    d2 = operators.assemble_H_deformed(mode2, grid600).data
    h2 = operators.assemble_H(mode2, grid600).data
    assert np.abs(d2 - h2).max() / np.abs(h2).max() < 1e-14

    mode1 = ModeSpec(alpha=8 * math.pi * 5, k=1, lam=0.3)
    d1 = operators.assemble_H_deformed(mode1, grid600).data
    l1 = operators.assemble_L1(mode1, grid600).data
    assert np.abs(d1 - l1).max() / np.abs(l1).max() < 1e-13


def band_to_dense(m):
    """Dense matrix of a banded OperatorMatrix (row i holds columns i - b .. i + b)."""
    size, width = m.data.shape
    b = width // 2
    out = np.zeros((size, size), dtype=complex)
    for col in range(width):
        rows = np.arange(max(0, b - col), min(size, size + b - col))
        out[rows, rows + col - b] = m.data[rows, col]
    return out


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_kernel_inverse_closed_form(k):
    # identity on a grid where rounding in the dense product stays small
    # (the product's error grows like cond(K) eps, 5e-12 at n = 300)
    grid = make_grid(64, 10.0)
    diag, off = operators.kernel_inverse_bands(k, grid)
    kinv = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    kk = operators.assemble_K(k, grid).data
    assert np.abs(kinv @ kk - np.eye(grid.n)).max() < 1e-12
    # and the LAPACK inverse on the finer grid, entrywise against the scale
    grid = make_grid(600, 30.0)
    diag, off = operators.kernel_inverse_bands(k, grid)
    kinv = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    ref = np.linalg.inv(operators.assemble_K(k, grid).data)
    assert np.abs(kinv - ref).max() < 1e-12 * np.abs(ref).max()


def test_banded_L1_is_assembled_L1(grid600):
    mode = ModeSpec(alpha=-8 * math.pi * 5, k=-1, lam=0.3)
    band = operators.assemble_banded(mode, grid600)
    assert band.kind == "L1_band" and band.data.shape == (600, 3)
    # the band reads F4 and F1 at real z, the oracle f and sigma; the first
    # node's diagonal (15200, the axis potential ~ 35/(4 r^2) plus 3/h^2)
    # comes out 2 ulps apart, which the entrywise rtol covers
    assert_allclose(band_to_dense(band), operators.assemble_L1(mode, grid600).data,
                    rtol=1e-15, atol=1e-15 * 4 / grid600.h ** 2)


@pytest.mark.parametrize("k", [2, -3])
def test_banded_pencil_schur_complement_is_H(grid600, k):
    mode = ModeSpec(alpha=-8 * math.pi * 50, k=k, lam=0.3)
    band = operators.assemble_banded(mode, grid600)
    assert band.kind == "H_band" and band.data.shape == (1200, 5)
    p = band_to_dense(band)
    x, y = slice(0, None, 2), slice(1, None, 2)
    schur = p[x, x] - p[x, y] @ np.linalg.solve(p[y, y], p[y, x])
    h = operators.assemble_H(mode, grid600).data
    assert np.abs(schur - h).max() < 1e-12 * np.abs(h).max()
    # a nonzero dilation angle gives the dilated pencil, not an error
    tilted = operators.assemble_banded(ModeSpec(alpha=1.0, k=k, theta=0.1), grid600)
    assert tilted.kind == "H_band" and np.isfinite(tilted.data).all()


@pytest.mark.parametrize("theta", [0.0, math.pi / 24, -math.pi / 24, math.pi / 12])
@pytest.mark.parametrize("k", [1, -1, 2, -3])
def test_dilated_band_is_H_deformed(grid600, k, theta):
    # both forms read one set of coefficient parts: the |k| = 1 band is the
    # dense matrix itself, the |k| >= 2 pencil's Schur complement is it up
    # to the closed-form kernel inverse
    mode = ModeSpec(alpha=8 * math.pi * 50 * math.copysign(1, theta), k=k, lam=0.3,
                    theta=theta)
    p = band_to_dense(operators.assemble_banded(mode, grid600))
    h = operators.assemble_H_deformed(mode, grid600).data
    if abs(k) == 1:
        assert np.array_equal(p, h)
        return
    x, y = slice(0, None, 2), slice(1, None, 2)
    schur = p[x, x] - p[x, y] @ np.linalg.solve(p[y, y], p[y, x])
    assert np.abs(schur - h).max() < 1e-12 * np.abs(h).max()


def test_deformed_finite_at_nonzero_theta(grid600):
    mode = ModeSpec(alpha=8 * math.pi * 5, k=2, lam=0.3, theta=math.pi / 12)
    m = operators.assemble_H_deformed(mode, grid600).data
    assert np.isfinite(m).all()
    mode1 = ModeSpec(alpha=8 * math.pi * 5, k=1, lam=0.3, theta=-math.pi / 24)
    m1 = operators.assemble_H_deformed(mode1, grid600).data
    assert np.isfinite(m1).all()


def test_K_truncated_structure(grid600):
    r = grid600.nodes
    r_k = specfun.sigma_inverse(0.5)
    for k in (1, 2):
        m = oracle.assemble_K_truncated(k, r_k, grid600).data
        assert np.array_equal(m, m.T)
        assert (m >= 0).all()
        assert np.abs(m[r >= r_k, :]).max() == 0.0
        assert sla.eigvalsh(m)[0] > -1e-12
    with pytest.raises(ValueError):
        oracle.assemble_K_truncated(1, -2.0, grid600)


def test_K_truncated_kernel_vanishes_on_cut():
    # the two kernel terms cancel when either argument sits at r_k
    r_k, s = 2.5, 1.3
    k = 2
    val = (min(r_k / s, s / r_k) ** k - (r_k * s / r_k ** 2) ** k) * math.sqrt(r_k * s) / (2 * k)
    assert abs(val) < 1e-15


def test_K_truncated_solves_dirichlet_problem(grid600):
    # FD(-d^2 + (k^2 - 1/4)/r^2) applied to the truncated-kernel image
    # reproduces the density on the interior of (0, r_k)
    r = grid600.nodes
    r_k = specfun.sigma_inverse(0.5)
    stencil = oracle.second_derivative_stencil(grid600).data
    w = np.sin(np.pi * r / r_k) ** 2 * np.exp(-r)
    for k in (1, 2):
        u = oracle.assemble_K_truncated(k, r_k, grid600).data @ w
        lhs = stencil @ u + ((k * k - 0.25) / r ** 2) * u
        inside = (r > 0.3) & (r < r_k - 0.3)
        rel = np.abs(lhs[inside] - w[inside]).max() / np.abs(w[inside]).max()
        assert rel < 1e-2


# ---------------------------------------------------------------------------
# wave transform suite; tolerances measured on the reference grid with
# threefold headroom or better


def test_T_annihilates_ground_direction(gridref):
    r = gridref.nodes
    chi = Field(gridref, r ** 1.5 * specfun.g(r))
    assert operators.apply_T(chi).norm() / chi.norm() < 1e-4


def test_T_running_integral_closed_form(gridref):
    # I1[s^{3/2} g] = -r^3 sigma'(r); recovered from T chi = chi + pref I1
    r = gridref.nodes
    chi = r ** 1.5 * specfun.g(r)
    out = operators.apply_T(Field(gridref, chi))
    pref = specfun.g(r) / (specfun.sigma_prime(r) * r ** 1.5)
    i1 = (out.values - chi) / pref
    ref = -r ** 3 * specfun.sigma_prime(r)
    assert_allclose(i1, ref, rtol=1e-12)
    # spot value at r = 2
    assert abs(-8 * specfun.sigma_prime(2.0) - 2.11393) < 5e-6


def test_wave_isometry_and_projection(gridref):
    r = gridref.nodes
    chi = Field(gridref, r ** 1.5 * specfun.g(r))
    nchi2 = quadrature(chi, chi).real
    for seed in range(10):
        w = seeded_field(gridref, seed)
        tw = operators.apply_T(w)
        # T T* = identity
        tts = operators.apply_T(operators.apply_Tstar(w))
        assert Field(gridref, tts.values - w.values).norm() / w.norm() < 1e-4
        # T* T = identity minus the ground-direction projection
        proj = quadrature(w, chi) / nchi2
        pw = w.values - proj * chi.values
        tst = operators.apply_Tstar(tw)
        assert Field(gridref, tst.values - pw).norm() / w.norm() < 1e-4
        # norm identity of the partial isometry
        drop = abs(quadrature(w, chi)) ** 2 / nchi2
        assert abs(tw.norm() ** 2 - (w.norm() ** 2 - drop)) / w.norm() ** 2 < 1e-4


def test_wave_adjoint_pairing(gridref):
    w = seeded_field(gridref, 21)
    v = seeded_field(gridref, 22)
    lhs = quadrature(operators.apply_T(w), v)
    rhs = quadrature(w, operators.apply_Tstar(v))
    assert abs(lhs - rhs) / abs(lhs) < 1e-4


def test_T_intertwines_integral_part(gridref):
    # T B_1 w = sigma T w pointwise
    b1 = operators.assemble_B(1, gridref).data
    sig = specfun.sigma(gridref.nodes)
    for seed in range(10):
        w = seeded_field(gridref, seed)
        lhs = operators.apply_T(Field(gridref, b1 @ w.values)).values
        rhs = sig * operators.apply_T(w).values
        rel = np.abs(lhs - rhs).max() / max(np.abs(lhs).max(), np.abs(rhs).max())
        assert rel < 1e-3


def test_T_commutator_with_A1_is_f(gridref):
    # T A_1 w - A_1 T w = f T w away from the boundary layers
    a1 = operators.assemble_A(1, gridref).data
    fr = specfun.f(gridref.nodes)
    inside = operators.interior_mask(gridref)
    for seed in range(10):
        w = seeded_field(gridref, seed)
        tw = operators.apply_T(w)
        lhs = (operators.apply_T(Field(gridref, a1 @ w.values)).values - a1 @ tw.values)[inside]
        rhs = (fr * tw.values)[inside]
        rel = np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), np.linalg.norm(rhs))
        assert rel < 1e-2


def test_T_conjugates_full_mode_operator(gridref):
    # T H_1 T* u = L_1 u away from the boundary layers
    mode = ModeSpec(alpha=8 * math.pi * 10, k=1, lam=0.3)
    h1 = operators.assemble_H(mode, gridref).data
    l1 = operators.assemble_L1(mode, gridref).data
    inside = operators.interior_mask(gridref)
    for seed in range(10):
        u = Field(gridref, seeded_field(gridref, seed).values.astype(complex))
        mid = operators.apply_Tstar(u)
        lhs = operators.apply_T(Field(gridref, h1 @ mid.values)).values[inside]
        rhs = (l1 @ u.values)[inside]
        rel = np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), np.linalg.norm(rhs))
        assert rel < 1e-2


def test_products_act_on_the_last_axis():
    # a (3, 4, n) stack of fields through every O(n) product in one call:
    # each row equals, bit for bit, the product of that field alone, real
    # and complex alike
    grid = make_grid(2000, 40.0)
    r = grid.nodes
    rng = np.random.default_rng(3)
    stack = r ** 1.5 * np.exp(-r ** 2 / 8) * (1 + 0.1 * rng.standard_normal((3, 4, grid.n)))
    stack = stack * np.array([1, 1, 1 + 0.2j, 1j])[:, None]
    mode = ModeSpec(alpha=8 * math.pi * 10, k=1, lam=0.3)
    band = operators.assemble_banded(mode, grid)
    products = [operators.apply_T, operators.apply_Tstar,
                lambda w: operators.apply_K(1, w), lambda w: operators.apply_K(3, w),
                lambda w: operators.apply_B(2, w), lambda w: operators.apply_A(3, w),
                lambda w: operators.apply_H(mode, w),
                lambda w: operators.apply_H(ModeSpec(alpha=30.0, k=2, lam=0.1), w),
                lambda w: operators.apply_L1(band, w)]
    for product in products:
        out = product(Field(grid, stack)).values
        assert out.shape == stack.shape
        for i in np.ndindex(stack.shape[:-1]):
            assert np.array_equal(out[i], product(Field(grid, stack[i])).values), i
