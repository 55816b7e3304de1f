import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracle
from oseenspec import specfun as sf
from oseenspec.grids import Field, ModeSpec, RadialGrid, default_grid, make_grid, quadrature


def test_node_placement():
    g = make_grid(16, 16.0)
    assert g.h == 1.0
    assert_allclose(g.nodes, np.arange(16) + 0.5)
    g = make_grid(600, 30.0)
    assert g.h == 0.05
    assert g.nodes[0] == 0.025
    assert g.nodes[-1] == 30.0 - 0.025


def test_configuration_errors():
    with pytest.raises(ValueError):
        make_grid(8, 30.0)
    with pytest.raises(ValueError):
        make_grid(600, 5.0)
    with pytest.raises(ValueError):
        make_grid(600.5, 30.0)


def test_quadrature_gaussian_moment():
    # <chi, chi> = int_0^inf r^3 e^{-r^2/4} dr = 8
    g = make_grid(600, 30.0)
    chi = Field(g, g.nodes ** 1.5 * sf.g(g.nodes))
    val = quadrature(chi, chi)
    assert abs(val.real - 8.0) <= 1e-6
    assert val.imag == 0.0
    assert_allclose(chi.norm() ** 2, 8.0, atol=1e-6)


def test_quadrature_conjugation_order():
    g = make_grid(16, 10.0)
    a = Field(g, np.full(16, 1j))
    b = Field(g, np.ones(16))
    # <a, b> = h sum a conj(b)
    assert_allclose(quadrature(a, b), 10.0j, rtol=1e-15)
    assert_allclose(quadrature(b, a), -10.0j, rtol=1e-15)


def test_quadrature_grid_mismatch():
    a = Field(make_grid(16, 10.0), np.ones(16))
    b = Field(make_grid(32, 10.0), np.ones(32))
    with pytest.raises(ValueError):
        quadrature(a, b)
    # equal parameters, distinct objects: fine
    c = Field(make_grid(16, 10.0), np.ones(16))
    assert quadrature(a, c) == pytest.approx(10.0)


def test_field_holds_a_stack_on_its_grid():
    # values of shape (..., n), the grid on the last axis
    grid = make_grid(16, 10.0)
    assert Field(grid, np.ones((2, 3, 16))).values.shape == (2, 3, 16)
    for shape in ((), (15,), (16, 3)):
        with pytest.raises(ValueError):
            Field(grid, np.ones(shape))


def test_stencil_is_dirichlet_laplacian():
    # odd reflection at 0 == Dirichlet at r = 0, so the smallest eigenvalue
    # approaches (pi/r_max)^2
    g = make_grid(400, 10.0)
    m = oracle.second_derivative_stencil(g)
    assert m.kind == "D2"
    assert m.data[0, 0] == 3.0 / g.h ** 2
    assert m.data[5, 5] == 2.0 / g.h ** 2
    assert m.data[5, 6] == m.data[5, 4] == -1.0 / g.h ** 2
    w = np.linalg.eigvalsh(m.data)
    # the discrete Dirichlet wall sits half a cell past the last node
    assert_allclose(w[0], (math.pi / (10.0 + g.h / 2)) ** 2, rtol=1e-4)


def test_mode_spec_derived_quantities():
    m = ModeSpec(alpha=8 * math.pi * 100, k=2)
    assert_allclose(m.beta_k, 200.0)
    assert m.nu_k == 0.0
    m = ModeSpec(alpha=8 * math.pi, k=1, lam=0.5)
    assert_allclose(m.nu_k, 0.5)
    assert ModeSpec(alpha=0.0, k=3).nu_k is None


def test_mode_spec_validation():
    with pytest.raises(ValueError):
        ModeSpec(alpha=1.0, k=0)
    with pytest.raises(ValueError):
        ModeSpec(alpha=math.inf, k=1)
    past = math.nextafter(math.pi / 8, 1.0)
    for theta in (past, -past):
        with pytest.raises(ValueError, match="pi/8"):
            ModeSpec(alpha=1.0, k=1, theta=theta)
    ModeSpec(alpha=1.0, k=1, theta=math.pi / 8)  # the normal angle, Sigma's
    ModeSpec(alpha=1.0, k=1, theta=-math.pi / 8)
    ModeSpec(alpha=1.0, k=-2, theta=-math.pi / 12)  # fine


def test_default_grid_policy():
    g = default_grid()
    assert (g.n, g.r_max) == (600, 30.0)


def test_grid_equality_by_parameters():
    assert make_grid(32, 12.0) == make_grid(32, 12.0)
    assert make_grid(32, 12.0) != make_grid(32, 14.0)
    assert RadialGrid(16, 10.0, 10.0 / 16, (np.arange(16) + 0.5) * 10 / 16) == make_grid(16, 10.0)
    assert hash(make_grid(32, 12.0)) == hash(make_grid(32, 12.0))
