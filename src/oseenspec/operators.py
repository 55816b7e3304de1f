"""Assembly of the one-dimensional mode-family operators.

For a nonzero integer k and beta_k = alpha k/(8 pi), the full mode
operator on L^2((0, r_max), dr) is

    H = A_|k| + i beta_k B_|k| - i lam,
    A_k = -d^2/dr^2 + (k^2 - 1/4)/r^2 + r^2/16 - 1/2,
    B_k = sigma - g K_k [g .],

where K_k is the positive integral operator with kernel
min(r/s, s/r)^{|k|} (rs)^{1/2} / (2|k|) (the inverse of A_k's singular
part -d^2/dr^2 + (k^2 - 1/4)/r^2).  A_k has ground state r^{k+1/2} g with
eigenvalue k/2, and for k = 1 the vector chi = r^{3/2} g spans Ker B_1.

The wave operator T w = w + g/(sigma' r^{3/2}) * int_0^r s^{3/2} g w ds
is a partial isometry with T chi = 0, T T^* = I, T^* T = I - P_chi; it
conjugates H at |k| = 1 to the diagonal-potential model

    L1 = A_1 + f + i (beta_1 sigma - lam),

which is what the k = +-1 bounds are computed from.  The analytic
dilation r -> r e^{i theta} (theta = 0 is the straight operator) has
coefficients F1, F2, F4 at z = r^2 e^{2 i theta}/4, written once by
_mode_parts and read by assemble_H_deformed (dense), assemble_banded
(band storage: L1 is tridiagonal, and for |k| >= 2 K_k is semiseparable,
so its inverse is tridiagonal in closed form and H is the Schur
complement of a pentadiagonal 2n pencil) and apply_L1.  assemble_A, _K,
_B, _H and _L1 build the straight operator from sigma, g and f instead,
as the dense test oracle.  Integral parts carry the midpoint quadrature
weight h so that matrices act on plain node-value vectors.
"""

import cmath
import math

import numpy as np
from scipy.special import gammainc

from . import specfun
from .grids import Field, OperatorMatrix, second_derivative_stencil


def _check_k(k):
    if int(k) != k or k == 0:
        raise ValueError("k must be a nonzero integer")
    return int(k)


def assemble_A(k, grid):
    """Shifted harmonic radial operator A_k; real symmetric."""
    k = abs(_check_k(k))
    r = grid.nodes
    m = second_derivative_stencil(grid).data.copy()
    np.fill_diagonal(m, m.diagonal() + (k * k - 0.25) / r ** 2 + r ** 2 / 16 - 0.5)
    return OperatorMatrix(kind="A_k", grid=grid, mode=None, data=m)


def assemble_K(k, grid):
    """Nystrom matrix of K_k: entries h/(2|k|) min(ri/rj, rj/ri)^{|k|} sqrt(ri rj)."""
    k = abs(_check_k(k))
    r = grid.nodes
    ratio = np.minimum.outer(r, r) / np.maximum.outer(r, r)
    m = (grid.h / (2 * k)) * ratio ** k * np.sqrt(np.outer(r, r))
    return OperatorMatrix(kind="K_k", grid=grid, mode=None, data=m)


def kernel_inverse_bands(k, grid):
    """Closed-form tridiagonal inverse of assemble_K(k, grid): (diag, off).

    K_k has entries u_min(i,j) v_max(i,j) with generators
    u = (h/2k) r^{k+1/2} and v = r^{-k+1/2}, so its inverse is
    tridiagonal with off-diagonal -1/w_i, w_i = u_{i+1} v_i - u_i v_{i+1},
    interior diagonal (u_{i+1} v_{i-1} - u_{i-1} v_{i+1})/(w_{i-1} w_i)
    and end entries u_2/(u_1 w_1), v_{n-1}/(v_n w_{n-1}).  Each
    generator difference is evaluated as
    u_j v_i - u_i v_j = (h/k) (r_i r_j)^{1/2} sinh(k log(r_j/r_i)),
    which keeps full relative accuracy where r_j/r_i is close to 1.
    """
    k = abs(_check_k(k))
    r, h = grid.nodes, grid.h

    def wronskian(ri, rj):
        return (h / k) * np.sqrt(ri * rj) * np.sinh(k * np.log(rj / ri))

    w = wronskian(r[:-1], r[1:])
    diag = np.empty(grid.n)
    diag[1:-1] = wronskian(r[:-2], r[2:]) / (w[:-1] * w[1:])
    diag[0] = (r[1] / r[0]) ** (k + 0.5) / w[0]
    diag[-1] = (r[-1] / r[-2]) ** (k - 0.5) / w[-1]
    return diag, -1.0 / w


def assemble_B(k, grid):
    """B_k = diag(sigma) - diag(g) K_k diag(g); real symmetric, 0 <= B_k <= sigma."""
    k = abs(_check_k(k))
    g = specfun.g(grid.nodes)
    # np.outer(g, g) and the kernel matrix are both exactly symmetric, so
    # the entrywise product keeps B - B^T identically zero
    m = -(np.outer(g, g) * assemble_K(k, grid).data)
    np.fill_diagonal(m, m.diagonal() + specfun.sigma(grid.nodes))
    return OperatorMatrix(kind="B_k", grid=grid, mode=None, data=m)


def assemble_H(mode, grid):
    """Full mode operator H = A_|k| + i beta_k B_|k| - i lam; complex symmetric.

    Requires theta = 0; the dilated family lives in assemble_H_deformed.
    """
    if mode.theta != 0.0:
        raise ValueError("assemble_H requires theta = 0; use assemble_H_deformed")
    a = assemble_A(mode.k, grid).data
    b = assemble_B(mode.k, grid).data
    m = a + 1j * mode.beta_k * b
    np.fill_diagonal(m, m.diagonal() - 1j * mode.lam)
    return OperatorMatrix(kind="H_full", grid=grid, mode=mode, data=m)


def assemble_L1(mode, grid):
    """Wave-conjugated |k| = 1 model L1 = A_1 + f + i(beta_1 sigma - lam)."""
    if abs(mode.k) != 1:
        raise ValueError("L1 is defined for |k| = 1 only")
    if mode.theta != 0.0:
        raise ValueError("assemble_L1 requires theta = 0")
    r = grid.nodes
    m = assemble_A(1, grid).data.astype(complex)
    np.fill_diagonal(m, m.diagonal() + specfun.f(r)
                     + 1j * (mode.beta_k * specfun.sigma(r) - mode.lam))
    return OperatorMatrix(kind="L1_model", grid=grid, mode=mode, data=m)


def apply_L1(mode, w):
    """Action of L1 on a Field: the tridiagonal product with the band
    form of assemble_banded (at the mode's dilation angle)."""
    if abs(mode.k) != 1:
        raise ValueError("L1 is defined for |k| = 1 only")
    data = assemble_banded(mode, w.grid).data
    v = np.asarray(w.values, dtype=complex)
    out = data[:, 1] * v
    out[1:] += data[1:, 0] * v[:-1]
    out[:-1] += data[:-1, 2] * v[1:]
    return Field(w.grid, out)


def _mode_parts(mode, grid):
    """(kin, off, pot, coupling) of the mode operator at angle theta, with
    rot = e^{2 i theta}, z = r^2 rot/4: the stencil over rot (diagonal kin
    with the centrifugal term for |k| >= 2, off-diagonal off), the diagonal
    potential, and (c, F2(z)) of the nonlocal part -c F2 K_k F2,
    c = i beta_k rot (None for |k| = 1, whose F4 form folds the 2/z pole
    of F3 into the centrifugal coefficient 35/4)."""
    rot = cmath.exp(2j * mode.theta)
    r, h = grid.nodes, grid.h
    z = (r ** 2 / 4) * rot
    k = abs(mode.k)
    kin = np.full(grid.n, 2.0 / h ** 2)
    kin[0] = 3.0 / h ** 2
    off = np.full(grid.n - 1, -1.0 / h ** 2) * (1 / rot)
    if k == 1:
        pot = (35 / (4 * r ** 2)) / rot + (r ** 2 / 16) * rot - 0.5 \
            + specfun.F_complex("F4", z) \
            + 1j * mode.beta_k * specfun.F_complex("F1", z) - 1j * mode.lam
        return kin * (1 / rot), off, pot, None
    pot = (r ** 2 / 16) * rot - 0.5 \
        + 1j * mode.beta_k * specfun.F_complex("F1", z) - 1j * mode.lam
    return ((kin + (k * k - 0.25) / r ** 2) * (1 / rot), off, pot,
            (1j * mode.beta_k * rot, specfun.F_complex("F2", z)))


def assemble_banded(mode, grid):
    """The mode operator at the dilation angle theta in band storage.

    |k| = 1: the tridiagonal L1, kind "L1_band", data of shape (n, 3).
    |k| >= 2: the 2n pencil [[kin + pot, -c F2], [-F2, K_k^{-1}]] of the
    _mode_parts, rows and columns interleaved (x_1, y_1, x_2, ...), kind
    "H_band", data of shape (2n, 5); eliminating y gives back
    assemble_H_deformed (K_k^{-1} from kernel_inverse_bands).
    Row i of data holds the entries of matrix row i at columns
    i - b .. i + b (b = 1 or 2, zero where they fall outside the matrix),
    so the operator is its x rows' diagonal plus fixed bands, and a shift
    lam changes that diagonal only.
    """
    kin, off, pot, coupling = _mode_parts(mode, grid)
    n, diag = grid.n, kin + pot
    if coupling is None:
        data = np.zeros((n, 3), dtype=complex)
        data[1:, 0], data[:, 1], data[:-1, 2] = off, diag, off
        return OperatorMatrix(kind="L1_band", grid=grid, mode=mode, data=data)
    c, f2 = coupling
    kdiag, koff = kernel_inverse_bands(mode.k, grid)
    data = np.zeros((2 * n, 5), dtype=complex)
    x, y = data[0::2], data[1::2]
    x[1:, 0], x[:, 2], x[:, 3], x[:-1, 4] = off, diag, -c * f2, off
    y[1:, 0], y[:, 1], y[:, 2], y[:-1, 4] = koff, -f2, kdiag, koff
    return OperatorMatrix(kind="H_band", grid=grid, mode=mode, data=data)


def assemble_H_deformed(mode, grid):
    """Dilated mode operator at angle theta (|theta| < pi/8, theta = 0 allowed).

    The dense expansion of the parts of _mode_parts: the tridiagonal
    stencil, minus c F2 K_k F2 for |k| >= 2 (both Gaussian weights
    rotated through F2), plus the diagonal potential.  At theta = 0 this
    reproduces assemble_L1 / assemble_H entrywise.
    """
    kin, off, pot, coupling = _mode_parts(mode, grid)
    i = np.arange(grid.n)
    m = np.zeros((grid.n, grid.n), dtype=complex)
    m[i, i] = kin
    m[i[:-1], i[:-1] + 1] = off
    m[i[1:], i[1:] - 1] = off
    if coupling is not None:
        c, f2 = coupling
        m -= c * (f2[:, None] * assemble_K(mode.k, grid).data * f2[None, :])
    np.fill_diagonal(m, m.diagonal() + pot)
    return OperatorMatrix(kind="H_deformed", grid=grid, mode=mode, data=m)


def assemble_K_truncated(k, r_k, grid):
    """Dirichlet-truncated kernel on (0, r_k):

        (1/2|k|) [min(r/s, s/r)^{|k|} - (rs/r_k^2)^{|k|}] (rs)^{1/2}

    supported on nodes < r_k (zero rows/columns outside); entrywise >= 0.
    """
    k = abs(_check_k(k))
    if not (r_k > 0 and math.isfinite(r_k)):
        raise ValueError("r_k must be positive and finite")
    r = grid.nodes
    inside = r < r_k
    m = np.zeros((grid.n, grid.n))
    ri = r[inside]
    ratio = np.minimum.outer(ri, ri) / np.maximum.outer(ri, ri)
    block = (grid.h / (2 * k)) * (ratio ** k - np.outer(ri, ri) ** k / r_k ** (2 * k)) \
        * np.sqrt(np.outer(ri, ri))
    m[np.ix_(inside, inside)] = block
    return OperatorMatrix(kind="K_truncated", grid=grid, mode=None, data=m)


def interior_mask(grid, collar=0.3):
    """Boolean mask of nodes away from both boundary layers.

    Identity checks that apply the second-difference stencil to fields
    with r^{k+1/2} behavior are FD-limited near the axis: the pinned
    stencil's truncation error concentrates on the first nodes and the
    wave transform spreads it over a fixed physical width, so the
    excluded layer must be a physical collar, not a node count (at fixed
    node count the excluded error grows like h^{-1/2} as the grid is
    refined; at fixed width it shrinks like h^2).  The far collar covers
    the Dirichlet wall at r_max + h/2.  The default width 0.3 keeps the
    commutator and conjugation residuals a factor of two under their
    tolerance on the reference grid (n = 2000, r_max = 40).
    """
    r = grid.nodes
    return (r >= collar) & (r <= grid.r_max - collar)


def _wave_rule(grid):
    """Shared grid quantities for the wave transforms T and T*.

    Both transforms are integrals against the one positive measure the
    problem carries,

        mu(s) = int_0^s t^3 g(t)^2 dt = -s^3 sigma'(s) = 8 P(2, s^2/4)

    (P = regularized lower incomplete gamma), applied to the scaled field
    q = w/(s^{3/2} g).  A plain cumulative sum of s^{3/2} g w loses O(1)
    relative accuracy on the first cells, where the prefactor
    g/(sigma' r^{3/2}) ~ -4 r^{-5/2} amplifies it far past the wave-suite
    tolerance, so the running integral of T is computed by product
    integration instead: per cell, q is fitted on the local basis
    {1, s - r_j, Lam(s) - Lam_j} with Lam = log(mu/8) (_scaled_fit), and
    each basis direction is integrated against d(mu) in closed form,

        int d(mu) = mu,   int s d(mu) = 12 sqrt(pi) P(5/2, s^2/4),
        int Lam d(mu) = mu Lam - mu.

    The Lam direction is in the basis because that is what T* adds to a
    field: composites like T T* are then integrated exactly on the
    span of {chi, s chi, Lam chi}, chi = s^{3/2} g, and the remaining
    O(h^2) fit error enters damped by the measure's s^3 g^2 density
    instead of amplified by the prefactor.

    T* is computed after integrating by parts against the decaying
    antiderivative Lam (the boundary terms collapse algebraically),

        T* w(r) = w(r) (1 + Lam(r)) + r^{3/2} g int_r^inf Lam(s) q'(s) ds,

    with q' = c + b Lam' from the same fit and Lam' = s^3 g^2 / mu closed
    form; Lam vanishes at the far end faster than g^2, so truncation at
    r_max is below rounding for any admissible grid.
    """
    r, h = grid.nodes, grid.h
    edges = np.arange(grid.n + 1) * h
    p_node = gammainc(2, r ** 2 / 4)
    p_edge = gammainc(2, edges ** 2 / 4)
    mu_n = 8 * p_node
    mu_e = 8 * p_edge
    lam = np.log(p_node)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_e = np.log(p_edge)
        gl_e = np.where(mu_e > 0, mu_e * (lam_e - 1), 0.0)
    lamp = r ** 3 * specfun.g(r) ** 2 / mu_n
    # first moments of d(mu): int_0^x s dmu and int_0^x Lam dmu, closed form
    m4_n = 12 * math.sqrt(math.pi) * gammainc(2.5, r ** 2 / 4)
    m4_e = 12 * math.sqrt(math.pi) * gammainc(2.5, edges ** 2 / 4)
    gl_n = mu_n * (lam - 1)
    chi = r ** 1.5 * specfun.g(r)
    pref = specfun.g(r) / (specfun.sigma_prime(r) * r ** 1.5)
    return r, h, lam, lamp, chi, pref, mu_n, mu_e, m4_n, m4_e, gl_n, gl_e


def _scaled_fit(w, chi, h, lam, lamp):
    """q = w/(r^{3/2} g) and its local fit on the basis {1, r, Lam}.

    Returns (q, c, b) with q(s) ~ q_j + c_j (s - r_j) + b_j (Lam - Lam_j)
    near node j; the fit interpolates the three stencil values, so it is
    exact for q in span{1, r, Lam} and resolves the log direction that
    plain differences lose near the origin.  With d1, d2 the centered
    first/second differences of q and e1, e2 those of Lam, b = d2/e2 and
    c = d1 - b e1.  The attribution to Lam is kept only while Lam's
    curvature is resolved above rounding (|e2| > 1e-10, which holds out
    to r ~ 9); past that Lam is constant to more digits than the stencil
    can see, e2 is differencing junk, and b = 0, c = d1 is exact for the
    directions that survive.
    Nodes where chi has underflowed to zero (possible only past r ~ 77)
    carry no field content and get q = 0 rather than inf.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(chi > 0, w / chi, 0.0)
    c = np.empty_like(q)
    b = np.zeros_like(q)
    d1 = (q[2:] - q[:-2]) / (2 * h)
    d2 = q[2:] - 2 * q[1:-1] + q[:-2]
    e1 = (lam[2:] - lam[:-2]) / (2 * h)
    e2 = lam[2:] - 2 * lam[1:-1] + lam[:-2]
    with np.errstate(divide="ignore", invalid="ignore"):
        bmid = np.where(np.abs(e2) > 1e-10, d2 / e2, 0.0)
    bmid = np.nan_to_num(bmid, nan=0.0, posinf=0.0, neginf=0.0)
    b[1:-1] = bmid
    c[1:-1] = d1 - bmid * e1
    # one-sided fit at the first node (where the log direction matters);
    # plain one-sided difference at the last (fields are below rounding)
    da, db = q[1] - q[0], q[2] - q[0]
    u, v = lam[1] - lam[0], lam[2] - lam[0]
    den = v - 2 * u
    b[0] = (db - 2 * da) / den if den != 0 else 0.0
    c[0] = (da - b[0] * u) / h
    b[-1] = 0.0
    c[-1] = (q[-1] - q[-2]) / h
    return q, c, b


def apply_T(w):
    """Wave operator T w = w + g/(sigma' r^{3/2}) I1[w], I1[w] = int_0^r s^{3/2} g w ds.

    I1 is a cumulative product-integration sum (full cells below the
    node, then the left half of the node's own cell): per piece,
    q Dmu + c (Dm4 - r_j Dmu) + b (Dgl - Lam_j Dmu) with the closed-form
    moment increments D of _wave_rule, O(n) total.
    """
    r, h, lam, lamp, chi, pref, mu_n, mu_e, m4_n, m4_e, gl_n, gl_e = _wave_rule(w.grid)
    q, c, b = _scaled_fit(w.values, chi, h, lam, lamp)
    dmu_f = mu_e[1:] - mu_e[:-1]
    dm4_f = m4_e[1:] - m4_e[:-1]
    dgl_f = gl_e[1:] - gl_e[:-1]
    dmu_h = mu_n - mu_e[:-1]
    dm4_h = m4_n - m4_e[:-1]
    dgl_h = gl_n - gl_e[:-1]
    full = q * dmu_f + c * (dm4_f - r * dmu_f) + b * (dgl_f - lam * dmu_f)
    half = q * dmu_h + c * (dm4_h - r * dmu_h) + b * (dgl_h - lam * dmu_h)
    i1 = (np.cumsum(full) - full) + half
    return Field(w.grid, w.values + pref * i1)


def apply_Tstar(omega):
    """Adjoint wave operator T* w = w + r^{3/2} g int_r^inf w g/(s^{3/2} sigma') ds.

    Computed in the integrated-by-parts form of _wave_rule: the reverse
    integral int_r^inf Lam q' ds is a cumulative midpoint sum with
    q' = c + b Lam' from the shared fit, O(n) total.
    """
    r, h, lam, lamp, chi, pref, mu_n, mu_e, m4_n, m4_e, gl_n, gl_e = _wave_rule(omega.grid)
    q, c, b = _scaled_fit(omega.values, chi, h, lam, lamp)
    f = lam * (c + b * lamp)
    cum = np.cumsum(f)
    rev = h * ((cum[-1] - cum) + 0.5 * f)
    return Field(omega.grid, omega.values + lam * (chi * q) + chi * rev)
