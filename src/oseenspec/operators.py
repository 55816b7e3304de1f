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
_mode_parts and read by assemble_banded (band storage: L1 is
tridiagonal, and for |k| >= 2 K_k is semiseparable, so its inverse is
tridiagonal in closed form and H is the Schur complement of a
pentadiagonal 2n pencil), whose L1 band apply_L1 applies, and by
assemble_H_deformed (dense).

The same structure gives every product in O(n): apply_A is the
tridiagonal product with harmonic_bands, apply_K two cumulative sums
over K_k's semiseparable generators (built once per k and grid with its
tridiagonal inverse), and apply_B and apply_H are built from these two;
apply_T and apply_Tstar read a quadrature rule built once per grid.
Every product acts along the last axis of a Field's values, so a stack
of fields is one call, and each row equals, bit for bit, the product of
that field alone.  The dense assemblies, assemble_A, _K, _B, _H, _L1 and
_H_deformed, build the operators as (n, n) matrices from sigma, g and f
instead; they are the benchmark's oracle (and the tests'), and no
library path calls them.  Integral parts carry the midpoint quadrature
weight h so that matrices act on plain node-value vectors.
"""

import cmath
import functools
import math
from collections import namedtuple

import numpy as np

from . import specfun
from .grids import Field, OperatorMatrix, stencil_bands


def _check_k(k):
    if int(k) != k or k == 0:
        raise ValueError("k must be a nonzero integer")
    return int(k)


def harmonic_bands(k, grid):
    """(diag, off) of the tridiagonal A_k: the stencil plus the potential
    (k^2 - 1/4)/r^2 + r^2/16 - 1/2 on the diagonal."""
    k = abs(_check_k(k))
    r = grid.nodes
    diag, off = stencil_bands(grid)
    return diag + (k * k - 0.25) / r ** 2 + r ** 2 / 16 - 0.5, off


def assemble_A(k, grid):
    """Shifted harmonic radial operator A_k; real symmetric."""
    diag, off = harmonic_bands(k, grid)
    m = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return OperatorMatrix(kind="A_k", grid=grid, data=m)


def assemble_K(k, grid):
    """Nystrom matrix of K_k: entries h/(2|k|) min(ri/rj, rj/ri)^{|k|} sqrt(ri rj)."""
    k = abs(_check_k(k))
    r = grid.nodes
    ratio = np.minimum.outer(r, r) / np.maximum.outer(r, r)
    m = (grid.h / (2 * k)) * ratio ** k * np.sqrt(np.outer(r, r))
    return OperatorMatrix(kind="K_k", grid=grid, data=m)


def kernel_inverse_bands(k, grid):
    """Closed-form tridiagonal inverse of assemble_K(k, grid): (diag, off)."""
    return _kernel(abs(_check_k(k)), grid)[2:]


@functools.lru_cache(maxsize=16)
def _kernel(k, grid):
    """(u, v, diag, off) of K_k, k = |k|, once per (k, grid) and read-only,
    for apply_K and kernel_inverse_bands.

    K_k has entries u_min(i,j) v_max(i,j) with generators
    u = (h/2k) r^{k+1/2} and v = r^{-k+1/2}, so its inverse is
    tridiagonal with off-diagonal -1/w_i, w_i = u_{i+1} v_i - u_i v_{i+1},
    interior diagonal (u_{i+1} v_{i-1} - u_{i-1} v_{i+1})/(w_{i-1} w_i)
    and end entries u_2/(u_1 w_1), v_{n-1}/(v_n w_{n-1}).  Each
    generator difference is evaluated as
    u_j v_i - u_i v_j = (h/k) (r_i r_j)^{1/2} sinh(k log(r_j/r_i)),
    and each end ratio as a power of r_2/r_1 or r_n/r_{n-1}, which keeps
    full relative accuracy where r_j/r_i is close to 1.
    """
    r, h = grid.nodes, grid.h

    def wronskian(ri, rj):
        return (h / k) * np.sqrt(ri * rj) * np.sinh(k * np.log(rj / ri))

    w = wronskian(r[:-1], r[1:])
    diag = np.empty(grid.n)
    diag[1:-1] = wronskian(r[:-2], r[2:]) / (w[:-1] * w[1:])
    diag[0] = (r[1] / r[0]) ** (k + 0.5) / w[0]
    diag[-1] = (r[-1] / r[-2]) ** (k - 0.5) / w[-1]
    parts = ((h / (2 * k)) * r ** (k + 0.5), r ** (0.5 - k), diag, -1.0 / w)
    for a in parts:
        a.setflags(write=False)
    return parts


def assemble_B(k, grid):
    """B_k = diag(sigma) - diag(g) K_k diag(g); real symmetric, 0 <= B_k <= sigma."""
    k = abs(_check_k(k))
    g = specfun.g(grid.nodes)
    # np.outer(g, g) and the kernel matrix are both exactly symmetric, so
    # the entrywise product keeps B - B^T identically zero
    m = -(np.outer(g, g) * assemble_K(k, grid).data)
    np.fill_diagonal(m, m.diagonal() + specfun.sigma(grid.nodes))
    return OperatorMatrix(kind="B_k", grid=grid, data=m)


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
    return OperatorMatrix(kind="H_full", grid=grid, data=m)


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
    return OperatorMatrix(kind="L1_model", grid=grid, data=m)


def _tridiagonal_product(lower, diag, upper, v):
    out = diag * v
    out[..., 1:] += lower * v[..., :-1]
    out[..., :-1] += upper * v[..., 1:]
    return out


def apply_A(k, w):
    """A_k w in O(n): the tridiagonal product with harmonic_bands.  Like
    every apply_* product it acts along the last axis, so a Field holding
    a stack of fields is one call."""
    diag, off = harmonic_bands(k, w.grid)
    return Field(w.grid, _tridiagonal_product(off, diag, off, w.values))


def apply_K(k, w):
    """K_k w in O(n).  K_k has entries u_min(i,j) v_max(i,j) with the
    generators u, v of _kernel, so (K w)_i = v_i sum_{j <= i} u_j w_j
    + u_i sum_{j > i} v_j w_j: two cumulative sums along the last axis."""
    u, v = _kernel(abs(_check_k(k)), w.grid)[:2]
    x = w.values
    vx = v * x
    above = np.zeros_like(vx)
    above[..., :-1] = np.cumsum(vx[..., :0:-1], axis=-1)[..., ::-1]
    return Field(w.grid, v * np.cumsum(u * x, axis=-1) + u * above)


@functools.lru_cache(maxsize=8)
def _node_profiles(grid):
    """(sigma, g) on the grid's nodes, evaluated once per grid (grids
    compare by n, r_max and h) and shared read-only."""
    sig, g = specfun.sigma(grid.nodes), specfun.g(grid.nodes)
    sig.setflags(write=False)
    g.setflags(write=False)
    return sig, g


def apply_B(k, w):
    """B_k w = sigma w - g K_k (g w) in O(n), along the last axis."""
    sig, g = _node_profiles(w.grid)
    return Field(w.grid, sig * w.values
                 - g * apply_K(k, Field(w.grid, g * w.values)).values)


def apply_H(mode, w):
    """H w = A_|k| w + i beta_k B_|k| w - i lam w in O(n), along the last
    axis; theta = 0 only, like assemble_H."""
    if mode.theta != 0.0:
        raise ValueError("apply_H requires theta = 0; use assemble_banded")
    return Field(w.grid, apply_A(mode.k, w).values
                 + 1j * mode.beta_k * apply_B(mode.k, w).values - 1j * mode.lam * w.values)


def apply_L1(band, w):
    """Action of L1 on a Field: the tridiagonal product with band, the
    "L1_band" of assemble_banded at the mode's dilation angle, along the
    last axis, so one assembly serves every field."""
    if band.kind != "L1_band" or band.grid != w.grid:
        raise ValueError("apply_L1 needs the L1_band of the field's grid")
    lower, diag, upper = band.data[1:, 0], band.data[:, 1], band.data[:-1, 2]
    return Field(w.grid, _tridiagonal_product(lower, diag, upper,
                                              np.asarray(w.values, dtype=complex)))


def _mode_parts(mode, grid):
    """(kin, off, pot, coupling) of the mode operator at angle theta, with
    rot = e^{2 i theta}, z = r^2 rot/4: the stencil over rot (diagonal kin
    with the centrifugal term for |k| >= 2, off-diagonal off), the diagonal
    potential, and (c, F2(z)) of the nonlocal part -c F2 K_k F2,
    c = i beta_k rot (None for |k| = 1, whose F4 form folds the 2/z pole
    of F3 into the centrifugal coefficient 35/4)."""
    rot = cmath.exp(2j * mode.theta)
    r = grid.nodes
    z = (r ** 2 / 4) * rot
    k = abs(mode.k)
    kin, off = stencil_bands(grid)
    off = off * (1 / rot)
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
        return OperatorMatrix(kind="L1_band", grid=grid, data=data)
    c, f2 = coupling
    kdiag, koff = kernel_inverse_bands(mode.k, grid)
    data = np.zeros((2 * n, 5), dtype=complex)
    x, y = data[0::2], data[1::2]
    x[1:, 0], x[:, 2], x[:, 3], x[:-1, 4] = off, diag, -c * f2, off
    y[1:, 0], y[:, 1], y[:, 2], y[:-1, 4] = koff, -f2, kdiag, koff
    return OperatorMatrix(kind="H_band", grid=grid, data=data)


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
    return OperatorMatrix(kind="H_deformed", grid=grid, data=m)


def interior_mask(grid):
    """Boolean mask of nodes away from both boundary layers.

    Identity checks that apply the second-difference stencil to fields
    with r^{k+1/2} behavior are FD-limited near the axis: the pinned
    stencil's truncation error concentrates on the first nodes and the
    wave transform spreads it over a fixed physical width, so the
    excluded layer must be a physical collar, not a node count (at fixed
    node count the excluded error grows like h^{-1/2} as the grid is
    refined; at fixed width it shrinks like h^2).  The far collar covers
    the Dirichlet wall at r_max + h/2.  The collar's width 0.3 keeps the
    commutator and conjugation residuals a factor of two under their
    tolerance on the reference grid (n = 2000, r_max = 40).
    """
    r = grid.nodes
    return (r >= 0.3) & (r <= grid.r_max - 0.3)


_WaveRule = namedtuple("_WaveRule", "h lam lamp chi pref full half")


def _gamma_p52(x):
    """P(5/2, x), the regularized lower incomplete gamma, on an array x >= 0:
    erf(sqrt x) - 2 sqrt(x/pi) e^{-x} (1 + 2x/3), and below x = 1, where
    that cancels, x^{5/2} e^{-x} sum_{j<30} x^j/Gamma(j + 7/2) (DLMF 8.7.1)."""
    out = np.empty_like(x)
    small = x < 1.0
    xs, xl = x[small], x[~small]
    term = np.full_like(xs, 1.0 / math.gamma(3.5))
    total = term.copy()
    for j in range(1, 30):
        term = term * xs / (2.5 + j)
        total += term
    out[small] = xs ** 2.5 * np.exp(-xs) * total
    erf = np.array([math.erf(v) for v in np.sqrt(xl)])
    out[~small] = erf - 2.0 * np.sqrt(xl / math.pi) * np.exp(-xl) * (1.0 + 2.0 * xl / 3.0)
    return out


@functools.lru_cache(maxsize=8)
def _wave_rule(grid):
    """The quadrature rule of the wave transforms T and T* on grid, built
    once per grid (grids compare by n, r_max and h) and shared read-only.

    Both transforms are integrals against the one positive measure the
    problem carries,

        mu(s) = int_0^s t^3 g(t)^2 dt = -s^3 sigma'(s) = 8 E0(s^2/4)

    (specfun.E0 = P(2, .), the regularized lower incomplete gamma, which
    sigma' reads too), applied to the scaled field q = w/(s^{3/2} g).  A
    plain cumulative sum of s^{3/2} g w loses O(1) relative accuracy on
    the first cells, where the prefactor g/(sigma' r^{3/2}) ~ -4 r^{-5/2}
    amplifies it far past the wave-suite tolerance, so the running
    integral of T is computed by product integration instead: per cell,
    q is fitted on the local basis {1, s - r_j, Lam(s) - Lam_j} with
    Lam = log(mu/8) (_scaled_fit), and each basis direction is
    integrated against d(mu) in closed form,

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

    Returns h, Lam, Lam', chi, the prefactor of T and, for the full cells
    below each node and the left half of the node's own cell, the moment
    increments (Dmu, Dm4 - r_j Dmu, Dgl - Lam_j Dmu) that weight q, c and b
    in T's running integral.
    """
    r, h = grid.nodes, grid.h
    edges = np.arange(grid.n + 1) * h
    mu_n = 8 * specfun.E0(r ** 2 / 4)
    mu_e = 8 * specfun.E0(edges ** 2 / 4)
    lam = np.log(mu_n / 8)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_e = np.log(mu_e / 8)
        gl_e = np.where(mu_e > 0, mu_e * (lam_e - 1), 0.0)
    lamp = r ** 3 * specfun.g(r) ** 2 / mu_n
    # first moments of d(mu): int_0^x s dmu and int_0^x Lam dmu, closed form
    m4_n = 12 * math.sqrt(math.pi) * _gamma_p52(r ** 2 / 4)
    m4_e = 12 * math.sqrt(math.pi) * _gamma_p52(edges ** 2 / 4)
    gl_n = mu_n * (lam - 1)
    chi = r ** 1.5 * specfun.g(r)
    pref = specfun.g(r) / (specfun.sigma_prime(r) * r ** 1.5)

    def moments(dmu, dm4, dgl):
        return dmu, dm4 - r * dmu, dgl - lam * dmu

    full = moments(mu_e[1:] - mu_e[:-1], m4_e[1:] - m4_e[:-1], gl_e[1:] - gl_e[:-1])
    half = moments(mu_n - mu_e[:-1], m4_n - m4_e[:-1], gl_n - gl_e[:-1])
    for a in (lam, lamp, chi, pref) + full + half:
        a.setflags(write=False)
    return _WaveRule(h, lam, lamp, chi, pref, full, half)


def _real_divide(x, y, out, where=True):
    """out = x / y where where, for a real y: a complex x by its real and
    imaginary parts apart, which numpy would divide as complex by complex,
    1.5 to 2 times slower.  T and T* are real-linear, so on a complex field
    this moves only the last bits."""
    if np.iscomplexobj(x):
        _real_divide(x.real, y, out.real, where)
        _real_divide(x.imag, y, out.imag, where)
    else:
        np.divide(x, y, out=out, where=where)
    return out


def _scaled_fit(w, rule):
    """q = w/(r^{3/2} g) and its local fit on the basis {1, r, Lam}.

    Returns (q, c, b) with q(s) ~ q_j + c_j (s - r_j) + b_j (Lam - Lam_j)
    near node j, each of w's shape (the grid on the last axis); the fit
    interpolates the three stencil values, so it is exact for q in
    span{1, r, Lam} and resolves the log direction that plain differences
    lose near the origin.  With d1, d2 the centered first/second
    differences of q and e1, e2 those of Lam, b = d2/e2 and c = d1 - b e1.
    The attribution to Lam is kept only while Lam's curvature is resolved
    above rounding (|e2| > 1e-10, which holds out to r ~ 9); past that Lam
    is constant to more digits than the stencil can see, e2 is
    differencing junk, and b = 0, c = d1 is exact for the directions that
    survive.
    Nodes where chi has underflowed to zero (possible only past r ~ 77)
    carry no field content and get q = 0 rather than inf.
    """
    chi, h, lam = rule.chi, rule.h, rule.lam
    q = _real_divide(w, chi, np.zeros(np.shape(w), np.result_type(w, chi)), chi > 0)
    c = np.empty_like(q)
    b = np.zeros_like(q)
    d1 = _real_divide(q[..., 2:] - q[..., :-2], 2 * h, np.empty_like(q[..., 1:-1]))
    d2 = q[..., 2:] - 2 * q[..., 1:-1] + q[..., :-2]
    e1 = (lam[2:] - lam[:-2]) / (2 * h)
    e2 = lam[2:] - 2 * lam[1:-1] + lam[:-2]
    bmid = b[..., 1:-1]
    np.divide(d2, e2, out=bmid, where=np.abs(e2) > 1e-10)
    if not np.isfinite(bmid).all():     # only a q that overflowed gets here
        np.nan_to_num(bmid, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
    np.subtract(d1, bmid * e1, out=c[..., 1:-1])
    # one-sided fit at the first node (where the log direction matters);
    # plain one-sided difference at the last (fields are below rounding)
    da, db = q[..., 1] - q[..., 0], q[..., 2] - q[..., 0]
    u, v = lam[1] - lam[0], lam[2] - lam[0]
    den = v - 2 * u
    b[..., 0] = (db - 2 * da) / den if den != 0 else 0.0
    c[..., 0] = (da - b[..., 0] * u) / h
    b[..., -1] = 0.0
    c[..., -1] = (q[..., -1] - q[..., -2]) / h
    return q, c, b


def apply_T(w):
    """Wave operator T w = w + g/(sigma' r^{3/2}) I1[w], I1[w] = int_0^r s^{3/2} g w ds.

    I1 is a cumulative product-integration sum (full cells below the
    node, then the left half of the node's own cell): per piece,
    q Dmu + c (Dm4 - r_j Dmu) + b (Dgl - Lam_j Dmu) with the closed-form
    moment increments D of _wave_rule, O(n) total, along the last axis.
    """
    rule = _wave_rule(w.grid)
    q, c, b = _scaled_fit(w.values, rule)
    full, half = (q * m0 + c * m1 + b * m2 for m0, m1, m2 in (rule.full, rule.half))
    i1 = (np.cumsum(full, axis=-1) - full) + half
    return Field(w.grid, w.values + rule.pref * i1)


def apply_Tstar(omega):
    """Adjoint wave operator T* w = w + r^{3/2} g int_r^inf w g/(s^{3/2} sigma') ds.

    Computed in the integrated-by-parts form of _wave_rule: the reverse
    integral int_r^inf Lam q' ds is a cumulative midpoint sum with
    q' = c + b Lam' from the shared fit, O(n) total, along the last axis.
    """
    rule = _wave_rule(omega.grid)
    lam, chi = rule.lam, rule.chi
    q, c, b = _scaled_fit(omega.values, rule)
    f = lam * (c + b * rule.lamp)
    cum = np.cumsum(f, axis=-1)
    rev = rule.h * ((cum[..., -1:] - cum) + 0.5 * f)
    return Field(omega.grid, omega.values + lam * (chi * q) + chi * rev)
