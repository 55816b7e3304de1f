"""Dense and exhaustive references the tests hold the library to.

The library computes every bound on band operators and every verify
check in O(n); nothing in it calls the routines below.  They are the
plain dense LAPACK calls and full searches the O(n) paths replace, kept
here so the 1e-10 gates compare against the same call on the same
array as before:

- smallest_singular_value: s_min(M - i shift) by the dense SVD
  (svdvals) of an assembled matrix;
- tridiagonal_smallest_singular_value: the same for a tridiagonal M by
  LAPACK's Hermitian band eigensolver on the Golub-Kahan matrix, the
  reference past n = 600, where svdvals is held to it;
- hermitian_part_min_eig: the bottom of (M + M^H)/2 by dense eigvalsh;
- bottom_eigenvalue: the bottom among the eigenvalues of a band nearest
  a shift by ARPACK's shift-invert Arnoldi, the call the library's own
  Arnoldi loop replaces;
- assemble_K_truncated and second_derivative_stencil: the dense
  Dirichlet-truncated kernel (kind "K_truncated") and -d^2/dr^2 (kind
  "D2"), against which verify's O(n) kernel form and the stencil bands
  are checked;
- search_constants: verify's constant search over the full 25 x 25 grid;
- psi_scan and psi_window_scan: Psi by a cold scan of s_min over given
  shifts (or 16 shifts over analysis's window, r_c [0.65, 1.35]), whose
  lowest interior minimum analysis._slope_min refines on cold slopes, as
  the bound did before its secant started at the critical radius.
"""

import functools
import math

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import LinearOperator, eigs

from oseenspec import analysis, operators, solver, specfun
from oseenspec.grids import OperatorMatrix, stencil_bands


def _as_matrix(m):
    return m.data if isinstance(m, OperatorMatrix) else np.asarray(m)


def smallest_singular_value(m, shift=0.0):
    """s_min(M - i shift I) of a dense matrix or OperatorMatrix, by svdvals."""
    a = _as_matrix(m)
    n = a.shape[0]
    if shift != 0.0:
        a = a - 1j * shift * np.eye(n)
    s = sla.svdvals(a)
    return float(s[-1])


def tridiagonal_smallest_singular_value(m, shift=0.0):
    """s_min(M - i shift I) of a tridiagonal dense matrix or OperatorMatrix:
    the smallest nonnegative eigenvalue of the Hermitian Golub-Kahan matrix
    [[0, T], [T^H, 0]], T = M - i shift, whose eigenvalues are the +-
    singular values of T (Golub & Kahan, SIAM J. Numer. Anal. B 2, 1965).
    With rows and columns interleaved (x_1, y_1, x_2, ...) it has bandwidth
    3, and eig_banded reads its eigenvalue n of 2n by band reduction and
    bisection: no LU and no Lanczos, so none of the library's path."""
    a = _as_matrix(m)
    n = a.shape[0]
    if np.count_nonzero(np.triu(a, 2)) or np.count_nonzero(np.tril(a, -2)):
        raise ValueError("the matrix is not tridiagonal")
    # lower band storage, band[d, j] = G[j + d, j]: from column x_i, rows
    # y_i (d = 1) and y_{i+1} (d = 3); from column y_j, row x_{j+1} (d = 1)
    band = np.zeros((4, 2 * n), dtype=complex)
    band[1, 0::2] = (np.diagonal(a) - 1j * shift).conj()
    band[3, 0:-2:2] = np.diagonal(a, 1).conj()
    band[1, 1:-1:2] = np.diagonal(a, -1)
    return float(sla.eig_banded(band, lower=True, eigvals_only=True,
                                select="i", select_range=(n, n))[0])


def hermitian_part_min_eig(m):
    """Smallest eigenvalue of (M + M^H)/2 of a dense matrix, by eigvalsh."""
    a = _as_matrix(m)
    herm = (a + a.conj().T) / 2
    return float(sla.eigvalsh(herm, subset_by_index=(0, 0))[0])


def bottom_eigenvalue(m, shift):
    """The eigenvalue with the smallest real part among the
    solver._ARNOLDI_COUNT eigenvalues of a banded operator nearest the
    complex shift: ARPACK's (eigs) dominant eigenvalues mu of
    (M - shift)^{-1}, applied through the band LU from the fixed start
    vector, give shift + 1/mu."""
    n = m.grid.n
    solve = solver._band_lu(m, shift)
    inverse = LinearOperator((n, n), matvec=lambda v: solve(v, False), dtype=complex)
    mu = eigs(inverse, k=solver._ARNOLDI_COUNT, v0=solver._start_vector(n),
              return_eigenvectors=False)
    return complex(min(shift + 1.0 / mu, key=lambda v: v.real))


def assemble_K_truncated(k, r_k, grid):
    """Dirichlet-truncated kernel on (0, r_k):

        (1/2|k|) [min(r/s, s/r)^{|k|} - (rs/r_k^2)^{|k|}] (rs)^{1/2}

    supported on nodes < r_k (zero rows/columns outside); entrywise >= 0.
    """
    k = abs(operators._check_k(k))
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
    return OperatorMatrix(kind="K_truncated", grid=grid, data=m)


def second_derivative_stencil(grid):
    """stencil_bands as a dense (n, n) matrix."""
    diag, off = stencil_bands(grid)
    m = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return OperatorMatrix(kind="D2", grid=grid, data=m)


def search_constants(term1, term2, rhs):
    """verify._search_constants by exhaustion: every pair of the 25 x 25
    log grid that could lower the best max(c1, c2) is tried."""
    best = math.inf
    for c1 in np.geomspace(0.01, 100.0, 25):
        for c2 in np.geomspace(0.01, 100.0, 25):
            if max(c1, c2) >= best:
                continue
            if np.all(c1 * term1 + c2 * term2 >= rhs):
                best = max(c1, c2)
    return best


def psi_scan(m, shifts):
    """(Psi, lambda*, curvature) of a band: s_min measured cold at each
    shift, and the lowest interior minimum refined by analysis._slope_min on
    cold slopes within its two neighbours, from that shift; None if no
    shift is an interior minimum, or if the slopes find none inside."""
    shifts = np.asarray(shifts, dtype=float)
    vals = np.array([solver.smallest_singular_value(m, lam)[0] for lam in shifts])
    inner = np.where((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1
    if inner.size == 0:
        return None
    i = inner[np.argmin(vals[inner])]
    a, b = sorted((shifts[i - 1], shifts[i + 1]))
    hit = analysis._slope_min(functools.partial(solver.smallest_singular_value, m), a, b,
                              shifts[i])
    return hit[:3] if hit[3] else None


def psi_window_scan(m, mode):
    """psi_scan over 16 shifts lam = beta_k sigma(r), r over r_c [0.65, 1.35],
    r_c = max(2.7 |beta_k|^{1/6}, 4, 2 sqrt|k|) as analysis._psi_window
    places it."""
    r_c = max(analysis._CRITICAL * abs(mode.beta_k) ** (1.0 / 6.0), 4.0,
              2.0 * math.sqrt(abs(mode.k)))
    return psi_scan(m, mode.beta_k * specfun.sigma(r_c * np.linspace(0.65, 1.35, 16)))
