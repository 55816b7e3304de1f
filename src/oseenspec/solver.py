"""Linear-algebra layer: eigenvalues, singular values, Hermitian parts.

Everything here is a thin, checked wrapper over LAPACK and ARPACK through
scipy: the contract is the accuracy bound (backward errors at the eps
level, far under the 1e-8 norm-relative budget the callers assume), not
the algorithm.

Every bound runs on the banded operators of operators.assemble_banded, one
band LU of M - z per shift and no size cap: Sigma's bottom eigenvalue by
shift-invert Arnoldi, Psi's s_min(M - i shift) by inverse Lanczos (Wright
& Trefethen, SIAM J. Sci. Comput. 23, 2001), and the numerical-range
bound's bottom of (M + M^H)/2 by bisection on its tridiagonal, then for
|k| >= 2 by the same Arnoldi on a 3n pencil.  The dense routines (eig,
svdvals, eigvalsh, n <= 4000) stay only as the tests' and the
benchmark's 1e-10 oracle.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

from .grids import OperatorMatrix


class SolverError(RuntimeError):
    """An eigenvalue or singular-value iteration or a band factorization failed."""


# kinds of operators.assemble_banded: data has b n rows (b = 1 or 2, and 3
# for the pencil of _hermitian_pencil) and 2b + 1 diagonals, and the shift
# and the singular value act on rows 0, b, 2b, ...
BANDED_KINDS = ("L1_band", "H_band")
# stop once the largest Ritz value moves by less than this, relatively
_LANCZOS_RTOL = 1e-14
_ARNOLDI_COUNT = 6      # eigenvalues nearest the shift that ARPACK finds


@dataclass
class EigenResult:
    values: np.ndarray
    backward_error: float


def _as_matrix(m):
    if isinstance(m, OperatorMatrix):
        return m.data, m.kind
    return np.asarray(m), "matrix"


def eigenvalues(m):
    """All eigenvalues of a dense operator, sorted by (Re, Im).

    The reported backward_error is the largest eigenpair residual
    ||M v - mu v|| over unit right eigenvectors, which bounds the size of
    the perturbation E needed for (M+E) to have the returned spectrum
    exactly.
    """
    a, kind = _as_matrix(m)
    n = a.shape[0]
    if n > 4000:
        raise ValueError("dense eigensolve capped at n = 4000, got %d" % n)
    try:
        vals, vecs = sla.eig(a)
    except sla.LinAlgError as exc:
        raise SolverError("eigenvalue iteration failed for %s (n=%d): %s"
                          % (kind, n, exc)) from exc
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vecs = vecs[:, order]
    resid = a @ vecs - vecs * vals[None, :]
    err = float(np.linalg.norm(resid, axis=0).max())
    return EigenResult(values=vals, backward_error=err)


def smallest_singular_value(m, shift=0.0):
    """s_min(M - i shift I) = 1/||(M - i shift)^{-1}||.

    A banded operator (kinds in BANDED_KINDS) goes through one band LU
    and the inverse Lanczos iteration, with no size cap; for the pencil
    kind this is s_min of its Schur complement H - i shift.  Anything else
    goes through the dense SVD (n <= 4000), which returns 0 for an exactly
    singular matrix where the band LU raises SolverError.
    """
    if isinstance(m, OperatorMatrix) and m.kind in BANDED_KINDS:
        return _banded_smin(m, shift)
    a, kind = _as_matrix(m)
    n = a.shape[0]
    if n > 4000:
        raise ValueError("dense svd capped at n = 4000, got %d" % n)
    if shift != 0.0:
        a = a - 1j * shift * np.eye(n)
    try:
        s = sla.svdvals(a)
    except sla.LinAlgError as exc:
        raise SolverError("svd failed for %s (n=%d): %s" % (kind, n, exc)) from exc
    return float(s[-1])


def _band_lu(m, z):
    """One LU of the band shifted by the complex z (gttrf for b = 1, gbtrf
    otherwise); returns solve(v, adjoint), which applies the x-row block of
    (M - z)^{-1} or of its adjoint to a length-n vector."""
    data, n = m.data, m.grid.n
    b = data.shape[0] // n
    diag = data[:, b].copy()
    diag[::b] -= z
    if b == 1:
        dl, d, du, du2, ipiv, info = lapack.zgttrf(data[1:, 0], diag, data[:-1, 2])

        def solve(v, adjoint):
            return lapack.zgttrs(dl, d, du, du2, ipiv, v, trans="C" if adjoint else "N")[0]
    else:
        # LAPACK band layout: entry (i, j) at ab[2b + i - j, j] under b spare rows
        size = data.shape[0]
        ab = np.zeros((3 * b + 1, size), dtype=complex)
        for col in range(2 * b + 1):
            off = col - b
            src = diag if off == 0 else data[:, col]
            if off >= 0:
                ab[3 * b - col, off:] = src[:size - off]
            else:
                ab[3 * b - col, :size + off] = src[-off:]
        lu, ipiv, info = lapack.zgbtrf(ab, b, b)

        def solve(v, adjoint):
            rhs = np.zeros(size, dtype=complex)
            rhs[::b] = v
            return lapack.zgbtrs(lu, b, b, rhs, ipiv, trans=2 if adjoint else 0)[0][::b]
    if info != 0:
        raise SolverError("band LU failed for %s (n=%d) at shift %s: info = %d"
                          % (m.kind, n, z, info))
    return solve


def _tridiagonal_eigenvalue(diag, off, index):
    """The index-th smallest (from 1) eigenvalue of a real symmetric
    tridiagonal, by LAPACK bisection (stebz, the routine
    eigvalsh_tridiagonal calls, without its checks)."""
    _, vals, _, _, info = lapack.dstebz(diag, off, 2, 0.0, 0.0, index, index, 0.0, "E")
    if info != 0:
        raise SolverError("tridiagonal bisection failed: info = %d" % info)
    return float(vals[0])


def _banded_smin(m, shift):
    """Inverse Lanczos: Hermitian Lanczos with full reorthogonalization on
    X^H X, X the x-row block of (M - i shift)^{-1}, from a fixed start
    vector.  Stops when the largest Ritz value theta changes by less than
    relative 1e-14 (or the Krylov space is exhausted) and returns
    theta^{-1/2}.

    Plain inverse iteration converges at the rate (s_1/s_2)^2 per sweep,
    which is 0.998 at the scan's edge shifts, where the bottom singular
    values cluster; Lanczos reaches 1e-14 there in about 30 to 260 steps,
    and in 7 to 10 steps near the resolvent peak.
    """
    n = m.grid.n
    solve = _band_lu(m, 1j * shift)
    q = np.random.default_rng(0).standard_normal(n) + 0j
    basis = np.empty((min(n, 32), n), dtype=complex)
    basis[0] = q / np.linalg.norm(q)
    alpha, beta = [], []
    prev = 0.0
    for j in range(n):
        x = solve(basis[j], False)
        z = solve(x, True)
        alpha.append(float(np.vdot(x, x).real))
        theta = alpha[0] if j == 0 else _tridiagonal_eigenvalue(alpha, beta, j + 1)
        if abs(theta - prev) <= _LANCZOS_RTOL * theta or j == n - 1:
            break
        prev = theta
        q = basis[:j + 1]
        for _ in range(2):      # twice is enough
            z = z - (q @ z.conj()).conj() @ q
        beta.append(float(np.linalg.norm(z)))
        if beta[-1] <= _LANCZOS_RTOL * theta:
            break               # invariant subspace: theta is exact
        if j + 1 == basis.shape[0]:
            basis = np.concatenate([basis, np.empty_like(basis)])[:n]
        basis[j + 1] = z / beta[-1]
    return 1.0 / math.sqrt(theta)


def bottom_eigenvalue(m, shift):
    """Eigenvalue with the smallest real part among the _ARNOLDI_COUNT
    eigenvalues of a banded operator nearest the complex shift: ARPACK's
    dominant eigenvalues mu of (M - shift)^{-1}, applied through one band
    LU from a fixed start vector, give shift + 1/mu."""
    if not (isinstance(m, OperatorMatrix) and m.kind in BANDED_KINDS):
        raise ValueError("bottom_eigenvalue needs a banded operator")
    n = m.grid.n
    solve = _band_lu(m, shift)
    inverse = LinearOperator((n, n), matvec=lambda v: solve(v, False), dtype=complex)
    v0 = np.random.default_rng(0).standard_normal(n) + 0j
    try:
        mu = eigs(inverse, k=_ARNOLDI_COUNT, v0=v0, return_eigenvectors=False)
    except ArpackError as exc:
        raise SolverError("Arnoldi failed for %s (n=%d): %s" % (m.kind, n, exc)) from exc
    return complex(min(shift + 1.0 / mu, key=lambda v: v.real))


def _hermitian_pencil(m):
    """(M + M^H)/2 of an H_band operator as a 3n pencil of the same kind,
    rows and columns interleaved (x_i, y_i, w_i), data of shape (3n, 7):
    x rows hold the tridiagonal (Re diag, Re off) and -c F2/2 to y_i,
    -conj(c F2)/2 to w_i; y rows are M's y rows [koff, -F2, kdiag, koff],
    w rows the same with conj(F2).  Eliminating y and w leaves
    Re(stencil + potential) - (c F2 K F2 + conj(c F2) K conj(F2))/2."""
    x, y = m.data[0::2], m.data[1::2]
    data = np.zeros((3 * m.grid.n, 7), dtype=complex)
    hx, hy, hw = data[0::3], data[1::3], data[2::3]
    hx[:, 0], hx[:, 3], hx[:, 6] = x[:, 0].real, x[:, 2].real, x[:, 4].real
    hx[:, 4], hx[:, 5] = x[:, 3] / 2, x[:, 3].conj() / 2
    hy[:, 0], hy[:, 2], hy[:, 3], hy[:, 6] = y[:, 0], y[:, 1], y[:, 2], y[:, 4]
    hw[:, 0], hw[:, 1], hw[:, 3], hw[:, 6] = y[:, 0], y[:, 1].conj(), y[:, 2], y[:, 4]
    return OperatorMatrix(kind=m.kind, grid=m.grid, mode=m.mode, data=data)


def hermitian_part_min_eig(m):
    """Smallest eigenvalue of (M + M^H)/2; a lower bound for min Re spec(M).

    A band's stencil is complex symmetric, so its x-row tridiagonal has
    Hermitian part (Re diag, Re off), whose bottom (by bisection) is the
    answer for L1_band and seeds bottom_eigenvalue on _hermitian_pencil
    for H_band.  Dense input, the tests' oracle, goes through eigvalsh."""
    if isinstance(m, OperatorMatrix) and m.kind in BANDED_KINDS:
        b = m.data.shape[0] // m.grid.n
        low = _tridiagonal_eigenvalue(m.data[::b, b].real, m.data[:-b:b, 2 * b].real, 1)
        return low if b == 1 else bottom_eigenvalue(_hermitian_pencil(m), low).real
    a, _ = _as_matrix(m)
    herm = (a + a.conj().T) / 2
    return float(sla.eigvalsh(herm, subset_by_index=(0, 0))[0])
