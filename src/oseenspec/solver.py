"""Linear-algebra layer: eigenvalues, singular values, Hermitian parts.

Everything here is a checked wrapper over LAPACK through scipy.linalg,
with the Krylov loops written here on top of it: the contract is the
accuracy bound (backward errors at the eps level, far under the 1e-8
norm-relative budget the callers assume), not the algorithm.

Every bound runs on the banded operators of operators.assemble_banded, one
band LU of M - z per shift and no size cap: Sigma's bottom eigenvalue by
shift-invert Arnoldi, Psi's s_min(M - i shift) by inverse Lanczos (Wright
& Trefethen, SIAM J. Sci. Comput. 23, 2001), and the numerical-range
bound's bottom of (M + M^H)/2 by bisection on its tridiagonal, then for
|k| >= 2 by the same Arnoldi on a 3n pencil.  Inverse Lanczos measures
a shift cold, from a fixed start vector, to relative 1e-14, and so
measures every shift of Psi's Brent refinement and every value a Psi
bound reports; along the shifts of a Psi scan, which only pick that
refinement's bracket and start, scan_smin starts each shift from the
previous one's top Ritz vector and stops at 1e-7 (the continuation of
Trefethen & Embree, Spectra and Pseudospectra, 2005).
bottom_eigenvalue, smallest_singular_value, scan_smin and
hermitian_part_min_eig take band operators only and raise ValueError on
anything else.  verify reads tridiagonal bottoms by the same bisection
and the top of a symmetric operator given by its product by inverse
Lanczos's own loop (_lanczos, through _top_eigenvalue).  The one dense
routine left, eigenvalues (n <= 4000), is the benchmark's oracle; no
library or verify path calls it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .grids import OperatorMatrix


class SolverError(RuntimeError):
    """An eigenvalue or singular-value iteration or a band factorization failed."""


# kinds of operators.assemble_banded: data has b n rows (b = 1 or 2, and 3
# for the pencil of _hermitian_pencil) and 2b + 1 diagonals, and the shift
# and the singular value act on rows 0, b, 2b, ...
BANDED_KINDS = ("L1_band", "H_band")
# stop once the largest Ritz value moves by less than this, relatively:
# measured values, and the warm-started scan's, which only pick the
# brackets and start points Brent refines.  A warm start stalls in the
# clustered edge shifts, where the error runs to 50 times the last change
# (5e-5 at 1e-6); 1e-7 keeps it under 4e-6.
_LANCZOS_RTOL = 1e-14
_SCAN_RTOL = 1e-7
_ARNOLDI_COUNT = 6      # eigenvalues nearest the shift, among which the bottom is chosen
# Arnoldi computes Ritz pairs (an eig of its Hessenberg, which costs as much
# as a few band solves) after 2 _ARNOLDI_COUNT steps, then every _RITZ_EVERY
# steps.  The chosen pair stops at relative residual _LANCZOS_RTOL once every
# pair nearest the shift is under _RITZ_GUARD: an eigenvalue the start vector
# barely sees is still missing from the nearest Ritz pairs while they are
# unconverged, and could take the least real part (the tests build one).
# Past _ARNOLDI_MAX steps it fails; Sigma and range bounds take 16 to 24.
_RITZ_EVERY = 4
_RITZ_GUARD = 1e-4
_ARNOLDI_MAX = 200


@dataclass
class EigenResult:
    values: np.ndarray
    backward_error: float


def eigenvalues(m):
    """All eigenvalues of a dense operator, sorted by (Re, Im): the
    benchmark's oracle for Sigma, which no library path calls.

    The reported backward_error is the largest eigenpair residual
    ||M v - mu v|| over unit right eigenvectors, which bounds the size of
    the perturbation E needed for (M+E) to have the returned spectrum
    exactly.
    """
    a, kind = (m.data, m.kind) if isinstance(m, OperatorMatrix) else (np.asarray(m), "matrix")
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


def _check_band(m, routine):
    if not (isinstance(m, OperatorMatrix) and m.kind in BANDED_KINDS):
        raise ValueError("%s needs a banded operator (kind in %s)" % (routine, BANDED_KINDS))


def smallest_singular_value(m, shift=0.0):
    """s_min(M - i shift I) = 1/||(M - i shift)^{-1}|| of a banded operator,
    through one band LU and the inverse Lanczos iteration, with no size
    cap; for the pencil kind this is s_min of its Schur complement
    H - i shift.  An exactly singular M - i shift raises SolverError."""
    _check_band(m, "smallest_singular_value")
    return _banded_smin(m, shift)


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
    tridiagonal, by LAPACK bisection (stebz, the routine behind scipy's
    tridiagonal eigenvalue solver, without its checks)."""
    _, vals, _, _, info = lapack.dstebz(diag, off, 2, 0.0, 0.0, index, index, 0.0, "E")
    if info != 0:
        raise SolverError("tridiagonal bisection failed: info = %d" % info)
    return float(vals[0])


@functools.lru_cache(maxsize=None)
def _start_vector(n):
    """The fixed start vector of the Lanczos and Arnoldi iterations, built
    once per n and read-only."""
    v = np.random.default_rng(0).standard_normal(n) + 0j
    v.flags.writeable = False
    return v


def _lanczos(apply, start, rtol, vector=False):
    """Hermitian Lanczos with full reorthogonalization (twice is enough) on
    the operator apply, from start.  Stops when the largest Ritz value
    theta changes by less than relative rtol, or the Krylov space is
    exhausted, and returns theta, or (theta, its Ritz vector) if vector."""
    n = len(start)
    basis = np.empty((min(n, 32), n), dtype=start.dtype)
    basis[0] = start / np.linalg.norm(start)
    alpha, beta = [], []
    prev = 0.0
    for j in range(n):
        z = apply(basis[j])
        alpha.append(float(np.vdot(basis[j], z).real))
        theta = alpha[0] if j == 0 else _tridiagonal_eigenvalue(alpha, beta, j + 1)
        if abs(theta - prev) <= rtol * abs(theta) or j == n - 1:
            break
        prev = theta
        q = basis[:j + 1]
        for _ in range(2):
            z = z - (q @ z.conj()).conj() @ q
        beta.append(float(np.linalg.norm(z)))
        if beta[-1] <= _LANCZOS_RTOL * abs(theta):
            break               # invariant subspace: theta is exact
        if j + 1 == basis.shape[0]:
            basis = np.concatenate([basis, np.empty_like(basis)])[:n]
        basis[j + 1] = z / beta[-1]
    if not vector:
        return theta
    size = len(alpha)
    _, y = sla.eigh_tridiagonal(alpha, beta[:size - 1], select="i",
                                select_range=(size - 1, size - 1))
    return theta, y[:, 0] @ basis[:size]


def _banded_smin(m, shift, start=None, rtol=_LANCZOS_RTOL):
    """Inverse Lanczos: _lanczos on X^H X, X the x-row block of
    (M - i shift)^{-1}, from start (default: the fixed start vector), to
    relative change rtol; returns theta^{-1/2} for the top Ritz value
    theta, and given a start, (theta^{-1/2}, top Ritz vector), the start
    for a nearby shift.

    Plain inverse iteration converges at the rate (s_1/s_2)^2 per sweep,
    which is 0.998 at the scan's edge shifts, where the bottom singular
    values cluster.  From the fixed start, Lanczos reaches the default
    1e-14 there in about 30 to 260 steps, and in 7 to 10 steps near the
    resolvent peak; that cold call measures every reported value.  The
    scan's shifts only locate minima, so scan_smin runs them to 1e-7,
    each warm-started from the previous shift's Ritz vector.
    """
    solve = _band_lu(m, 1j * shift)
    q = _start_vector(m.grid.n) if start is None else start
    out = _lanczos(lambda v: solve(solve(v, False), True), q, rtol, vector=start is not None)
    if start is None:
        return 1.0 / math.sqrt(out)
    return 1.0 / math.sqrt(out[0]), out[1]


def scan_smin(m, shifts):
    """s_min(M - i shift) of a banded operator at each shift in turn, to
    locate minima, not to measure them: the inverse Lanczos of
    smallest_singular_value stopped at relative change _SCAN_RTOL, each
    shift started from the previous shift's top Ritz vector and the first
    from the fixed start vector.  Values lie within about 4e-6 relative
    of smallest_singular_value's (the tests hold 1e-5)."""
    _check_band(m, "scan_smin")
    start = _start_vector(m.grid.n)
    vals = np.empty(len(shifts))
    for i, shift in enumerate(shifts):
        vals[i], start = _banded_smin(m, shift, start=start, rtol=_SCAN_RTOL)
    return vals


def bottom_eigenvalue(m, shift):
    """Eigenvalue with the smallest real part among the _ARNOLDI_COUNT
    eigenvalues of a banded operator nearest the complex shift, by
    shift-invert Arnoldi (Saad, Numerical Methods for Large Eigenvalue
    Problems, 2nd ed., 2011, ch. 6): the Ritz values mu of largest modulus
    of (M - shift)^{-1}, applied through one band LU from the fixed start
    vector, give shift + 1/mu.  The basis grows without restarts and is
    reorthogonalized twice per step.  Stops when the chosen pair's
    residual |h_{j+1,j} y_j| is at most _LANCZOS_RTOL |mu| and every
    pair nearest the shift is under _RITZ_GUARD |mu|, or when the Krylov
    space is exhausted; past _ARNOLDI_MAX steps raises SolverError."""
    _check_band(m, "bottom_eigenvalue")
    n = m.grid.n
    solve = _band_lu(m, shift)
    steps = min(n, _ARNOLDI_MAX)
    basis = np.empty((min(steps, 32), n), dtype=complex)
    hess = np.zeros((steps + 1, steps), dtype=complex)
    start = _start_vector(n)
    basis[0] = start / np.linalg.norm(start)
    for j in range(steps):
        w = solve(basis[j], False)
        q = basis[:j + 1]
        for _ in range(2):
            c = (q @ w.conj()).conj()
            w = w - c @ q
            hess[:j + 1, j] += c
        size = j + 1
        hess[size, j] = np.linalg.norm(w)
        exhausted = size == n or hess[size, j] <= _LANCZOS_RTOL * np.abs(hess[:size, j]).max()
        if exhausted or (size >= 2 * _ARNOLDI_COUNT and size % _RITZ_EVERY == 0):
            mu, y = sla.eig(hess[:size, :size], check_finite=False)
            resid = abs(hess[size, j]) * np.abs(y[-1]) / np.abs(mu)
            near = np.argsort(-np.abs(mu))[:_ARNOLDI_COUNT]
            pick = near[np.argmin((1.0 / mu[near]).real)]
            if exhausted or (resid[pick] <= _LANCZOS_RTOL
                             and resid[near].max() <= _RITZ_GUARD):
                return complex(shift + 1.0 / mu[pick])
        if size == basis.shape[0]:
            basis = np.concatenate([basis, np.empty_like(basis)])
        basis[size] = w / hess[size, j]
    raise SolverError("Arnoldi did not converge for %s (n=%d) in %d steps"
                      % (m.kind, n, steps))


def _top_eigenvalue(matvec, n):
    """Largest eigenvalue of a real symmetric n x n operator given by its
    product, by _lanczos from the fixed start vector."""
    return _lanczos(matvec, _start_vector(n).real, _LANCZOS_RTOL)


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
    """Smallest eigenvalue of (M + M^H)/2 of a banded operator; a lower
    bound for min Re spec(M).

    A band's stencil is complex symmetric, so its x-row tridiagonal has
    Hermitian part (Re diag, Re off), whose bottom (by bisection) is the
    answer for L1_band and seeds bottom_eigenvalue on _hermitian_pencil
    for H_band."""
    _check_band(m, "hermitian_part_min_eig")
    b = m.data.shape[0] // m.grid.n
    low = _tridiagonal_eigenvalue(m.data[::b, b].real, m.data[:-b:b, 2 * b].real, 1)
    return low if b == 1 else bottom_eigenvalue(_hermitian_pencil(m), low).real
