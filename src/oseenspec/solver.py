"""Linear-algebra layer: eigenvalues, singular values, Hermitian parts.

Everything here is a checked wrapper over LAPACK, through the ctypes
bindings of _lapack and numpy.linalg.eig (for the small Hessenberg of
Arnoldi and the oracle), with the Krylov loops written here on top of
it: the contract is the accuracy bound (backward errors at the eps
level, far under the 1e-8 norm-relative budget the callers assume), not
the algorithm.

Every bound runs on the banded operators of operators.assemble_banded, one
band LU of M - z per shift and no size cap: Sigma's bottom eigenvalue by
shift-invert Arnoldi on the first level, then by follow_eigenvalue from
the coarser level's eigenvalue, Psi's s_min(M - i shift) by inverse
Lanczos (Wright & Trefethen, SIAM J. Sci. Comput. 23, 2001), and the
numerical-range bound's bottom of (M + M^H)/2 by bisection on its
tridiagonal, then for |k| >= 2 on a 3n pencil by the same Arnoldi on the
first level and the same follow on refined ones.  follow_eigenvalue is
inverse iteration, and where that does not settle within its budget it
declines and returns the Arnoldi's eigenvalue itself, run on the same band
LU, so a refined level is one call and one factorization whatever
happens.  Inverse Lanczos measures a shift cold, from a fixed start
vector, to relative 1e-14, and so measures every shift of Psi's secant and
every value a Psi bound reports; smallest_singular_value returns each s
with the slope ds/dshift that the secant runs on, read from the top Ritz
vector at the cost of one more band solve.  The four public routines read
a band's stride b from its data's shape, (b n, 2b + 1) with b = 1, 2 or 3,
and raise ValueError on any other, whatever the kind.  verify reads
tridiagonal bottoms by the same bisection and the top of a symmetric
operator given by its product by inverse Lanczos's own loop (_lanczos,
through _top_eigenvalue).  Between calls the solver keeps one tridiagonal
workspace per thread and one start vector, each sized to the largest n
seen.  The one dense routine left, eigenvalues (n <= 4000), is the
benchmark's oracle; no library or verify path calls it.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .grids import OperatorMatrix


class SolverError(RuntimeError):
    """An eigenvalue or singular-value iteration or a band factorization failed."""


# stop once the largest Ritz value moves by less than this, relatively
_LANCZOS_RTOL = 1e-14
_ARNOLDI_COUNT = 6      # eigenvalues nearest the shift, among which the bottom is chosen
# Arnoldi computes Ritz pairs (an eig of its Hessenberg, which costs as much
# as a few band solves) after _RITZ_FIRST steps, then every _RITZ_EVERY
# steps.  The chosen pair stops at relative residual _LANCZOS_RTOL once every
# pair nearest the shift is under _RITZ_GUARD: an eigenvalue the start vector
# barely sees is still missing from the nearest Ritz pairs while they are
# unconverged, and could take the least real part (the tests build one).
# Past _ARNOLDI_MAX steps it fails.  Over tests/survey.py's 517 distinct
# cases no first-level call passed a check at step 12 and 34 of 880 at 16;
# from step 20, Sigma's first levels stop at 20 to 28 after 1.60 checks on
# average, and range's (|k| >= 2) at 20 or 24 after 1.02.
_RITZ_FIRST = 20
_RITZ_EVERY = 4
_RITZ_GUARD = 1e-4
_ARNOLDI_MAX = 200
# follow_eigenvalue's residual falls per solve by about the ratio of the
# nearest eigenvalue's distance to the shift to the next one's, so 1e-14 in 8
# solves puts every other eigenvalue about 50 times farther.  Over the 517
# distinct cases of tests/survey.py's lists, 492 refined Sigma levels settle
# in 8; the 25 that decline are 600-point levels at |beta_k| >= 2.14e7.  Of
# the 363 refined range levels (|k| >= 2, on the pencil), 345 settle (5.6
# solves), the 18 others are 600-point levels at |beta_k| >= 1.7e7.
_FOLLOW_SOLVES = 8
# A follow's residual stops falling at its rounding floor, which the survey's
# follows reach at 1.0e-14 to 4.8e-14 relative (1200-point levels mostly),
# often never under _LANCZOS_RTOL within the budget.  A residual under
# _FOLLOW_FLOOR and over half the one before has stopped falling, and the
# pair settles: any bound from 5e-14 to 1e-12 settles the same levels; a
# stop at "not below the one before" settles 4 Sigma levels fewer.
_FOLLOW_FLOOR = 1e-13


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
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise SolverError("eigenvalue iteration failed for %s (n=%d): %s"
                          % (kind, n, exc)) from exc
    vals, vecs = vals.astype(complex), vecs.astype(complex)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vecs = vecs[:, order]
    resid = a @ vecs - vecs * vals[None, :]
    err = float(np.linalg.norm(resid, axis=0).max())
    return EigenResult(values=vals, backward_error=err)


def _band_stride(m):
    """The stride b of a band operator from its data's shape, (b n, 2b + 1)
    with b = 1, 2 or 3 (grids.OperatorMatrix); the shift and the singular
    value act on rows 0, b, 2b, ...  Any other input raises ValueError."""
    shape = np.shape(m.data) if isinstance(m, OperatorMatrix) else ()
    b = shape[0] // m.grid.n if len(shape) == 2 else 0
    if not (1 <= b <= 3 and shape == (b * m.grid.n, 2 * b + 1)):
        raise ValueError("a banded operator has data of shape (b n, 2b + 1), b = 1, 2 "
                         "or 3; got %s" % (shape or type(m).__name__,))
    return b


def smallest_singular_value(m, shift=0.0):
    """(s_min, ds_min/dshift) of M - i shift I for a banded operator, where
    s_min = 1/||(M - i shift)^{-1}||, with no size cap; for the pencil kind
    this is s_min of its Schur complement H - i shift.  Inverse Lanczos:
    _lanczos on X^H X, X the x-row block of (M - i shift)^{-1} through one
    band LU, from the fixed start vector, to relative change
    _LANCZOS_RTOL, gives s_min = theta^{-1/2} for the top Ritz value
    theta.  The slope comes from its Ritz vector y and one more band
    solve: with w = X y / ||X y||, ds/dshift = Im(y^H w).  It holds for
    both kinds, since the shift acts on the x rows only.  An exactly
    singular M - i shift raises SolverError.

    Plain inverse iteration converges at the rate (s_1/s_2)^2 per sweep,
    which is 0.998 at shifts far from the resolvent peak, where the bottom
    singular values cluster.  From the fixed start, Lanczos reaches 1e-14
    there in about 30 to 260 steps, and in 7 to 10 steps near the peak,
    where Psi's secant measures.
    """
    solve = _band_lu(m, 1j * shift)
    theta, y = _lanczos(lambda v: solve(solve(v, False), True), _start_vector(m.grid.n))
    # s = 1/sigma_max(X) and dX/dshift = i X^2 give ds = Im(y^H X y)/||X y||
    w = solve(y, False)
    return 1.0 / math.sqrt(theta), float(np.vdot(y, w).imag / (_norm(y) * _norm(w)))


def _band_lu(m, z):
    """One LU of the band shifted by the complex z (zgttrf for b = 1,
    zgbtrf otherwise, b from _band_stride); returns solve(v, adjoint), the
    x-row block of (M - z)^{-1} or of its adjoint applied to a length-n v."""
    b, data, n = _band_stride(m), m.data, m.grid.n
    diag = data[:, b].copy()
    diag[::b] -= z
    if b == 1:
        info, rhs, lu = _lapack.tridiagonal_lu(data[1:, 0], diag, data[:-1, 2])
    else:
        # LAPACK band layout: entry (i, j) at ab[2b + i - j, j] under b spare rows
        size = data.shape[0]
        ab = np.zeros((3 * b + 1, size), dtype=complex, order="F")
        for col in range(2 * b + 1):
            off = col - b
            src = diag if off == 0 else data[:, col]
            if off >= 0:
                ab[3 * b - col, off:] = src[:size - off]
            else:
                ab[3 * b - col, :size + off] = src[-off:]
        info, rhs, lu = _lapack.band_lu(ab, b, b)
    if info != 0:
        raise SolverError("band LU failed for %s (n=%d) at shift %s: info = %d"
                          % (m.kind, n, z, info))
    x = rhs[::b]

    def solve(v, adjoint):
        if b > 1:
            rhs.fill(0.0)
        x[:] = v
        lu(b"C" if adjoint else b"N")
        return x.copy()
    return solve


def _checked(out, routine):
    """The value of a LAPACK binding's (info, value), or SolverError."""
    info, value = out
    if info != 0:
        raise SolverError("%s failed: info = %d" % (routine, info))
    return value


def _tridiagonal_eigenvalue(diag, off, index):
    """The index-th smallest (from 1) eigenvalue of a real symmetric
    tridiagonal, by LAPACK bisection (dstebz)."""
    tri = _workspace(len(diag))
    tri.d[:len(diag)], tri.e[:len(diag) - 1] = diag, off
    return _checked(tri.eigenvalue(len(diag), index), "tridiagonal bisection")


_WORKSPACE = threading.local()
_START = np.empty(0, dtype=complex)     # _start_vector's one seeded vector


def _workspace(n):
    """This thread's one dstebz and dstein workspace, which serves every
    size up to its capacity and is replaced only when a larger n comes; a
    caller is done with it before anything else on the thread takes it
    (apply, inside _lanczos, never does)."""
    tri = getattr(_WORKSPACE, "tri", None)
    if tri is None or len(tri.d) < n:
        tri = _WORKSPACE.tri = _lapack.Tridiagonal(n)
    return tri


def _start_vector(n):
    """The fixed start vector of the Lanczos and Arnoldi iterations,
    default_rng(0).standard_normal(n) bitwise and read-only: a slice of one
    seeded vector, drawn again only for a larger n (racing threads may each draw)."""
    global _START
    v = _START
    if len(v) < n:
        v = np.random.default_rng(0).standard_normal(n) + 0j
        v.flags.writeable = False
        _START = max(_START, v, key=len)
    return v[:n]


def _lanczos(apply, start):
    """Hermitian Lanczos with full reorthogonalization (twice is enough) on
    the operator apply, from start.  Stops when the largest Ritz value
    theta changes by less than relative _LANCZOS_RTOL, or the Krylov space
    is exhausted, and returns (theta, its Ritz vector): dstebz bisects the
    tridiagonal for theta at every step, and dstein reads its eigenvector
    once at the end."""
    n = len(start)
    basis = np.empty((min(n, 32), n), dtype=start.dtype)
    basis[0] = start / _norm(start)
    tri = _workspace(n)
    prev = 0.0
    for j in range(n):
        z = apply(basis[j])
        tri.d[j] = theta = np.vdot(basis[j], z).real
        if j > 0:
            theta = _checked(tri.eigenvalue(j + 1, j + 1), "tridiagonal bisection")
        if abs(theta - prev) <= _LANCZOS_RTOL * abs(theta) or j == n - 1:
            break
        prev = theta
        q = basis[:j + 1]
        for _ in range(2):
            z -= (q @ z.conj()).conj() @ q
        tri.e[j] = beta = _norm(z)
        if beta <= _LANCZOS_RTOL * abs(theta):
            break               # invariant subspace: theta is exact
        if j + 1 == basis.shape[0]:
            basis = np.concatenate([basis, np.empty_like(basis)])[:n]
        np.divide(z, beta, out=basis[j + 1])
    if j > 0:
        return float(theta), _checked(tri.vector(), "tridiagonal eigenvector") @ basis[:j + 1]
    return float(theta), basis[0].copy()


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
    return _arnoldi(m, shift, _band_lu(m, shift))


def _arnoldi(m, shift, solve):
    """bottom_eigenvalue's loop, on solve, the band LU of m at the shift."""
    n = m.grid.n
    steps = min(n, _ARNOLDI_MAX)
    basis = np.empty((steps + 1, n), dtype=complex)
    hess = np.zeros((steps + 1, steps), dtype=complex)
    start = _start_vector(n)
    basis[0] = start / _norm(start)
    for j in range(steps):
        w = solve(basis[j], False)
        size = j + 1
        q = basis[:size]
        c = (q @ w.conj()).conj()
        w -= c @ q
        d = (q @ w.conj()).conj()
        w -= d @ q
        hess[:size, j] = c + d
        hess[size, j] = beta = _norm(w)
        exhausted = size == n or beta <= _LANCZOS_RTOL * np.abs(hess[:size, j]).max()
        if exhausted or (size >= _RITZ_FIRST and size % _RITZ_EVERY == 0):
            mu, y = np.linalg.eig(hess[:size, :size])
            resid = beta * np.abs(y[-1]) / np.abs(mu)
            near = np.argsort(-np.abs(mu))[:_ARNOLDI_COUNT]
            pick = near[np.argmin((1.0 / mu[near]).real)]
            if exhausted or (resid[pick] <= _LANCZOS_RTOL
                             and resid[near].max() <= _RITZ_GUARD):
                return complex(shift + 1.0 / mu[pick])
        np.divide(w, beta, out=basis[size])
    raise SolverError("Arnoldi did not converge for %s (n=%d) in %d steps"
                      % (m.kind, n, steps))


def follow_eigenvalue(m, shift):
    """The eigenvalue shift + 1/mu of a banded operator nearest the shift, by
    inverse iteration from the fixed start vector (Saad, 2011, ch. 4), once
    the residual ||w - mu v|| is at most _LANCZOS_RTOL |mu|
    (bottom_eigenvalue's bar), w = (M - shift)^{-1} v, mu = v^H w, v unit,
    or once it has stopped falling at its rounding floor: over half the
    residual before it and at most _FOLLOW_FLOOR |mu|.  Past _FOLLOW_SOLVES
    solves it declines, and returns bottom_eigenvalue(m, shift), run on the
    same band LU."""
    solve, w = _band_lu(m, shift), _start_vector(m.grid.n)
    last = math.inf
    for _ in range(_FOLLOW_SOLVES):
        v = w / _norm(w)
        w = solve(v, False)
        mu = np.vdot(v, w)
        resid = _norm(w - mu * v)
        if resid <= _LANCZOS_RTOL * abs(mu) or 0.5 * last < resid <= _FOLLOW_FLOOR * abs(mu):
            return complex(shift + 1.0 / mu)
        last = resid
    return _arnoldi(m, shift, solve)


def _norm(v):
    """np.linalg.norm(v) of a vector, computed as it computes it (the root
    of the real dots of the parts), without its dispatch."""
    if v.dtype.kind != "c":
        return math.sqrt(v.dot(v))
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _top_eigenvalue(matvec, n):
    """Largest eigenvalue of a real symmetric n x n operator given by its
    product, by _lanczos from the fixed start vector."""
    return _lanczos(matvec, _start_vector(n).real)[0]


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
    return OperatorMatrix(kind=m.kind, grid=m.grid, data=data)


def hermitian_part_min_eig(m):
    """Smallest eigenvalue of (M + M^H)/2 of a banded operator; a lower
    bound for min Re spec(M).

    A band's stencil is complex symmetric, so its x-row tridiagonal has
    Hermitian part (Re diag, Re off), whose bottom (by bisection) is the
    answer for L1_band and seeds bottom_eigenvalue on _hermitian_pencil
    for H_band."""
    b = _band_stride(m)
    low = _tridiagonal_eigenvalue(m.data[::b, b].real, m.data[:-b:b, 2 * b].real, 1)
    return low if b == 1 else bottom_eigenvalue(_hermitian_pencil(m), low).real
