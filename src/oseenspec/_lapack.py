"""The six LAPACK routines of the solver layer, bound through ctypes to the
OpenBLAS that numpy's wheels bundle.

numpy's wheels (2.0 and later) link numpy.linalg against scipy-openblas64,
which exports LAPACK with 64-bit integers as scipy_<name>_64_.  A symbol
looked up on the handle of numpy.linalg._umath_linalg is found through that
extension's dependencies, so no path to the library is needed.  Integers
are int64, and each character argument has a hidden length, passed as a
size_t after the last Fortran argument.  A numpy without that library (a
conda or distribution build) fails here, at import, with ImportError.

Each factorization binds its solve once: the addresses, the integers and
the right-hand-side buffer are fixed when the LU is made, so one solve is
the LAPACK call and nothing else.  Tridiagonal keeps one dstebz and dstein
workspace for every size up to its capacity.  An address is taken once
per buffer, since each costs microseconds; bound arguments hold bare
addresses, so each solve keeps its arrays in solve.arrays, and a
Tridiagonal in its attributes.
"""

import ctypes

import numpy as np
from numpy.linalg import _umath_linalg

_INT = ctypes.c_int64
_PTR = ctypes.c_void_p
_CHAR_LEN = ctypes.c_size_t(1)      # the hidden length of a one-character argument


def _bind(lib, name, pointers, chars=0):
    fn = getattr(lib, "scipy_%s_64_" % name)
    fn.argtypes = [_PTR] * pointers + [ctypes.c_size_t] * chars
    fn.restype = None
    return fn


try:
    _LIB = ctypes.CDLL(_umath_linalg.__file__)
    _zgttrf = _bind(_LIB, "zgttrf", 7)
    _zgttrs = _bind(_LIB, "zgttrs", 11, chars=1)
    _zgbtrf = _bind(_LIB, "zgbtrf", 8)
    _zgbtrs = _bind(_LIB, "zgbtrs", 11, chars=1)
    _dstebz = _bind(_LIB, "dstebz", 18, chars=2)
    _dstein = _bind(_LIB, "dstein", 13)
except (OSError, AttributeError) as exc:
    raise ImportError(
        "oseenspec calls LAPACK in the scipy-openblas64 library that numpy's "
        "wheels (numpy >= 2.0) bundle, and this numpy %s (%s) does not export "
        "it: %s" % (np.__version__, _umath_linalg.__file__, exc)) from exc


def _int(value):
    return ctypes.byref(_INT(value))


def _addresses(buf, parts):
    """Pointers to parts consecutive blocks of equal length in buf; they do
    not keep buf alive."""
    base, step = buf.ctypes.data, buf.nbytes // parts
    return [_PTR(base + i * step) for i in range(parts)]


def tridiagonal_lu(dl, d, du):
    """zgttrf of the complex tridiagonal with sub-, main and super-diagonal
    dl, d, du (copied).  Returns (info, rhs, solve): solve(trans), trans
    b"N" or b"C", overwrites the length-n buffer rhs with op(A)^{-1} rhs by
    zgttrs."""
    n = len(d)
    # dl, d, du, du2 and rhs as five blocks of one buffer, ipiv apart
    buf = np.zeros((5, n), dtype=complex)
    buf[0, :n - 1], buf[1], buf[2, :n - 1] = dl, d, du
    ipiv = np.empty(n, dtype=np.int64)
    *factors, rhs_p = _addresses(buf, 5)
    factors += _addresses(ipiv, 1)
    info = _INT()
    _zgttrf(_int(n), *factors, ctypes.byref(info))
    args = (_int(n), _int(1), *factors, rhs_p, _int(n), ctypes.byref(_INT()), _CHAR_LEN)

    def solve(trans):
        _zgttrs(trans, *args)
    solve.arrays = (buf, ipiv)      # args holds bare addresses into these
    return info.value, buf[4], solve


def band_lu(ab, kl, ku):
    """zgbtrf, in place, of the complex band matrix with kl sub- and ku
    super-diagonals in LAPACK's band layout: ab, a complex Fortran-ordered
    array of 2 kl + ku + 1 rows, holds entry (i, j) at ab[kl + ku + i - j, j]
    under kl spare rows.  Returns (info, rhs, solve) as tridiagonal_lu
    does, solve by zgbtrs."""
    ldab, n = ab.shape
    if ab.dtype != complex or not ab.flags.f_contiguous or ldab != 2 * kl + ku + 1:
        raise ValueError("band_lu needs a complex Fortran-ordered array of "
                         "2 kl + ku + 1 rows")
    ipiv = np.empty(n, dtype=np.int64)
    rhs = np.zeros(n, dtype=complex)
    (ab_p,), (ipiv_p,), (rhs_p,) = (_addresses(x, 1) for x in (ab, ipiv, rhs))
    info = _INT()
    _zgbtrf(_int(n), _int(n), _int(kl), _int(ku), ab_p, _int(ldab), ipiv_p,
            ctypes.byref(info))
    args = (_int(n), _int(kl), _int(ku), _int(1), ab_p, _int(ldab), ipiv_p,
            rhs_p, _int(n), ctypes.byref(_INT()), _CHAR_LEN)

    def solve(trans):
        _zgbtrs(trans, *args)
    solve.arrays = (ab, ipiv, rhs)
    return info.value, rhs, solve


class Tridiagonal:
    """One eigenvalue and its eigenvector of the leading size x size block
    of a real symmetric tridiagonal: diagonal in the buffer d, off-diagonal
    in e, both of length capacity and written by the caller.  One workspace
    serves every size up to capacity."""

    def __init__(self, capacity):
        # d, e, w, z and dstein's work (5 capacity) in one buffer; iblock,
        # isplit, ifail and iwork (3 capacity) in another
        self._real = np.zeros((9, capacity))
        self._ints = np.zeros((6, capacity), dtype=np.int64)
        self.d, self.e, self._w, self._z = self._real[:4]
        d, e, w, z, work = _addresses(self._real, 9)[:5]
        iblock, isplit, ifail, iwork = _addresses(self._ints, 6)[:4]
        self._n, self._index, self._info = _INT(), _INT(), _INT()
        n, index, info = (ctypes.byref(x) for x in (self._n, self._index, self._info))
        zero = ctypes.byref(ctypes.c_double(0.0))
        # range "I" from index to index, absolute tolerance 0 (LAPACK's
        # default), eigenvalues by block ("B"), the order dstein reads
        self._stebz = (b"I", b"B", n, zero, zero, index, index, zero, d, e,
                       _int(0), _int(0), w, iblock, isplit, work, iwork, info,
                       _CHAR_LEN, _CHAR_LEN)
        self._stein = (n, d, e, _int(1), w, iblock, isplit, z, n, work, iwork, ifail, info)

    def eigenvalue(self, size, index):
        """(info, the index-th smallest eigenvalue, from 1) by dstebz's
        bisection."""
        if not 1 <= index <= size <= len(self.d):
            raise ValueError("index %d of size %d in a workspace of capacity %d"
                             % (index, size, len(self.d)))
        self._n.value, self._index.value = size, index
        _dstebz(*self._stebz)
        return self._info.value, float(self._w[0])

    def vector(self):
        """(info, unit eigenvector) by dstein's inverse iteration, for the
        eigenvalue the last call to eigenvalue returned."""
        _dstein(*self._stein)
        return self._info.value, self._z[:self._n.value].copy()
