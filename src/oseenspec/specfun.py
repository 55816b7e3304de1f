"""Radial profile functions for the Oseen vortex and their complex extensions.

Everything here is built from u = r^2/4 and the entire function
F0(z) = e^z - z - 1, or its scaled form E0(z) = e^{-z} F0(z) =
1 - e^{-z}(1 + z), bounded where F0 overflows; on the real axis E0 is the
regularized incomplete gamma P(2, z) (DLMF 8.4.8).  E0 has four readers:
sigma', h, F3's closed form (1/F0 = e^{-z}/E0) and the wave rule of
operators (mu = 8 E0).  The real profiles are the functions F1..F3 of
F_complex on the real axis, evaluated by the same code:

    sigma(r)  = F1(u) = (1 - e^{-u})/u  angular-velocity profile, sigma(0) = 1
    sigma'(r) = -(8/r^3) E0(u)          strictly negative on r > 0
    g(r)      = F2(u) = e^{-r^2/8}      Gaussian half-weight, g^2 = vorticity profile
    f(r)      = F3(u) = 2 g^4/sigma'^2 + (g^2/sigma')(6/r - r)
                                        wave-operator commutator potential, f >= 0
    h(r)      = 3/(4r^2) + r^2/16 - 1/2 + u e^{-u}/E0(u)
                                        pointwise lower envelope of the |k|=1
                                        diagonal potential, min h ~ 0.4855

plus F4 = F3 - 2/z, the one-parameter family used on rotated rays (F5)
and the incomplete moment phi_moment(a) = 3 - (3 + 3a + a^2) e^{-a}.

Near z = 0 the closed forms lose all significant digits (F3 is a
difference of two O(1/z^2) terms), so each of E0, F0, F1, F3 and F4 has
one Taylor branch below |z| = 1/2 and one closed form above.
The F3/F4 series are rearranged so that no cancellation occurs: with

    G(z)  = sum_{m>=0} z^m/(m+2)!          (F0 = z^2 G, E0 = z^2 e^{-z} G)
    Nt(z) = sum_{m>=0} (2/(m+1)! - 3/(m+2)!) z^m

one has F3 = Nt/(z G^2) and F4 = F3 - 2/z = M/G^2 where the coefficients
of M are computed in exact rational arithmetic at import time.
"""

import math
from fractions import Fraction

import numpy as np

_NTERMS = 25


class PoleError(ValueError):
    """Evaluation requested at (or numerically on top of) a zero of F0."""


def _rational_series():
    fact = [math.factorial(m) for m in range(_NTERMS + 4)]
    g = [Fraction(1, fact[m + 2]) for m in range(_NTERMS + 2)]
    nt = [Fraction(2, fact[m + 1]) - Fraction(3, fact[m + 2])
          for m in range(_NTERMS + 2)]
    gsq = [sum(g[j] * g[l - j] for j in range(l + 1)) for l in range(_NTERMS + 2)]
    # F4 = (Nt - 2 G^2)/(z G^2); the constant term of Nt - 2 G^2 vanishes
    # identically, so the quotient by z is again a power series.
    m_ser = [nt[m + 1] - 2 * gsq[m + 1] for m in range(_NTERMS + 1)]
    assert nt[0] - 2 * gsq[0] == 0
    return (np.array([float(c) for c in g]),
            np.array([float(c) for c in nt]),
            np.array([float(c) for c in m_ser]))


_G_C, _NT_C, _M_C = _rational_series()
# sigma as a function of u
_SIG_C = np.array([(-1.0) ** m / math.factorial(m + 1) for m in range(_NTERMS)])


def _horner(c, z):
    """sum_m c[m] z^m by Horner's rule over the float coefficients c."""
    out = np.full_like(z, c[-1])
    for cm in c[-2::-1]:
        out = out * z + cm
    return out


def _realarr(x, name, positive=False, nonneg=False):
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    if positive and np.any(a <= 0):
        raise ValueError(f"{name} must be positive")
    if nonneg and np.any(a < 0):
        raise ValueError(f"{name} must be nonnegative")
    return a, np.isscalar(x) or np.ndim(x) == 0


def _ret(out, scalar):
    return out.item() if scalar else out


def _f3_closed(zb):
    """Closed form (4 z^2 w - 6 + 4z)(z/2) w, w = 1/F0 = e^{-z}/E0, for
    |z| >= 1/2; no exponential in it overflows on Re z >= 0."""
    e0 = E0(zb)
    if np.any(e0 == 0):
        raise PoleError("F3 evaluated at a zero of F0")
    w = np.exp(-zb) / e0
    return (4 * zb * zb * w - 6 + 4 * zb) * (zb / 2) * w


# (series below |z| = 1/2, closed form above) of each F; F2 cancels
# nowhere and has no series
_FORMS = {
    "F0": (lambda z: z * z * _horner(_G_C, z), lambda z: np.exp(z) - z - 1),
    "F1": (lambda z: _horner(_SIG_C, z), lambda z: (1 - np.exp(-z)) / z),
    "F2": (None, lambda z: np.exp(-z / 2)),
    "F3": (lambda z: _horner(_NT_C, z) / (z * _horner(_G_C, z) ** 2), _f3_closed),
    "F4": (lambda z: _horner(_M_C, z) / _horner(_G_C, z) ** 2,
           lambda z: _f3_closed(z) - 2 / z),
}


def _F(forms, z):
    """forms = (series below |z| = 1/2 or None, closed form above) on a real
    or complex array z; a branch with no point of z is not run."""
    series, closed = forms
    small = np.abs(z) < 0.5
    if series is None or not small.any():
        return closed(z)
    if small.all():
        return series(z)
    out = np.empty_like(z)
    out[small] = series(z[small])
    out[~small] = closed(z[~small])
    return out


def E0(z):
    """E0(z) = e^{-z} F0(z) = 1 - e^{-z}(1 + z) on a float or complex array
    z: z^2 e^{-z} G(z) below |z| = 1/2, -expm1(-z) - z e^{-z} above.  On
    the real axis it is P(2, z) (DLMF 8.4.8); it is bounded on Re z >= 0."""
    return _F((lambda z: z * z * np.exp(-z) * _horner(_G_C, z),
               lambda z: -np.expm1(-z) - z * np.exp(-z)), np.asarray(z))


def sigma(r):
    """Profile sigma(r) = F1(u) = (1 - e^{-u})/u, u = r^2/4; sigma(0) = 1, decreasing."""
    a, scalar = _realarr(r, "r", nonneg=True)
    return _ret(_F(_FORMS["F1"], a * a / 4), scalar)


def sigma_prime(r):
    """d sigma/dr = (2/r)(e^{-u} - sigma) = -(8/r^3) E0(u), u = r^2/4; r > 0.
    Below u = 1/2 it reads E0's series over r^3, -(r/2) e^{-u} G(u), which
    tends to -r/4 without the underflow of u^2 and r^3."""
    a, scalar = _realarr(r, "r", positive=True)
    u = a * a / 4
    out = np.empty_like(u)
    small = u < 0.5
    out[small] = -a[small] / 2 * np.exp(-u[small]) * _horner(_G_C, u[small])
    out[~small] = -8 / a[~small] ** 3 * E0(u[~small])
    return _ret(out, scalar)


def g(r):
    """Gaussian half-weight g(r) = F2(r^2/4) = e^{-r^2/8}."""
    a, scalar = _realarr(r, "r", nonneg=True)
    return _ret(_F(_FORMS["F2"], a * a / 4), scalar)


def f(r):
    """Commutator potential f(r) = F3(r^2/4) = 2g^4/sigma'^2 + (g^2/sigma')(6/r - r).

    Positive on (0, oo) with r^2 f -> 8 as r -> 0 and f -> 0 at infinity;
    below u = 1/2, where the right-hand side cancels, F3 reads Nt/(u G^2).
    """
    a, scalar = _realarr(r, "r", positive=True)
    return _ret(_F(_FORMS["F3"], a * a / 4), scalar)


def h(r):
    """Lower envelope h(r) = 3/(4r^2) + r^2/16 - 1/2 + u/F0(u), u = r^2/4.

    h > 0.485 on all of (0, oo); the minimum sits near r = 3.249.  The last
    term is read as u e^{-u}/E0(u), which does not overflow.
    """
    a, scalar = _realarr(r, "r", positive=True)
    u = a * a / 4
    return _ret(3 / (16 * u) + u / 4 - 0.5 + u * np.exp(-u) / E0(u), scalar)


def sigma_inverse(nu):
    """Critical radius: the unique r > 0 with sigma(r) = nu, nu in (0, 1).

    Bisection on a bracket [0, hi]; sigma is strictly decreasing, so the
    bracket keeps sigma(lo) > nu > sigma(hi).  Terminates with
    |sigma(r) - nu| <= 1e-12.
    """
    nu = float(nu)
    if not (0.0 < nu < 1.0) or not math.isfinite(nu):
        raise ValueError("nu must lie strictly between 0 and 1")
    lo, hi = 0.0, 8.0
    while sigma(hi) >= nu:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        s = sigma(mid)
        if abs(s - nu) <= 1e-12:
            return mid
        if s > nu:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, lo):
            break
    r = 0.5 * (lo + hi)
    if abs(sigma(r) - nu) > 1e-12:
        raise ArithmeticError("bisection stalled before reaching tolerance")
    return r


def F_complex(fun_id, z):
    """Evaluate F0..F4 at complex z (scalar or array).

    F0 = e^z - z - 1
    F1 = (1 - e^{-z})/z,  F1(0) = 1        (sigma(r) = F1(r^2/4))
    F2 = e^{-z/2}                          (g(r) = F2(r^2/4))
    F3 = (4 z^2/F0 - 6 + 4z) (z/2)/F0      (f(r) = F3(r^2/4))
    F4 = F3 - 2/z, F4(0) = 2/3             (removes the z = 0 pole of F3)

    Series branches below |z| = 1/2 avoid the cancellation in the closed
    forms.  F3 has a pole at every zero of F0 (in particular z = 0), and
    F3, F4 overflow for Re z < -709 (e^{-z}): both raise PoleError.
    """
    a = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.all(np.isfinite(a)):
        raise ValueError("z must be finite")
    if fun_id not in _FORMS:
        raise ValueError(f"unknown function id {fun_id!r}")
    if fun_id == "F3" and np.any(a == 0):
        raise PoleError("F3 has a pole at z = 0")
    out = _F(_FORMS[fun_id], a)
    if not np.all(np.isfinite(out)):
        raise PoleError(f"{fun_id} overflowed or hit a pole")
    return complex(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


def F5(r, theta):
    """Oscillatory part of Im F1 on the rotated ray:

        F5(r, theta) = sin(theta) - e^{-r cos(theta)} sin(r sin(theta) + theta)

    so that -Im F1(r e^{i theta}) = F5(r, theta)/r.  Requires r > 0 and
    0 < theta < pi/4.
    """
    a, scalar = _realarr(r, "r", positive=True)
    th = float(theta)
    if not (0.0 < th < math.pi / 4):
        raise ValueError("theta must lie in (0, pi/4)")
    out = math.sin(th) - np.exp(-a * math.cos(th)) * np.sin(a * math.sin(th) + th)
    return _ret(np.asarray(out), scalar)


def phi_moment(a):
    """Incomplete moment Phi(a) = 3 - (3 + 3a + a^2) e^{-a}, a >= 0.

    Equals (1/2) [ int_0^a t^3 e^{-t} dt + a^2 (1 + a) e^{-a} ]; increasing
    from 0 to 3.
    """
    x, scalar = _realarr(a, "a", nonneg=True)
    return _ret(3 - (3 + 3 * x + x * x) * np.exp(-x), scalar)


def h_numerator_coefficient(n):
    """Exact Taylor coefficient a_n of the numerator of h.

    Writing h = N(u)/(u F0(u)) gives N(u) = (3/16 + u^2/4 - u/2) F0(u) + u^2
    = sum_{n>=2} a_n u^n with a_2 = 35/32, a_3 = -7/32 and, for n >= 4,
    a_n = (3/16 + n(n-1)/4 - n/2)/n!  (positive from n = 4 on).
    """
    n = int(n)
    if n < 2:
        raise ValueError("coefficients start at n = 2")
    c = Fraction(3, 16) * Fraction(1, math.factorial(n))
    if n >= 4:
        c += Fraction(1, 4 * math.factorial(n - 2))
    if n >= 3:
        c -= Fraction(1, 2 * math.factorial(n - 1))
    if n == 2:
        c += 1
    return c
