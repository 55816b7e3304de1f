"""Property checks on the benchmark's outputs, apart from the program.

Every check returns None when it holds and a one-line message when it
does not.  The checks compare outputs with computations made here (the
continuum quasimode residual, an SVD by another LAPACK routine) or with
properties the method must have (slopes, orderings, angle invariance);
none compares with a stored copy of an earlier output.
"""

import math
import statistics

import numpy as np
import scipy.linalg as sla
from scipy.integrate import quad


def rel_close(value, ref, tol, what):
    """|value - ref| <= tol |ref|."""
    err = abs(value - ref) / abs(ref)
    if err <= tol:
        return None
    return "%s: %.9g differs from %.9g by %.2e relative (tolerance %.0e)" % (
        what, value, ref, err, tol)


def loglog_slope(xs, ys):
    """Least-squares slope of log y against log x."""
    fit = statistics.linear_regression([math.log(abs(x)) for x in xs],
                                       [math.log(y) for y in ys])
    return fit.slope


def slope_within(slope, target, tol, what):
    if abs(slope - target) <= tol:
        return None
    return "%s: slope %.4f outside %.4f +- %.2f" % (what, slope, target, tol)


def fit_ok(fit, target, tol, what):
    """A sweep's --fit block: slope within target +- tol, no alpha excluded."""
    if fit["excluded_alphas"]:
        return "%s: alphas %s excluded from the fit" % (what, fit["excluded_alphas"])
    return slope_within(fit["slope"], target, tol, what)


def angle_invariant(value, converged, other, what, tol=1e-2):
    """The point spectrum does not depend on the dilation angle, so a Sigma
    reported as converged must agree with Sigma at a second angle."""
    if not converged:
        return None
    err = abs(value - other) / abs(other)
    if err <= tol:
        return None
    return ("%s: reported converged, but Sigma = %.6g at the standard angle and "
            "%.6g at theta = pi/16 differ by %.1f%% (> %.0f%%)"
            % (what, value, other, 100 * err, 100 * tol))


def at_least(value, floor, what, rtol=1e-9):
    """value >= floor, up to rounding."""
    if value >= floor - rtol * abs(floor):
        return None
    return "%s: %.9g is below %.9g" % (what, value, floor)


def at_most(value, cap, what, rtol=1e-9):
    """value <= cap, up to rounding."""
    if value <= cap + rtol * abs(cap):
        return None
    return "%s: %.9g is above %.9g" % (what, value, cap)


def in_open_unit(x, what):
    if 0.0 < x < 1.0:
        return None
    return "%s: %.6g not in (0, 1)" % (what, x)


def in_band(x, lo, hi, what):
    if lo <= x <= hi:
        return None
    return "%s: %.6g outside [%g, %g]" % (what, x, lo, hi)


def spread_at_most(values, cap, what):
    spread = max(values) / min(values)
    if spread <= cap:
        return None
    return "%s: spread max/min = %.3f above %g" % (what, spread, cap)


def smin_gesvd(matrix, shift):
    """s_min(M - i shift I) from the QR-iteration routine gesvd (the
    program's svdvals uses the divide-and-conquer routine gesdd)."""
    a = np.array(matrix, dtype=complex)
    a[np.diag_indices_from(a)] -= 1j * shift
    return float(sla.svd(a, compute_uv=False, lapack_driver="gesvd")[-1])


# -- continuum quasimode residual, from the closed forms of the profiles --

def _sigma(r):
    q = r * r / 4
    return -math.expm1(-q) / q


def _sigma_prime(r):
    return (2 / r) * (math.exp(-r * r / 4) - _sigma(r))


def _f(r):
    g2 = math.exp(-r * r / 4)
    sp = _sigma_prime(r)
    return 2 * g2 * g2 / sp ** 2 + (g2 / sp) * (6 / r - r)


def quasimode_residual(beta_1):
    """||L1 u|| / ||u|| for the closed-form quasimode u, by adaptive quadrature.

    u(r) = eta(x), eta = x^2 (1 - x)^2, x = (r - r1)/w + 1/2 on the window
    of width w = 3/r1 centred on r1 = |beta_1|^(1/6), and
    L1 = -d^2/dr^2 + 3/(4 r^2) + r^2/16 - 1/2 + f + i beta_1 (sigma - sigma(r1)).
    The windows used here stay at r >= 2.6, where the closed forms of
    sigma, sigma' and f lose no digits.
    """
    r1 = abs(beta_1) ** (1 / 6)
    w = 3 / r1
    a = r1 - w / 2
    s1 = _sigma(r1)

    def parts(r):
        x = (r - a) / w
        u = x * x * (1 - x) ** 2
        upp = (2 - 12 * x + 12 * x * x) / (w * w)
        real = -upp + (0.75 / (r * r) + r * r / 16 - 0.5 + _f(r)) * u
        imag = beta_1 * (_sigma(r) - s1) * u
        return real, imag, u

    num = quad(lambda r: sum(p * p for p in parts(r)[:2]), a, a + w,
               epsabs=0.0, epsrel=1e-12, limit=200)[0]
    den = quad(lambda r: parts(r)[2] ** 2, a, a + w,
               epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return math.sqrt(num / den)
