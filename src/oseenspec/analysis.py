"""Spectral and pseudospectral bounds of the mode family, and their scaling.

Sigma(alpha, k) is the smallest real part of the spectrum of the mode
operator.  Psi(alpha, k) is the reciprocal of the resolvent-norm supremum
along the imaginary axis, computed as the minimum over real shifts lam of
s_min(H - i lam).  Sigma, Psi and the numerical-range bound share one
grid-doubling convergence protocol: levels n, 2n, 4n on the caller's
r_max, stopping once two consecutive levels agree to relative 1e-2, and
reporting the level where the protocol stopped.  A range point whose
first two levels disagree therefore goes on to 4n, like sigma and psi,
instead of stopping at 2n with converged=false.

Sigma is computed from the rotated operator rather than the straight one.
The two have the same point spectrum (rotation moves only the essential
spectrum), but the bottom eigenvalue of the straight matrix becomes
catastrophically ill conditioned as beta_k grows: its eigenvector
condition number passes 1e8 already at beta_k = 1e3, so solvers return
spurious points of the working-precision pseudospectrum near
2.8 beta_k^{1/3} instead of the true eigenvalue near 0.71 beta_k^{1/2}.
Near r = 0 the operator is Davies' complex oscillator, normal at theta =
sgn(beta_k) pi/8; at beta_1 = 1e5 that condition number is 2.8 at the angle
0.37 used here and 1.9e11 at pi/12.

The minimizing shift for Psi lies at nu = lam/beta_k inside (0, 1): for
nu outside that range the operator is coercive at the |beta|^{1/2} scale,
so the resolvent peak sits where sigma(r) crosses nu.  It follows the law
lambda* ~ 0.55 sgn(beta_k) |beta_k|^{2/3} (0.545 to 0.550 at |beta_k| =
1e3 to 1e6), so the first level scans 16 shifts over that asymptote times
[0.5, 1.5]; where the law drifts (small |beta_k|, or beta_2 = 100, where
the ratio is 0.95) that scan has no interior minimum and the 64-shift
window beta_k [-0.2, 1.2], which covers (0, 1) with margin on both sides,
takes over.  Psi is a property of the straight operator (rotation does
not preserve resolvent norms), so that path stays unrotated; it runs on
the banded form of the straight operator, assembled once per grid level,
where each shift costs one O(n) band LU.  The scan only locates the peak,
so its shifts run through solver.scan_smin, warm-started and loose; the
Brent refinement measures with smallest_singular_value, cold to 1e-14,
so the reported Psi and lambda* do not depend on the scan's tolerance.
The scans' shifts and the refinement's relative width 1e-3 are fixed.

bound_grid is the one grid policy of the three quantities, for the
bound functions' defaults and for the command line alike, and
sweep_point is the one row every bound command prints.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import operators, solver, specfun
from .grids import Field, ModeSpec, default_grid, make_grid, quadrature

logger = logging.getLogger(__name__)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# quasimode window width in units of 1/r1, and the |beta_1| below which the
# centred window reaches the origin: r1 - width/(2 r1) <= 0 iff r1^2 <= width/2
_QUASIMODE_WIDTH = 3.0
QUASIMODE_MIN_BETA = (_QUASIMODE_WIDTH / 2.0) ** 3
_SIGMA_ANGLE = 0.37     # Sigma's dilation angle, short of the normal limit pi/8
# Psi's first scan: _SHORT_POINTS shifts on the asymptote of the minimizer,
# lambda* ~ _ASYMPTOTE sgn(beta_k) |beta_k|^{2/3}, times [0.5, 1.5]; where
# that finds no interior minimum, _LAMBDA_POINTS shifts over beta_k [-0.2, 1.2]
_SHORT_POINTS = 16
_ASYMPTOTE = 0.55
_LAMBDA_POINTS = 64
_REFINE_TOL = 1e-3      # relative bracket width that ends Psi's Brent refinement
QUANTITIES = ("sigma", "psi", "range")
GRID_POLICY = "r_max = 30; sigma and range paths raise it to 4.4 |beta_k|^{1/4}"


@dataclass
class BoundResult:
    mode: ModeSpec
    grid_n: int
    converged: bool
    sigma_bound: float = None
    psi_bound: float = None
    lambda_star: float = None


@dataclass
class FitResult:
    slope: float
    intercept: float
    max_residual: float
    points: np.ndarray
    excluded_alphas: tuple = ()


@dataclass
class SweepPoint:
    mode: ModeSpec
    quantity: str
    value: float
    converged: bool
    grid_n: int
    r_max: float
    lambda_star: float = None


def _grid_doubling(grid, step, name, mode):
    """Convergence protocol of sigma, psi and range: runs step(g, prev) on
    n, 2n, 4n points at grid.r_max until two consecutive values agree to
    relative 1e-2.  step returns a tuple, value first, and gets prev, the
    previous level's tuple (None on the first), to pass on psi's minimizer or
    sigma's next shift.  Returns (result, n, converged) of the last level run."""
    prev = None
    for level in range(3):
        g = grid if level == 0 else make_grid(grid.n * 2 ** level, grid.r_max)
        out = step(g, prev)
        if prev is not None and abs(prev[0] - out[0]) / max(abs(out[0]), 1e-300) < 1e-2:
            return out, g.n, True
        prev = out
    logger.warning("%s bound not converged at n=%d (alpha=%g, k=%d)",
                   name, g.n, mode.alpha, mode.k)
    return out, g.n, False


def _dilation_angle(mode):
    """Rotation angle of the numerical-range bound: sgn(beta_k) pi/12 for
    |k| = 1, sgn(beta_k) pi/24 otherwise."""
    sgn = 1.0 if mode.beta_k >= 0 else -1.0
    return sgn * (math.pi / 12 if abs(mode.k) == 1 else math.pi / 24)


def _sigma_mode(mode):
    """(rotated mode, first Arnoldi shift) of the Sigma path: the angle
    sgn(beta_k) _SIGMA_ANGLE and the asymptote sqrt(|beta_k|/2)
    (1 + i sgn beta_k); the straight operator and 0 at beta_k = 0."""
    sgn = math.copysign(1.0, mode.beta_k) if mode.beta_k else 0.0
    return (ModeSpec(alpha=mode.alpha, k=mode.k, theta=sgn * _SIGMA_ANGLE),
            math.sqrt(abs(mode.beta_k) / 2) * complex(1.0, sgn))


def sigma_grid(mode, n=600):
    """Grid for the banded spectral-bound and numerical-range paths.

    Truncating at r_max plants wall eigenvalues with real part near
    cos(2 theta) r_max^2 / 16.  They converge under n-doubling, so the
    protocol cannot flag them; instead r_max grows like |beta_k|^{1/4}
    so the wall floor clears the |beta_k|^{1/2} scale of the true bottom
    eigenvalue with room to spare."""
    return make_grid(n, max(30.0, 4.4 * abs(mode.beta_k) ** 0.25))


def bound_grid(mode, quantity, n=600, r_max=None):
    """First grid of the convergence protocol for one quantity of QUANTITIES
    (GRID_POLICY): n points on r_max if given, else default_grid for psi
    (its resolvent peak sits at the critical radius of lambda*, inside
    r_max = 30) and sigma_grid for sigma and range."""
    if quantity not in QUANTITIES:
        raise ValueError("unknown quantity %r" % (quantity,))
    if r_max is not None:
        return make_grid(n, r_max)
    return default_grid(n) if quantity == "psi" else sigma_grid(mode, n)


def spectral_bound(mode, grid=None):
    """Sigma(alpha, k) = min Re spec of the mode operator, at lam = 0.

    The lam and theta components of the mode are ignored: the shift
    translates only imaginary parts, and _sigma_mode fixes the angle.
    Runs the grid-doubling protocol from the given grid (default:
    bound_grid, sigma_grid at n = 600); each level runs shift-invert
    Arnoldi on the rotated band, whose point spectrum matches the straight
    operator's, from the asymptote on the first level and the previous
    eigenvalue on the next.
    """
    if grid is None:
        grid = bound_grid(mode, "sigma")
    rotated, seed = _sigma_mode(mode)

    def step(g, prev):
        mu = solver.bottom_eigenvalue(operators.assemble_banded(rotated, g),
                                      seed if prev is None else prev[1])
        return mu.real, mu

    (sig, _), n, converged = _grid_doubling(grid, step, "sigma", mode)
    return BoundResult(mode=mode, grid_n=n, converged=converged, sigma_bound=sig)


def _brent_min(fn, a, b, x):
    """Brent's minimum of a scalar function on [a, b] from the interior
    point x (Algorithms for Minimization without Derivatives, 1973, ch. 5):
    a parabola through the three best points so far, and a golden-section
    step whenever that parabola's minimum leaves the bracket or fails to
    halve the step before last.  No two evaluations lie closer than a
    quarter of the final width.  Stops at relative bracket width
    _REFINE_TOL and returns the lowest (x, fn(x)) evaluated."""
    tol = _REFINE_TOL * max(abs(a), abs(b), 1.0)
    step = tol / 4.0
    fx = fn(x)
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while b - a > tol:
        m = 0.5 * (a + b)
        p = q = 0.0
        if abs(e) > step:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p = -p if q > 0.0 else p
            q = abs(q)
        if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if min(x + d - a, b - x - d) < 2.0 * step:
                d = math.copysign(step, m - x)
        else:
            e = (a if x >= m else b) - x
            d = (1.0 - _GOLDEN) * e
        u = x + (d if abs(d) >= step else math.copysign(step, d))
        fu = fn(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _scan_psi(matrix, lams):
    """Scan s_min(M - i lam) over the shifts lams with solver.scan_smin and
    refine the lowest interior minimum by Brent on smallest_singular_value,
    from that shift within its two neighbours, so what is returned is
    measured to 1e-14; None if no shift is an interior minimum."""
    vals = solver.scan_smin(matrix, lams)
    inner = np.where((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1
    if inner.size == 0:
        return None
    i = inner[np.argmin(vals[inner])]
    a, b = sorted((lams[i - 1], lams[i + 1]))
    lam_star, psi = _brent_min(lambda lam: solver.smallest_singular_value(matrix, lam),
                               a, b, lams[i])
    return float(psi), float(lam_star)


def pseudospectral_bound(mode, grid=None):
    """Psi(alpha, k) = min over real lam of s_min(H - i lam), with lam*.

    For beta_k = 0 the operator is self-adjoint and the minimum sits at
    lam = 0 (distance to the real spectrum).  Otherwise a 16-shift scan
    over 0.55 sgn(beta_k) |beta_k|^{2/3} [0.5, 1.5], around the asymptote
    of lambda*, locates the resolvent peak, the 64-shift scan over
    beta_k [-0.2, 1.2] takes over if that finds no interior minimum, and
    Brent refines the lowest interior minimum to relative width 1e-3.
    Refined levels rescan 9 shifts around the coarser level's minimizer,
    and the full window if that finds no interior minimum; a full window
    without one gives s_min at -0.2 beta_k, flagged as not converged.
    Scans use solver.scan_smin, which only locates; every value returned
    is measured by smallest_singular_value.  The grid defaults to
    bound_grid (default_grid at n = 600).
    """
    if grid is None:
        grid = bound_grid(mode, "psi")
    beta = mode.beta_k
    if beta == 0.0:
        res = spectral_bound(mode, grid)
        return BoundResult(mode=mode, grid_n=res.grid_n, converged=res.converged,
                           sigma_bound=res.sigma_bound, psi_bound=res.sigma_bound,
                           lambda_star=0.0)
    asymptote = _ASYMPTOTE * math.copysign(abs(beta) ** (2.0 / 3.0), beta)

    def step(g, prev):
        matrix = operators.assemble_banded(ModeSpec(alpha=mode.alpha, k=mode.k), g)
        if prev is None:
            scan_ok = True
            lams = asymptote * np.linspace(0.5, 1.5, _SHORT_POINTS)
        else:
            # refined grids rescan locally around the coarser level's minimizer
            _, lam_prev, scan_ok = prev
            cell = 1.4 * abs(beta) / (_LAMBDA_POINTS - 1)
            lams = np.linspace(lam_prev - 1.5 * cell, lam_prev + 1.5 * cell, 9)
        hit = _scan_psi(matrix, lams)
        if hit is None:
            hit = _scan_psi(matrix, beta * np.linspace(-0.2, 1.2, _LAMBDA_POINTS))
        if hit is None:
            logger.warning("no interior resolvent minimum for alpha=%g k=%d",
                           mode.alpha, mode.k)
            return solver.smallest_singular_value(matrix, -0.2 * beta), -0.2 * beta, False
        return hit + (scan_ok,)

    (psi, lam_star, scan_ok), n, converged = _grid_doubling(grid, step, "psi", mode)
    return BoundResult(mode=mode, grid_n=n, converged=converged and scan_ok,
                       psi_bound=psi, lambda_star=lam_star)


def combined_bounds(alpha, k_max=8, grid=None):
    """Sigma(alpha) and Psi(alpha): minima of the k-mode bounds over
    1 <= k <= k_max (negative k covered by conjugation symmetry), as the
    pair (spectral_bound result, pseudospectral_bound result) of the
    minimizing modes, which may differ."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    modes = [ModeSpec(alpha=alpha, k=k) for k in range(1, k_max + 1)]
    return (min((spectral_bound(mode, grid) for mode in modes),
                key=lambda res: res.sigma_bound),
            min((pseudospectral_bound(mode, grid) for mode in modes),
                key=lambda res: res.psi_bound))


def quasimode_shift(beta_1):
    """(r1, lam): the quasimode's centre r1 = |beta_1|^{1/6} and shift
    lam = beta_1 sigma(r1); ValueError below |beta_1| = 27/8."""
    if abs(beta_1) < QUASIMODE_MIN_BETA:
        raise ValueError("quasimode needs |beta_1| = |alpha|/(8 pi) >= 27/8")
    r1 = abs(beta_1) ** (1.0 / 6.0)
    return r1, beta_1 * specfun.sigma(r1)


def _check_quasimode_grid(r1, grid):
    """ValueError unless the grid covers and resolves the quasimode window."""
    if grid.r_max < r1 + 2.0 / r1:
        raise ValueError("grid does not cover the quasimode support: "
                         "r_max %.3g < %.3g" % (grid.r_max, r1 + 2.0 / r1))
    if grid.h > 1.0 / (20.0 * r1):
        raise ValueError("grid too coarse for the quasimode: h %.3g > %.3g"
                         % (grid.h, 1.0 / (20.0 * r1)))


def quasimode_grid(beta_1, n=None, r_max=None):
    """Grid for quasimode(beta_1, grid): n and r_max as given, else
    r_max = max(12, r1 + 2/r1 + 1) and n = ceil(20 r1 r_max) + 8; the
    grid must pass the support and resolution checks of quasimode."""
    r1, _ = quasimode_shift(beta_1)
    if r_max is None:
        r_max = max(12.0, r1 + 2.0 / r1 + 1.0)
    if n is None:
        n = int(math.ceil(20.0 * r1 * r_max)) + 8
    grid = make_grid(n, r_max)
    _check_quasimode_grid(r1, grid)
    return grid


def quasimode(beta_1, grid):
    """Localized test field certifying the |beta_1|^{1/3} pseudospectral scale.

    With r1 = |beta_1|^{1/6}, the window width w = 3/r1 and
    eta(x) = x^2 (x - 1)^2 on (0, 1), builds
    u(r) = eta((r - r1)/w + 1/2) supported on [r1 - w/2, r1 + w/2],
    centred on the critical radius where sigma(r) = lam/beta_1, sets
    lam = beta_1 sigma(r1), and returns (v, ratio) with v = T* u and
    ratio = ||L1 u|| / ||u||, which equals ||H_1 v|| / ||v|| by the wave
    conjugation.  v is orthogonal to r^{3/2} g (the range of T*).

    The width balances -u'' against the skew term
    beta_1 (sigma(r) - sigma(r1)) u, which is odd about the centre: at
    leading order ratio/|beta_1|^{1/3} is
    sqrt(||-eta''/c^2 + eta/16||^2/||eta||^2 + 64 c^2/44) ~ 4.41 for
    w = c/r1, nearly minimal at c = 3.  The support stays off the origin
    only for |beta_1| > (3/2)^3 = 27/8.
    """
    r1, lam = quasimode_shift(beta_1)
    _check_quasimode_grid(r1, grid)
    r = grid.nodes
    x = r1 * (r - r1) / _QUASIMODE_WIDTH + 0.5
    eta = np.where((x > 0.0) & (x < 1.0), x ** 2 * (x - 1.0) ** 2, 0.0)
    u = Field(grid, eta.astype(complex))
    mode = ModeSpec(alpha=8.0 * math.pi * beta_1, k=1, lam=lam)
    ratio = operators.apply_L1(operators.assemble_banded(mode, grid), u).norm() / u.norm()
    v = operators.apply_Tstar(u)
    # the continuum transform lands exactly in the orthogonal complement of
    # r^{3/2} g; the discrete rule leaks a quadrature-level component along
    # it (about 1e-5 at the coarsest admissible grid), removed here
    chi = Field(grid, r ** 1.5 * specfun.g(r))
    v = Field(grid, v.values - chi.values * (quadrature(v, chi) / chi.norm() ** 2))
    overlap = abs(quadrature(v, chi)) / (v.norm() * chi.norm())
    if overlap > 1e-6:
        raise AssertionError("quasimode not orthogonal to the ground "
                             "direction: overlap %.2e" % overlap)
    return v, float(ratio)


def numerical_range_bound(mode, grid=None):
    """Certified lower bound for Sigma(alpha, k) from the rotated operator.

    Ignores the mode's lam and theta, as spectral_bound does: uses the
    analytic-dilation angle sgn(beta_k) pi/12 for |k| = 1 and
    sgn(beta_k) pi/24 otherwise and returns the smallest eigenvalue of the
    Hermitian part, which lower-bounds the numerical range and hence the
    spectrum, read from the band form of the rotated operator.  The grid
    defaults to bound_grid (sigma_grid at n = 600).
    """
    if grid is None:
        grid = bound_grid(mode, "range")
    tilted = ModeSpec(alpha=mode.alpha, k=mode.k, lam=0.0,
                      theta=_dilation_angle(mode))
    return solver.hermitian_part_min_eig(operators.assemble_banded(tilted, grid))


def sweep_point(mode, quantity, grid=None):
    """One row for the given quantity of QUANTITIES: value, convergence
    flag, the finest grid the protocol ran and, for psi, lambda*.  Every
    bound command of the command line prints this row.  The protocol
    starts from grid (default: bound_grid at n = 600)."""
    if grid is None:
        grid = bound_grid(mode, quantity)
    lam = None
    if quantity == "sigma":
        res = spectral_bound(mode, grid)
        value, converged, grid_n = res.sigma_bound, res.converged, res.grid_n
    elif quantity == "psi":
        res = pseudospectral_bound(mode, grid)
        value, converged, grid_n = res.psi_bound, res.converged, res.grid_n
        lam = res.lambda_star
    elif quantity == "range":
        (value,), grid_n, converged = _grid_doubling(
            grid, lambda g, prev: (float(numerical_range_bound(mode, g)),), "range", mode)
    else:
        raise ValueError("unknown quantity %r" % (quantity,))
    return SweepPoint(mode=mode, quantity=quantity, value=value, converged=converged,
                      grid_n=grid_n, r_max=grid.r_max, lambda_star=lam)


def check_fit_alphas(alphas):
    """Reject, before any solve, alphas that cannot carry a log-log fit:
    fewer than 4, a zero, or all of one magnitude.  Signs may differ,
    since the fit runs against log |alpha|."""
    if len(alphas) < 4:
        raise ValueError("a fit needs at least 4 alphas, got %d" % len(alphas))
    if 0 in alphas:
        raise ValueError("a fit needs nonzero alphas, got alpha = 0")
    logs = [math.log(abs(alpha)) for alpha in alphas]
    if max(logs) - min(logs) < 1e-12:
        raise ValueError("a fit needs alphas spanning a range, got |alpha| = %g "
                         "throughout" % abs(alphas[0]))


def fit_sweep(points):
    """Log-log fit of sweep points against |alpha|; points that did not
    converge or are not positive are left out and listed by alpha."""
    logs, excluded = [], []
    for pt in points:
        if pt.converged and pt.value > 0:
            logs.append((math.log(abs(pt.mode.alpha)), math.log(pt.value)))
        else:
            logger.warning("sweep point alpha=%g (%s) excluded: converged=%s value=%s",
                           pt.mode.alpha, pt.quantity, pt.converged, pt.value)
            excluded.append(float(pt.mode.alpha))
    return fit_loglog(logs, excluded_alphas=tuple(excluded))


def scaling_sweep(alphas, k, quantity, n=600):
    """Least-squares slope of log(quantity) against log|alpha|, quantity
    one of QUANTITIES: check_fit_alphas, then sweep_point on each alpha in
    turn from bound_grid at base resolution n, then fit_sweep."""
    check_fit_alphas(alphas)
    modes = [ModeSpec(alpha=alpha, k=k) for alpha in alphas]
    return fit_sweep([sweep_point(mode, quantity, bound_grid(mode, quantity, n))
                      for mode in modes])


def fit_loglog(points, excluded_alphas=()):
    """Least-squares line through (log alpha, log value) pairs."""
    pts = np.array(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("not enough converged sweep points for a fit")
    slope, intercept = np.polyfit(pts[:, 0], pts[:, 1], 1)
    resid = np.abs(pts[:, 1] - (slope * pts[:, 0] + intercept)).max()
    return FitResult(slope=float(slope), intercept=float(intercept),
                     max_residual=float(resid), points=pts,
                     excluded_alphas=tuple(excluded_alphas))
