"""Spectral and pseudospectral bounds of the mode family, and their scaling.

Sigma(alpha, k) is the smallest real part of the spectrum of the mode
operator.  Psi(alpha, k) is the reciprocal of the resolvent-norm supremum
along the imaginary axis, computed as the minimum over real shifts lam of
s_min(H - i lam).  Sigma, Psi and the numerical-range bound share one
grid-doubling convergence protocol: levels n, 2n, 4n on the caller's
r_max, stopping once two consecutive levels agree to relative 1e-2.  It
reports all three in one BoundResult: the value and n of the level where
it stopped, and the (n, value) of every level it ran.

Sigma is computed from the rotated operator rather than the straight one.
The two have the same point spectrum (rotation moves only the essential
spectrum), but the bottom eigenvalue of the straight matrix becomes
catastrophically ill conditioned as beta_k grows: its eigenvector
condition number passes 1e8 already at beta_k = 1e3, so solvers return
spurious points of the working-precision pseudospectrum near
2.8 beta_k^{1/3} instead of the true eigenvalue near 0.71 beta_k^{1/2}.
Near r = 0 the operator is Davies' complex oscillator, normal at theta =
sgn(beta_k) pi/8, the angle used here.  Short of it the condition number
still grows with |beta_k|: at beta_1 = 1e5 it is 1.9e11 at pi/12 and 2.8
at 0.37, and at 0.37 it reaches 3.2e8 at beta_1 = 1e8, where Sigma came
out up to 1.75e-3 under its large-beta value Re sqrt(k^2 + 4 i beta_k)/2
and was flagged converged; at pi/8 it is 1.2 there.

The minimizing shift for Psi lies at nu = lam/beta_k inside (0, 1): for
nu outside that range the operator is coercive at the |beta|^{1/2} scale,
so the resolvent peak sits at the critical radius r*, where sigma(r*) =
nu, as the quasimode does.  r* reads about 2.70 |beta_k|^{1/6} from
|beta_k| = 300 on; as beta_k goes to 0, nu tends to its mean in the
mode's ground state, at most (1 - 2^-|k|)/|k|, so r* >= 2 sqrt|k| (3.96
to 4.01 for |k| <= 3).  The window of shifts lam = beta_k sigma(r), r over
r_c [0.65, 1.35] with r_c = max(2.7 |beta_k|^{1/6}, 4, 2 sqrt|k|),
brackets it at every beta_k surveyed, |k| up to 24.  Psi is a property of
the straight operator (rotation does not preserve resolvent norms), so
that path stays unrotated; it runs on the banded form of the straight
operator, assembled once per grid level, where each shift costs one O(n)
band LU.  Every level of every Psi bound, beta_k = 0 included, is one
safeguarded secant on s'(lam) = 0, with the window's ends as its bracket
(one shift at beta_k = 0) and no other path: a level whose slopes find
no minimum inside reports the lowest s it measured, not converged.
smallest_singular_value measures s cold to 1e-14 together with its
slope, read from the top singular vector the inverse Lanczos already
holds.  The first level starts it at r_c, each refined level at the
coarser level's lambda* and curvature, and a level stops only on a
curvature measured on its own grid.  The peak has width |beta_k|^{-1/6}
in r, so the first level runs on at least r_max |beta_k|^{1/6} points:
on a coarser grid the secant from r_c can settle on a minimum the grid
does not resolve and report it converged (up to 1.7% under the finer
grids' Psi, |beta_k| >= 1.3e7 from n = 300).  The window and the
refinement's width, 1e-3 max(|lambda*|, 1), are fixed.

bound_grid is the one grid policy of the three quantities, for the
bound functions' defaults and for the command line alike.  sweep_point
runs a quantity's protocol function, spectral_bound, pseudospectral_bound
or range_bound, and the BoundResult it returns is the row every bound
command prints.
"""

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import operators, solver, specfun
from .grids import R_MAX_FLOOR, Field, ModeSpec, make_grid, quadrature

logger = logging.getLogger(__name__)

# quasimode window width in units of 1/r1, and the |beta_1| below which the
# centred window reaches the origin: r1 - width/(2 r1) <= 0 iff r1^2 <= width/2
_QUASIMODE_WIDTH = 3.0
QUASIMODE_MIN_BETA = (_QUASIMODE_WIDTH / 2.0) ** 3
_SIGMA_ANGLE = math.pi / 8  # Sigma's dilation angle, where the operator near r = 0 is normal
_REFINE_TOL = 1e-3      # Psi's refinement stops within this of lambda*, relatively
# each quantity's protocol function, looked up by name at call time
_BOUNDS = {"sigma": "spectral_bound", "psi": "pseudospectral_bound", "range": "range_bound"}
QUANTITIES = tuple(_BOUNDS)
_SIGMA_RADIUS = 4.4     # Sigma's and range's r_max over |beta_k|^{1/4}
_PSI_RADIUS = 3.8       # Psi's r_max over |beta_k|^{1/6}, 1.34 times the least that holds
_CRITICAL = 2.7         # Psi's window centre r_c over |beta_k|^{1/6} at large |beta_k|
_WINDOW = (0.65, 1.35)  # Psi's window in r / r_c; its top, 1.35 x 2.7, is under _PSI_RADIUS
GRID_POLICY = ("r_max = %g; sigma and range paths raise it to %g |beta_k|^{1/4}, "
               "the psi path to %g |beta_k|^{1/6} and its first n to r_max |beta_k|^{1/6}"
               % (R_MAX_FLOOR, _SIGMA_RADIUS, _PSI_RADIUS))


@dataclass
class BoundResult:
    """A quantity of QUANTITIES on one mode, as _grid_doubling left it: the
    last level's value and n on r_max, whether two levels agreed (for psi,
    also whether every secant found an interior minimum), lambda* for psi,
    and levels, the (n, value) of each level run, in order."""
    mode: ModeSpec
    quantity: str
    value: float
    converged: bool
    grid_n: int
    r_max: float
    lambda_star: float = None
    levels: tuple = ()
    sigma_bound = property(lambda self: self.value)  # read only by perfbench's PsiSweep.sigma


@dataclass
class FitResult:
    slope: float
    intercept: float
    max_residual: float
    points: np.ndarray
    excluded_alphas: tuple = ()


def _grid_doubling(grid, step, quantity, mode):
    """Convergence protocol of sigma, psi and range: runs step(g, prev) on
    n, 2n, 4n points at grid.r_max until two consecutive values agree to
    relative 1e-2.  step returns a tuple, value first, and gets prev, the
    previous level's tuple (None on the first), to pass on psi's minimizer or
    sigma's next shift.  Returns the BoundResult of the last level run, with
    every level's (n, value), and that level's tuple."""
    prev, levels = None, []
    for level in range(3):
        g = grid if level == 0 else make_grid(grid.n * 2 ** level, grid.r_max)
        out = step(g, prev)
        levels.append((g.n, out[0]))
        converged = prev is not None and bool(
            abs(prev[0] - out[0]) / max(abs(out[0]), 1e-300) < 1e-2)
        if converged:
            break
        prev = out
    else:
        logger.warning("%s bound not converged at n=%d (alpha=%g, k=%d)",
                       quantity, g.n, mode.alpha, mode.k)
    return BoundResult(mode=mode, quantity=quantity, value=out[0], converged=converged,
                       grid_n=g.n, r_max=grid.r_max, levels=tuple(levels)), out


def _range_mode(mode):
    """The mode of the numerical-range bound: lam = 0 and the rotation angle
    sgn(beta_k) pi/12 for |k| = 1, sgn(beta_k) pi/24 otherwise."""
    sgn = 1.0 if mode.beta_k >= 0 else -1.0
    theta = sgn * (math.pi / 12 if abs(mode.k) == 1 else math.pi / 24)
    return ModeSpec(alpha=mode.alpha, k=mode.k, lam=0.0, theta=theta)


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
    return make_grid(n, max(R_MAX_FLOOR, _SIGMA_RADIUS * abs(mode.beta_k) ** 0.25))


def bound_grid(mode, quantity, n=600, r_max=None):
    """First grid of the convergence protocol for one quantity of QUANTITIES
    (GRID_POLICY): n points on r_max if given, else sigma_grid for sigma
    and range, and for psi r_max = max(R_MAX_FLOOR, _PSI_RADIUS |beta_k|^{1/6}).

    Psi's resolvent peak sits at the critical radius of lambda*, about
    2.7 |beta_k|^{1/6}, and a grid that cuts it off converges under
    n-doubling to a wrong Psi (23% high at beta_1 = 1e7 on r_max = 30).
    At h = 0.05, against r_max = 100, Psi is exact to rounding once
    r_max / |beta_k|^{1/6} reaches 2.84, and off by 0.2% or more at 2.72
    and below (|beta_k| = 2e6 to 3e7, k = 1, 2, 5).  _PSI_RADIUS keeps
    r_max = 30 up to |beta_k| = 2.4e5."""
    if quantity not in QUANTITIES:
        raise ValueError("unknown quantity %r" % (quantity,))
    if r_max is None and quantity == "psi":
        r_max = max(R_MAX_FLOOR, _PSI_RADIUS * abs(mode.beta_k) ** (1.0 / 6.0))
    if r_max is not None:
        return make_grid(n, r_max)
    return sigma_grid(mode, n)


def _bottom_step(first, band):
    """The level step of Sigma's protocol, and of range's at |k| >= 2:
    first(g), the first level's eigenvalue, then on each refined level
    solver.follow_eigenvalue(band(g), mu), mu the coarser level's
    eigenvalue: the eigenvalue of the band nearest mu, or where its inverse
    iteration declines, the Arnoldi's from mu on the same band.  The step
    returns (Re mu, mu), and the next level shifts by mu."""
    def step(g, prev):
        mu = first(g) if prev is None else solver.follow_eigenvalue(band(g), prev[1])
        return float(mu.real), mu

    return step


def spectral_bound(mode, grid=None):
    """Sigma(alpha, k) = min Re spec of the mode operator, at lam = 0.

    The lam and theta components of the mode are ignored: the shift
    translates only imaginary parts, and _sigma_mode fixes the angle.
    Runs the grid-doubling protocol from the given grid (default:
    bound_grid, sigma_grid at n = 600) on the rotated band, whose point
    spectrum matches the straight operator's: shift-invert Arnoldi from the
    asymptote on the first level, then _bottom_step's follow from the
    previous eigenvalue.
    """
    if grid is None:
        grid = bound_grid(mode, "sigma")
    rotated, seed = _sigma_mode(mode)
    step = _bottom_step(
        lambda g: solver.bottom_eigenvalue(operators.assemble_banded(rotated, g), seed),
        lambda g: operators.assemble_banded(rotated, g))
    return _grid_doubling(grid, step, "sigma", mode)[0]


def _slope_min(fn, a, b, x, curvature=None):
    """Minimum of s on [a, b] from the interior point x by a safeguarded
    secant on s'(lam) = 0 (the derivative step of Freitag & Spence, Linear
    Algebra Appl. 435, 2011), where fn(lam) returns (s, s').  Each slope's
    sign moves the bracket's end on its side to lam, so the bracket keeps
    the side where s descends.  The step is -s'/c, c the curvature of the
    last two slopes, or the given curvature until there are two; without
    one, the first step bisects the descending side.  A step that leaves
    the bracket, or is not under half the step before last, becomes a
    bisection.  Stops after a step under tol/2 whose curvature came from
    two slopes of fn, measured, or once the bracket is narrower than tol,
    tol = _REFINE_TOL max(|lam|, 1): the width is relative to lambda*, not
    to the bracket's ends.  A given curvature scales the first step only,
    so a coarser grid's minimum is never kept on its word.  Returns
    (s, lam, c, inside) at the lowest s evaluated, c the curvature the
    next grid level starts from and inside whether s' has a zero in
    [a, b].  Where the bracket closes on a or b before any slope was
    measured there, one more measurement at that edge decides: a slope
    pointing into the bracket brackets the zero of s', one pointing out
    means s' has no zero inside, and (s, lam, None, False) is returned.
    An [a, b] under 2 tol from the start, [0, 0] at beta_k = 0 among them,
    is resolved by one slope, and its measured point is returned."""
    lo, hi = a, b
    lo_ds = hi_ds = None    # the slopes at lo and hi, once measured
    x = float(x)
    best = None
    last = before = b - a
    old = None
    done = False
    while True:
        s, ds = fn(x)
        if best is None or s < best[0]:
            best = (s, x)
        if done or ds == 0.0:
            break
        if ds < 0.0:
            lo, lo_ds = x, ds
        else:
            hi, hi_ds = x, ds
        local = old is not None
        if local:
            curvature = (ds - old[1]) / (x - old[0])
        old = (x, ds)
        tol = _REFINE_TOL * max(abs(x), 1.0)
        if hi - lo < tol:
            if b - a >= 2.0 * tol and None in (lo_ds, hi_ds):
                # the bracket closed on an edge of [a, b] whose slope was
                # not measured: measure it (unless x is that edge), and
                # its sign says whether s' has a zero inside
                edge = a if lo_ds is None else b
                s, ds = (s, ds) if x == edge else fn(edge)
                if s < best[0]:
                    best = (s, edge)
                if ds > 0.0 if edge == a else ds < 0.0:
                    return float(best[0]), float(best[1]), None, False
                curvature = (ds - old[1]) / (edge - old[0])
            break
        step = -ds / curvature if curvature is not None and curvature > 0.0 else math.inf
        if not lo < x + step < hi or abs(step) > 0.5 * abs(before):
            step = 0.5 * (lo + hi) - x
        done = local and abs(step) < 0.5 * tol
        before, last = last, step
        x += step
    return float(best[0]), float(best[1]), curvature, True


def _psi_window(mode):
    """(edge, far, centre): the shifts lam = beta_k sigma(r) at r = 0.65 r_c,
    1.35 r_c (_WINDOW) and r_c, where r_c = max(_CRITICAL |beta_k|^{1/6},
    4, 2 sqrt|k|) is the critical radius or its small-beta_k floor; 1.35 r_c
    is under r_max for |k| < 120."""
    beta = mode.beta_k
    r_c = max(_CRITICAL * abs(beta) ** (1.0 / 6.0), 4.0, 2.0 * math.sqrt(abs(mode.k)))
    return tuple(float(beta * specfun.sigma(r_c * x)) for x in _WINDOW + (1.0,))


def pseudospectral_bound(mode, grid=None):
    """Psi(alpha, k) = min over real lam of s_min(H - i lam), with lam*.

    Every level runs _slope_min, a secant on the slope of s_min measured
    cold, to within 1e-3 max(|lambda*|, 1), bracketed by the ends of
    _psi_window: the first level from the shift of the critical radius
    r_c with no curvature, each refined level from the coarser level's
    lambda* and curvature.  At beta_k = 0 the operator is self-adjoint,
    the window is the one shift 0, and one slope settles each level at
    lambda* = 0: Psi is the distance to the real spectrum, Sigma to
    rounding.  A level whose slopes find no minimum inside the window
    reports the lowest s_min they measured, and the bound is then flagged
    as not converged whatever the finer levels find.  Every
    value returned is measured by smallest_singular_value, and like any
    scan of lam the search probes finitely many shifts, those the secant
    measures: nothing uniform in lam is claimed.  The grid
    defaults to bound_grid at n = 600, whose r_max follows the critical
    radius of lambda* past |beta_k| = 2.4e5; whatever the grid, the first
    level runs on at least r_max |beta_k|^{1/6} points of its r_max, so
    that h <= |beta_k|^{-1/6} resolves the resolvent peak, whose width is
    |beta_k|^{-1/6}.
    """
    if grid is None:
        grid = bound_grid(mode, "psi")
    floor = math.ceil(grid.r_max * abs(mode.beta_k) ** (1.0 / 6.0))
    if grid.n < floor:
        grid = make_grid(floor, grid.r_max)
    edge, far, centre = _psi_window(mode)
    window = sorted((edge, far))

    def step(g, prev):
        matrix = operators.assemble_banded(ModeSpec(alpha=mode.alpha, k=mode.k), g)
        start, curvature, inside = (centre, None, True) if prev is None else prev[1:]
        s, lam, curvature, found = _slope_min(
            lambda shift: solver.smallest_singular_value(matrix, shift),
            *window, start, curvature)
        if not found:
            logger.warning("no interior resolvent minimum for alpha=%g k=%d",
                           mode.alpha, mode.k)
        return s, lam, curvature, inside and found

    res, (_, lam_star, _, inside) = _grid_doubling(grid, step, "psi", mode)
    return dataclasses.replace(res, lambda_star=lam_star, converged=res.converged and inside)


def combined_bounds(alpha, k_max=8, grid=None):
    """Sigma(alpha) and Psi(alpha): minima of the k-mode bounds over
    1 <= k <= k_max (negative k covered by conjugation symmetry), as the
    pair (spectral_bound result, pseudospectral_bound result) of the
    minimizing modes, which may differ."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    modes = [ModeSpec(alpha=alpha, k=k) for k in range(1, k_max + 1)]
    return (min((spectral_bound(mode, grid) for mode in modes), key=lambda res: res.value),
            min((pseudospectral_bound(mode, grid) for mode in modes), key=lambda res: res.value))


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
    spectrum, read from the band form of the rotated operator on the one
    grid given (solver.hermitian_part_min_eig: bisection, then for
    |k| >= 2 the Arnoldi on its pencil from the bisection's value).  The
    grid defaults to bound_grid (sigma_grid at n = 600); range_bound runs
    it on its first level, and on every level at |k| = 1.
    """
    if grid is None:
        grid = bound_grid(mode, "range")
    return solver.hermitian_part_min_eig(operators.assemble_banded(_range_mode(mode), grid))


def range_bound(mode, grid=None):
    """The numerical-range bound by the grid-doubling protocol, from the
    given grid (default: bound_grid, sigma_grid at n = 600).  The first
    level, and every level at |k| = 1, where bisection certifies the
    bottom, is numerical_range_bound; for |k| >= 2 a refined level runs
    _bottom_step, spectral_bound's, on the Hermitian part's pencil
    (solver._hermitian_pencil), built once per level: the coarser level's
    value followed on it, with no bisection."""
    if grid is None:
        grid = bound_grid(mode, "range")
    if abs(mode.k) == 1:
        step = lambda g, prev: (numerical_range_bound(mode, g),)
    else:
        tilted = _range_mode(mode)
        step = _bottom_step(lambda g: numerical_range_bound(mode, g), lambda g: (
            solver._hermitian_pencil(operators.assemble_banded(tilted, g))))
    return _grid_doubling(grid, step, "range", mode)[0]


def sweep_point(mode, quantity, grid=None):
    """The BoundResult of the given quantity of QUANTITIES, from its
    protocol function on grid (default: bound_grid at n = 600).  Every
    bound command of the command line prints it as its row."""
    if quantity not in QUANTITIES:
        raise ValueError("unknown quantity %r" % (quantity,))
    return globals()[_BOUNDS[quantity]](mode, grid)


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
