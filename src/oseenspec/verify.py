"""Executable registry of the identities and inequalities the solver rests on.

_REGISTRY is the one table of checks, a row per check id: its suite, its
tolerance and its check.  A check takes a seeded generator and returns
(measured, samples), one scalar and the number of samples behind it;
run_check draws the generator from the seed and the id, calls the check
and builds the CheckReport, which passes iff measured <= tolerance.
measured is a violation magnitude for exact identities, a found or
fitted constant for inequalities stated up to constants, a drift for
invariance checks, so reports are uniform and machine-comparable.
Random test fields are smooth decaying profiles r^{k+1/2} e^{-r^2/8}
(polynomial) with coefficients drawn from the generator, so every report
is deterministic given the seed that run_check and run_all take (default
2024, and a negative seed is a ValueError).

Every check runs in O(n) per field: operators applies A_k, K_k, B_k, H
and the wave transforms through their tridiagonal and semiseparable
structure, the coercivity checks take the bottom of a weighted
tridiagonal by bisection, and the kernel bound check reads the top of
G K_k G by Lanczos on its product and K_k's positivity from its tridiagonal
inverse.  No check builds a dense matrix or calls a dense solver; the
tests hold these products to dense assemblies of their own oracle.
A check's samples are whole arrays, not a loop: the seeded fields of a
check are one (count, n) block, drawn as count single fields in turn
would be, that each product takes in one call along the last axis; the
radii and angles of the profile checks are rows of one 2-D array; and
the moment bound reads its semiseparable kernel by two cumulative sums,
as apply_K does.
run_check records each check's wall time in CheckReport.elapsed_ms,
which equality ignores.
"""

import bisect
import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import operators, solver, specfun
from .grids import Field, ModeSpec, make_grid


@dataclass
class CheckReport:
    check_id: str
    passed: bool
    measured: float
    tolerance: float
    samples: int
    # wall time of the check, set by run_check; not part of the verdict
    elapsed_ms: float = field(default=0.0, compare=False)


def _seeded_values(grid, rng, count, k=1):
    """count seeded fields as one (count, n) block, drawn as count single
    fields in turn would be."""
    r = grid.nodes
    coef = rng.standard_normal((count, 4))
    poly = sum(c[:, None] * (r / 10.0) ** j for j, c in enumerate(coef.T))
    return r ** (k + 0.5) * np.exp(-r ** 2 / 8) * poly


def _interior_rel(grid, lhs, rhs):
    """||lhs - rhs|| / max(||lhs||, ||rhs||) on interior_mask, per field."""
    mask = operators.interior_mask(grid)
    num = np.linalg.norm((lhs - rhs)[..., mask], axis=-1)
    den = np.maximum(np.linalg.norm(lhs[..., mask], axis=-1),
                     np.linalg.norm(rhs[..., mask], axis=-1))
    return num / den


# ---------------------------------------------------------------- wave

# Each wave check draws its 10 fields as one (10, n) block and sends it
# through each product once; the products act along the last axis.

def _check_wave_isometry(rng):
    grid = make_grid(2000, 40.0)
    chi = Field(grid, grid.nodes ** 1.5 * specfun.g(grid.nodes))
    nfields = 10
    w = Field(grid, _seeded_values(grid, rng, nfields))
    norm = np.linalg.norm(w.values, axis=-1)
    ttw = operators.apply_T(operators.apply_Tstar(w)).values
    # the weights of chi are one dot product per field, as quadrature takes them
    dots = np.array([np.vdot(chi.values, v) for v in w.values])
    proj = w.values - np.outer(grid.h * dots / chi.norm() ** 2, chi.values)
    tstw = operators.apply_Tstar(operators.apply_T(w)).values
    return max(operators.apply_T(chi).norm() / chi.norm(),
               (np.linalg.norm(ttw - w.values, axis=-1) / norm).max(),
               (np.linalg.norm(tstw - proj, axis=-1) / norm).max()), nfields + 1


def _check_wave_intertwine(rng):
    grid = make_grid(2000, 40.0)
    w = Field(grid, _seeded_values(grid, rng, 10))
    lhs = operators.apply_T(operators.apply_B(1, w)).values
    rhs = specfun.sigma(grid.nodes) * operators.apply_T(w).values
    return (np.abs(lhs - rhs).max(axis=-1) / np.abs(rhs).max(axis=-1)).max(), 10


def _check_wave_commutator(rng):
    grid = make_grid(2000, 40.0)
    w = Field(grid, _seeded_values(grid, rng, 10))
    tw = operators.apply_T(w)
    lhs = (operators.apply_T(operators.apply_A(1, w)).values
           - operators.apply_A(1, tw).values)
    return _interior_rel(grid, lhs, specfun.f(grid.nodes) * tw.values).max(), 10


def _check_wave_conjugation(rng):
    grid = make_grid(2000, 40.0)
    mode = ModeSpec(alpha=8 * math.pi * 10, k=1, lam=0.3)
    u = Field(grid, _seeded_values(grid, rng, 10))
    lhs = operators.apply_T(operators.apply_H(mode, operators.apply_Tstar(u))).values
    rhs = operators.apply_L1(operators.assemble_banded(mode, grid), u).values
    return _interior_rel(grid, lhs, rhs).max(), 10


# ------------------------------------------------------------ coercive

def _check_coercive_a1(rng):
    grid = make_grid(600, 30.0)
    low = solver._tridiagonal_eigenvalue(*operators.harmonic_bands(1, grid), 1)
    return abs(low - 0.5), grid.n


def _form_constant(diag, off, weight):
    """Largest C with A >= C^{-1} diag(weight) in the form sense, for the
    tridiagonal A = (diag, off): one over the bottom of the tridiagonal
    D^{-1/2} A D^{-1/2}, D = diag(weight), by bisection."""
    scale = 1.0 / np.sqrt(weight)
    low = solver._tridiagonal_eigenvalue(scale * diag * scale,
                                         scale[:-1] * off * scale[1:], 1)
    if low <= 0:
        return math.inf
    return 1.0 / low


def _check_coercive_a1f(rng):
    grid = make_grid(600, 30.0)
    r = grid.nodes
    if specfun.h(np.linspace(0.01, 40.0, 8000)).min() <= 0:
        return math.inf, grid.n
    diag, off = operators.harmonic_bands(1, grid)
    return _form_constant(diag + specfun.f(r), off, 1 / r ** 2 + r ** 2), grid.n


def _check_coercive_ak(rng):
    grid = make_grid(600, 30.0)
    r = grid.nodes
    worst = 0.0
    for k in (2, 3, 4, 5):
        diag, off = operators.harmonic_bands(k, grid)
        worst = max(worst, _form_constant(diag, off, k * k / r ** 2 + r ** 2))
    return worst, 4 * grid.n


def _check_taylor_h(rng):
    exact = {2: 35 / 32, 3: -7 / 32, 4: 19 / 384}
    coef = {n: float(specfun.h_numerator_coefficient(n)) for n in range(2, 31)}
    worst = max(abs(coef[n] - want) for n, want in exact.items())
    for n in range(5, 31):
        a_n = (3 / 16 + n * (n - 1) / 4 - n / 2) / math.factorial(n)
        worst = max(worst, abs(coef[n] - a_n))
        if a_n <= 0 or coef[n] <= 0:
            worst = math.inf
    u = np.linspace(0.05, 2.0, 40)
    series = sum(c * u ** n for n, c in coef.items())
    direct = (3 / 16 + u ** 2 / 4 - u / 2) * (np.exp(u) - u - 1) + u ** 2
    worst = max(worst, float(np.abs(series / direct - 1).max()))
    return worst, 29 + u.size


# -------------------------------------------------------------- kernel

def _check_kernel_ode(rng):
    grid = make_grid(600, 30.0)
    r = grid.nodes
    worst = 0.0
    for k in (1, 2, 3, 5):
        w = _seeded_values(grid, rng, 1, k)[0]
        kw = operators.apply_K(k, Field(grid, w))
        # -d^2/dr^2 + (k^2 - 1/4)/r^2 is A_k without r^2/16 - 1/2
        bessel_kw = operators.apply_A(k, kw).values - (r ** 2 / 16 - 0.5) * kw.values
        worst = max(worst, _interior_rel(grid, bessel_kw, w))
    return worst, 4


def _check_kernel_bounds(rng):
    grid = make_grid(600, 30.0)
    gw = specfun.g(grid.nodes)
    sig_max = specfun.sigma(grid.nodes).max()
    worst = 0.0
    for k in (1, 2, 3, 5):
        # G K G is congruent to K, which is positive iff its tridiagonal
        # inverse is; the top is read by Lanczos on the O(n) product
        if solver._tridiagonal_eigenvalue(*operators.kernel_inverse_bands(k, grid), 1) <= 0:
            worst = math.inf
        top = solver._top_eigenvalue(
            lambda x: gw * operators.apply_K(k, Field(grid, gw * x)).values, grid.n)
        worst = max(worst, top - sig_max / k)
    return max(worst, 0.0), 4 * grid.n


def _truncated_kernel_form(k, r_k, x):
    """x . K x for K the Nystrom matrix of the Dirichlet-truncated kernel
    on (0, r_k),

        (1/2|k|) [min(r/s, s/r)^{|k|} - (rs/r_k^2)^{|k|}] (rs)^{1/2}

    on the nodes below r_k, and a real Field x, in O(n) per field along
    the last axis (r_k a number, or an array that broadcasts against
    x.values): the apply_K form of x on the nodes below r_k minus the
    rank-one term (h/2k) (sum r^{k+1/2} x)^2 / r_k^{2k}.  No dense form of
    K is built here; the tests hold this to one."""
    grid = x.grid
    r = grid.nodes
    inside = Field(grid, np.where(r < r_k, x.values, 0.0))
    rank_one = (grid.h / (2 * k)) * (
        np.sum(r ** (k + 0.5) * inside.values, axis=-1, keepdims=True) / r_k ** k) ** 2
    form = np.sum(inside.values * operators.apply_K(k, inside).values, axis=-1, keepdims=True)
    return (form - rank_one)[..., 0]


def _check_kernel_truncated(rng):
    # one (4, 3, n) block per k: 3 fields for each r_k, drawn in turn
    grid = make_grid(2000, 30.0)
    r = grid.nodes
    sig = specfun.sigma(r)
    gw = specfun.g(r)
    r_k = np.array([0.5, 1.0, 2.0, 5.0])[:, None, None]
    bump = np.where(r < r_k, (r * (r_k - r)) ** 2, 0.0)
    worst = -math.inf
    for k in (2, 3, 5):
        w = _seeded_values(grid, rng, 12, k).reshape(4, 3, grid.n) * bump
        lhs = grid.h * _truncated_kernel_form(k, r_k, Field(grid, gw * w))
        rhs = (2.0 / (k + 1)) * grid.h * np.sum((sig - specfun.sigma(r_k)) * w * w, axis=-1)
        worst = max(worst, ((lhs - rhs) / rhs).max())
    return max(worst, 0.0), 36


# --------------------------------------------------------------- sigma

def _check_sigma_identity(rng):
    r = np.linspace(0.05, 6.0, 400)
    delta = 1e-3
    phi = lambda x: x ** 3 * specfun.sigma_prime(x)
    # fourth-order central difference: at this step its truncation, 4e-10
    # at r = 0.05, stays above the rounding (near 1e-10), so the check
    # measures sigma' rather than the arithmetic
    lhs = (8 * (phi(r + delta) - phi(r - delta))
           - (phi(r + 2 * delta) - phi(r - 2 * delta))) / (12 * delta)
    rhs = -r ** 3 * specfun.g(r) ** 2
    return np.abs(lhs / rhs - 1).max(), r.size


def _check_sigma_comparability(rng):
    # each family is one 2-D array, a row r per r0 (column c); points too
    # close to r0 are masked with inf before the minimum
    def below(r, c, s0, close):
        low = np.abs(specfun.sigma(r) - specfun.sigma(c)) / (np.abs(r - c) * s0)
        return 1.0 / np.where(close, np.inf, low).min()

    r0 = np.geomspace(0.01, 20.0, 35)
    c = r0[:, None]
    s0 = np.abs(specfun.sigma_prime(c))
    ratio = np.abs(specfun.sigma_prime(np.linspace(r0 / 2, 2 * r0, 81, axis=1))) / s0
    r = np.linspace(r0 * 1e-3, 2 * r0, 161, axis=1)
    worst = max(ratio.max(), 1.0 / ratio.min(), below(r, c, s0, np.abs(r - c) <= 1e-3 * c))
    r0 = np.geomspace(0.01, 0.99, 15)
    c = r0[:, None]
    s0 = np.abs(specfun.sigma_prime(c))
    r = np.linspace(r0 / 2 + 1e-6, 2 * r0 + 1, 121, axis=1)
    worst = max(worst, (s0 / np.abs(specfun.sigma_prime(r)).min(axis=1, keepdims=True)).max(),
                below(r, c, s0, np.abs(r - c) <= 1e-3 * c))
    r0 = np.geomspace(1.0, 20.0, 15)
    c = r0[:, None]
    r = np.linspace(1e-3, 3 * r0 + 10, 301, axis=1)
    low = np.abs(specfun.sigma(r) - specfun.sigma(c)) * (1 + r) ** 4
    worst = max(worst, 1.0 / np.where(np.abs(r - c) < 1.0 / c, np.inf, low).min())
    return worst, 50 * 242 + 15 * 301


# ----------------------------------------------------------- envelopes

def _search_constants(term1, term2, rhs):
    """Smallest max(c1, c2) with min(c1 term1 + c2 term2 - rhs) >= 0 over the
    sample grid, both constants searched over a log grid capped at 100.

    term1 > 0, so feasibility is monotone in c1: for each c2 in turn,
    upward until c2 reaches the best found, the least feasible c1 of the
    grid is the least at or above max((rhs - c2 term2)/term1).  The
    predicate confirms it, and one grid step below it fails at the point
    of that maximum alone; where rounding puts the bound a step off, the
    predicate walks on, so the result is exactly the least feasible grid
    value below the best."""
    consts = np.geomspace(0.01, 100.0, 25).tolist()
    lower, slope = rhs / term1, term2 / term1

    def feasible(i, c2, at=slice(None)):
        return (consts[i] * term1[at] + c2 * term2[at] >= rhs[at]).all()

    best = math.inf
    for c2 in consts:
        if c2 >= best:
            break
        need = lower - c2 * slope
        j = int(need.argmax())
        hi = bisect.bisect_left(consts, best)
        i = min(bisect.bisect_left(consts, need[j]), hi)
        while i < hi and not feasible(i, c2):
            i += 1
        while i > 0 and feasible(i - 1, c2, j) and feasible(i - 1, c2):
            i -= 1
        if i < hi:
            best = max(consts[i], c2)
    return best


def _outer_cases(r, gap, rho, scale):
    """The two cases of an envelope check past the radius rho, on
    term1 = 1 + r^2 and term2 a multiple of gap, the sigma profile minus
    nu: coefficient beta = (scale rho^4)^{1/2} with rhs beta^{1/2}, and
    coefficient rho^4 with rhs (rho^4 rho^6)^{1/6}."""
    beta = math.sqrt(scale * rho ** 4)
    one = np.ones_like(r)
    return [(1 + r ** 2, beta * gap, math.sqrt(beta) * one),
            (1 + r ** 2, rho ** 4 * gap, math.sqrt(rho ** 4 * rho ** 6) ** (1 / 3) * one)]


def _check_envelope_beta_med(rng):
    r = np.geomspace(1e-3, 80.0, 4000)
    sig = specfun.sigma(r)
    cases = []
    for r1 in (0.3, 0.6, 1.0):
        beta = math.sqrt(1.0 * r1 ** -4)
        cases.append((1 / r ** 2, beta * (specfun.sigma(r1) - sig),
                      math.sqrt(beta) * np.ones_like(r)))
    for r1 in (1.5, 3.0, 6.0):
        cases += _outer_cases(r, sig - specfun.sigma(r1), r1, 1.0)
    return max(_search_constants(*case) for case in cases), len(cases) * r.size


def _check_envelope_beta_high(rng):
    r = np.geomspace(1e-3, 80.0, 4000)
    sig = specfun.sigma(r)
    cases = []
    for k in (2, 3, 5):
        for r_k in (0.3, 0.7):
            beta = math.sqrt(k ** 3 * k ** 3 / r_k ** 4)
            cases.append((k * k / r ** 2, beta * (specfun.sigma(r_k) - sig),
                          math.sqrt(beta) * np.ones_like(r)))
        r_k = 1.2 * k ** 0.75
        cases += _outer_cases(r, sig / 2 - specfun.sigma(r_k), r_k, k ** 3)
    return max(_search_constants(*case) for case in cases), len(cases) * r.size


# -------------------------------------------------------------- deform

def _check_deform_f1(rng):
    # one row of z per angle
    r = np.geomspace(1e-2, 50.0, 400)
    thetas = np.linspace(0.03, math.pi / 4 * 0.99, 12)
    rot = np.array([complex(math.cos(th), math.sin(th)) for th in thetas])[:, None]
    neg_im = -specfun.F_complex("F1", r * rot).imag
    if neg_im.min() <= 0:
        return math.inf, r.size * thetas.size
    return ((rot.imag * np.minimum(r, 1 / r)) / neg_im).max(), r.size * thetas.size


def _check_deform_f5(rng):
    r = np.geomspace(1e-3, 100.0, 2000)
    worst = -math.inf
    thetas = np.linspace(0.02, math.pi / 4 * 0.99, 12)
    for th in thetas:
        lhs = specfun.F5(r, th)
        rhs = math.sin(th) * (1 - np.exp(-r * math.cos(th))
                              * (1 + r * math.cos(th)))
        worst = max(worst, float((rhs - lhs).max()))
    return max(worst, 0.0), r.size * thetas.size


def _check_deform_theta_invariance(rng):
    grid = make_grid(600, 30.0)
    worst = 0.0
    for k in (1, 2):
        eigs = []
        for th in (math.pi / 24, math.pi / 16):
            mode = ModeSpec(alpha=100.0, k=k, theta=th)
            shift = math.sqrt(abs(mode.beta_k) / 2) * (1 + 1j)
            eigs.append(solver.bottom_eigenvalue(operators.assemble_banded(mode, grid), shift))
        worst = max(worst, abs(eigs[0] - eigs[1]) / abs(eigs[0]))
    return worst, 2


def _moment_lhs(r, th):
    """The left side of the moment bound at the radii r, a row per angle
    of the column th: the s-integral over (0, 16] (4000 points) of
    k(r, s) s^{1/2} e^{-s^2 cos(2th)/4} sin(s^2 sin(2th)/8)^2, over
    |sin 2th| r^{1/2}.  The kernel k = (min(r,s)/max(r,s))^2 (rs)^{1/2}/4
    is semiseparable, as K_k is in apply_K: s^{5/2} r^{-3/2}/4 for
    s <= r and r^{5/2} s^{-3/2}/4 above, so each r reads two cumulative
    sums over s."""
    s = np.linspace(0.002, 16.0, 4000)
    c2, s2 = np.cos(2 * th), np.sin(2 * th)
    x = np.sqrt(s) * np.exp(-s ** 2 * c2 / 4) * np.sin(s ** 2 * s2 / 8) ** 2 * (s[1] - s[0])
    inner, outer = np.zeros((2, th.shape[0], s.size + 1))
    inner[:, 1:] = np.cumsum(s ** 2.5 * x, axis=-1)
    outer[:, :-1] = np.cumsum((s ** -1.5 * x)[:, ::-1], axis=-1)[:, ::-1]
    j = np.searchsorted(s, r, side="right")
    return (r ** -1.5 * inner[:, j] + r ** 2.5 * outer[:, j]) / (4 * np.abs(s2) * np.sqrt(r))


def _check_deform_moment_bound(rng):
    r = np.geomspace(0.05, 12.0, 60)
    th = np.array([math.pi / 24, math.pi / 16, math.pi / 12])[:, None]
    c2, s2 = np.cos(2 * th), np.sin(2 * th)
    rhs = np.abs(s2) * specfun.phi_moment(r ** 2 * c2 / 4) / (r ** 2 * c2 ** 4)
    worst = ((_moment_lhs(r, th) - rhs) / rhs).max()
    return max(worst, 0.0), 3 * r.size


def _check_deform_trig(rng):
    n = 1000
    a, b, c = rng.uniform(-10, 10, (3, n))
    lhs = np.sin(a - b - c) * np.sin(a)
    rhs = np.sin(a - b) * np.sin(a - c) - np.sin(b) * np.sin(c)
    return np.abs(lhs - rhs).max(), n


# id: (suite, tolerance, check); each tolerance is the acceptance bound of
# one lemma and is never loosened to make a check pass
_REGISTRY = {
    "wave.isometry": ("wave", 1e-4, _check_wave_isometry),
    "wave.intertwine": ("wave", 1e-3, _check_wave_intertwine),
    "wave.commutator": ("wave", 1e-2, _check_wave_commutator),
    "wave.conjugation": ("wave", 1e-2, _check_wave_conjugation),
    "coercive.A1": ("coercive", 1e-3, _check_coercive_a1),
    "coercive.A1f": ("coercive", 100.0, _check_coercive_a1f),
    "coercive.Ak": ("coercive", 100.0, _check_coercive_ak),
    "taylor.h": ("coercive", 1e-12, _check_taylor_h),
    "kernel.ode": ("kernel", 1e-2, _check_kernel_ode),
    "kernel.bounds": ("kernel", 1e-6, _check_kernel_bounds),
    "kernel.truncated": ("kernel", 1e-6, _check_kernel_truncated),
    "sigma.identity": ("envelope", 1e-6, _check_sigma_identity),
    "sigma.comparability": ("envelope", 100.0, _check_sigma_comparability),
    "envelope.betaMed": ("envelope", 100.0, _check_envelope_beta_med),
    "envelope.betaHigh": ("envelope", 100.0, _check_envelope_beta_high),
    "deform.F1": ("deform", 100.0, _check_deform_f1),
    "deform.F5": ("deform", 1e-12, _check_deform_f5),
    "deform.thetaInvariance": ("deform", 1e-2, _check_deform_theta_invariance),
    "deform.momentBound": ("deform", 1e-6, _check_deform_moment_bound),
    "deform.trig": ("deform", 1e-14, _check_deform_trig),
}

# each suite lists its checks in table order; suites come in the order of
# their first check
SUITES = {suite: [c for c, row in _REGISTRY.items() if row[0] == suite]
          for suite in dict.fromkeys(row[0] for row in _REGISTRY.values())}
SUITES["all"] = sorted(_REGISTRY)


def run_check(check_id, seed=2024):
    """The CheckReport of one check: its generator drawn from the seed and
    the id, its (measured, samples), its tolerance, and its wall time."""
    if check_id not in _REGISTRY:
        raise ValueError("unknown check id %r (known: %s)"
                         % (check_id, ", ".join(sorted(_REGISTRY))))
    if seed < 0:
        raise ValueError("seed must be a non-negative integer, got %d" % seed)
    _, tolerance, check = _REGISTRY[check_id]
    t0 = time.perf_counter()
    rng = np.random.default_rng([seed, zlib.crc32(check_id.encode())])
    measured, samples = check(rng)
    measured = float(measured)
    return CheckReport(check_id=check_id, passed=bool(measured <= tolerance),
                       measured=measured, tolerance=float(tolerance),
                       samples=int(samples),
                       elapsed_ms=(time.perf_counter() - t0) * 1e3)


def run_all(seed=2024, suite="all"):
    if suite not in SUITES:
        raise ValueError("unknown suite %r (known: %s)"
                         % (suite, ", ".join(sorted(SUITES))))
    return [run_check(c, seed) for c in sorted(SUITES[suite])]
