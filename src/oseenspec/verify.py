"""Executable registry of the identities and inequalities the solver rests on.

Every check reduces to a single scalar `measured` compared against a cap
`tolerance`: a violation magnitude for exact identities, a found or fitted
constant for inequalities stated up to constants, a drift for invariance
checks.  A check passes iff measured <= tolerance, so reports are uniform
and machine-comparable.  Random test fields are smooth decaying profiles
r^{k+1/2} e^{-r^2/8} (polynomial) with coefficients drawn from a seeded
generator, so every report is deterministic given the seed that
run_check and run_all take (default 2024).

Every check runs in O(n) per field: operators applies A_k, K_k, B_k, H
and the wave transforms through their tridiagonal and semiseparable
structure, the coercivity checks take the bottom of a weighted
tridiagonal by bisection, and kernel.bounds reads the top of G K_k G by
Lanczos on its product and K_k's positivity from its tridiagonal
inverse.  No check builds a dense matrix or calls a dense solver; the
tests hold these products to dense assemblies of their own oracle.
run_check records each check's wall time in CheckReport.elapsed_ms,
which equality ignores.
"""

import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import operators, solver, specfun
from .grids import Field, ModeSpec, make_grid, quadrature


@dataclass
class CheckReport:
    check_id: str
    passed: bool
    measured: float
    tolerance: float
    samples: int
    # wall time of the check, set by run_check; not part of the verdict
    elapsed_ms: float = field(default=0.0, compare=False)


def _rng(seed, check_id):
    return np.random.default_rng([seed, zlib.crc32(check_id.encode())])


def _report(check_id, measured, tolerance, samples):
    measured = float(measured)
    return CheckReport(check_id=check_id, passed=bool(measured <= tolerance),
                       measured=measured, tolerance=float(tolerance),
                       samples=int(samples))


def _seeded_values(grid, rng, k=1):
    r = grid.nodes
    coef = rng.standard_normal(4)
    poly = sum(c * (r / 10.0) ** j for j, c in enumerate(coef))
    return r ** (k + 0.5) * np.exp(-r ** 2 / 8) * poly


def _interior_rel(grid, lhs, rhs):
    mask = operators.interior_mask(grid)
    num = np.linalg.norm((lhs - rhs)[mask])
    den = max(np.linalg.norm(lhs[mask]), np.linalg.norm(rhs[mask]))
    return num / den


# ---------------------------------------------------------------- wave

def _check_wave_isometry(seed):
    grid = make_grid(2000, 40.0)
    rng = _rng(seed, "wave.isometry")
    chi = Field(grid, grid.nodes ** 1.5 * specfun.g(grid.nodes))
    worst = operators.apply_T(chi).norm() / chi.norm()
    nfields = 10
    for _ in range(nfields):
        w = Field(grid, _seeded_values(grid, rng))
        ttw = operators.apply_T(operators.apply_Tstar(w))
        worst = max(worst, np.linalg.norm(ttw.values - w.values)
                    / np.linalg.norm(w.values))
        proj = w.values - chi.values * (quadrature(w, chi).real / chi.norm() ** 2)
        tstw = operators.apply_Tstar(operators.apply_T(w))
        worst = max(worst, np.linalg.norm(tstw.values - proj)
                    / np.linalg.norm(w.values))
    return _report("wave.isometry", worst, 1e-4, nfields + 1)


def _check_wave_intertwine(seed):
    grid = make_grid(2000, 40.0)
    rng = _rng(seed, "wave.intertwine")
    sig = specfun.sigma(grid.nodes)
    worst = 0.0
    nfields = 10
    for _ in range(nfields):
        w = Field(grid, _seeded_values(grid, rng))
        lhs = operators.apply_T(operators.apply_B(1, w)).values
        rhs = sig * operators.apply_T(w).values
        worst = max(worst, np.abs(lhs - rhs).max() / np.abs(rhs).max())
    return _report("wave.intertwine", worst, 1e-3, nfields)


def _check_wave_commutator(seed):
    grid = make_grid(2000, 40.0)
    rng = _rng(seed, "wave.commutator")
    fpot = specfun.f(grid.nodes)
    worst = 0.0
    nfields = 10
    for _ in range(nfields):
        w = Field(grid, _seeded_values(grid, rng))
        tw = operators.apply_T(w)
        lhs = (operators.apply_T(operators.apply_A(1, w)).values
               - operators.apply_A(1, tw).values)
        worst = max(worst, _interior_rel(grid, lhs, fpot * tw.values))
    return _report("wave.commutator", worst, 1e-2, nfields)


def _check_wave_conjugation(seed):
    grid = make_grid(2000, 40.0)
    rng = _rng(seed, "wave.conjugation")
    mode = ModeSpec(alpha=8 * math.pi * 10, k=1, lam=0.3)
    band = operators.assemble_banded(mode, grid)
    worst = 0.0
    nfields = 10
    for _ in range(nfields):
        u = Field(grid, _seeded_values(grid, rng))
        v = operators.apply_Tstar(u)
        lhs = operators.apply_T(operators.apply_H(mode, v)).values
        rhs = operators.apply_L1(band, u).values
        worst = max(worst, _interior_rel(grid, lhs, rhs))
    return _report("wave.conjugation", worst, 1e-2, nfields)


# ------------------------------------------------------------ coercive

def _check_coercive_a1(seed):
    grid = make_grid(600, 30.0)
    low = solver._tridiagonal_eigenvalue(*operators.harmonic_bands(1, grid), 1)
    return _report("coercive.A1", abs(low - 0.5), 1e-3, grid.n)


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


def _check_coercive_a1f(seed):
    grid = make_grid(600, 30.0)
    r = grid.nodes
    hmin = specfun.h(np.linspace(0.01, 40.0, 8000)).min()
    if hmin <= 0:
        return _report("coercive.A1f", math.inf, 100.0, grid.n)
    diag, off = operators.harmonic_bands(1, grid)
    return _report("coercive.A1f",
                   _form_constant(diag + specfun.f(r), off, 1 / r ** 2 + r ** 2),
                   100.0, grid.n)


def _check_coercive_ak(seed):
    grid = make_grid(600, 30.0)
    r = grid.nodes
    worst = 0.0
    for k in (2, 3, 4, 5):
        diag, off = operators.harmonic_bands(k, grid)
        worst = max(worst, _form_constant(diag, off, k * k / r ** 2 + r ** 2))
    return _report("coercive.Ak", worst, 100.0, 4 * grid.n)


def _check_taylor_h(seed):
    exact = {2: 35 / 32, 3: -7 / 32, 4: 19 / 384}
    worst = 0.0
    for n, want in exact.items():
        worst = max(worst, abs(float(specfun.h_numerator_coefficient(n)) - want))
    for n in range(5, 31):
        a_n = (3 / 16 + n * (n - 1) / 4 - n / 2) / math.factorial(n)
        got = float(specfun.h_numerator_coefficient(n))
        worst = max(worst, abs(got - a_n))
        if a_n <= 0 or got <= 0:
            worst = math.inf
    u = np.linspace(0.05, 2.0, 40)
    series = sum(float(specfun.h_numerator_coefficient(n)) * u ** n
                 for n in range(2, 31))
    direct = (3 / 16 + u ** 2 / 4 - u / 2) * (np.exp(u) - u - 1) + u ** 2
    worst = max(worst, float(np.abs(series / direct - 1).max()))
    return _report("taylor.h", worst, 1e-12, 29 + u.size)


# -------------------------------------------------------------- kernel

def _check_kernel_ode(seed):
    grid = make_grid(600, 30.0)
    rng = _rng(seed, "kernel.ode")
    r = grid.nodes
    worst = 0.0
    for k in (1, 2, 3, 5):
        w = _seeded_values(grid, rng, k=k)
        kw = operators.apply_K(k, Field(grid, w))
        # -d^2/dr^2 + (k^2 - 1/4)/r^2 is A_k without r^2/16 - 1/2
        bessel_kw = operators.apply_A(k, kw).values - (r ** 2 / 16 - 0.5) * kw.values
        worst = max(worst, _interior_rel(grid, bessel_kw, w))
    return _report("kernel.ode", worst, 1e-2, 4)


def _check_kernel_bounds(seed):
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
    return _report("kernel.bounds", max(worst, 0.0), 1e-6, 4 * grid.n)


def _truncated_kernel_form(k, r_k, x):
    """x . K x for K the Nystrom matrix of the Dirichlet-truncated kernel
    on (0, r_k),

        (1/2|k|) [min(r/s, s/r)^{|k|} - (rs/r_k^2)^{|k|}] (rs)^{1/2}

    on the nodes below r_k, and a real Field x, in O(n): the apply_K form
    of x on the nodes below r_k minus the rank-one term
    (h/2k) (sum r^{k+1/2} x)^2 / r_k^{2k}.  No dense form of K is built
    here; the tests hold this to one."""
    grid = x.grid
    r = grid.nodes
    inside = Field(grid, np.where(r < r_k, x.values, 0.0))
    rank_one = (grid.h / (2 * k)) * (np.sum(r ** (k + 0.5) * inside.values) / r_k ** k) ** 2
    return float(inside.values @ operators.apply_K(k, inside).values) - rank_one


def _check_kernel_truncated(seed):
    grid = make_grid(2000, 30.0)
    rng = _rng(seed, "kernel.truncated")
    r = grid.nodes
    sig = specfun.sigma(r)
    gw = specfun.g(r)
    worst = -math.inf
    count = 0
    for k in (2, 3, 5):
        for r_k in (0.5, 1.0, 2.0, 5.0):
            nu = specfun.sigma(r_k)
            bump = np.where(r < r_k, (r * (r_k - r)) ** 2, 0.0)
            for _ in range(3):
                w = _seeded_values(grid, rng, k=k) * bump
                lhs = grid.h * _truncated_kernel_form(k, r_k, Field(grid, gw * w))
                rhs = (2.0 / (k + 1)) * grid.h * float(((sig - nu) * w) @ w)
                worst = max(worst, (lhs - rhs) / rhs)
                count += 1
    return _report("kernel.truncated", max(worst, 0.0), 1e-6, count)


# --------------------------------------------------------------- sigma

def _check_sigma_identity(seed):
    r = np.linspace(0.05, 6.0, 400)
    delta = 1e-5
    phi = lambda x: x ** 3 * specfun.sigma_prime(x)
    lhs = (phi(r + delta) - phi(r - delta)) / (2 * delta)
    rhs = -r ** 3 * specfun.g(r) ** 2
    worst = np.abs(lhs / rhs - 1).max()
    return _report("sigma.identity", worst, 1e-6, r.size)


def _check_sigma_comparability(seed):
    worst = 0.0
    count = 0
    for r0 in np.geomspace(0.01, 20.0, 35):
        s0 = abs(specfun.sigma_prime(r0))
        sig0 = specfun.sigma(r0)
        r = np.linspace(r0 / 2, 2 * r0, 81)
        ratio = np.abs(specfun.sigma_prime(r)) / s0
        worst = max(worst, ratio.max(), 1.0 / ratio.min())
        r = np.linspace(r0 * 1e-3, 2 * r0, 161)
        r = r[np.abs(r - r0) > 1e-3 * r0]
        low = np.abs(specfun.sigma(r) - sig0) / (np.abs(r - r0) * s0)
        worst = max(worst, 1.0 / low.min())
        count += 242
    for r0 in np.geomspace(0.01, 0.99, 15):
        s0 = abs(specfun.sigma_prime(r0))
        sig0 = specfun.sigma(r0)
        r = np.linspace(r0 / 2 + 1e-6, 2 * r0 + 1, 121)
        worst = max(worst, s0 / np.abs(specfun.sigma_prime(r)).min())
        rr = r[np.abs(r - r0) > 1e-3 * r0]
        low = np.abs(specfun.sigma(rr) - sig0) / (np.abs(rr - r0) * s0)
        worst = max(worst, 1.0 / low.min())
        count += 242
    for r0 in np.geomspace(1.0, 20.0, 15):
        sig0 = specfun.sigma(r0)
        r = np.linspace(1e-3, 3 * r0 + 10, 301)
        r = r[np.abs(r - r0) >= 1.0 / r0]
        low = np.abs(specfun.sigma(r) - sig0) * (1 + r) ** 4
        worst = max(worst, 1.0 / low.min())
        count += 301
    return _report("sigma.comparability", worst, 100.0, count)


# ----------------------------------------------------------- envelopes

def _search_constants(term1, term2, rhs):
    """Smallest max(c1, c2) with min(c1 term1 + c2 term2 - rhs) >= 0 over the
    sample grid, both constants searched over a log grid capped at 100.

    term1 > 0, so feasibility is monotone in c1: for each c2 in turn,
    upward until c2 reaches the best found, bisection finds the least
    feasible c1 of the grid below the best."""
    consts = np.geomspace(0.01, 100.0, 25)

    def feasible(c1, c2):
        return np.all(c1 * term1 + c2 * term2 >= rhs)

    best = math.inf
    for c2 in consts:
        if c2 >= best:
            break
        lo, hi = 0, int(np.searchsorted(consts, best))
        if hi == 0 or not feasible(consts[hi - 1], c2):
            continue
        hi -= 1
        while lo < hi:      # consts[hi] is feasible
            mid = (lo + hi) // 2
            if feasible(consts[mid], c2):
                hi = mid
            else:
                lo = mid + 1
        best = max(consts[hi], c2)
    return best


def _check_envelope_beta_med(seed):
    r = np.geomspace(1e-3, 80.0, 4000)
    sig = specfun.sigma(r)
    worst = 0.0
    count = 0
    for r1 in (0.3, 0.6, 1.0):
        nu = specfun.sigma(r1)
        beta = math.sqrt(1.0 * r1 ** -4)
        found = _search_constants(1 / r ** 2, beta * (nu - sig),
                                  math.sqrt(beta) * np.ones_like(r))
        worst = max(worst, found)
        count += 1
    for r1 in (1.5, 3.0, 6.0):
        nu = specfun.sigma(r1)
        beta = math.sqrt(1.0 * r1 ** 4)
        found = _search_constants(1 + r ** 2, beta * (sig - nu),
                                  math.sqrt(beta) * np.ones_like(r))
        worst = max(worst, found)
        beta = math.sqrt(r1 ** 4 * r1 ** 6)
        found = _search_constants(1 + r ** 2, r1 ** 4 * (sig - nu),
                                  beta ** (1 / 3) * np.ones_like(r))
        worst = max(worst, found)
        count += 2
    return _report("envelope.betaMed", worst, 100.0, count * r.size)


def _check_envelope_beta_high(seed):
    r = np.geomspace(1e-3, 80.0, 4000)
    sig = specfun.sigma(r)
    worst = 0.0
    count = 0
    for k in (2, 3, 5):
        for r_k in (0.3, 0.7):
            nu = specfun.sigma(r_k)
            beta = math.sqrt(k ** 3 * k ** 3 / r_k ** 4)
            found = _search_constants(k * k / r ** 2, beta * (nu - sig),
                                      math.sqrt(beta) * np.ones_like(r))
            worst = max(worst, found)
            count += 1
        r_k = 1.2 * k ** 0.75
        nu = specfun.sigma(r_k)
        beta = math.sqrt(k ** 3 * r_k ** 4)
        found = _search_constants(1 + r ** 2, beta * (sig / 2 - nu),
                                  math.sqrt(beta) * np.ones_like(r))
        worst = max(worst, found)
        beta = math.sqrt(r_k ** 4 * r_k ** 6)
        found = _search_constants(1 + r ** 2, r_k ** 4 * (sig / 2 - nu),
                                  beta ** (1 / 3) * np.ones_like(r))
        worst = max(worst, found)
        count += 2
    return _report("envelope.betaHigh", worst, 100.0, count * r.size)


# -------------------------------------------------------------- deform

def _check_deform_f1(seed):
    r = np.geomspace(1e-2, 50.0, 400)
    worst = 0.0
    thetas = np.linspace(0.03, math.pi / 4 * 0.99, 12)
    for th in thetas:
        z = r * complex(math.cos(th), math.sin(th))
        neg_im = -specfun.F_complex("F1", z).imag
        if neg_im.min() <= 0:
            return _report("deform.F1", math.inf, 100.0, r.size * thetas.size)
        c = (math.sin(th) * np.minimum(r, 1 / r)) / neg_im
        worst = max(worst, c.max())
    return _report("deform.F1", worst, 100.0, r.size * thetas.size)


def _check_deform_f5(seed):
    r = np.geomspace(1e-3, 100.0, 2000)
    worst = -math.inf
    thetas = np.linspace(0.02, math.pi / 4 * 0.99, 12)
    for th in thetas:
        lhs = specfun.F5(r, th)
        rhs = math.sin(th) * (1 - np.exp(-r * math.cos(th))
                              * (1 + r * math.cos(th)))
        worst = max(worst, float((rhs - lhs).max()))
    return _report("deform.F5", max(worst, 0.0), 1e-12, r.size * thetas.size)


def _check_deform_theta_invariance(seed):
    grid = make_grid(600, 30.0)
    worst = 0.0
    for k in (1, 2):
        eigs = []
        for th in (math.pi / 24, math.pi / 16):
            mode = ModeSpec(alpha=100.0, k=k, theta=th)
            shift = math.sqrt(abs(mode.beta_k) / 2) * (1 + 1j)
            eigs.append(solver.bottom_eigenvalue(operators.assemble_banded(mode, grid), shift))
        worst = max(worst, abs(eigs[0] - eigs[1]) / abs(eigs[0]))
    return _report("deform.thetaInvariance", worst, 1e-2, 2)


def _check_deform_moment_bound(seed):
    s = np.linspace(0.002, 16.0, 4000)
    ds = s[1] - s[0]
    r = np.geomspace(0.05, 12.0, 60)
    worst = -math.inf
    for th in (math.pi / 24, math.pi / 16, math.pi / 12):
        c2, s2 = math.cos(2 * th), math.sin(2 * th)
        g3sq = np.exp(-s ** 2 * c2 / 4) * np.sin(s ** 2 * s2 / 8) ** 2
        ratio = np.minimum.outer(r, s) / np.maximum.outer(r, s)
        kern = (ratio ** 2) * np.sqrt(np.outer(r, s)) / 4
        lhs = (kern @ (np.sqrt(s) * g3sq * ds)) / (abs(s2) * np.sqrt(r))
        a = r ** 2 * c2 / 4
        rhs = abs(s2) * specfun.phi_moment(a) / (r ** 2 * c2 ** 4)
        worst = max(worst, float(((lhs - rhs) / rhs).max()))
    return _report("deform.momentBound", max(worst, 0.0), 1e-6, 3 * r.size)


def _check_deform_trig(seed):
    rng = _rng(seed, "deform.trig")
    n = 1000
    a, b, c = rng.uniform(-10, 10, (3, n))
    lhs = np.sin(a - b - c) * np.sin(a)
    rhs = np.sin(a - b) * np.sin(a - c) - np.sin(b) * np.sin(c)
    return _report("deform.trig", np.abs(lhs - rhs).max(), 1e-14, n)


_REGISTRY = {
    "wave.isometry": _check_wave_isometry,
    "wave.intertwine": _check_wave_intertwine,
    "wave.commutator": _check_wave_commutator,
    "wave.conjugation": _check_wave_conjugation,
    "coercive.A1": _check_coercive_a1,
    "coercive.A1f": _check_coercive_a1f,
    "coercive.Ak": _check_coercive_ak,
    "taylor.h": _check_taylor_h,
    "kernel.ode": _check_kernel_ode,
    "kernel.bounds": _check_kernel_bounds,
    "kernel.truncated": _check_kernel_truncated,
    "sigma.identity": _check_sigma_identity,
    "sigma.comparability": _check_sigma_comparability,
    "envelope.betaMed": _check_envelope_beta_med,
    "envelope.betaHigh": _check_envelope_beta_high,
    "deform.F1": _check_deform_f1,
    "deform.F5": _check_deform_f5,
    "deform.thetaInvariance": _check_deform_theta_invariance,
    "deform.momentBound": _check_deform_moment_bound,
    "deform.trig": _check_deform_trig,
}

SUITES = {
    "wave": [c for c in _REGISTRY if c.startswith("wave.")],
    "coercive": [c for c in _REGISTRY
                 if c.startswith(("coercive.", "taylor."))],
    "kernel": [c for c in _REGISTRY if c.startswith("kernel.")],
    "envelope": [c for c in _REGISTRY
                 if c.startswith(("envelope.", "sigma."))],
    "deform": [c for c in _REGISTRY if c.startswith("deform.")],
}
SUITES["all"] = sorted(_REGISTRY)


def run_check(check_id, seed=2024):
    if check_id not in _REGISTRY:
        raise ValueError("unknown check id %r (known: %s)"
                         % (check_id, ", ".join(sorted(_REGISTRY))))
    t0 = time.perf_counter()
    rep = _REGISTRY[check_id](seed)
    rep.elapsed_ms = (time.perf_counter() - t0) * 1e3
    return rep


def run_all(seed=2024, suite="all"):
    if suite not in SUITES:
        raise ValueError("unknown suite %r (known: %s)"
                         % (suite, ", ".join(sorted(SUITES))))
    return [run_check(c, seed) for c in sorted(SUITES[suite])]
