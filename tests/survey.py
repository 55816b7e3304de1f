"""Standing survey of the bounds over named case lists.

A case (k, beta_k, n) is the mode k at alpha = 8 pi beta_k / k, each bound
run by the library's protocol from bound_grid at base resolution n.  Every
case is held to eight properties, each a check that can fail:

- psi_above_scan: (Psi - P)/P <= 1e-6, P what oracle.psi_window_scan, a
  cold scan of 16 shifts over the window r_c [0.65, 1.35] on the bound's
  own final grid, refines to (inf if that scan finds no interior minimum);
- lambda_ratio: 0 < lambda*/beta_k < 1;
- psi_interior: every level's secant (analysis._slope_min) found a minimum
  inside the window; the value counts the levels whose secant did not;
- psi_over_sigma: Psi/Sigma <= 1;
- range_over_sigma: R/Sigma <= 1, R the numerical-range bound;
- off_record: how many of the case's Sigma, Psi and range bounds end on
  another grid_n or converged flag than RECORDED holds for the case, a
  case not recorded counting all three; passes at 0;
- sigma_closed: |Sigma/S - 1| <= 1e-5, S = Re sqrt(k^2 + 4 i beta_k)/2
  (closed_sigma), read where |beta_k| >= 1e3;
- range_closed: |R/C - 1| <= 1e-5, C the same large-beta value of the
  range bound at its angle (closed_range), read where |beta_k| >= 1e3 for
  |k| = 1 and 1e4 for |k| >= 2.

The ratios to Sigma are read only where |beta_k| >= 1.  Far from the axis
the mode operator is the Laguerre oscillator -d^2/dr^2 + (l^2 - 1/4)/r^2
+ r^2/16 - 1/2, l^2 = k^2 + 4 i beta_k, whose lowest eigenvalue l/2 is
the bottom of the spectrum at large |beta_k|; Sigma is within 1.25e-6
of S on every listed case from |beta_k| = 1e3 on, and 2.4e-4 off it at
1e2, where the closed form stops being a reference.  C is the bottom of that oscillator's
Hermitian part at the angle theta.  Both cost no solve.  RECORDED,
tests/survey_grids.json, holds every case of LARGE, SMALL and FLOOR as
recorded at commit 602010f, range's columns at ccbc347; like the goldens
it is never refrozen to absorb a change, and a change that moves an
entry says so.  The lists are the hand surveys the Psi fixes were
checked on: LARGE, the 220 bounds of the secant-stop survey (|beta_k| up
to 3e7), and SMALL, the 252 small-beta bounds (|k| up to 8).  FLOOR holds
|beta_k| = 5e5 to 1e8, where Psi's first level runs on more than the
base n points so that h <= |beta_k|^{-1/6}; without that floor its last
nine cases report a Psi below their finer grids' as converged.  SLICE is
the tier-1 test's share (tests/test_survey.py).  Lists only grow; a case
whose property fails is fixed in the program, never by editing the case.

The full lists run as a script, which prints per list the worst value of
each property, the cold smallest_singular_value calls per Psi bound (mean
and max), and, for Sigma and for range, how many refined levels
solver.follow_eigenvalue settled by inverse iteration and how many it
declined to its Arnoldi, with the band solves per settled level (mean
and max), and the Ritz checks (eigs of the Hessenberg) per Arnoldi call
on first levels and on declines (mean and max), and exits 1 if any
property fails:

    PYTHONPATH=src python tests/survey.py [LARGE] [SMALL] [FLOOR] [SLICE]
"""

import cmath
import json
import math
import os
import sys

import numpy as np

import oracle
from oseenspec import analysis, operators, solver
from oseenspec.grids import ModeSpec, make_grid

EIGHT_PI = 8 * math.pi

LARGE = [(k, sign * beta, n) for k in (1, -1, 2, 3, 5) for sign in (1, -1)
         for beta in (1, 3, 10, 1e2, 1e3, 1e4, 1e5, 1e6, 3e6, 1e7, 3e7) for n in (300, 600)]
SMALL = [(k, sign * beta, n) for k in (1, -1, 2, 3, 4, 5, 6, 7, 8) for sign in (1, -1)
         for beta in (1e-4, 1e-3, 1e-2, 0.1, 0.3, 1, 10) for n in (300, 600)]
FLOOR = [(k, sign * beta, n) for k in (1, -1, 2, 3, 5, 8) for sign in (1, -1)
         for beta in (5e5, 2e6, 1e7, 1e8) for n in (300, 600)] + [
    (7, 8.88e7, 300), (6, -1.73e7, 300), (8, 1.44e7, 300), (3, -1.65e7, 300),
    (1, 1.32e7, 300), (3, 8.79e7, 600), (5, -2.14e7, 300), (8, 9.94e7, 300),
    (1, 1.51e7, 300)]
# one case per regime: the secant-stop fault at 3e7, the window of three
# refine widths at (5, +-1e-2), the window floor 2 sqrt|k| at k = 8, the
# benchmark's decades, and three FLOOR cases that fail psi_above_scan
# without Psi's n floor
SLICE = [(1, 3e7, 600), (2, -3e7, 300), (5, 1e7, 300), (-1, 3e6, 300), (5, 1e-2, 300),
         (5, -1e-2, 300), (8, 0.1, 300), (7, 0.3, 600), (1, -1e-4, 300), (-1, -1e3, 300),
         (2, 1e4, 300), (3, -1e2, 300), (1, 1e5, 300), (2, 1, 600), (1, 1.32e7, 300),
         (1, 1.51e7, 300), (3, -1.65e7, 300)]
LISTS = {"LARGE": LARGE, "SMALL": SMALL, "FLOOR": FLOOR, "SLICE": SLICE}

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "survey_grids.json")) as fh:
    # (k, beta_k, n) -> ((grid_n, converged) of Sigma, the same of Psi, of range)
    RECORDED = {tuple(row[:3]): (tuple(row[3:5]), tuple(row[5:7]), tuple(row[7:]))
                for row in json.load(fh)["cases"]}

# property -> whether a value passes
PROPERTIES = {
    "psi_above_scan": lambda v: v <= 1e-6,
    "lambda_ratio": lambda v: 0.0 < v < 1.0,
    "psi_interior": lambda v: v == 0,
    "psi_over_sigma": lambda v: v <= 1.0,
    "range_over_sigma": lambda v: v <= 1.0,
    "off_record": lambda v: v == 0,
    "sigma_closed": lambda v: v <= 1e-5,
    "range_closed": lambda v: v <= 1e-5,
}


def closed_sigma(mode):
    """Sigma at large |beta_k|: Re sqrt(k^2 + 4 i beta_k)/2."""
    return cmath.sqrt(mode.k ** 2 + 4j * mode.beta_k).real / 2


def closed_range(mode):
    """The range bound at large |beta_k|, at the angle theta of
    analysis._range_mode: cos 2theta (sqrt(k^2 + 4 |beta_k| tan 2theta)
    + 1)/2 - 1/2."""
    two = 2 * abs(analysis._range_mode(mode).theta)
    root = math.sqrt(mode.k ** 2 + 4 * abs(mode.beta_k) * math.tan(two))
    return math.cos(two) * (root + 1) / 2 - 0.5


def measure(k, beta_k, n):
    """(values, calls, follows, checks): the property values of one case, by
    name (the ratios to Sigma only where |beta_k| >= 1, the closed forms
    only where |beta_k| >= 1e3, and range's at |k| >= 2 from 1e4), the cold
    smallest_singular_value calls of its Psi bound, and per quantity,
    "sigma" and "range", the band solves of each refined level's follow,
    None where it declined, and the Ritz checks of each Arnoldi call on
    first levels and on declines (range runs the Arnoldi and follows only
    for |k| >= 2)."""
    mode = ModeSpec(alpha=EIGHT_PI * beta_k / k, k=k)
    grid = analysis.bound_grid(mode, "psi", n)
    psi, calls, outside = _counted_psi(mode, grid)
    band = operators.assemble_banded(mode, make_grid(psi.grid_n, grid.r_max))
    fresh = oracle.psi_window_scan(band, mode)
    sigma, sigma_follows, sigma_checks = _followed(mode, "sigma",
                                                   analysis.bound_grid(mode, "sigma", n))
    rng, range_follows, range_checks = _followed(mode, "range",
                                                 analysis.bound_grid(mode, "range", n))
    out = {"psi_above_scan": math.inf if fresh is None else (psi.value - fresh[0]) / fresh[0],
           "lambda_ratio": psi.lambda_star / mode.beta_k, "psi_interior": outside,
           "off_record": off_record((k, beta_k, n), sigma, psi, rng)}
    if abs(beta_k) >= 1:
        out.update(psi_over_sigma=psi.value / sigma.value,
                   range_over_sigma=rng.value / sigma.value)
    if abs(beta_k) >= 1e3:
        out["sigma_closed"] = abs(sigma.value / closed_sigma(mode) - 1)
    if abs(beta_k) >= (1e3 if abs(k) == 1 else 1e4):
        out["range_closed"] = abs(rng.value / closed_range(mode) - 1)
    return out, calls, {"sigma": sigma_follows, "range": range_follows}, {
        "sigma": sigma_checks, "range": range_checks}


def off_record(case, sigma, psi, rng):
    """How many of the Sigma, Psi and range results' (grid_n, converged)
    differ from the case's RECORDED entry; all three, for a case not
    recorded."""
    got = [(res.grid_n, res.converged) for res in (sigma, psi, rng)]
    return sum(want != have for want, have in zip(RECORDED.get(case, (None,) * 3), got))


def _counted_psi(mode, grid):
    """pseudospectral_bound(mode, grid), its number of cold
    smallest_singular_value calls, and the number of its levels whose
    secant found no minimum inside the window."""
    cold, calls = solver.smallest_singular_value, []
    secant, outside = analysis._slope_min, []

    def counted(*args, **kwargs):
        calls.append(args)
        return cold(*args, **kwargs)

    def recorded(*args, **kwargs):
        hit = secant(*args, **kwargs)
        if not hit[3]:
            outside.append(args)
        return hit

    solver.smallest_singular_value, analysis._slope_min = counted, recorded
    try:
        return analysis.pseudospectral_bound(mode, grid), len(calls), len(outside)
    finally:
        solver.smallest_singular_value, analysis._slope_min = cold, secant


def _followed(mode, quantity, grid):
    """sweep_point(mode, quantity, grid); per refined level the band solves
    its solver.follow_eigenvalue took, None where it declined (ran the
    Arnoldi loop, solver._arnoldi); and the Ritz checks (Hessenberg eigs)
    of each Arnoldi call, "first" for first levels and "declined" for
    declined follows."""
    follow, lu, arnoldi, eig = (solver.follow_eigenvalue, solver._band_lu, solver._arnoldi,
                                np.linalg.eig)
    follows, checks, eigs, inside = [], {"first": [], "declined": []}, [], []

    def counted_eig(a):
        eigs.append(len(a))
        return eig(a)

    def counted_arnoldi(m, z, solve):
        before = len(eigs)
        try:
            return arnoldi(m, z, solve)
        finally:
            checks["declined" if inside else "first"].append(len(eigs) - before)

    def recorded(band, shift):
        solves = []

        def counting_lu(m, z):
            solve = lu(m, z)

            def counted(v, adjoint):
                solves.append(adjoint)
                return solve(v, adjoint)
            return counted

        declined = len(checks["declined"])
        solver._band_lu = counting_lu
        inside.append(shift)
        try:
            got = follow(band, shift)
        finally:
            solver._band_lu = lu
            inside.pop()
        follows.append(len(solves) if len(checks["declined"]) == declined else None)
        return got

    solver.follow_eigenvalue, solver._arnoldi, np.linalg.eig = recorded, counted_arnoldi, counted_eig
    try:
        return analysis.sweep_point(mode, quantity, grid), follows, checks
    finally:
        solver.follow_eigenvalue, solver._arnoldi, np.linalg.eig = follow, arnoldi, eig


def failures(case, values):
    return ["%s %s = %.6g" % (case, name, v) for name, v in values.items()
            if not PROPERTIES[name](v)]


def main(names):
    failed = False
    for name in names or LISTS:
        runs = {case: measure(*case) for case in LISTS[name]}
        values = {case: v for case, (v, *_) in runs.items()}
        for prop in PROPERTIES:
            seen = [(v[prop], case) for case, v in values.items() if prop in v]
            print("%-6s %-16s %3d cases" % (name, prop, len(seen))
                  + ("  min %.6g at %s  max %.6g at %s" % (min(seen) + max(seen))
                     if seen else ""))
        calls = [c for _, c, *_ in runs.values()]
        print("%-6s cold s_min calls per Psi bound: mean %.2f  max %d"
              % (name, sum(calls) / len(calls), max(calls)))
        for quantity, label in (("sigma", "Sigma"), ("range", "range")):
            follows = [f for _, _, fs, _ in runs.values() for f in fs[quantity]]
            settled = [f for f in follows if f is not None]
            print("%-6s refined %s levels: %d followed, %d declined; band solves per "
                  "followed level: mean %.2f  max %d"
                  % (name, label, len(settled), len(follows) - len(settled),
                     sum(settled) / max(len(settled), 1), max(settled, default=0)))
            parts = []
            for kind in ("first", "declined"):
                per = [c for *_, checks in runs.values() for c in checks[quantity][kind]]
                parts.append("%s %d calls, mean %.2f  max %d" % (
                    kind, len(per), sum(per) / max(len(per), 1), max(per, default=0)))
            print("%-6s Ritz checks per %s Arnoldi call: %s" % (name, label, "; ".join(parts)))
        bad = {case: failures(case, v) for case, v in values.items() if failures(case, v)}
        print("%s: %d of %d cases fail" % (name, len(bad), len(values)))
        for msgs in bad.values():
            print("  " + "; ".join(msgs))
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
