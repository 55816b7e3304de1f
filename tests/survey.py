"""Standing survey of the bounds over named case lists.

A case (k, beta_k, n) is the mode k at alpha = 8 pi beta_k / k, each bound
run by the library's protocol from bound_grid at base resolution n.  Every
case is held to four properties, each a check that can fail:

- psi_above_scan: (Psi - P)/P <= 1e-6, P what analysis._scan_psi, run
  fresh on the window of the bound's own final grid, refines to (inf if
  that scan finds no interior minimum);
- lambda_ratio: 0 < lambda*/beta_k < 1;
- psi_over_sigma: Psi/Sigma <= 1;
- range_over_sigma: R/Sigma <= 1, R the numerical-range bound.

Sigma and R are read only where |beta_k| >= 1.  The lists are the hand
surveys the Psi fixes were checked on: LARGE, the 220 bounds of the
secant-stop survey (|beta_k| up to 3e7), and SMALL, the 252 small-beta
bounds (|k| up to 8).  SLICE is the tier-1 test's share
(tests/test_survey.py).  Lists only grow; a case whose property fails is
fixed in the program, never by editing the case.

The full lists run as a script, which prints the worst value of each
property per list and exits 1 if any property fails:

    PYTHONPATH=src python tests/survey.py [LARGE] [SMALL] [SLICE]
"""

import math
import sys

from oseenspec import analysis, operators
from oseenspec.grids import ModeSpec, make_grid

EIGHT_PI = 8 * math.pi

LARGE = [(k, sign * beta, n) for k in (1, -1, 2, 3, 5) for sign in (1, -1)
         for beta in (1, 3, 10, 1e2, 1e3, 1e4, 1e5, 1e6, 3e6, 1e7, 3e7) for n in (300, 600)]
SMALL = [(k, sign * beta, n) for k in (1, -1, 2, 3, 4, 5, 6, 7, 8) for sign in (1, -1)
         for beta in (1e-4, 1e-3, 1e-2, 0.1, 0.3, 1, 10) for n in (300, 600)]
# one case per regime: the secant-stop fault at 3e7, the window of three
# refine widths at (5, +-1e-2), the window floor 2 sqrt|k| at k = 8, and
# the benchmark's decades
SLICE = [(1, 3e7, 600), (2, -3e7, 300), (5, 1e7, 300), (-1, 3e6, 300), (5, 1e-2, 300),
         (5, -1e-2, 300), (8, 0.1, 300), (7, 0.3, 600), (1, -1e-4, 300), (-1, -1e3, 300),
         (2, 1e4, 300), (3, -1e2, 300), (1, 1e5, 300), (2, 1, 600)]
LISTS = {"LARGE": LARGE, "SMALL": SMALL, "SLICE": SLICE}

# property -> whether a value passes
PROPERTIES = {
    "psi_above_scan": lambda v: v <= 1e-6,
    "lambda_ratio": lambda v: 0.0 < v < 1.0,
    "psi_over_sigma": lambda v: v <= 1.0,
    "range_over_sigma": lambda v: v <= 1.0,
}


def measure(k, beta_k, n):
    """The property values of one case, by name (the Sigma ones only where
    |beta_k| >= 1)."""
    mode = ModeSpec(alpha=EIGHT_PI * beta_k / k, k=k)
    grid = analysis.bound_grid(mode, "psi", n)
    psi = analysis.pseudospectral_bound(mode, grid)
    band = operators.assemble_banded(mode, make_grid(psi.grid_n, grid.r_max))
    fresh = analysis._scan_psi(band, analysis._psi_window(mode))
    out = {"psi_above_scan": math.inf if fresh is None else (psi.psi_bound - fresh[0]) / fresh[0],
           "lambda_ratio": psi.lambda_star / mode.beta_k}
    if abs(beta_k) >= 1:
        sigma = analysis.sweep_point(mode, "sigma", analysis.bound_grid(mode, "sigma", n)).value
        rng = analysis.sweep_point(mode, "range", analysis.bound_grid(mode, "range", n)).value
        out.update(psi_over_sigma=psi.psi_bound / sigma, range_over_sigma=rng / sigma)
    return out


def failures(case, values):
    return ["%s %s = %.6g" % (case, name, v) for name, v in values.items()
            if not PROPERTIES[name](v)]


def main(names):
    failed = False
    for name in names or LISTS:
        values = {case: measure(*case) for case in LISTS[name]}
        for prop in PROPERTIES:
            seen = [(v[prop], case) for case, v in values.items() if prop in v]
            print("%-6s %-16s %3d cases  min %.6g at %s  max %.6g at %s"
                  % ((name, prop, len(seen)) + min(seen) + max(seen)))
        bad = {case: failures(case, v) for case, v in values.items() if failures(case, v)}
        print("%s: %d of %d cases fail" % (name, len(bad), len(values)))
        for msgs in bad.values():
            print("  " + "; ".join(msgs))
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
