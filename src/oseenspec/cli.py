"""Command-line front end: bounds, sweeps, quasimode certificates, checks.

Result rows go to standard output, as CSV under the header

    alpha,k,n,r_max,quantity,value,lambda_star,converged,elapsed_ms

or as a single JSON document {"rows": [...], "fit": {...}?, "meta": {...}}.
spectrum (sigma), pseudo (psi) and sweep (any quantity) print one row
form: analysis.sweep_point on the grid analysis.bound_grid gives for the
mode, quantity, --n and --rmax.
Real values carry 9 significant digits, randomness is seeded, and rows
are emitted in input order, so identical invocations print identical
values (elapsed_ms is wall time and is the one column that varies).
beta_k and nu_k are derived from alpha and echoed in the JSON meta block,
never accepted as inputs.  Diagnostics go to standard error.  Exit codes:
0 on success, 1 when a computation fails or a verification check does
not pass, 2 on usage errors.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
import time

from . import __version__, analysis, solver, verify
from .grids import ModeSpec

CSV_HEADER = "alpha,k,n,r_max,quantity,value,lambda_star,converged,elapsed_ms"


class UsageError(Exception):
    """Bad argument values (well-formed flags, inadmissible content)."""


def _fmt(x):
    return "%.9g" % x


def _row(alpha, k, n, r_max, quantity, value, lambda_star, converged, elapsed_ms):
    return {"alpha": float(alpha), "k": int(k), "n": int(n),
            "r_max": float(r_max), "quantity": quantity, "value": float(value),
            "lambda_star": None if lambda_star is None else float(lambda_star),
            "converged": bool(converged), "elapsed_ms": int(elapsed_ms)}


def _csv_line(row):
    lam = "" if row["lambda_star"] is None else _fmt(row["lambda_star"])
    return ",".join([_fmt(row["alpha"]), "%d" % row["k"], "%d" % row["n"],
                     _fmt(row["r_max"]), row["quantity"], _fmt(row["value"]),
                     lam, "true" if row["converged"] else "false",
                     "%d" % row["elapsed_ms"]])


def _emit(rows, fmt, meta, fit=None, out=None):
    out = out or sys.stdout
    if fmt == "json":
        doc = {"rows": rows, "meta": meta}
        if fit is not None:
            doc["fit"] = fit
        print(json.dumps(doc), file=out)
    else:
        print(CSV_HEADER, file=out)
        for row in rows:
            print(_csv_line(row), file=out)
        if fit is not None:
            print(json.dumps(fit), file=out)


def _mode_meta(mode, lambda_star=None):
    """alpha, k, beta_k and nu_k; a psi result's nu_k is lambda_star/beta_k."""
    if lambda_star is not None:
        mode = ModeSpec(alpha=mode.alpha, k=mode.k, lam=lambda_star)
    return {"alpha": mode.alpha, "k": mode.k,
            "beta_k": mode.beta_k, "nu_k": mode.nu_k}


def _meta(**extra):
    meta = {"version": __version__, "grid_policy": analysis.GRID_POLICY}
    meta.update(extra)
    return meta


@contextlib.contextmanager
def _inputs(args, *flags):
    """Around the building of a command's ModeSpecs and grids, before any
    solve, or around verify.run_all, whose checks fix their own inputs:
    after the CLI-only k >= 1 check, the ValueError of an inadmissible
    value (ModeSpec, bound_grid, check_fit_alphas, quasimode_grid, the
    seed of run_check) becomes a usage error naming the flags as typed."""
    if getattr(args, "k", 1) < 1:
        raise UsageError("k must be >= 1, got %d" % args.k)
    try:
        yield
    except ValueError as exc:
        given = " ".join("--%s %s" % (flag.replace("_", "-"), getattr(args, flag))
                         for flag in flags if getattr(args, flag) is not None)
        raise UsageError("%s: %s" % (given, exc)) from None


def _points(quantity, modes, grids):
    """sweep_point of each mode from its grid, with its rows.  Points run
    one after another, so each elapsed_ms is the point's own time."""
    points, rows = [], []
    for mode, grid in zip(modes, grids):
        t0 = time.perf_counter()
        pt = analysis.sweep_point(mode, quantity, grid)
        ms = round(1000 * (time.perf_counter() - t0))
        points.append(pt)
        rows.append(_row(mode.alpha, mode.k, pt.grid_n, pt.r_max, quantity,
                         pt.value, pt.lambda_star, pt.converged, ms))
    return points, rows


def cmd_bound(args):
    with _inputs(args, "alpha", "n", "rmax"):
        mode = ModeSpec(alpha=args.alpha, k=args.k)
        grid = analysis.bound_grid(mode, args.quantity, args.n, args.rmax)
    (pt,), rows = _points(args.quantity, [mode], [grid])
    _emit(rows, args.format, _meta(**_mode_meta(mode, pt.lambda_star)))
    return 0


def cmd_sweep(args):
    try:
        alphas = [float(tok) for tok in args.alphas.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError("bad --alphas list: %s" % exc) from None
    if not alphas:
        raise UsageError("--alphas is empty")
    with _inputs(args, "alphas", "n"):
        modes = [ModeSpec(alpha=alpha, k=args.k) for alpha in alphas]
        grids = [analysis.bound_grid(mode, args.quantity, args.n) for mode in modes]
        if args.fit:
            analysis.check_fit_alphas(alphas)
    points, rows = _points(args.quantity, modes, grids)
    fit = None
    if args.fit:
        res = analysis.fit_sweep(points)
        fit = {"slope": res.slope, "intercept": res.intercept,
               "max_residual": res.max_residual,
               "excluded_alphas": list(res.excluded_alphas)}
    meta = _meta(quantity=args.quantity, n_base=args.n,
                 points=[_mode_meta(pt.mode, pt.lambda_star) for pt in points])
    _emit(rows, args.format, meta, fit=fit)
    return 0


def cmd_quasimode(args):
    with _inputs(args, "alpha", "n", "rmax"):
        beta_1 = ModeSpec(alpha=args.alpha, k=1).beta_k
        r1, lam = analysis.quasimode_shift(beta_1)
        grid = analysis.quasimode_grid(beta_1, n=args.n, r_max=args.rmax)
    t0 = time.perf_counter()
    v, ratio = analysis.quasimode(beta_1, grid)
    ms = round(1000 * (time.perf_counter() - t0))
    scaled = ratio / abs(beta_1) ** (1.0 / 3.0)
    rows = [_row(args.alpha, 1, grid.n, grid.r_max, "quasimode_ratio",
                 ratio, lam, True, ms),
            _row(args.alpha, 1, grid.n, grid.r_max, "quasimode_scaled",
                 scaled, None, True, 0)]
    _emit(rows, args.format, _meta(beta_1=beta_1, r_1=r1, lam=lam))
    return 0


def cmd_verify(args):
    with _inputs(args, "seed"):
        reports = verify.run_all(args.seed, suite=args.suite)
    failed = [r for r in reports if not r.passed]
    if args.format == "json":
        doc = {"rows": [dataclasses.asdict(r) for r in reports],
               "meta": _meta(suite=args.suite, seed=args.seed)}
        print(json.dumps(doc))
    else:
        for r in reports:
            print("%-22s %s  measured=%.6g  tolerance=%.6g  samples=%d"
                  % (r.check_id, "PASS" if r.passed else "FAIL",
                     r.measured, r.tolerance, r.samples))
        if failed:
            print("%d of %d checks failed" % (len(failed), len(reports)))
        else:
            print("%d checks passed" % len(reports))
    return 1 if failed else 0


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process.  Each subcommand names
    its cmd_* function in args.run, looked up when main runs it, so a
    wrapper installed over a cmd_* function after the first call is the
    one called."""
    parser = argparse.ArgumentParser(
        prog="oseenspec",
        description="Spectral and pseudospectral bounds for the radial "
                    "vortex mode family.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_k=True):
        p.add_argument("--alpha", type=float, required=True,
                       help="circulation parameter (beta_k = alpha k / 8 pi)")
        if with_k:
            p.add_argument("--k", type=int, default=1,
                           help="angular mode number, k >= 1 (default 1)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    for name, quantity, about in (
            ("spectrum", "sigma", "smallest real part of the mode spectrum"),
            ("pseudo", "psi", "pseudospectral bound min_lam s_min(H - i lam)")):
        p = sub.add_parser(name, help=about)
        add_common(p)
        p.add_argument("--n", type=int, default=600)
        p.add_argument("--rmax", type=float, default=None)
        p.set_defaults(run="cmd_bound", quantity=quantity)

    p = sub.add_parser("sweep", help="bounds across alphas, optionally with a log-log fit")
    p.add_argument("--alphas", required=True, help="comma-separated alpha values")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--quantity", choices=analysis.QUANTITIES, required=True)
    p.add_argument("--n", type=int, default=600)
    p.add_argument("--fit", action="store_true",
                   help="append the fitted slope as a JSON line")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(run="cmd_sweep")

    p = sub.add_parser("quasimode", help="localized test field and its residual ratio")
    add_common(p, with_k=False)
    p.add_argument("--n", type=int, default=None,
                   help="grid size (default: resolves the support)")
    p.add_argument("--rmax", type=float, default=None)
    p.set_defaults(run="cmd_quasimode")

    p = sub.add_parser("verify", help="run the identity and inequality registry")
    p.add_argument("--suite", choices=sorted(verify.SUITES), default="all")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run="cmd_verify")
    return parser


def _is_number_list(token):
    try:
        [float(part) for part in token.split(",")]
    except ValueError:
        return False
    return True


def _join_negative_values(argv):
    """argparse takes only plain decimals like -1000 for negative numbers
    and reads a token like -1e3 as an unknown flag, so a token that starts
    with '-' and parses as a number or a comma-separated list of numbers
    is joined to the flag before it: --alpha -1e3 becomes --alpha=-1e3."""
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and tok.startswith("-") and _is_number_list(tok)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return globals()[args.run](args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, solver.SolverError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
