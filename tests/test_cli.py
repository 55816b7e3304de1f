import json
import math

import pytest

from oseenspec import analysis, cli, solver
from oseenspec.grids import ModeSpec

EIGHT_PI = 8 * math.pi


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_elapsed(csv_text):
    # elapsed_ms is wall time, the one column allowed to differ across runs
    return [line.rsplit(",", 1)[0] for line in csv_text.strip().splitlines()]


def test_csv_header_contract():
    assert cli.CSV_HEADER == ("alpha,k,n,r_max,quantity,value,"
                              "lambda_star,converged,elapsed_ms")


def test_spectrum_ground_state_row(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--alpha", "0", "--k", "2",
                           "--n", "300")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == cli.CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "0" and fields[1] == "2"
    assert fields[4] == "sigma"
    assert abs(float(fields[5]) - 1.0) < 2e-3
    assert fields[6] == ""
    assert fields[7] == "true"
    assert int(fields[8]) >= 0


def test_spectrum_json_meta(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--alpha", "0", "--k", "2",
                           "--n", "300", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["beta_k"] == 0.0
    assert doc["meta"]["nu_k"] is None
    assert doc["meta"]["version"]
    assert doc["rows"][0]["quantity"] == "sigma"
    assert doc["rows"][0]["lambda_star"] is None


def test_pseudo_selfadjoint_row(capsys):
    code, out, _ = run_cli(capsys, "pseudo", "--alpha", "0", "--k", "1",
                           "--n", "300")
    fields = out.strip().splitlines()[1].split(",")
    assert code == 0
    assert fields[4] == "psi"
    assert abs(float(fields[5]) - 1.5) < 2e-3
    assert float(fields[6]) == 0.0


def test_pseudo_flag_validation(capsys):
    # Psi's search has no flags: its scan shifts and its 1e-3 refinement are
    # constants, so argparse rejects these as unrecognized arguments
    for flag, value in (("--lambda-points", "64"), ("--refine-tol", "1e-3")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pseudo", "--alpha", "10", "--k", "1", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv,quantity,r_max", [
    pytest.param(("spectrum", "--alpha", repr(EIGHT_PI * 1e4), "--k", "2"), "sigma", None,
                 id="spectrum"),
    pytest.param(("spectrum", "--alpha", "-1e4", "--rmax", "35"), "sigma", 35.0,
                 id="spectrum-rmax"),
    pytest.param(("pseudo", "--alpha", "0", "--k", "1"), "psi", None, id="pseudo-k1-beta0"),
    pytest.param(("pseudo", "--alpha", repr(EIGHT_PI * 1e4), "--k", "2"), "psi", None,
                 id="pseudo-k2"),
    pytest.param(("sweep", "--alphas", "0,1e5", "--k", "2", "--quantity", "sigma"), "sigma",
                 None, id="sweep-sigma"),
    pytest.param(("sweep", "--alphas", "1e3,-1e5", "--quantity", "psi"), "psi", None,
                 id="sweep-psi"),
    pytest.param(("sweep", "--alphas", "1e3,1e5", "--k", "3", "--quantity", "range"), "range",
                 None, id="sweep-range"),
])
def test_bound_rows_are_sweep_points(capsys, argv, quantity, r_max):
    # spectrum, pseudo and sweep print sweep_point on the bound_grid grid
    code, out, _ = run_cli(capsys, *argv, "--n", "200", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for row in doc["rows"]:
        del row["elapsed_ms"]
        mode = ModeSpec(alpha=row["alpha"], k=row["k"])
        pt = analysis.sweep_point(mode, quantity,
                                  analysis.bound_grid(mode, quantity, 200, r_max))
        assert row == {"alpha": pt.mode.alpha, "k": pt.mode.k, "n": pt.grid_n,
                       "r_max": pt.r_max, "quantity": pt.quantity, "value": pt.value,
                       "lambda_star": pt.lambda_star, "converged": pt.converged}
    assert len(doc["rows"]) == (1 if argv[0] != "sweep" else 2)


def test_sweep_rows_deterministic(capsys):
    argv = ("sweep", "--alphas", "0,10", "--k", "1", "--quantity", "sigma",
            "--n", "300")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert strip_elapsed(out1) == strip_elapsed(out2)
    assert len(out1.strip().splitlines()) == 3


def test_sweep_fit_line(capsys):
    alphas = ",".join(repr(EIGHT_PI * b) for b in (1e2, 1e3, 1e4, 1e5))
    code, out, _ = run_cli(capsys, "sweep", "--alphas", alphas, "--k", "1",
                           "--quantity", "sigma", "--n", "300", "--fit")
    assert code == 0
    lines = out.strip().splitlines()
    # header + 4 rows + fit line; sigma rows carry no shift
    assert len(lines) == 6
    for line in lines[1:5]:
        assert line.split(",")[6] == ""
    fit = json.loads(lines[5])
    assert abs(fit["slope"] - 0.5) < 0.05
    assert fit["excluded_alphas"] == []


def test_sweep_fit_needs_spread(capsys):
    code, _, err = run_cli(capsys, "sweep", "--alphas", "5,5,5,5", "--k", "1",
                           "--quantity", "sigma", "--fit")
    assert code == 2 and "spanning" in err


def test_sweep_fit_rejects_zero_alpha_before_solving(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        pytest.fail("sweep_point ran before the fit guard")

    monkeypatch.setattr(analysis, "sweep_point", no_solve)
    code, _, err = run_cli(capsys, "sweep", "--alphas", "0,1e3,1e4,1e5",
                           "--quantity", "range", "--fit")
    assert code == 2 and "alpha = 0" in err


def test_sweep_fit_negative_alphas_match_library(capsys):
    alphas = [-1e3, -1e4, -1e5, -1e6]
    code, out, _ = run_cli(capsys, "sweep", "--alphas=" + ",".join(map(repr, alphas)),
                           "--quantity", "range", "--n", "300", "--fit",
                           "--format", "json")
    assert code == 0
    lib = analysis.scaling_sweep(alphas, 1, "range", n=300)
    assert json.loads(out)["fit"] == {
        "slope": lib.slope, "intercept": lib.intercept,
        "max_residual": lib.max_residual,
        "excluded_alphas": list(lib.excluded_alphas)}


def test_negative_values_in_exponent_form(capsys):
    # argparse alone reads -1e3 as a flag; the separate-token form must
    # print what the = form prints
    for argv in ((("spectrum", "--alpha"), "-1e3", ("--n", "64")),
                 (("sweep", "--alphas"), "-1e3,-1e4,-1e5,-1e6",
                  ("--quantity", "psi", "--n", "300", "--fit"))):
        head, value, tail = argv
        code1, out1, _ = run_cli(capsys, *head, value, *tail)
        code2, out2, _ = run_cli(capsys, *head[:-1], head[-1] + "=" + value, *tail)
        assert code1 == code2 == 0
        assert strip_elapsed(out1) == strip_elapsed(out2)
        assert out1.splitlines()[1].startswith("-1000,")


def test_sweep_json_document(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--alphas", "0,10", "--k", "2",
                           "--quantity", "sigma", "--n", "300",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [row["alpha"] for row in doc["rows"]] == [0.0, 10.0]
    assert doc["meta"]["points"][1]["beta_k"] == pytest.approx(20 / EIGHT_PI)
    assert "fit" not in doc


def test_psi_meta_reports_the_minimizing_nu(capsys):
    # nu_k of a psi result is lambda_star / beta_k, inside (0, 1)
    alpha = EIGHT_PI * 1e2
    code, out, _ = run_cli(capsys, "pseudo", "--alpha", repr(alpha), "--n", "300",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    meta, row = doc["meta"], doc["rows"][0]
    assert meta["nu_k"] == row["lambda_star"] / meta["beta_k"]
    assert 0.0 < meta["nu_k"] < 1.0


def test_quasimode_rows(capsys):
    code, out, _ = run_cli(capsys, "quasimode", "--alpha", repr(EIGHT_PI * 1e3))
    assert code == 0
    lines = out.strip().splitlines()
    r1 = lines[1].split(",")
    r2 = lines[2].split(",")
    assert r1[4] == "quasimode_ratio" and r2[4] == "quasimode_scaled"
    ratio, scaled = float(r1[5]), float(r2[5])
    # 36.3725 is the continuum residual ratio of the closed-form field
    # (see test_analysis.continuum_quasimode_ratio); n = 767 sits 0.93% below
    assert abs(ratio - 36.3725) / 36.3725 < 2e-2
    assert scaled == pytest.approx(ratio / 10.0, rel=1e-6)
    assert float(r1[6]) == pytest.approx(1e3 * 0.36716600, rel=1e-4)


def test_quasimode_reports_the_analysis_policy(capsys):
    # n, r_max and lambda_star come from analysis, for the beta_1 the CLI
    # derived from alpha, on the default grid and on an explicit one
    for extra, n, r_max in (((), None, None),
                            (("--n", "900", "--rmax", "14"), 900, 14.0)):
        code, out, _ = run_cli(capsys, "quasimode", "--alpha", repr(EIGHT_PI * 1e3),
                               "--format", "json", *extra)
        assert code == 0
        doc = json.loads(out)
        beta_1 = doc["meta"]["beta_1"]
        grid = analysis.quasimode_grid(beta_1, n=n, r_max=r_max)
        _, lam = analysis.quasimode_shift(beta_1)
        row = doc["rows"][0]
        assert (row["n"], row["r_max"], row["lambda_star"]) == (grid.n, grid.r_max, lam)


def test_quasimode_alpha_too_small(capsys):
    code, _, err = run_cli(capsys, "quasimode", "--alpha", "1")
    assert code == 2 and "8 pi" in err
    # beta_1 = 3 lies below the 27/8 threshold
    code, _, err = run_cli(capsys, "quasimode", "--alpha", repr(EIGHT_PI * 3.0))
    assert code == 2 and "8 pi" in err


def test_verify_wave_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "wave")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "4 checks passed"
    assert sum(1 for line in lines if " PASS " in line) == 4


def test_verify_json_document(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "deform",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["suite"] == "deform"
    assert len(doc["rows"]) == 5
    assert all(row["passed"] for row in doc["rows"])
    assert all(row["elapsed_ms"] >= 0 for row in doc["rows"])


def test_parser_is_built_once_and_dispatches_at_call_time(capsys, monkeypatch):
    # two subcommands through one parser print what each prints with a
    # parser of its own; a cmd_* replaced after the parser was built (as a
    # tracer replaces it) is the one that runs
    spectrum = ("spectrum", "--alpha", "0", "--k", "2", "--n", "300")
    verify = ("verify", "--suite", "wave")
    fresh = []
    for argv in (spectrum, verify):
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv)[1])
    cli._build_parser.cache_clear()
    reused = [run_cli(capsys, *argv)[1] for argv in (spectrum, verify)]
    assert cli._build_parser.cache_info().misses == 1
    assert strip_elapsed(reused[0]) == strip_elapsed(fresh[0])
    assert reused[1] == fresh[1]

    calls = []
    original = cli.cmd_bound

    def traced(args):
        calls.append(args.quantity)
        return original(args)

    monkeypatch.setattr(cli, "cmd_bound", traced)
    assert run_cli(capsys, *spectrum)[0] == 0
    assert calls == ["sigma"]
    assert cli._build_parser.cache_info().misses == 1


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--alphas", "1,2", "--quantity", "slope"])
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "spectrum", "--alpha", "0", "--k", "0")
    assert code == 2 and "k must be >= 1" in err


def test_domain_errors_exit_one(capsys, monkeypatch):
    # admissible inputs whose computation then fails are errors, not usage
    # errors: a solver failure inside a solve, and a fit left without
    # enough converged points
    def failing_solve(*args, **kwargs):
        raise solver.SolverError("band LU failed")

    monkeypatch.setattr(analysis, "spectral_bound", failing_solve)
    code, _, err = run_cli(capsys, "spectrum", "--alpha", "1e3")
    assert code == 1 and err.startswith("error:") and "band LU failed" in err

    def unconverged_point(mode, quantity, grid=None):
        return analysis.SweepPoint(mode=mode, quantity=quantity, value=math.nan,
                                   converged=False, grid_n=grid.n, r_max=30.0,
                                   lambda_star=None)

    monkeypatch.setattr(analysis, "sweep_point", unconverged_point)
    code, _, err = run_cli(capsys, "sweep", "--alphas", "1e3,1e4,1e5,1e6",
                           "--quantity", "sigma", "--fit")
    assert code == 1 and "not enough converged sweep points" in err


def test_inadmissible_inputs_exit_two_before_solving(capsys, monkeypatch):
    # ModeSpec, make_grid and the quasimode grid's support and resolution
    # checks reject these while the command is set up
    def no_solve(*args, **kwargs):
        pytest.fail("a solve ran before the inputs were checked")

    for name in ("spectral_bound", "quasimode", "sweep_point"):
        monkeypatch.setattr(analysis, name, no_solve)
    code, _, err = run_cli(capsys, "spectrum", "--alpha", "0", "--k", "2",
                           "--n", "300", "--rmax", "5")
    assert code == 2 and "rmax" in err
    code, _, err = run_cli(capsys, "quasimode", "--alpha", repr(EIGHT_PI * 1e3),
                           "--n", "8")
    assert code == 2 and "--n 8" in err
    for argv, flag, why in ((("--alpha", "2.5e7", "--rmax", "10"), "--rmax", "support"),
                            (("--alpha", "2.5e4", "--n", "100"), "--n", "too coarse"),
                            (("--alpha", repr(EIGHT_PI * 1e3), "--n", "120", "--rmax", "12"),
                             "--n", "too coarse")):
        code, _, err = run_cli(capsys, "quasimode", *argv)
        assert code == 2 and flag in err and why in err, (argv, err)
    code, _, err = run_cli(capsys, "sweep", "--alphas", "1e3,nan,1e4,1e5",
                           "--quantity", "range")
    assert code == 2 and "alpha must be finite" in err
