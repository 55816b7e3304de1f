"""The tier-1 share of the standing survey (tests/survey.py): every case of
its SLICE holds every property; the full lists run as a script."""

import math
import types

import pytest

import survey


@pytest.mark.parametrize("case", survey.SLICE, ids=lambda c: "k%d-beta%g-n%d" % c)
def test_survey_slice_holds_every_property(case):
    values, calls, follows, checks = survey.measure(*case)
    k, beta = case[0], abs(case[1])
    want = {"psi_above_scan", "lambda_ratio", "psi_interior", "off_record"}
    want |= {"psi_over_sigma", "range_over_sigma"} if beta >= 1 else set()
    want |= {"sigma_closed"} if beta >= 1e3 else set()
    want |= {"range_closed"} if beta >= (1e3 if abs(k) == 1 else 1e4) else set()
    assert set(values) == want
    assert survey.failures(case, values) == [] and calls > 0
    # each Sigma bound refines at least once, range follows only for
    # |k| >= 2, and a settled follow took one band solve at least
    assert follows["sigma"] and bool(follows["range"]) == (abs(case[0]) >= 2)
    assert all(f is None or f > 0 for fs in follows.values() for f in fs)
    # Sigma's first level runs the Arnoldi once, range's for |k| >= 2, each
    # declined follow runs it once more, and each call stops at a Ritz check
    assert len(checks["sigma"]["first"]) == 1
    assert len(checks["range"]["first"]) == (abs(case[0]) >= 2)
    for quantity, kinds in checks.items():
        assert len(kinds["declined"]) == follows[quantity].count(None)
        assert all(c >= 1 for c in kinds["first"] + kinds["declined"])


def test_survey_properties_can_fail():
    # each property flags a value just past its bound; the lists hold the
    # surveys' 220 and 252 cases and the floor's 105 at least, and the
    # slice is drawn from them
    case = (1, 1e2, 300)
    bad = {"psi_above_scan": 1.1e-6, "lambda_ratio": 1.0, "psi_interior": 1,
           "psi_over_sigma": 1.0 + 1e-12, "range_over_sigma": math.inf, "off_record": 1,
           "sigma_closed": 1.1e-5, "range_closed": 1.1e-5}
    assert len(survey.failures(case, bad)) == 8 == len(survey.PROPERTIES)
    assert len(survey.failures(case, {"lambda_ratio": 0.0})) == 1
    good = {"psi_above_scan": 1e-6, "lambda_ratio": 0.5, "psi_interior": 0,
            "psi_over_sigma": 1.0, "range_over_sigma": 0.9, "off_record": 0,
            "sigma_closed": 1e-5, "range_closed": 1e-5}
    assert survey.failures(case, good) == []
    assert len(survey.LARGE) >= 220 and len(survey.SMALL) >= 252
    assert len(survey.FLOOR) >= 105
    assert set(survey.SLICE) <= set(survey.LARGE) | set(survey.SMALL) | set(survey.FLOOR)


def test_survey_record_covers_every_case_and_counts_each_change():
    # every case of the lists has its recorded grid_n and converged, for
    # Sigma, Psi and range, and off_record counts each pair that moved
    cases = set(survey.LARGE) | set(survey.SMALL) | set(survey.FLOOR)
    assert set(survey.RECORDED) == cases
    case = (1, 1e2, 300)
    (sigma_n, sigma_ok), (psi_n, psi_ok), (range_n, range_ok) = survey.RECORDED[case]

    def result(n, ok):
        return types.SimpleNamespace(grid_n=n, converged=ok)

    sigma, psi, rng = result(sigma_n, sigma_ok), result(psi_n, psi_ok), result(range_n, range_ok)
    assert survey.off_record(case, sigma, psi, rng) == 0
    assert survey.off_record(case, result(2 * sigma_n, sigma_ok), psi, rng) == 1
    assert survey.off_record(case, sigma, result(psi_n, not psi_ok), rng) == 1
    assert survey.off_record(case, sigma, psi, result(2 * range_n, range_ok)) == 1
    assert survey.off_record(case, sigma, psi, result(range_n, not range_ok)) == 1
    assert survey.off_record(case, result(2 * sigma_n, sigma_ok), psi,
                             result(range_n, not range_ok)) == 2
    assert survey.off_record((1, 1e2, 333), sigma, psi, rng) == 3
