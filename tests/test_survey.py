"""The tier-1 share of the standing survey (tests/survey.py): every case of
its SLICE holds every property; the full lists run as a script."""

import math

import pytest

import survey


@pytest.mark.parametrize("case", survey.SLICE, ids=lambda c: "k%d-beta%g-n%d" % c)
def test_survey_slice_holds_every_property(case):
    values = survey.measure(*case)
    sigma_read = abs(case[1]) >= 1
    assert set(values) == (set(survey.PROPERTIES) if sigma_read
                           else {"psi_above_scan", "lambda_ratio"})
    assert survey.failures(case, values) == []


def test_survey_properties_can_fail():
    # each property flags a value just past its bound; the lists hold the
    # surveys' 220 and 252 cases at least, and the slice is drawn from them
    case = (1, 1e2, 300)
    bad = {"psi_above_scan": 1.1e-6, "lambda_ratio": 1.0, "psi_over_sigma": 1.0 + 1e-12,
           "range_over_sigma": math.inf}
    assert len(survey.failures(case, bad)) == 4
    assert len(survey.failures(case, {"lambda_ratio": 0.0})) == 1
    good = {"psi_above_scan": 1e-6, "lambda_ratio": 0.5, "psi_over_sigma": 1.0,
            "range_over_sigma": 0.9}
    assert survey.failures(case, good) == []
    assert (len(survey.LARGE), len(survey.SMALL)) >= (220, 252)
    assert set(survey.SLICE) <= set(survey.LARGE) | set(survey.SMALL)
