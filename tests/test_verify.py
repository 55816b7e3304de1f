import math

import numpy as np
import pytest

import oracle
from oseenspec import specfun, verify
from oseenspec.grids import Field, make_grid


def test_suite_map_covers_registry():
    assert sorted(verify.SUITES["all"]) == sorted(verify._REGISTRY)
    union = set()
    for name, ids in verify.SUITES.items():
        if name == "all":
            continue
        for check_id in ids:
            assert check_id in verify._REGISTRY
            union.add(check_id)
    assert union == set(verify._REGISTRY)
    assert len(verify.SUITES["wave"]) == 4


# the table of checks: each tolerance is the acceptance bound of one lemma,
# so a loosened bound or a moved check shows as an edit here
TABLE = [
    ("wave.isometry", "wave", 1e-4),
    ("wave.intertwine", "wave", 1e-3),
    ("wave.commutator", "wave", 1e-2),
    ("wave.conjugation", "wave", 1e-2),
    ("coercive.A1", "coercive", 1e-3),
    ("coercive.A1f", "coercive", 100.0),
    ("coercive.Ak", "coercive", 100.0),
    ("taylor.h", "coercive", 1e-12),
    ("kernel.ode", "kernel", 1e-2),
    ("kernel.bounds", "kernel", 1e-6),
    ("kernel.truncated", "kernel", 1e-6),
    ("sigma.identity", "envelope", 1e-6),
    ("sigma.comparability", "envelope", 100.0),
    ("envelope.betaMed", "envelope", 100.0),
    ("envelope.betaHigh", "envelope", 100.0),
    ("deform.F1", "deform", 100.0),
    ("deform.F5", "deform", 1e-12),
    ("deform.thetaInvariance", "deform", 1e-2),
    ("deform.momentBound", "deform", 1e-6),
    ("deform.trig", "deform", 1e-14),
]


def test_registry_is_the_pinned_table():
    rows = [(cid, suite, tol) for cid, (suite, tol, _) in verify._REGISTRY.items()]
    assert rows == TABLE
    for cid, suite, tol in TABLE:
        assert cid in verify.SUITES[suite]
        assert verify.run_check(cid).tolerance == tol


@pytest.mark.parametrize("check_id", [row[0] for row in TABLE])
def test_negative_seed_rejected_before_the_check_runs(check_id, monkeypatch):
    ran = []
    suite, tol, check = verify._REGISTRY[check_id]
    monkeypatch.setitem(verify._REGISTRY, check_id,
                        (suite, tol, lambda rng: ran.append(rng)))
    with pytest.raises(ValueError, match="seed"):
        verify.run_check(check_id, seed=-1)
    assert ran == []


def test_unknown_ids_rejected():
    with pytest.raises(ValueError):
        verify.run_check("wave.nope")
    with pytest.raises(ValueError):
        verify.run_all(suite="everything")


def test_report_shape_and_pass_rule():
    for check_id in ("deform.trig", "taylor.h", "sigma.identity"):
        rep = verify.run_check(check_id)
        assert rep.check_id == check_id
        assert rep.samples > 0
        assert rep.passed == (rep.measured <= rep.tolerance)
        assert rep.passed


def test_deterministic_given_seed():
    a = verify.run_check("kernel.truncated", seed=2024)
    b = verify.run_check("kernel.truncated", seed=2024)
    assert a == b
    # a different seed draws different fields but the inequality still holds
    c = verify.run_check("kernel.truncated", seed=7)
    assert c.passed


def test_elapsed_time_is_reported_but_not_compared():
    rep = verify.run_check("deform.trig")
    assert rep.elapsed_ms > 0
    other = verify.run_check("deform.trig")
    other.elapsed_ms = rep.elapsed_ms + 1.0
    assert other == rep


@pytest.mark.parametrize("k", [2, 3, 5])
def test_truncated_kernel_form_matches_assembly(k):
    # the O(n) form (apply_K minus the rank-one term) against the dense
    # Dirichlet-truncated kernel, with the field nonzero past r_k too
    grid = make_grid(1200, 30.0)
    r = grid.nodes
    rng = np.random.default_rng(k)
    x = rng.standard_normal(grid.n) * specfun.g(r)
    for r_k in (0.5, 2.0, 5.0, 29.0):
        dense = oracle.assemble_K_truncated(k, r_k, grid).data
        want = float(x @ dense @ x)
        got = verify._truncated_kernel_form(k, r_k, Field(grid, x))
        scale = float(np.abs(x) @ np.abs(dense) @ np.abs(x))
        assert abs(got - want) <= 1e-12 * scale, (r_k, got, want)
        assert math.isfinite(got)


def test_seeded_block_is_the_single_draws_in_turn():
    # a check's (count, n) block of seeded fields holds, bit for bit, the
    # fields count draws of one field each give from the same generator
    grid = make_grid(600, 30.0)
    for k in (1, 3):
        block = verify._seeded_values(grid, np.random.default_rng(11), 10, k)
        rng = np.random.default_rng(11)
        singles = [verify._seeded_values(grid, rng, 1, k)[0] for _ in range(10)]
        assert block.shape == (10, grid.n)
        assert all(np.array_equal(row, one) for row, one in zip(block, singles))


def test_moment_bound_kernel_matches_the_dense_kernel():
    # the two cumulative sums of _moment_lhs against the dense 60 x 4000
    # kernel matrix the check multiplied by before
    r = np.geomspace(0.05, 12.0, 60)
    th = np.array([math.pi / 24, math.pi / 16, math.pi / 12])
    got = verify._moment_lhs(r, th[:, None])
    s = np.linspace(0.002, 16.0, 4000)
    kern = (np.minimum.outer(r, s) / np.maximum.outer(r, s)) ** 2 * np.sqrt(np.outer(r, s)) / 4
    for row, t in zip(got, th):
        c2, s2 = math.cos(2 * t), math.sin(2 * t)
        g3sq = np.exp(-s ** 2 * c2 / 4) * np.sin(s ** 2 * s2 / 8) ** 2
        want = (kern @ (np.sqrt(s) * g3sq * (s[1] - s[0]))) / (abs(s2) * np.sqrt(r))
        assert np.abs(row / want - 1).max() <= 1e-13


def test_trig_identity_residual_tiny():
    rep = verify.run_check("deform.trig")
    assert rep.measured <= 1e-14


def test_sigma_identity_measures_more_than_rounding():
    # (r^3 sigma')' = -r^3 g^2 by a fourth-order difference at step 1e-3
    # reads 4.0e-10, its truncation; a central difference at step 1e-5
    # read 4.0e-8, mostly rounding, which said little of sigma''s accuracy
    assert verify.run_check("sigma.identity").measured < 1e-8


def test_taylor_coefficients_exact():
    rep = verify.run_check("taylor.h")
    assert rep.measured <= 1e-12


def test_constant_searches_stay_moderate():
    # existence with c_i <= 100 is the contract; measured values are far
    # smaller (couple of units) and frozen here loosely to catch drift
    for check_id, cap in (("envelope.betaMed", 10.0), ("envelope.betaHigh", 10.0),
                          ("sigma.comparability", 20.0), ("deform.F1", 10.0)):
        rep = verify.run_check(check_id)
        assert rep.passed
        assert rep.measured <= cap


def test_constant_search_matches_the_exhaustive_scan(monkeypatch):
    # the 21 searches of the two envelope checks, and random ones with
    # term2 of either sign and some with no feasible pair, against the
    # full 25 x 25 scan, to the bit
    search, calls = verify._search_constants, []

    def recorded(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(verify, "_search_constants", recorded)
    verify.run_check("envelope.betaMed")
    verify.run_check("envelope.betaHigh")
    assert len(calls) == 21
    r = np.geomspace(1e-3, 80.0, 4000)
    rng = np.random.default_rng(5)
    for _ in range(30):
        a, b = 10.0 ** rng.uniform(-2, 3, 2)
        term1 = 1 / r ** 2 if rng.random() < 0.5 else 1 + r ** 2
        term2 = rng.choice([-1, 1]) * a * (specfun.sigma(r) - rng.uniform(0, 0.5))
        calls.append((term1, term2, b * np.ones_like(r)))
    # rhs on the boundary of c1 = consts[i] at c2 = 0.01, where the bound
    # max((rhs - c2 term2)/term1) rounds past consts[i] at some point, and
    # one ulp past that boundary at a single point where the bound, either
    # way it is computed, rounds back onto consts[i]: only the predicate
    # tells the least feasible c1 there
    consts = np.geomspace(0.01, 100.0, 25)
    term1, term2 = 1 + r ** 2, -(specfun.sigma(r) + 0.1)
    for i in (3, 8, 15):
        edge = consts[i] * term1 + consts[0] * term2
        past = np.nextafter(edge, np.inf)
        p = np.flatnonzero(((past - consts[0] * term2) / term1 <= consts[i])
                           & (past / term1 - consts[0] * (term2 / term1) <= consts[i]))[0]
        rhs = edge - 1.0
        rhs[p] = past[p]
        calls += [(term1, term2, edge), (term1, term2, rhs)]
    found = [search(*args) for args in calls]
    assert found == [oracle.search_constants(*args) for args in calls]
    assert math.inf in found and min(found) < 1


def test_full_registry_passes():
    reports = verify.run_all()
    assert len(reports) == 20
    assert [r.check_id for r in reports] == sorted(verify._REGISTRY)
    for rep in reports:
        assert rep.passed, "%s measured %g over tolerance %g" % (
            rep.check_id, rep.measured, rep.tolerance)
