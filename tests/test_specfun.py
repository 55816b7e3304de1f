"""Profile-function tests against independently computed reference values.

Reference numbers were produced with 50-digit mpmath arithmetic straight
from the defining formulas (closed forms away from the origin, adaptive
quadrature for the integral identities) and are frozen here.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oseenspec import specfun as sf

# 50-digit mpmath references
SIGMA_2 = 0.6321205588285577
SIGMA_PRIME_2 = -0.2642411176571154
SIGMA_1 = 0.8847968677143805
SIGMA_PRIME_1 = -0.2119921692859513
F_HALF = 32.656178199597391
F_1 = 8.6238789353644101
F_2 = 2.4842928105014831
F_5 = 0.1181193724425811
H_1 = 7.6599485939232837
H_2 = 1.3297111911773328
H_5 = 1.1047365992553557
H_MIN = 0.4855245158129021      # attained near r = 3.2490241576
F4_1 = 0.4842928105014831
F4_QUARTER = 0.6238789353644101


def test_sigma_frozen_values():
    assert_allclose(sf.sigma(2.0), SIGMA_2, rtol=1e-14)
    assert_allclose(sf.sigma(1.0), SIGMA_1, rtol=1e-14)
    assert sf.sigma(0.0) == 1.0


def test_sigma_prime_frozen_values():
    assert_allclose(sf.sigma_prime(2.0), SIGMA_PRIME_2, rtol=1e-14)
    assert_allclose(sf.sigma_prime(1.0), SIGMA_PRIME_1, rtol=1e-14)


@pytest.mark.parametrize("r", [1e-80, 1e-100, 1e-110, 1e-200])
def test_sigma_prime_near_the_origin(r):
    # sigma' = -r/4 + O(r^3): a form with u^2 over r^3 underflowed to
    # -2.53e-81 at 1e-80, to -0.0 at 1e-100, and divided by zero at 1e-110
    assert_allclose(sf.sigma_prime(r), -r / 4, rtol=1e-15)
    assert_allclose(sf.sigma_prime(np.array([r, 2.0])), [-r / 4, SIGMA_PRIME_2], rtol=1e-14)


def test_f_frozen_values():
    assert_allclose(sf.f(0.5), F_HALF, rtol=1e-13)
    assert_allclose(sf.f(1.0), F_1, rtol=1e-13)
    assert_allclose(sf.f(2.0), F_2, rtol=1e-13)
    assert_allclose(sf.f(5.0), F_5, rtol=1e-13)


def test_h_frozen_values():
    assert_allclose(sf.h(1.0), H_1, rtol=1e-13)
    assert_allclose(sf.h(2.0), H_2, rtol=1e-13)
    assert_allclose(sf.h(5.0), H_5, rtol=1e-13)


def test_h_global_minimum():
    r = np.linspace(0.05, 30.0, 20000)
    vals = sf.h(r)
    assert vals.min() > H_MIN - 1e-6
    i = int(vals.argmin())
    assert abs(r[i] - 3.2490241576) < 5e-3


def test_small_r_limits():
    # r^2 f(r) -> 8 and sigma -> 1 - u/2
    for r in (1e-3, 1e-4):
        assert_allclose(r * r * sf.f(r), 8.0, rtol=1e-5)
    assert_allclose(sf.sigma(1e-4), 1 - (1e-8 / 4) / 2, rtol=1e-15)


def test_large_r_asymptotics():
    # r^2 sigma -> 4, r^3 sigma' -> -8, f -> 0+
    assert_allclose(100.0 * sf.sigma(10.0), 4.0, atol=2e-9)
    assert_allclose(1000.0 * sf.sigma_prime(10.0), -8.0, atol=2e-6)
    assert 0 < sf.f(12.0) < 1e-10


def test_monotone_decreasing_sigma():
    r = np.linspace(0.0, 40.0, 4001)
    s = sf.sigma(r)
    assert np.all(np.diff(s) < 0)
    assert np.all(s > 0)
    assert np.all(sf.sigma_prime(r[1:]) < 0)


def test_f_and_h_positive():
    r = np.logspace(-3, 1.6, 2000)
    assert np.all(sf.f(r) > 0)
    assert np.all(sf.h(r) > 0.485)


def test_sigma_inverse_roundtrip():
    for nu in (0.9, 0.5, 0.1, 0.99, 0.01):
        r = sf.sigma_inverse(nu)
        assert abs(sf.sigma(r) - nu) <= 1e-12
    assert_allclose(sf.sigma_inverse(0.5), 2.5247766317359958, rtol=1e-10)
    assert_allclose(sf.sigma_inverse(0.1), 6.3244116862982711, rtol=1e-10)


def test_sigma_inverse_rejects_out_of_range():
    for nu in (0.0, 1.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            sf.sigma_inverse(nu)


def test_domain_errors():
    with pytest.raises(ValueError):
        sf.sigma(-1.0)
    with pytest.raises(ValueError):
        sf.sigma_prime(0.0)
    with pytest.raises(ValueError):
        sf.f(-2.0)
    with pytest.raises(ValueError):
        sf.h(0.0)
    with pytest.raises(ValueError):
        sf.sigma(math.inf)
    with pytest.raises(ValueError):
        sf.F_complex("F1", complex(math.nan, 0.0))


def test_branch_agreement_around_switchovers():
    # series vs closed form across two decades around each threshold
    for rswitch in (math.sqrt(2.0), 2.0):  # u = 0.5 and u = 1.0
        r = np.logspace(math.log10(rswitch / 1.25), math.log10(rswitch * 1.25), 400)
        u = r * r / 4
        sig_closed = -np.expm1(-u) / u
        assert_allclose(sf.sigma(r), sig_closed, rtol=1e-12)
        gg = np.exp(-u / 2)
        sp = sf.sigma_prime(r)
        f_closed = 2 * gg ** 4 / sp ** 2 + (gg ** 2 / sp) * (6 / r - r)
        assert_allclose(sf.f(r), f_closed, rtol=1e-10)
    z = np.concatenate([np.linspace(0.35, 0.72, 100),
                        np.linspace(0.35, 0.72, 100) * np.exp(0.4j)])
    direct = (4 * z * z / (np.exp(z) - z - 1) - 6 + 4 * z) * (z / 2) / (np.exp(z) - z - 1)
    assert_allclose(sf.F_complex("F3", z), direct, rtol=1e-10)
    assert_allclose(sf.F_complex("F4", z), direct - 2 / z, rtol=1e-10)


def test_f_matches_its_sigma_prime_closed_form():
    # f and F3 share one implementation; this is the independent reference,
    # f = 2 g^4/sigma'^2 + (g^2/sigma')(6/r - r), where it does not cancel
    r = 2 * np.sqrt(np.geomspace(1.0, 600.0, 2000))
    u = r * r / 4
    gg = np.exp(-u / 2)
    sp = sf.sigma_prime(r)
    assert_allclose(sf.f(r), 2 * gg ** 4 / sp ** 2 + (gg ** 2 / sp) * (6 / r - r), rtol=1e-13)


def test_sigma_matches_its_expm1_closed_form():
    r = 2 * np.sqrt(np.geomspace(0.5, 600.0, 2000))
    u = r * r / 4
    assert_allclose(sf.sigma(r), -np.expm1(-u) / u, rtol=2e-15)


def test_sigma_prime_matches_its_expm1_closed_form():
    # sigma' and the wave rule's measure share E0; this is the independent
    # reference, sigma' = (2/r)(e^{-u} + expm1(-u)/u), where it does not cancel
    r = 2 * np.sqrt(np.geomspace(0.5, 600.0, 2000))
    u = r * r / 4
    assert_allclose(sf.sigma_prime(r), (2 / r) * (np.exp(-u) + np.expm1(-u) / u), rtol=2e-15)


def test_profiles_finite_without_warnings_far_out():
    # F0 overflows past u = 709.78 (r = 53.3); the profiles and F3, F4 read
    # E0 = e^{-z} F0 instead, which stays bounded on Re z >= 0
    r = np.linspace(1e-3, 80.0, 20001)
    z = np.linspace(0.5, 1500.0, 3001) * (1 + 1j * np.tan(np.linspace(-0.74, 0.74, 7)))[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for fun in (sf.sigma, sf.sigma_prime, sf.g, sf.f, sf.h):
            assert np.all(np.isfinite(fun(r)))
        for fun_id in ("F3", "F4"):
            assert np.all(np.isfinite(sf.F_complex(fun_id, z)))


def test_f_equals_F3_on_real_axis():
    for r in (0.5, 1.0, 2.0, 5.0):
        assert abs(sf.f(r) - sf.F_complex("F3", complex(r * r / 4, 0)).real) <= 1e-10 * sf.f(r)


def test_F_small_z_behavior():
    # z F3 -> 2, F4(0) = 2/3
    for z in (1e-6, 1e-8):
        assert_allclose(z * sf.F_complex("F3", z).real, 2.0, rtol=1e-5)
    assert_allclose(sf.F_complex("F4", 0.0), 2 / 3, rtol=1e-14)
    assert_allclose(sf.F_complex("F1", 0.0), 1.0, rtol=0)
    assert sf.F_complex("F0", 0.0) == 0.0


@pytest.mark.parametrize("z", [[0.6, 2.0, 40.0, 0.5], [0.1, 0.25, 0.49, 1e-3],
                               [0.1, 0.6, 3.0, 0.3], [0.2 + 0.4j, 3.0 - 1j, 0.5j],
                               [0.3 - 0.3j, 0.1j], [0.7 + 0.1j, -2.0 + 5j]])
def test_F_runs_only_the_branches_with_points(z):
    # every F with a series, on points all above |z| = 1/2, all below, and
    # some of each: the values are each branch's on its own points, bitwise,
    # and a branch with no point is not run
    z = np.asarray(z)
    small = np.abs(z) < 0.5
    for name, (series, closed) in sf._FORMS.items():
        if series is None:
            continue
        ref = np.empty_like(z)
        ref[small], ref[~small] = series(z[small]), closed(z[~small])
        runs = []

        def spy(branch, label):
            def run(x):
                runs.append(label)
                return branch(x)
            return run

        got = sf._F((spy(series, "series"), spy(closed, "closed")), z)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
        assert runs == [label for label, some in (("series", small.any()),
                                                  ("closed", not small.all())) if some], name


def test_F3_and_F4_above_one_half_run_no_series(monkeypatch):
    # their closed form reads E0, whose own series has no point there
    horner, calls = sf._horner, []

    def counted(c, x):
        calls.append(len(x))
        return horner(c, x)

    monkeypatch.setattr(sf, "_horner", counted)
    for fun_id in ("F3", "F4"):
        sf.F_complex(fun_id, np.array([0.6, 2.0 - 1j, 30.0 + 4j]))
    assert sf.f(np.array([2.0, 3.0, 8.0])).shape == (3,)
    assert calls == []


def test_F_complex_frozen_values():
    # mpmath, 30 digits
    cases = {
        1 + 0.5j: (0.61227265372998637 - 0.12976552763996124j,
                   2.0863850251092077 - 0.89789250167220544j,
                   0.48638502510920766 - 0.097892501672205443j),
        0.2 - 0.1j: (0.90491133857198403 + 0.0437722273179643j,
                     8.6327816355290565 + 4.0173820531150288j,
                     0.63278163552905693 + 0.017382053115028995j),
        0.05 + 0.02j: (0.97534729528506067 - 0.0096725139244078237j,
                       35.141053205836804 - 13.79647350629852j,
                       0.65829458514715075 - 0.0033700580226589197j),
        10 + 3j: (0.091747419049664885 - 0.027523585031054066j,
                  -0.0061170025551780898 - 0.0059544207429987713j,
                  -0.18960324108728818 + 0.049091450816634256j),
    }
    for z, (f1, f3, f4) in cases.items():
        assert_allclose(sf.F_complex("F1", z), f1, rtol=1e-13)
        assert_allclose(sf.F_complex("F3", z), f3, rtol=1e-12)
        assert_allclose(sf.F_complex("F4", z), f4, rtol=1e-12)
    assert_allclose(sf.F_complex("F4", 1.0), F4_1, rtol=1e-13)
    assert_allclose(sf.F_complex("F4", 0.25), F4_QUARTER, rtol=1e-13)


def test_F2_matches_gaussian_weight():
    r = np.linspace(0.1, 6.0, 50)
    assert_allclose(sf.F_complex("F2", r * r / 4 + 0j).real, sf.g(r), rtol=1e-14)


def test_F3_pole_at_zero():
    with pytest.raises(sf.PoleError):
        sf.F_complex("F3", 0.0)
    with pytest.raises(ValueError):
        sf.F_complex("F9", 1.0)


def test_F5_identity_and_lower_bound():
    # F5(r, th)/r = -Im F1(r e^{i th}); frozen mpmath spot values
    assert_allclose(sf.F5(0.5, 0.3), 0.0269940538580717, rtol=1e-12)
    assert_allclose(sf.F5(2.0, 0.5), 0.307628949615109, rtol=1e-12)
    assert_allclose(sf.F5(10.0, 0.1), 0.0997909193211011, rtol=1e-12)
    rng = np.random.default_rng(7)
    for _ in range(50):
        r = float(rng.uniform(0.05, 20.0))
        th = float(rng.uniform(0.01, math.pi / 4 - 0.01))
        z = r * complex(math.cos(th), math.sin(th))
        assert_allclose(sf.F5(r, th), -r * sf.F_complex("F1", z).imag,
                        rtol=1e-11, atol=1e-14)
        lb = math.sin(th) * (1 - math.exp(-r * math.cos(th)) * (1 + r * math.cos(th)))
        assert sf.F5(r, th) >= lb - 1e-12
    with pytest.raises(ValueError):
        sf.F5(1.0, 0.9)
    with pytest.raises(ValueError):
        sf.F5(-1.0, 0.3)


def test_phi_moment_against_quadrature():
    # int_0^a t^3 e^{-t} dt + a^2(1+a)e^{-a} = 2 Phi(a); mpmath references
    assert_allclose(sf.phi_moment(0.5), 0.1189793663649912, rtol=1e-13)
    assert_allclose(sf.phi_moment(2.0), 1.2406413179240350, rtol=1e-13)
    assert_allclose(sf.phi_moment(8.0), 2.9694729008608714, rtol=1e-13)
    assert sf.phi_moment(0.0) == 0.0
    a = np.linspace(0.0, 40.0, 300)
    vals = sf.phi_moment(a)
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] < 3.0
    with pytest.raises(ValueError):
        sf.phi_moment(-0.1)


def test_h_numerator_coefficients():
    assert sf.h_numerator_coefficient(2) == Fraction(35, 32)
    assert sf.h_numerator_coefficient(3) == Fraction(-7, 32)
    assert sf.h_numerator_coefficient(4) == Fraction(19, 384)
    for n in range(4, 30):
        closed = Fraction(3, 16) + Fraction(n * (n - 1), 4) - Fraction(n, 2)
        assert sf.h_numerator_coefficient(n) == closed / math.factorial(n)
        if n >= 5:
            assert sf.h_numerator_coefficient(n) > 0
    # 2 sqrt(a2 a4) > |a3| makes a2 u^2 + a3 u^3 + a4 u^4 positive definite
    a2, a3, a4 = (float(sf.h_numerator_coefficient(n)) for n in (2, 3, 4))
    assert 2 * math.sqrt(a2 * a4) > abs(a3)


def test_vectorized_matches_scalar():
    r = np.array([0.3, 1.0, 2.7, 9.0])
    for fun in (sf.sigma, sf.sigma_prime, sf.g, sf.f, sf.h):
        assert_allclose(fun(r), [fun(float(x)) for x in r], rtol=1e-15)
