"""Tests for signed log-scale values, combinatorial logs, the incomplete
gamma function, and the adaptive quadrature engine.

Reference values are either mathematically trivial, computed from an
independent high-node Gauss-Legendre oracle in this file, or produced by
exact rational / closed-form arithmetic inline.
"""

import math
import re

import numpy as np
import pytest

from pktilt import specfun
from pktilt.specfun import (
    CancellationError,
    DEFAULT_QUADRATURE,
    LogValue,
    QuadratureError,
    QuadratureSpec,
    integrate_decaying,
    log_binomial,
    log_rising_factorial,
    sum_logvalues,
    upper_incomplete_gamma,
)

EPS = 2.220446049250313e-16


# ---------------------------------------------------------------------------
# LogValue


def test_logvalue_roundtrip_and_zero():
    v = LogValue.from_value(-3.25)
    assert v.sign == -1
    assert math.isclose(v.value, -3.25, rel_tol=1e-15)
    z = LogValue.from_value(0.0)
    assert z.is_zero and z.value == 0.0 and z.sign == 0
    assert LogValue.zero().is_zero


@pytest.mark.parametrize(
    "a,b",
    [
        (3.0, 4.0),
        (-3.0, 4.0),
        (1e-200, -2e-200),
        (5e150, 5e150),
        (-7.25, 0.0),
        (2.0, -2.0),
    ],
)
def test_logvalue_arithmetic_matches_floats(a, b):
    la, lb = LogValue.from_value(a), LogValue.from_value(b)
    assert math.isclose((la + lb).value, a + b, rel_tol=1e-13, abs_tol=1e-300)
    assert math.isclose((la - lb).value, a - b, rel_tol=1e-13, abs_tol=1e-300)
    assert math.isclose((la * lb).value, a * b, rel_tol=1e-13, abs_tol=1e-300)
    if b != 0.0:
        assert math.isclose((la / lb).value, a / b, rel_tol=1e-13)
    assert math.isclose((-la).value, -a, rel_tol=1e-13)


def test_logvalue_beyond_float_range():
    # 2^1500 * 2^1500 = 2^3000: representable only in log space
    big = LogValue.from_log(1500 * math.log(2.0))
    prod = big * big
    assert math.isclose(prod.log_magnitude, 3000 * math.log(2.0), rel_tol=4 * EPS)
    assert prod.value == math.inf  # linear conversion saturates honestly
    tiny = LogValue.from_log(-1500 * math.log(2.0))
    assert tiny.value == 0.0  # genuine underflow on its own
    assert (big * tiny).value == pytest.approx(1.0, rel=1e-13)


def test_logvalue_value_saturates_only_past_float_max():
    # exp(709.5) = 1.35e308 is a finite float; exp(710) is not
    assert LogValue.from_log(709.5).value == math.exp(709.5)
    assert LogValue.from_log(709.5, -1).value == -math.exp(709.5)
    assert LogValue.from_log(710.0).value == math.inf


def test_logvalue_subtraction_of_close_values():
    a = LogValue.from_log(0.0)
    b = LogValue.from_log(math.log1p(1e-9))
    d = b - a
    assert d.sign == 1
    assert d.value == pytest.approx(1e-9, rel=1e-5)


def test_logvalue_scaled_and_shifted():
    v = LogValue.from_value(2.0)
    assert v.scaled(-3.0).value == pytest.approx(-6.0, rel=1e-15)
    assert v.scaled(0.0).is_zero
    assert v.shifted(math.log(10.0)).value == pytest.approx(20.0, rel=1e-14)


def test_sum_logvalues_cancellation_and_spread():
    vals = [LogValue.from_value(x) for x in (1e300, -1e300, 3.0, 2.0 ** -40)]
    s = sum_logvalues(vals)
    assert s.value == pytest.approx(3.0 + 2.0 ** -40, rel=1e-13)
    assert sum_logvalues([]).is_zero
    assert sum_logvalues([LogValue.zero()]).is_zero


# ---------------------------------------------------------------------------
# rising factorial / binomial


def test_rising_factorial_small_cases():
    # (x)_0 = 1, (x)_1 = x, (0.5)_3 = 0.5 * 1.5 * 2.5
    assert log_rising_factorial(0.7, 0) == 0.0
    assert log_rising_factorial(0.7, 1) == pytest.approx(math.log(0.7), rel=1e-15)
    assert log_rising_factorial(0.5, 3) == pytest.approx(
        math.log(0.5 * 1.5 * 2.5), rel=1e-14
    )


def test_rising_factorial_recurrence():
    # (x)_{m+1} = (x)_m * (x + m), across both code paths (product and lgamma)
    rng = np.random.default_rng(101)
    for _ in range(60):
        x = float(rng.uniform(0.01, 5.0))
        for m in (1, 5, 19, 20, 21, 50, 199):
            lhs = log_rising_factorial(x, m + 1)
            rhs = log_rising_factorial(x, m) + math.log(x + m)
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def test_rising_factorial_validates():
    with pytest.raises(ValueError):
        log_rising_factorial(-1.0, 2)
    with pytest.raises(ValueError):
        log_rising_factorial(1.0, -1)


def test_log_binomial_exact_and_symmetry():
    assert log_binomial(10, 0) == 0.0
    assert log_binomial(10, 10) == 0.0
    assert log_binomial(10, 3) == pytest.approx(math.log(120.0), rel=1e-14)
    assert log_binomial(52, 5) == pytest.approx(math.log(2598960.0), rel=1e-13)
    for n, k in [(7, 2), (30, 11), (100, 41)]:
        assert log_binomial(n, k) == pytest.approx(log_binomial(n, n - k), rel=1e-13)


# ---------------------------------------------------------------------------
# upper incomplete gamma


def _leggauss_upper_gamma(a: float, x: float) -> float:
    """Independent oracle: Gamma(a, x) = int_x^inf t^(a-1) e^(-t) dt via the
    substitution t = x + v^2 (regularizes the x -> 0 endpoint for a < 1)
    on high-node Gauss-Legendre panels."""
    nodes, weights = np.polynomial.legendre.leggauss(120)
    total = 0.0
    lo = 0.0
    for hi in np.linspace(1.0, 40.0, 40):
        v = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        t = x + v * v
        f = np.exp((a - 1.0) * np.log(t) - t) * 2.0 * v
        total += 0.5 * (hi - lo) * float(np.dot(weights, f))
        lo = hi
    return total


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0])
@pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
def test_upper_gamma_positive_a_vs_quadrature_oracle(a, x):
    got = upper_incomplete_gamma(a, x)
    ref = _leggauss_upper_gamma(a, x)
    assert got.sign == 1
    assert got.value == pytest.approx(ref, rel=1e-12)


def test_upper_gamma_trivial_identities():
    # Gamma(1, x) = e^-x ; Gamma(a, 0) = Gamma(a)
    for x in (0.3, 2.0, 20.0):
        assert upper_incomplete_gamma(1.0, x).value == pytest.approx(
            math.exp(-x), rel=1e-13
        )
    for a in (0.5, 1.5, 4.0):
        assert upper_incomplete_gamma(a, 0.0).value == pytest.approx(
            math.gamma(a), rel=1e-12
        )


def test_upper_gamma_exponential_integral_anchor():
    # Gamma(0, 1) = E1(1) = 0.21938393439552027 (classical constant,
    # reproducible from the alternating series sum_{k>=1} (-1)^(k+1)/(k k!)
    # minus Euler's constant, evaluated exactly below)
    euler = 0.5772156649015328606
    series = sum((-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 25))
    e1_ref = -euler + series  # E1(1) = -gamma - ln(1) + series
    got = upper_incomplete_gamma(0.0, 1.0)
    assert got.value == pytest.approx(e1_ref, rel=1e-13)
    assert got.value == pytest.approx(0.21938393439552027, rel=1e-13)


def test_upper_gamma_recurrence_grid():
    # Gamma(a+1, x) = a Gamma(a, x) + x^a e^-x, including negative and zero a
    for a in (-2.5, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 3.7):
        for x in (0.1, 1.0, 10.0):
            up = upper_incomplete_gamma(a + 1.0, x)
            lo = upper_incomplete_gamma(a, x)
            rhs = lo.scaled(a) + LogValue.from_log(a * math.log(x) - x)
            assert up.value == pytest.approx(rhs.value, rel=1e-11), (a, x)


def test_upper_gamma_negative_a_closed_form():
    # Gamma(-1/2, x) = 2 e^-x / sqrt(x) - 2 sqrt(pi) erfc(sqrt(x))
    for x in (0.25, 1.0, 4.0):
        ref = 2.0 * math.exp(-x) / math.sqrt(x) - 2.0 * math.sqrt(math.pi) * math.erfc(
            math.sqrt(x)
        )
        assert upper_incomplete_gamma(-0.5, x).value == pytest.approx(ref, rel=1e-12)


def test_upper_gamma_monotone_in_x():
    xs = np.geomspace(0.01, 30.0, 50)
    for a in (-1.7, -0.3, 0.0, 0.9, 3.0):
        vals = [upper_incomplete_gamma(a, float(x)).value for x in xs]
        assert all(u > v > 0.0 for u, v in zip(vals[:-1], vals[1:])), a


def test_upper_gamma_validates():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(0.5, -1.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(-1.0, 0.0)  # x = 0 diverges for a <= 0


# ---------------------------------------------------------------------------
# quadrature engine


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(relative_tolerance=0.0)
    assert DEFAULT_QUADRATURE.relative_tolerance == 1e-10


def test_integrate_gaussian_mass():
    # int_0^inf e^(-t^2/2) dt = sqrt(pi/2)
    r = integrate_decaying(lambda t: -0.5 * t * t, 0.0)
    assert r.value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-11)


def test_integrate_gamma_function_values():
    # int_0^inf t^(a-1) e^-t dt = Gamma(a), boundary-singular at a = 1/2
    for a, rel in [(0.5, 1e-10), (1.0, 1e-11), (4.0, 1e-11), (0.25, 1e-9)]:
        def log_f(t, a=a):
            with np.errstate(divide="ignore"):
                return np.where(t > 0.0, (a - 1.0) * np.log(t) - t, -np.inf)

        r = integrate_decaying(log_f, 0.0)
        assert r.value == pytest.approx(math.gamma(a), rel=rel), a


def test_integrate_remote_narrow_peak():
    # the peak must be found and the mass recovered even though a naive panel
    # sweep would miss it; far from the lower limit, a peak placed only to a
    # fixed relative accuracy sits many widths off and overflows the rescaling
    for mu, sig, rel in [(118.0, 0.5, 1e-10), (1e8, 1.0, 1e-8), (1e6, 1e-2, 1e-8),
                         (1e5, 1e-2, 1e-8), (1e4, 1e-3, 1e-8), (1e3, 1e-4, 1e-8)]:
        r = integrate_decaying(lambda t: -0.5 * ((t - mu) / sig) ** 2, 0.0)
        assert r.value == pytest.approx(sig * math.sqrt(2.0 * math.pi), rel=rel), (mu, sig)


def test_integrate_kink_at_peak():
    # int_0^inf e^(-|t-3|) dt = 2 - e^-3; the kink sits between the peak's
    # scanned neighbours, which must become panel edges for GK to see it
    r = integrate_decaying(lambda t: -np.abs(t - 3.0), 0.0)
    assert r.value == pytest.approx(2.0 - math.exp(-3.0), rel=1e-10)


@pytest.mark.parametrize("mu,sig", [(1e8, 1e-9), (1e3, 1e-12), (1.0, 1e-17)])
def test_integrate_never_returns_infinity(mu, sig):
    # peaks at or below float resolution: a typed error or the right mass
    try:
        r = integrate_decaying(lambda t: -0.5 * ((t - mu) / sig) ** 2, 0.0)
    except QuadratureError:
        return
    assert r.log_magnitude == pytest.approx(math.log(sig * math.sqrt(2.0 * math.pi)), abs=1e-8)


@pytest.mark.parametrize("rtol", [1e-10, 1e-12])
def test_integrate_boundary_rise(rtol):
    # e^-t (1 - e^(-t/eps)) rises from 0 over a width eps next to the lower
    # limit; with an extra factor (1 - e^(-t/0.01)/2) the rise holds a share
    # of about eps of the mass, far left of the peak. Exact masses:
    # int e^-t (1 - e^(-t/eps)) dt = 1 / (1 + eps), and
    # int e^-t (1 - e^(-t/c)/2) (1 - e^(-t/eps)) dt
    #   = 1 - 1/(1 + 1/eps) - (1/2)/(1 + 1/c) + (1/2)/(1 + 1/c + 1/eps).
    def rise(t, eps):
        with np.errstate(divide="ignore"):
            return np.log(-np.expm1(-t / eps))

    c = 0.01
    cases = [
        (lambda t: -t + rise(t, 1e-3), -math.log1p(1e-3)),
        (lambda t: -t + rise(t, 1e-4), -math.log1p(1e-4)),
        (lambda t: -t + np.log1p(-0.5 * np.exp(-t / c)) + rise(t, 2e-6),
         math.log(1.0 - 1.0 / (1.0 + 1.0 / 2e-6) - 0.5 / (1.0 + 1.0 / c)
                  + 0.5 / (1.0 + 1.0 / c + 1.0 / 2e-6))),
    ]
    for log_f, exact in cases:
        r = integrate_decaying(log_f, 0.0, QuadratureSpec(rtol))
        assert abs(r.log_magnitude - exact) <= rtol, (r.log_magnitude, exact)


def test_integrate_huge_log_offset():
    # integrand scaled by e^600: must come back as a finite LogValue.
    # mass of e^(-(t-3)^2) on (0, inf) is sqrt(pi)/2 * erfc(-3)
    r = integrate_decaying(lambda t: 600.0 - (t - 3.0) ** 2, 0.0)
    ref = 600.0 + math.log(0.5 * math.sqrt(math.pi) * math.erfc(-3.0))
    assert r.log_magnitude == pytest.approx(ref, abs=1e-10)
    assert r.sign == 1


def test_integrate_tightened_tolerance():
    spec = QuadratureSpec(relative_tolerance=1e-12)
    def log_f(t):
        with np.errstate(divide="ignore"):
            return np.where(t > 0.0, -0.5 * np.log(t) - t, -np.inf)

    r = integrate_decaying(log_f, 0.0, spec)
    assert r.value == pytest.approx(math.gamma(0.5), rel=1e-12)


def test_integrate_zero_integrand():
    r = integrate_decaying(lambda t: np.full_like(np.asarray(t, float), -np.inf), 0.0)
    assert r.is_zero


@pytest.mark.parametrize("lower", [math.nan, math.inf, -math.inf])
def test_integrate_rejects_non_finite_lower(lower):
    with pytest.raises(ValueError, match="lower"):
        integrate_decaying(lambda t: -t * t, lower)


def test_integrate_nonzero_lower_endpoint():
    # int_2^inf e^-t dt = e^-2
    r = integrate_decaying(lambda t: np.where(t >= 2.0, -t, -np.inf), 2.0)
    assert r.value == pytest.approx(math.exp(-2.0), rel=1e-10)


def test_geomspace_matches_numpy():
    # the bracket scans take their points from specfun._geomspace; the
    # points must be np.geomspace's, bit for bit, or the brackets would move
    rng = np.random.default_rng(7)
    cases = [(1e-12, 1e10, 131), (3.7e-12, 3.7e10, 131), (1e10, 1e290, 281)]
    for _ in range(500):
        start = 10.0 ** rng.uniform(-14.0, 250.0)
        cases.append((start, start * 10.0 ** rng.uniform(1e-14, 20.0), 65))
    for start, stop, num in cases:
        got = specfun._geomspace(start, stop, num)
        assert np.array_equal(got, np.geomspace(start, stop, num)), (start, stop, num)


def _panels_with_resabs(v, h):
    # the QUADPACK error model of specfun._panels as written out in full, its
    # floor read from resabs = h (|v| @ weights)
    gk, g7 = specfun._GK_WEIGHTS, specfun._G7_WEIGHTS
    ik = h * (v @ gk)
    err = np.abs(ik - h * (v[..., 1::2] @ g7))
    resabs = h * (np.abs(v) @ gk)
    resasc = h * (np.abs(v - (ik / (2.0 * h))[..., None]) @ gk)
    scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return ik, np.maximum(err, 10.0 * 2.220446049250313e-16 * resabs)


def test_panels_floor_reads_the_estimate():
    # on node values exp(.) >= 0, |v| is v and resabs is ik, bit for bit,
    # also where the values are 0, subnormal, inf or nan
    rng = np.random.default_rng(3)
    v = np.exp(rng.uniform(-30.0, 5.0, size=(3, 40, 15)))
    v[0, :8] = 0.0
    v[0, 8:16] = 5e-324 * rng.integers(1, 1000, size=(8, 15))
    v[1, :4] = rng.choice([0.0, 5e-324, 1e-310, 1.0, np.inf, np.nan], size=(4, 15))
    v[1, 4, 7] = np.inf
    v[1, 5, 3] = np.nan
    v[2, :3] = 1e300
    h = 10.0 ** rng.uniform(-8.0, 3.0, size=40)
    with np.errstate(all="ignore"):
        ref = _panels_with_resabs(v, h)
        got = specfun._panels(v.copy(), h)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b, equal_nan=True)


def test_integrate_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(specfun, "MAX_SUBDIVISIONS", 3)
    spec = QuadratureSpec(relative_tolerance=1e-13)
    def log_f(t):
        with np.errstate(divide="ignore"):
            return np.where(t > 0.0, -0.75 * np.log(t) - t, -np.inf)

    with pytest.raises(QuadratureError):
        integrate_decaying(log_f, 0.0, spec)


def _counted(log_f):
    calls = []

    def f(t):
        calls.append(np.size(t))
        return log_f(t)

    return f, calls


def test_integrate_below_rounding_floor_fails_fast():
    # every panel's error model is at least 10 eps times its mass, so
    # rtol 1e-15 cannot be certified. The error sum stops falling within the
    # first stall window, far short of the 2^15-split budget
    log_f, calls = _counted(lambda t: -t)
    with pytest.raises(QuadratureError, match="rounding floor"):
        integrate_decaying(log_f, 0.0, QuadratureSpec(1e-15))
    assert len(calls) <= 500, len(calls)


@pytest.mark.parametrize("rtol", [1e-10, 1e-12])
def test_stall_exit_leaves_results_unchanged(rtol, monkeypatch):
    # at rtol >= 1e-12 a certified integral never meets the stall test, so
    # disabling it changes no bit of the result
    cases = [
        lambda t: -0.5 * t * t,
        lambda t: -np.abs(t - 3.0),
        lambda t: -t + np.log(-np.expm1(-t / 1e-4)),
        lambda t: np.where(t > 0.0, -0.5 * np.log(np.maximum(t, 1e-300)) - t, -np.inf),
    ]
    spec = QuadratureSpec(rtol)
    with np.errstate(divide="ignore"):
        got = [integrate_decaying(f, 0.0, spec) for f in cases]
        monkeypatch.setattr(specfun, "_MIN_STALL_WINDOW", 2 ** 40)
        ref = [integrate_decaying(f, 0.0, spec) for f in cases]
    assert got == ref


def test_family_matches_gamma_function():
    # int_0^inf t^k e^(-t) dt = k!, with B = -t and D = log t increasing
    def terms(t):
        with np.errstate(divide="ignore"):
            return -t, np.log(t)

    ks = np.arange(1, 61)
    out, failed = specfun._integrate_family(terms, ks, 0.0, QuadratureSpec(1e-12))
    assert not failed
    ref = np.array([math.lgamma(k + 1.0) for k in ks])
    assert np.all(np.abs(out - ref) <= 1e-12 + 8 * EPS * np.abs(ref)), np.abs(out - ref).max()


@pytest.mark.parametrize("rtol", [1e-8, 1e-10, 1e-12])
def test_family_certifies_endpoint_singularity(rtol):
    # int_0^inf t^(k - 3/4) e^(-t) dt = Gamma(k + 1/4). The k = 0 member's
    # error sum falls by 2^(-1/4) per halving of the panel at 0, so it does
    # not halve in two rounds; integrate_decaying's window rule still
    # certifies it, and so must the family's
    def terms(t):
        log_t = np.log(t)
        return -0.75 * log_t - t, log_t

    ks = np.array([0, 1, 2])
    out, failed = specfun._integrate_family(terms, ks, 0.0, QuadratureSpec(rtol))
    assert not failed
    ref = np.array([math.lgamma(k + 0.25) for k in ks])
    assert np.all(np.abs(out - ref) <= rtol + 8 * EPS * np.abs(ref)), np.abs(out - ref)
    single = integrate_decaying(lambda t: terms(t)[0], 0.0, QuadratureSpec(rtol))
    assert abs(single.log_magnitude - ref[0]) <= rtol


def test_family_below_rounding_floor_fails_fast():
    # as for one integral: every k is marked failed, in a few rounds
    def terms(t):
        with np.errstate(divide="ignore"):
            return -t, np.log(t)

    terms, calls = _counted(terms)
    out, failed = specfun._integrate_family(terms, np.arange(1, 31), 0.0, QuadratureSpec(1e-15))
    assert sorted(failed) == list(range(30)) and np.isnan(out).all()
    assert len(calls) <= 50, len(calls)


def _log_t(t):
    with np.errstate(divide="ignore"):
        return np.log(t)


@pytest.mark.parametrize(
    "log_f,match",
    [
        (lambda t: np.zeros_like(t), "does not fall below the cut level"),
        (_log_t, "still rising"),
        (lambda t: -0.5 * _log_t(t), "right tail does not decay"),
    ],
    ids=["constant", "rising", "t^(-1/2)"],
)
def test_integrate_non_decaying_raises(log_f, match):
    with pytest.raises(QuadratureError, match=match):
        integrate_decaying(log_f, 0.0)


def _blank_numbers(message):
    return re.sub(r"\d[\d.]*(e[-+]?\d+)?", "#", message)


@pytest.mark.parametrize(
    "base,rate,ks,rtol,match",
    [
        (lambda t: -t, _log_t, [1, 2, 3], 1e-15, "rounding floor"),
        (lambda t: -0.5 * _log_t(t), np.zeros_like, [0, 1, 2], 1e-10, "right tail does not decay"),
        (_log_t, _log_t, [1, 2, 3], 1e-10, "still rising"),
    ],
    ids=["rounding floor", "t^(-1/2)", "rising"],
)
def test_family_failure_reasons_match_integrate_decaying(base, rate, ks, rtol, match):
    # each k the family fails carries the message integrate_decaying raises
    # for that member alone, up to the figures in it
    spec = QuadratureSpec(rtol)
    out, failed = specfun._integrate_family(lambda t: (base(t), rate(t)), np.array(ks), 0.0, spec)
    assert sorted(failed) == list(range(len(ks))) and np.isnan(out).all()
    for i, k in enumerate(ks):
        with pytest.raises(QuadratureError, match=match) as single:
            integrate_decaying(lambda t: base(t) + k * rate(t), 0.0, spec)
        assert _blank_numbers(failed[i]) == _blank_numbers(str(single.value)), (k, failed[i])


def test_cancellation_error_is_arithmetic_error():
    assert issubclass(CancellationError, ArithmeticError)
    assert issubclass(QuadratureError, RuntimeError)
