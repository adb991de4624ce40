"""Tests for the tilted stable layer: densities, Laplace exponent, Lévy
density, and the stable / tilted samplers.

Closed forms at alpha = 1/2 serve as oracles for the generic series and
sampler paths; Monte Carlo assertions use 3-4 standard-error bands on
pinned seeds.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

import pktilt.tempered_stable as ts
from pktilt.oracle import ig_density, stable_density, stable_density_half, tempered_density
from pktilt.specfun import CancellationError, QuadratureSpec, integrate_decaying
from pktilt.tempered_stable import (
    GGParams,
    laplace_exponent,
    levy_density,
    sample_stable,
    sample_tempered,
    stable_density_series,
)

DELTAS = (0.5, 1.0, 2.0)


def test_params_validation():
    with pytest.raises(ValueError):
        GGParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        GGParams(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        GGParams(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        GGParams(0.5, 1.0, -0.1)
    with pytest.raises(ValueError):
        GGParams(0.5, math.inf, 1.0)
    with pytest.raises(ValueError):
        GGParams(0.5, 1.0, math.inf)
    p = GGParams(0.25, 2.0, 3.0)
    assert p.gamma_root == pytest.approx(3.0 ** 4.0, rel=1e-15)
    assert p.tilt_rate == pytest.approx(0.5 * 81.0, rel=1e-15)


def test_params_reject_an_infinite_tilt_product():
    # delta and gamma are finite, but delta * gamma overflows; the samplers
    # and laplace_exponent would fail untyped or return nan there
    with pytest.raises(ValueError, match="delta \\* gamma must be finite"):
        GGParams(0.5, 1e200, 1e200)
    with pytest.raises(ValueError, match="delta \\* gamma must be finite"):
        GGParams(0.3, 1e300, 1e10)
    p = GGParams(0.5, 1e154, 1e154)  # the largest products stay allowed
    assert math.isfinite(p.delta * p.gamma)


# ---------------------------------------------------------------------------
# stable density


def test_stable_half_closed_form_values():
    # f(t) = delta / sqrt(2 pi) t^(-3/2) exp(-delta^2 / (2t))
    for d in DELTAS:
        for t in (0.25, 1.0, 9.0):
            ref = d / math.sqrt(2.0 * math.pi) * t ** -1.5 * math.exp(-d * d / (2 * t))
            assert stable_density_half(d, t) == pytest.approx(ref, rel=1e-14)


def test_series_matches_half_closed_form():
    worst = 0.0
    for d in DELTAS:
        for t in np.geomspace(0.5, 50.0, 80):
            s = stable_density_series(0.5, d, float(t))
            c = stable_density_half(d, float(t))
            worst = max(worst, abs(s / c - 1.0))
    assert worst < 1e-8


def test_series_raises_in_cancellation_region():
    with pytest.raises(CancellationError):
        stable_density_series(0.5, 1.0, 0.05)


def test_series_strict_config(monkeypatch):
    monkeypatch.setattr(ts, "SERIES_TERM_TOLERANCE", 1e-6)
    monkeypatch.setattr(ts, "SERIES_MAX_TERMS", 4)
    with pytest.raises(CancellationError, match="did not reach term tolerance"):
        # 4 terms cannot resolve the density this far into the tail region
        stable_density_series(0.7, 1.0, 0.9)


def test_stable_density_dispatch():
    # exactly alpha = 1/2 takes the closed path (works where the series cannot)
    assert stable_density(0.5, 1.0, 0.05) == pytest.approx(
        stable_density_half(1.0, 0.05), rel=1e-15
    )
    # other alpha uses the series
    assert stable_density(0.6, 1.0, 2.0) == pytest.approx(
        stable_density_series(0.6, 1.0, 2.0), rel=1e-15
    )


def test_stable_density_normalizes_alpha_half():
    for d in DELTAS:
        def log_f(t, d=d):
            with np.errstate(divide="ignore"):
                return np.where(
                    t > 0.0,
                    math.log(d / math.sqrt(2.0 * math.pi))
                    - 1.5 * np.log(np.maximum(t, 1e-300))
                    - d * d / (2.0 * np.maximum(t, 1e-300)),
                    -np.inf,
                )

        r = integrate_decaying(log_f, 0.0, QuadratureSpec(1e-11))
        assert r.value == pytest.approx(1.0, rel=1e-10)


def test_series_scale_beyond_float_power():
    # delta^(-1/alpha) = 1e500 leaves the float range, the density
    # delta^(-1/alpha) f(alpha, 1, t delta^(-1/alpha)) does not
    got = stable_density_series(0.02, 1e-10, 1e-300)
    log_ref = math.log(stable_density_series(0.02, 1.0, 1e200)) + 500.0 * math.log(10.0)
    assert abs(math.log(got) - log_ref) <= 1e-12
    # 1e316 f(1/4, 1, 2) is beyond the float range: it saturates to inf
    assert stable_density_series(0.25, 1e-79, 2e-316) == math.inf


def _stable_left_tail_bound(alpha: float, delta: float, t0: float) -> float:
    """Chernoff bound P(T <= t0) <= exp(lam t0 - delta (2 lam)^alpha) at the
    optimal lam = (1/2) (2 delta alpha / t0)^(1/(1-alpha))."""
    lam = 0.5 * (2.0 * delta * alpha / t0) ** (1.0 / (1.0 - alpha))
    return math.exp(lam * t0 - delta * (2.0 * lam) ** alpha)


def test_series_does_not_stop_on_a_rounded_zero():
    # alpha xi = 63 at xi = 90 is an integer only up to rounding: sin comes
    # out ~1e-14, and a stop test on the term itself ended the sum there
    ref = 2.2279958217475480e-4  # Zolotarev integral, mpmath
    try:
        got = stable_density_series(0.7, 1.0, 0.3)
    except CancellationError:
        return
    assert got == pytest.approx(ref, rel=1e-8)


def _series_one_point(alpha, delta, t):
    # the per-point loop the array core replaced, as a reference: the
    # density, or the CancellationError message
    logx = math.log(t) - math.log(delta) / alpha
    terms, run, max_mag, prev_env, nonzero = [], 0.0, 0.0, math.inf, 0
    for xi in range(1, ts.SERIES_MAX_TERMS + 1):
        m = alpha * xi
        s = math.sin(math.pi * (m - math.floor(m))) * (1.0 if math.floor(m) % 2 == 0 else -1.0)
        if s == 0.0:
            continue
        log_env = math.lgamma(xi * alpha + 1.0) - math.lgamma(xi + 1.0) \
            + (xi * alpha + 1.0) * (math.log(2.0) - logx)
        if log_env > 700.0:
            return f"series term overflows at xi={xi}; t={t} is outside the reliable region"
        env = math.exp(log_env)
        term = (s if xi % 2 == 1 else -s) * env
        terms.append(term)
        run += term
        nonzero += 1
        max_mag = max(max_mag, abs(term))
        if nonzero >= 3 and env <= ts.SERIES_TERM_TOLERANCE * max(abs(run), 1e-300) and env <= prev_env:
            break
        prev_env = env
    else:
        return f"series did not reach term tolerance within {ts.SERIES_MAX_TERMS} terms at t={t}"
    total = math.fsum(terms)
    if max_mag == 0.0:
        return 0.0
    if total <= 0.0 or max_mag > ts.SERIES_CANCELLATION_GUARD * total:
        return (f"series cancellation beyond guard at t={t}: "
                f"max term {max_mag:.3e} vs sum {total:.3e}")
    return total * delta ** (-1.0 / alpha) / (2.0 * math.pi)


@pytest.mark.parametrize("alpha", [0.15, 0.3, 0.45, 0.6, 0.7, 0.8, 0.9, 0.95])
def test_series_array_core_matches_one_point_loop(alpha):
    # the same failed points with the same messages, and the same values
    # within the bound of test_series_matches_half_closed_form. The core
    # reads log t and prints t as exp(log t): the reference runs at that t
    log_t = np.log(np.geomspace(0.05, 200.0, 60))
    t = [math.exp(v) for v in log_t.tolist()]
    for delta in (0.3, 1.0, 3.0):
        log_g, failed = ts._stable_series(alpha, delta, log_t)
        # the core leaves out the first term's power (2 / x)^(alpha + 1)
        values = log_g + (alpha + 1.0) * (math.log(2.0) - log_t + math.log(delta) / alpha)
        ref = [_series_one_point(alpha, delta, ti) for ti in t]
        assert failed == {i: r for i, r in enumerate(ref) if isinstance(r, str)}
        assert np.isnan(values[list(failed)]).all()
        for i, r in enumerate(ref):
            if i not in failed:
                assert np.exp(values[i]) == pytest.approx(r, rel=1e-8, abs=0.0), (delta, t[i])


def test_series_array_core_blocks_rows(monkeypatch):
    # row blocks leave every point as it is
    log_t = np.log(np.geomspace(0.05, 200.0, 60))
    whole = ts._stable_series(0.7, 1.0, log_t)
    monkeypatch.setattr(ts, "_SERIES_ROWS", 7)
    values, failed = ts._stable_series(0.7, 1.0, log_t)
    assert failed == whole[1]
    assert np.array_equal(values, whole[0], equal_nan=True)


@pytest.mark.parametrize("alpha", [0.4, 0.55, 0.6, 0.7, 0.75])
def test_series_density_normalizes_over_reliable_region(alpha):
    # integrate the series density from a cut t0 where the untouched left
    # tail is provably below 2e-6, and check total mass within 1e-4
    delta = 1.0
    t0 = 0.05
    while _stable_left_tail_bound(alpha, delta, t0) > 2e-6:
        t0 *= 0.9
    tail = _stable_left_tail_bound(alpha, delta, t0)

    def log_f(t):
        out = np.full(np.shape(t), -np.inf)
        for i, ti in enumerate(np.atleast_1d(t)):
            if ti <= t0:
                continue
            try:
                v = stable_density_series(alpha, delta, float(ti))
            except CancellationError:
                continue
            if v > 0.0:
                out[i] = math.log(v)
        return out

    r = integrate_decaying(log_f, t0, QuadratureSpec(1e-8))
    assert abs(r.value - 1.0) <= tail + 1e-4


# ---------------------------------------------------------------------------
# tilted density and inverse-Gaussian closed form


def test_tempered_density_closed_value():
    # e^(delta gamma - t/2) f_half(t) at (0.5, 1, 1), t = 1:
    # e^(1 - 1/2) * (1/sqrt(2 pi)) e^(-1/2) = 1/sqrt(2 pi)
    assert tempered_density(GGParams(0.5, 1.0, 1.0), 1.0) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), rel=1e-13
    )


def test_ig_density_matches_tempered_half():
    for d in DELTAS:
        for g in (0.5, 1.0, 2.0):
            p = GGParams(0.5, d, g)
            for t in (0.2, 1.0, 5.0):
                assert ig_density(d, g, t) == pytest.approx(
                    tempered_density(p, t), rel=1e-12
                )


def test_ig_density_normalizes():
    for d, g in [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5)]:
        def log_f(t, d=d, g=g):
            tt = np.maximum(t, 1e-300)
            return np.where(
                t > 0.0,
                math.log(d / math.sqrt(2.0 * math.pi))
                + d * g
                - 1.5 * np.log(tt)
                - 0.5 * (d * d / tt + g * g * tt),
                -np.inf,
            )

        r = integrate_decaying(log_f, 0.0, QuadratureSpec(1e-11))
        assert r.value == pytest.approx(1.0, rel=1e-10)


def test_tempered_reduces_to_stable_at_zero_tilt():
    p = GGParams(0.5, 1.3, 0.0)
    for t in (0.3, 1.0, 4.0):
        assert tempered_density(p, t) == pytest.approx(
            stable_density_half(1.3, t), rel=1e-14
        )


# ---------------------------------------------------------------------------
# Laplace exponent and Lévy density


def test_laplace_exponent_values():
    # psi(lam) = -delta gamma + delta (gamma^(1/alpha) + 2 lam)^alpha
    p = GGParams(0.5, 1.0, 1.0)
    assert laplace_exponent(p, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert laplace_exponent(p, 0.5) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)
    assert laplace_exponent(p, 1.0) == pytest.approx(math.sqrt(3.0) - 1.0, rel=1e-14)
    # untilted: psi = delta (2 lam)^alpha
    p0 = GGParams(0.7, 1.5, 0.0)
    assert laplace_exponent(p0, 2.0) == pytest.approx(1.5 * 4.0 ** 0.7, rel=1e-14)


def test_laplace_exponent_array_and_shape():
    p = GGParams(0.3, 0.7, 2.0)
    lam = np.array([0.0, 0.5, 1.0, 2.0])
    vals = laplace_exponent(p, lam)
    assert vals.shape == lam.shape
    assert vals[0] == pytest.approx(0.0, abs=1e-15)
    assert np.all(np.diff(vals) > 0.0)  # increasing


def test_laplace_exponent_concave_increasing():
    p = GGParams(0.6, 1.2, 0.8)
    lam = np.linspace(0.0, 5.0, 200)
    v = laplace_exponent(p, lam)
    d1 = np.diff(v)
    assert np.all(d1 > 0.0)
    assert np.all(np.diff(d1) < 1e-12)  # concave


@pytest.mark.parametrize(
    "alpha,delta,gamma,lam",
    [(0.5, 1.0, 1e8, 1e-3), (0.5, 1e6, 50.0, 1e-6), (0.5, 3.0, 0.4, 2.5)],
)
def test_laplace_exponent_does_not_cancel(alpha, delta, gamma, lam):
    # at alpha = 1/2, psi = delta 2 lam / (sqrt(gamma^2 + 2 lam) + gamma),
    # a form with no cancellation; -delta gamma + delta (...)^alpha loses
    # every digit at (1/2, 1, 1e8), lam = 1e-3, where psi = 1e-11
    p = GGParams(alpha, delta, gamma)
    ref = delta * 2.0 * lam / (math.sqrt(gamma * gamma + 2.0 * lam) + gamma)
    assert laplace_exponent(p, lam) == pytest.approx(ref, rel=1e-13, abs=0.0)
    lams = lam * np.array([0.0, 1e-6, 1.0, 1e3])
    refs = delta * 2.0 * lams / (np.sqrt(gamma * gamma + 2.0 * lams) + gamma)
    vals = laplace_exponent(p, lams)
    assert vals[0] == 0.0
    np.testing.assert_allclose(vals[1:], refs[1:], rtol=1e-13, atol=0.0)


def test_laplace_exponent_when_gamma_root_underflows():
    # gamma^(1/alpha) = 1e-500 is 0 in floating point, and so
    # 2 lam / gamma^(1/alpha) is infinite; psi = delta (2 lam)^alpha - delta gamma
    # to 1 part in 1e400
    p = GGParams(0.02, 1.5, 1e-10)
    assert p.gamma_root == 0.0
    for lam in (1e-3, 1.0, 50.0):
        ref = 1.5 * (2.0 * lam) ** 0.02 - 1.5e-10
        assert laplace_exponent(p, lam) == pytest.approx(ref, rel=1e-13)


def test_laplace_exponent_derivative_at_zero():
    # psi'(0) = 2 delta alpha gamma^((alpha-1)/alpha) = E T
    p = GGParams(0.5, 1.0, 1.0)
    h = 1e-6
    fd = (laplace_exponent(p, h) - laplace_exponent(p, 0.0)) / h
    exact = 2.0 * p.delta * p.alpha * p.gamma ** ((p.alpha - 1.0) / p.alpha)
    assert fd == pytest.approx(exact, rel=1e-5)


def test_levy_density_half_closed_form():
    # rho(s) = delta / sqrt(2 pi) s^(-3/2) exp(-gamma^2 s / 2) at alpha = 1/2
    p = GGParams(0.5, 1.5, 2.0)
    for s in (0.1, 1.0, 10.0):
        ref = 1.5 / math.sqrt(2.0 * math.pi) * s ** -1.5 * math.exp(-2.0 * s)
        assert levy_density(p, s) == pytest.approx(ref, rel=1e-13)


def test_levy_density_array():
    p = GGParams(0.6, 1.0, 1.0)
    s = np.array([0.5, 1.0, 2.0])
    v = levy_density(p, s)
    assert v.shape == s.shape and np.all(v > 0.0)
    assert v[0] > v[1] > v[2]


@pytest.mark.parametrize(
    "alpha,delta,gamma",
    [(0.5, 1.0, 1.0), (0.75, 2.0, 0.5), (0.25, 0.5, 2.0), (0.6, 1.0, 0.0)],
)
def test_levy_khintchine_identity(alpha, delta, gamma):
    # int (1 - e^(-lam s)) rho(s) ds = psi(lam), including a power-tail
    # (gamma = 0) case
    p = GGParams(alpha, delta, gamma)
    for lam in (0.5, 1.0, 2.0):
        def log_f(s, lam=lam):
            s = np.asarray(s, float)
            ss = np.maximum(s, 1e-300)
            with np.errstate(divide="ignore", invalid="ignore"):
                one = np.where(lam * ss > 1e-8, -np.expm1(-lam * ss),
                               lam * ss * (1.0 - 0.5 * lam * ss))
                v = np.log(one) + np.log(levy_density(p, ss))
            return np.where(s > 0.0, v, -np.inf)

        r = integrate_decaying(log_f, 0.0, QuadratureSpec(1e-8))
        assert r.value == pytest.approx(laplace_exponent(p, lam), rel=1e-6)


# ---------------------------------------------------------------------------
# samplers


def test_sample_stable_scalar_and_batch():
    rng = np.random.default_rng(5)
    x = sample_stable(0.5, 1.0, rng)
    assert isinstance(x, float) and x > 0.0
    v = sample_stable(0.5, 1.0, rng, size=1000)
    assert v.shape == (1000,) and np.all(v > 0.0)


def test_sample_stable_half_against_reciprocal_chi_square():
    # at alpha = 1/2, T has the law of delta^2 / Z^2 with Z standard normal:
    # P(T <= t) = erfc(delta / sqrt(2 t)). KS on 1e5 pinned draws.
    rng = np.random.default_rng(20260819)
    delta = 1.3
    n = 100_000
    t = np.sort(sample_stable(0.5, delta, rng, size=n))
    cdf = np.array([math.erfc(delta / math.sqrt(2.0 * ti)) for ti in t])
    i = np.arange(1, n + 1)
    ks = float(np.max(np.maximum(i / n - cdf, cdf - (i - 1) / n)))
    assert ks < 2.30 / math.sqrt(n)  # far out in the null distribution


def test_sample_stable_laplace_transform_generic_alpha():
    # E e^(-T) = exp(-delta 2^alpha) at lam = 1, checked at alpha = 0.3
    # where no closed density exists; 4 standard errors on a pinned seed
    rng = np.random.default_rng(42)
    alpha, delta, n = 0.3, 1.0, 400_000
    t = sample_stable(alpha, delta, rng, size=n)
    w = np.exp(-t)
    mean = float(np.mean(w))
    se = float(np.std(w)) / math.sqrt(n)
    assert abs(mean - math.exp(-delta * 2.0 ** alpha)) < 4.0 * se


def test_sample_tempered_acceptance_rate_and_laplace():
    p = GGParams(0.5, 1.0, 1.0)
    rng = np.random.default_rng(7)
    n = 200_000
    draws, stats = sample_tempered(p, rng, size=n, return_stats=True)
    assert draws.shape == (n,)
    rate = stats["accepted"] / stats["proposed"]
    expect = math.exp(-1.0)
    se = math.sqrt(expect * (1.0 - expect) / stats["proposed"])
    assert abs(rate - expect) < 4.0 * se
    # E e^(-T) = e^(-psi(1)) = e^(1 - sqrt(3))
    w = np.exp(-draws)
    se_m = float(np.std(w)) / math.sqrt(n)
    assert abs(float(np.mean(w)) - math.exp(1.0 - math.sqrt(3.0))) < 4.0 * se_m


@pytest.mark.parametrize("sampler", ["stable", "tempered"])
@pytest.mark.parametrize("size", [2.7, 3.0, "3", -1, np.int64(3), np.uint8(0)])
def test_sampler_size_must_be_an_integer(sampler, size):
    rng = np.random.default_rng(0)

    def draw():
        if sampler == "stable":
            return sample_stable(0.5, 1.0, rng, size=size)
        return sample_tempered(GGParams(0.5, 1.0, 1.0), rng, size=size)

    if isinstance(size, (float, str)):
        with pytest.raises(TypeError):
            draw()
    elif size < 0:
        with pytest.raises(ValueError, match="nonnegative"):
            draw()
    else:
        assert draw().shape == (int(size),)


def test_sample_tempered_scalar():
    p = GGParams(0.5, 2.0, 0.5)
    x = sample_tempered(p, np.random.default_rng(3))
    assert isinstance(x, float) and x > 0.0


def test_sample_tempered_matches_ig_distribution():
    # alpha = 1/2 tilted law is inverse-Gaussian-type; compare the empirical
    # cdf with the numerically integrated closed density
    p = GGParams(0.5, 1.0, 1.0)
    rng = np.random.default_rng(11)
    n = 50_000
    draws = np.sort(sample_tempered(p, rng, size=n))
    grid = np.linspace(1e-6, 60.0, 120_001)
    dens = ig_density(1.0, 1.0, grid)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    cdf = np.minimum(cdf / cdf[-1], 1.0)
    F = np.interp(draws, grid, cdf)
    i = np.arange(1, n + 1)
    ks = float(np.max(np.maximum(i / n - F, F - (i - 1) / n)))
    assert ks < 2.30 / math.sqrt(n)


@pytest.mark.parametrize("p", [GGParams(0.5, 1.0, 30.0), GGParams(0.3, 2.0, 50.0)])
def test_sample_tempered_large_tilt_is_split(p):
    # at delta gamma = 30 and 100 one whole-delta proposal is accepted with
    # probability e^(-delta gamma); the split into ceil(delta gamma) pieces
    # keeps each piece's acceptance at e^(-delta gamma / m) >= e^(-1)
    n = 20_000
    t0 = time.perf_counter()
    draws, stats = sample_tempered(p, np.random.default_rng(1), size=n, return_stats=True)
    elapsed = time.perf_counter() - t0
    assert draws.shape == (n,)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    assert stats["accepted"] / stats["proposed"] >= 0.3
    # psi(1) = delta gamma ((1 + 2 / gamma^(1/alpha))^alpha - 1), without cancellation
    psi = p.delta * p.gamma * math.expm1(p.alpha * math.log1p(2.0 / p.gamma_root))
    w = np.exp(-draws)
    se = float(np.std(w, ddof=1)) / math.sqrt(n)
    assert abs(float(np.mean(w)) - math.exp(-psi)) < 4.0 * se


def test_sample_tempered_draws_at_most_one_surplus_block():
    # m = 1 piece at delta gamma = 1, each kept with probability e^(-1): the
    # proposals are the size / rate a negative binomial needs (sd ~0.2%),
    # plus at most one round of surplus
    p = GGParams(0.5, 1.0, 1.0)
    n = 200_000
    _, stats = sample_tempered(p, np.random.default_rng(3), size=n, return_stats=True)
    assert stats["proposed"] <= 1.01 * n / math.exp(-1.0) + ts._BLOCK


@pytest.mark.parametrize(
    "p,n,limit_mb",
    [(GGParams(0.5, 1.0, 0.2), 500_000, 8.0), (GGParams(0.5, 1000.0, 1.0), 1000, 2.0)],
)
def test_sample_tempered_memory_is_size_plus_block(p, n, limit_mb):
    # the output (4 MB at 5e5 draws) plus one round's block-sized arrays,
    # at any delta gamma: 1000 draws of 1000 pieces each never hold 1e6 pieces
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        draws = sample_tempered(p, rng, size=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws.shape == (n,)
    assert peak <= limit_mb * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("alpha,seed", [(0.15, 8101), (0.5, 8102), (0.85, 8103)])
def test_sample_tempered_laplace_across_tilts(alpha, seed):
    # E e^(-lam T) = e^(-psi(lam)) at lam in {1/2, 1, 2}. The standard error
    # comes from the exact variance e^(-psi(2 lam)) - e^(-2 psi(lam)), not
    # from the sample, whose spread is unreliable at small alpha. The tilts
    # cover both piece rules: m = floor(c) at c = 1.3, floor(c) + 1 at 2.5, 5.9
    rng = np.random.default_rng(seed)
    n = 40_000
    delta = 1.7
    for c in (0.0, 0.5, 1.3, 2.5, 5.9):
        p = GGParams(alpha, delta, c / delta)
        draws = sample_tempered(p, rng, size=n)
        for lam in (0.5, 1.0, 2.0):
            mean = math.exp(-laplace_exponent(p, lam))
            var = math.exp(-laplace_exponent(p, 2.0 * lam)) - mean * mean
            z = (float(np.mean(np.exp(-lam * draws))) - mean) / math.sqrt(var / n)
            assert abs(z) <= 4.0, f"c={c}, lam={lam}: z={z:.2f}"
