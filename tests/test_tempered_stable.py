"""Tests for the tilted stable layer: densities, Laplace exponent, Lévy
density, and the stable / tilted samplers.

Closed forms at alpha = 1/2 serve as oracles for the generic series and
sampler paths; Monte Carlo assertions use 3-4 standard-error bands on
pinned seeds.
"""

import math
import time

import numpy as np
import pytest

import pktilt.tempered_stable as ts
from pktilt.specfun import CancellationError, QuadratureSpec, integrate_decaying
from pktilt.tempered_stable import (
    GGParams,
    ig_density,
    laplace_exponent,
    levy_density,
    sample_stable,
    sample_tempered,
    stable_density,
    stable_density_half,
    stable_density_series,
    tempered_density,
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
