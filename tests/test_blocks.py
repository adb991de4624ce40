"""Tests for generalized Stirling numbers, the block-count pmf, and the
diversity density.

Three independent routes to the Stirling triangle (linear-scale recurrence,
exact-rational alternating sum, alpha = 1/2 closed product) must coincide;
the pmf must match brute-force enumeration and sum to one without any
renormalization; the diversity density must be consistent between its
generic and closed forms, integrate to one, and reduce to a delta-free law
at gamma = 0.
"""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from pktilt import blocks
from pktilt.blocks import BlockCountPmf, blocks_pmf, diversity_density, stirling_table
from pktilt.eppf import EtaMemo, log_vnk
from pktilt.oracle import (
    bell_polynomial_half,
    diversity_density_half,
    exact_blocks_pmf,
    stirling_explicit,
)
from pktilt.specfun import CancellationError, QuadratureSpec, integrate_decaying
from pktilt.tempered_stable import GGParams

ALPHAS = (0.25, 0.5, 0.75)


# ---------------------------------------------------------------------------
# Stirling numbers


def stirling_rows(alpha, n_max):
    """S_alpha(n, k) as rows[n][k], 0.0 at k = 0 and k = n + 1."""
    return {n: np.exp(stirling_table(alpha, n)) for n in range(1, n_max + 1)}


def test_stirling_table_edge_columns():
    for alpha in ALPHAS:
        for n in range(1, 10):
            row = stirling_table(alpha, n)
            assert row.shape == (n + 2,)
            assert row[0] == row[n + 1] == -math.inf
            assert row[n] == pytest.approx(0.0, abs=1e-13)
        # S(n, 1) = (1 - alpha)_(n-1)
        for n in range(2, 10):
            ref = math.fsum(math.log(1.0 - alpha + i) for i in range(n - 1))
            assert stirling_table(alpha, n)[1] == pytest.approx(ref, rel=1e-13)


def test_stirling_table_recurrence_identity():
    alpha = 0.6
    rows = stirling_rows(alpha, 10)
    for n in range(1, 10):
        for k in range(1, n + 2):
            lhs = rows[n + 1][k]
            stay, shift = rows[n][k], rows[n][k - 1]
            assert lhs == pytest.approx(shift + (n - k * alpha) * stay, rel=1e-12)


def exact_log_rows(p, j, ns):
    """log S_alpha(n, k), k = 1..n, for each n in ns at dyadic alpha = p / 2^j,
    from the integers T(m, k) = S_alpha(m, k) 2^(j (m - 1)): each T is rounded
    once, to a correctly rounded mantissa in [1/2, 1), and its log is taken
    with the exponent's log 2 at 50 digits."""
    one, rows, row = 1 << j, {}, [0, 1]
    for m in range(1, max(ns)):
        row.append(0)
        row = [0] + [row[k - 1] * one + (m * one - k * p) * row[k] for k in range(1, m + 2)]
        if m + 1 in ns:
            rows[m + 1] = row[1:]
    out = {}
    with localcontext() as ctx:
        ctx.prec = 50
        ln2 = Decimal(2).ln()
        for n, row in rows.items():
            logs = []
            for tk in row:
                ex = tk.bit_length()
                logs.append(float(Decimal(tk / (1 << ex)).ln() + (ex - j * (n - 1)) * ln2))
            out[n] = np.array(logs)
    return out


@pytest.mark.parametrize("p, j", [(1, 40), (1, 6), (1, 1), (63, 6), ((1 << 40) - 1, 40)])
def test_stirling_table_matches_exact_integer_row(p, j):
    # within 4 eps of max(1, |log S|): about the floor of a float log, with
    # no error that grows with the row
    alpha = p / 2.0**j
    eps = np.finfo(float).eps
    for n, ref in exact_log_rows(p, j, (60, 300)).items():
        got = stirling_table(alpha, n)[1:n + 1]
        err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 4.0 * eps, (n, err.max() / eps)


@pytest.mark.parametrize("alpha", [0.3, 0.9, 1.0 - 2.0**-40])
def test_stirling_table_does_not_depend_on_renormalisation(alpha, monkeypatch):
    # scaling by a power of two is exact, so when the mantissas are
    # renormalised changes no bit of the row
    for n in (1, 2, 16, 17, 33, 500):
        rows = []
        for steps in (1, 7, 16):
            monkeypatch.setattr(blocks, "_RENORM_STEPS", steps)
            rows.append(stirling_table(alpha, n))
        assert np.array_equal(rows[0], rows[1]) and np.array_equal(rows[0], rows[2]), n


@pytest.mark.parametrize("alpha", [5e-324, 1e-300, 1.0 - 2.0**-53])
def test_stirling_table_finite_at_the_ends_of_alpha(alpha):
    # the mantissas stay in the normal float range where m - k alpha is
    # nearly m at every k, and where it falls to m 2^-53 at k = m
    n = 2000
    row = stirling_table(alpha, n)
    assert np.isfinite(row[1:n + 1]).all()
    assert row[n] == 0.0
    ref = math.fsum(math.log(i - alpha) for i in range(1, n))  # S(n, 1) = (1 - alpha)_(n-1)
    assert row[1] == pytest.approx(ref, rel=1e-13)


def test_stirling_table_validation():
    with pytest.raises(ValueError):
        stirling_table(0.0, 5)
    with pytest.raises(ValueError):
        stirling_table(0.5, 0)


def test_stirling_explicit_small_exact_values():
    # S(1,1) = 1; S(2,1) = 1 - alpha; S(3,2) = 3(1 - alpha) -- all directly
    # from the defining recurrence
    for alpha in ALPHAS:
        assert stirling_explicit(alpha, 1, 1) == pytest.approx(1.0, rel=1e-15)
        assert stirling_explicit(alpha, 2, 1) == pytest.approx(1.0 - alpha, rel=1e-15)
        assert stirling_explicit(alpha, 3, 2) == pytest.approx(
            3.0 * (1.0 - alpha), rel=1e-15
        )
    assert stirling_explicit(0.5, 3, 2) == pytest.approx(1.5, rel=1e-15)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_stirling_explicit_matches_recurrence(alpha):
    rows = stirling_rows(alpha, 12)
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert stirling_explicit(alpha, n, k) == pytest.approx(
                rows[n][k], rel=1e-12
            ), (n, k)


def test_half_closed_product_matches_both_routes():
    rows = stirling_rows(0.5, 12)
    for n in range(1, 13):
        for k in range(1, n + 1):
            c = bell_polynomial_half(n, k)
            assert rows[n][k] == pytest.approx(c, rel=1e-12), (n, k)
            assert stirling_explicit(0.5, n, k) == pytest.approx(c, rel=1e-12), (n, k)


def test_stirling_explicit_validation():
    with pytest.raises(ValueError):
        stirling_explicit(1.5, 3, 2)
    with pytest.raises(ValueError):
        stirling_explicit(0.5, 2, 3)


# ---------------------------------------------------------------------------
# block-count pmf


def test_blocks_pmf_matches_enumeration():
    for params in [GGParams(0.5, 1.0, 1.0), GGParams(0.3, 0.7, 1.5)]:
        fast = blocks_pmf(7, params)
        brute = exact_blocks_pmf(7, params)
        for a, b in zip(fast.probabilities, brute.probabilities):
            assert a == pytest.approx(b, abs=1e-12)


def test_blocks_pmf_sums_to_one_unnormalized():
    for params in [
        GGParams(0.25, 0.5, 2.0),
        GGParams(0.5, 1.0, 1.0),
        GGParams(0.75, 2.0, 0.0),
    ]:
        pmf = blocks_pmf(30, params)
        assert pmf.total == pytest.approx(1.0, abs=1e-10)


def test_blocks_pmf_reads_one_row_at_large_n():
    # rows n of eta and of S_alpha only: the two triangles at n = 10000
    # would take about 800 MB
    params = GGParams(0.4, 2.0, 0.0)
    tracemalloc.start()
    try:
        pmf = blocks_pmf(10000, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(pmf.total - 1.0) <= 1e-8
    assert peak < 8e6, peak


def test_blocks_pmf_sums_to_one_at_large_n_small_alpha():
    # the sum drifts with the rounding of the row's 10^4 steps; a log-scale
    # row reaches 5.1e-11 here
    pmf = blocks_pmf(10000, GGParams(0.1, 2.0, 0.0))
    assert abs(pmf.total - 1.0) <= 2e-11


def test_blocks_pmf_reuses_supplied_tables():
    params = GGParams(0.5, 1.0, 1.0)
    eta = EtaMemo(params)
    eta.ensure_rows(12)
    cells_before = eta.quadrature_cells
    pmf = blocks_pmf(12, params, eta=eta)
    assert eta.quadrature_cells == cells_before  # no extra integrals
    assert pmf.total == pytest.approx(1.0, abs=1e-10)


def test_block_count_pmf_mean_and_validation():
    pmf = BlockCountPmf(n=3, probabilities=(0.2, 0.5, 0.3))
    assert pmf.mean() == pytest.approx(2.1, rel=1e-15)
    with pytest.raises(ValueError):
        BlockCountPmf(n=2, probabilities=(1.0,))
    with pytest.raises(ValueError):
        blocks_pmf(0, GGParams(0.5, 1.0, 1.0))


def test_blocks_pmf_is_v_times_stirling():
    # the array expression over row n against V_{n,k} S_alpha(n, k) per cell
    for params in [GGParams(0.3, 0.7, 1.5), GGParams(0.75, 2.0, 0.0)]:
        eta = EtaMemo(params)
        row = stirling_table(params.alpha, 40)
        pmf = blocks_pmf(40, params, eta=eta)
        for k, p in enumerate(pmf.probabilities, start=1):
            ref = math.exp(log_vnk(40, k, params, eta=eta).log_magnitude + row[k])
            assert p == pytest.approx(ref, rel=1e-15, abs=0.0), (params, k)


def test_blocks_pmf_gamma_zero_is_delta_free():
    a = blocks_pmf(10, GGParams(0.5, 0.5, 0.0)).probabilities
    b = blocks_pmf(10, GGParams(0.5, 2.0, 0.0)).probabilities
    for x, y in zip(a, b):
        assert x == pytest.approx(y, rel=1e-9)


# ---------------------------------------------------------------------------
# diversity density


def test_diversity_half_closed_value():
    # (1/sqrt(pi)) exp(delta - delta^2/s^2 - s^2/4) at delta = 1, s = 1
    ref = math.exp(-0.25) / math.sqrt(math.pi)
    assert diversity_density_half(1.0, 1.0) == pytest.approx(ref, rel=1e-15)
    assert ref == pytest.approx(0.4393912894677224, rel=1e-14)


def test_diversity_generic_matches_half_closed():
    worst = 0.0
    for delta in (0.5, 1.0, 2.0):
        p = GGParams(0.5, delta, 1.0)
        for s in np.geomspace(0.05, 10.0, 60):
            g = diversity_density(p, float(s))
            h = diversity_density_half(delta, float(s))
            if h > 1e-300:
                worst = max(worst, abs(g / h - 1.0))
    assert worst < 1e-11


def test_diversity_gamma_zero_is_delta_free_limit_law():
    # at gamma = 0 the diversity is the delta-free law (1/sqrt(pi)) e^(-s^2/4)
    for s in (0.3, 1.0, 2.5):
        ref = math.exp(-0.25 * s * s) / math.sqrt(math.pi)
        for delta in (0.5, 1.0, 2.0):
            got = diversity_density(GGParams(0.5, delta, 0.0), s)
            assert got == pytest.approx(ref, rel=1e-12), (delta, s)


def test_diversity_integrates_to_one():
    for delta, gamma in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)]:
        dg = delta * gamma

        def log_f(s, dg=dg):
            ss = np.maximum(s, 1e-300)
            with np.errstate(divide="ignore", over="ignore"):
                return np.where(
                    s > 0.0,
                    dg - 0.5 * math.log(math.pi) - (dg / ss) ** 2 - 0.25 * ss * ss,
                    -np.inf,
                )

        r = integrate_decaying(log_f, 0.0, QuadratureSpec(1e-10))
        assert r.value == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("s", [1300.0, 1414.2135623730951, 1420.0, 1500.0])
def test_diversity_large_tilt_does_not_overflow(s):
    # e^(delta gamma) alone overflows at delta gamma = 1e6; the log-scale sum
    # keeps the density, 0.56 at its mode s = sqrt(2) 1000
    dg = 1e6
    ref = math.exp(dg - 0.5 * math.log(math.pi) - (dg / s) ** 2 - 0.25 * s * s)
    got = diversity_density(GGParams(0.5, 1e6, 1.0), s)
    assert got == pytest.approx(ref, rel=1e-8)


def test_diversity_first_order_dominance_in_delta():
    # density ratio f_(delta2)/f_(delta1) = exp((d2-d1) - (d2^2-d1^2)/s^2) is
    # increasing in s, so a larger delta pushes the diversity stochastically up
    s = np.linspace(0.01, 12.0, 6001)
    f1 = np.array([diversity_density_half(0.8, float(x)) for x in s])
    f2 = np.array([diversity_density_half(1.6, float(x)) for x in s])
    c1 = np.cumsum(f1) * (s[1] - s[0])
    c2 = np.cumsum(f2) * (s[1] - s[0])
    assert np.all(c2 <= c1 + 1e-9)
    assert c1[-1] == pytest.approx(1.0, abs=1e-3)


def test_diversity_generic_alpha_series_region():
    # a non-closed alpha evaluates where the series converges and raises
    # CancellationError beyond, never returning noise
    p = GGParams(0.75, 1.0, 1.0)
    v = diversity_density(p, 0.8)
    assert v > 0.0
    with pytest.raises(CancellationError):
        diversity_density(p, 9.0)


def test_diversity_keeps_its_value_at_tiny_s():
    # at gamma = 0 the density tends to a positive constant as s -> 0, while
    # the stable density it reads at t = 2 s^(-1/alpha) is far below the
    # float range, and past s ~ 1e-277 t itself overflows: the series reads
    # log t
    p = GGParams(0.9, 1.0, 0.0)
    ref = diversity_density(p, 1e-50)
    for s in (1e-150, 1e-200, 1e-300):
        assert diversity_density(p, s) == pytest.approx(ref, rel=1e-12, abs=0.0), s
    assert diversity_density(p, 1e-300) == pytest.approx(0.10511370061, rel=1e-10)


@pytest.mark.parametrize("alpha, s_ref, tiny", [
    (0.02, 1e-50, (1e-100, 1e-200, 1e-300)),
    (0.1, 1e-30, (1e-40, 1e-200, 1e-300)),
])
def test_diversity_has_no_gap_at_small_alpha(alpha, s_ref, tiny):
    # t = 2 s^(-1/alpha) overflows from s ~ 1e-7 at alpha = 0.02 and from
    # s ~ 1e-31 at alpha = 0.1; the density there is its limit 1 / Gamma(1 - alpha)
    p = GGParams(alpha, 1.0, 0.0)
    ref = diversity_density(p, s_ref)
    assert ref == pytest.approx(1.0 / math.gamma(1.0 - alpha), rel=1e-12)
    for s in tiny:
        assert diversity_density(p, s) == pytest.approx(ref, rel=1e-12, abs=0.0), s


def test_diversity_validation():
    with pytest.raises(ValueError):
        diversity_density(GGParams(0.5, 1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        diversity_density_half(0.0, 1.0)
    with pytest.raises(ValueError):
        diversity_density_half(1.0, -1.0)
