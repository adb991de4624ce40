"""Acceptance gate: the ten product-level criteria, one test per criterion.

Each test enforces the stated tolerance (and runtime budget where one is
stated) and prints a single summary line; `pytest -v` therefore shows one
pass/fail line per criterion. Shared eta tables are cached across criteria
so the whole gate stays well inside the runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from pktilt.blocks import blocks_pmf, diversity_density, stirling_table
from pktilt.eppf import Composition, EtaMemo, log_eppf, log_eta, log_eta_half_closed
from pktilt.oracle import (
    bell_polynomial_half,
    diversity_density_half,
    enumerate_set_partitions,
    exact_blocks_pmf,
    stirling_explicit,
)
from pktilt.sampler import empirical_diversity, monte_carlo_blocks
from pktilt.specfun import QuadratureSpec, integrate_decaying, log_rising_factorial
from pktilt.tempered_stable import (
    GGParams,
    laplace_exponent,
    levy_density,
    sample_tempered,
)

ALPHAS = (0.25, 0.5, 0.75)
DELTAS = (0.5, 1.0, 2.0)
GAMMAS = (0.0, 1.0, 2.0)
FULL_GRID = tuple(
    GGParams(a, d, g) for a in ALPHAS for d in DELTAS for g in GAMMAS
)

_MEMOS: dict[tuple[float, float, float], EtaMemo] = {}


def get_memo(params: GGParams, rows: int) -> EtaMemo:
    key = (params.alpha, params.delta, params.gamma)
    memo = _MEMOS.get(key)
    if memo is None:
        memo = _MEMOS[key] = EtaMemo(params)
    memo.ensure_rows(rows)
    return memo


@pytest.fixture(scope="module")
def shape_counts():
    """shape_counts[n] maps a sorted block-size shape to the number of set
    partitions of {1..n} with that shape, from brute-force enumeration."""
    out = {}
    for n in range(1, 9):
        counts: dict[tuple[int, ...], int] = {}
        for part in enumerate_set_partitions(n):
            shape = tuple(sorted(part.block_sizes, reverse=True))
            counts[shape] = counts.get(shape, 0) + 1
        out[n] = counts
    return out


# ---------------------------------------------------------------------------


def test_criterion_01_eppf_normalization_full_grid(shape_counts):
    t0 = time.perf_counter()
    worst = 0.0
    for params in FULL_GRID:
        memo = get_memo(params, 8)
        for n in range(1, 9):
            total = math.fsum(
                cnt * log_eppf(Composition(shape), params, eta=memo).value
                for shape, cnt in shape_counts[n].items()
            )
            worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"worst |sum - 1| = {worst:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s (budget 60s)"
    print(
        f"ACCEPTANCE 01 EPPF normalization, 27-point grid, n <= 8: PASS "
        f"(worst residual {worst:.3e}, {elapsed:.1f}s)"
    )


def test_criterion_02_eppf_additivity_full_grid(shape_counts):
    # per-cell quadratures, not the recurrence table: on table rows the
    # decomposition holds by construction
    worst = 0.0
    for params in FULL_GRID:
        memo = EtaMemo(params)
        for n in range(1, 9):
            for shape in shape_counts[n]:
                c = Composition(shape)
                parent = log_eppf(c, params, eta=memo).value
                kids = [
                    log_eppf(c.with_increment(j), params, eta=memo).value
                    for j in range(c.k)
                ]
                kids.append(log_eppf(c.with_new_block(), params, eta=memo).value)
                worst = max(worst, abs(math.fsum(kids) / parent - 1.0))
    assert worst <= 1e-8, f"worst additivity residual = {worst:.3e}"
    print(
        f"ACCEPTANCE 02 EPPF additivity, 27-point grid, n <= 8: PASS "
        f"(worst residual {worst:.3e})"
    )


def test_criterion_03_closed_form_vs_quadrature_eta():
    worst = 0.0
    for delta in DELTAS:
        params = GGParams(0.5, delta, 1.0)
        for n in range(1, 13):
            for k in range(1, n + 1):
                lc = log_eta_half_closed(n, k, params).log_magnitude
                lq = log_eta(n, k, params).log_magnitude
                worst = max(worst, abs(math.expm1(lq - lc)))
    assert worst <= 1e-8, f"worst closed/quadrature rel dev = {worst:.3e}"
    print(
        f"ACCEPTANCE 03 closed-form eta vs quadrature, n <= 12: PASS "
        f"(worst rel dev {worst:.3e})"
    )


def test_criterion_04_pd_alpha_zero_boundary(shape_counts):
    worst = 0.0
    for alpha in ALPHAS:
        for delta in (0.5, 2.0):
            params = GGParams(alpha, delta, 0.0)
            memo = get_memo(params, 8)
            for n in range(1, 9):
                for shape in shape_counts[n]:
                    k = len(shape)
                    got = log_eppf(Composition(shape), params, eta=memo).log_magnitude
                    ref = (
                        (k - 1) * math.log(alpha)
                        + math.lgamma(k)
                        - math.lgamma(n)
                        + math.fsum(
                            log_rising_factorial(1.0 - alpha, b - 1) for b in shape
                        )
                    )
                    worst = max(worst, abs(math.expm1(got - ref)))
    assert worst <= 1e-8, f"worst boundary rel dev = {worst:.3e}"
    print(
        f"ACCEPTANCE 04 gamma = 0 EPPF equals two-parameter closed form: PASS "
        f"(worst rel dev {worst:.3e})"
    )


def test_criterion_05_stirling_cross_checks():
    worst = 0.0
    for alpha in ALPHAS:
        tab = stirling_table(alpha, 12)
        for n in range(1, 13):
            for k in range(1, n + 1):
                rec = tab.value(n, k).value
                worst = max(worst, abs(stirling_explicit(alpha, n, k) / rec - 1.0))
    assert worst <= 1e-8, f"worst recurrence/explicit rel dev = {worst:.3e}"

    worst_half = 0.0
    tab = stirling_table(0.5, 12)
    for n in range(1, 13):
        for k in range(1, n + 1):
            closed = bell_polynomial_half(n, k)
            worst_half = max(
                worst_half,
                abs(tab.value(n, k).value / closed - 1.0),
                abs(stirling_explicit(0.5, n, k) / closed - 1.0),
            )
    assert worst_half <= 1e-10, f"worst vs half closed form = {worst_half:.3e}"
    print(
        f"ACCEPTANCE 05 Stirling recurrence vs explicit sum vs closed form: PASS "
        f"(worst {worst:.3e}, half closed {worst_half:.3e})"
    )


def test_criterion_06_blocks_pmf_enumeration_and_normalization():
    worst = 0.0
    for params in FULL_GRID:
        memo = get_memo(params, 8)
        for n in range(1, 9):
            fast = blocks_pmf(n, params, eta=memo)
            exact = exact_blocks_pmf(n, params)
            worst = max(
                worst,
                max(
                    abs(a - b)
                    for a, b in zip(fast.probabilities, exact.probabilities)
                ),
            )
    assert worst <= 1e-8, f"worst pmf entry dev = {worst:.3e}"

    worst_total = 0.0
    for params in FULL_GRID:
        memo = get_memo(params, 30)
        for n in range(1, 31):
            pmf = blocks_pmf(n, params, eta=memo)
            worst_total = max(worst_total, abs(pmf.total - 1.0))
    assert worst_total <= 1e-8, f"worst pmf sum residual = {worst_total:.3e}"
    print(
        f"ACCEPTANCE 06 block-count pmf vs enumeration and normalization to "
        f"n = 30: PASS (entry dev {worst:.3e}, sum residual {worst_total:.3e})"
    )


def _labels_of(partition) -> tuple[int, ...]:
    out = [0] * partition.n
    for b_idx, block in enumerate(partition.blocks, start=1):
        for el in block:
            out[el - 1] = b_idx
    return tuple(out)


def _sequential_log_prob(labels, params, eta) -> float:
    alpha, delta = params.alpha, params.delta
    sizes = [1]
    logp = 0.0
    for i in range(1, len(labels)):
        cur, k = i, len(sizes)
        le = eta.log_row(cur)[k]
        row_next = eta.log_row(cur + 1)
        w_new = (2.0 / cur) * alpha * delta * math.exp(row_next[k + 1] - le)
        w_old = (2.0 / cur) * (cur - k * alpha) * math.exp(row_next[k] - le)
        lab = labels[i]
        if lab == k + 1:
            logp += math.log(w_new / (w_new + w_old))
            sizes.append(1)
        else:
            logp += math.log(w_old / (w_new + w_old)) + math.log(
                (sizes[lab - 1] - alpha) / (cur - k * alpha)
            )
            sizes[lab - 1] += 1
    return logp


def test_criterion_07_sampler_path_probability_exactness():
    spec = QuadratureSpec(1e-12)
    worst = 0.0
    for params in [
        GGParams(0.25, 0.5, 2.0),
        GGParams(0.5, 1.0, 1.0),
        GGParams(0.5, 2.0, 0.0),
        GGParams(0.75, 2.0, 0.5),
    ]:
        memo = EtaMemo(params, spec)
        memo.ensure_rows(6)
        cells = EtaMemo(params, spec)  # no table: the EPPF side is per-cell quadrature
        cache: dict[tuple[int, ...], float] = {}
        for n in range(1, 6):
            total = []
            for part in enumerate_set_partitions(n):
                lp = _sequential_log_prob(_labels_of(part), params, memo)
                shape = tuple(sorted(part.block_sizes, reverse=True))
                if shape not in cache:
                    cache[shape] = log_eppf(
                        Composition(shape), params, eta=cells
                    ).log_magnitude
                worst = max(worst, abs(math.expm1(lp - cache[shape])))
                total.append(math.exp(lp))
            assert math.fsum(total) == pytest.approx(1.0, abs=1e-10)
    assert worst <= 1e-10, f"worst path/EPPF rel dev = {worst:.3e}"
    print(
        f"ACCEPTANCE 07 sampler path probabilities equal the EPPF, n <= 5: PASS "
        f"(worst rel dev {worst:.3e})"
    )


def test_criterion_08_monte_carlo_block_counts():
    t0 = time.perf_counter()
    params = GGParams(0.5, 1.0, 1.0)
    memo = get_memo(params, 20)
    report = monte_carlo_blocks(20, params, replicates=100_000, seed=0, eta=memo)
    elapsed = time.perf_counter() - t0
    assert report.tv_distance < 0.01, f"TV = {report.tv_distance:.5f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s (budget 120s)"
    print(
        f"ACCEPTANCE 08 Monte Carlo block counts, n = 20, 1e5 replicates: PASS "
        f"(TV {report.tv_distance:.5f}, {elapsed:.1f}s)"
    )


def test_criterion_09_diversity_density_and_convergence():
    # closed form vs generic change of variables
    worst = 0.0
    for delta in DELTAS:
        p = GGParams(0.5, delta, 1.0)
        for s in np.geomspace(0.05, 10.0, 80):
            generic = diversity_density(p, float(s))
            closed = diversity_density_half(delta, float(s))
            if closed > 1e-300:
                worst = max(worst, abs(generic / closed - 1.0))
    assert worst <= 1e-10, f"worst closed/generic rel dev = {worst:.3e}"

    # density integrates to one
    worst_int = 0.0
    for delta in DELTAS:
        const = delta - 0.5 * math.log(math.pi)

        def log_f(s, delta=delta, const=const):
            ss = np.maximum(s, 1e-300)
            with np.errstate(divide="ignore", over="ignore"):
                return np.where(
                    s > 0.0, const - (delta / ss) ** 2 - 0.25 * ss * ss, -np.inf
                )

        val = integrate_decaying(log_f, 0.0, QuadratureSpec(1e-10)).value
        worst_int = max(worst_int, abs(val - 1.0))
    assert worst_int <= 1e-8, f"worst integral residual = {worst_int:.3e}"

    # KS distance to the analytic cdf shrinks along n = 200, 800, 3200:
    # exactly (lattice KS from the exact pmf) and empirically on fixed seeds
    params = GGParams(0.5, 1.0, 1.0)
    memo = get_memo(params, 3200)
    s_grid = np.linspace(1e-4, 14.0, 28001)
    dens = np.array([diversity_density_half(1.0, float(x)) for x in s_grid])
    cdf = np.concatenate(
        [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(s_grid))]
    )
    cdf /= cdf[-1]

    def analytic_cdf(x):
        return np.interp(x, s_grid, cdf)

    exact_ks = []
    empirical_ks = []
    for n in (200, 800, 3200):
        pmf = blocks_pmf(n, params, eta=memo)
        scale = math.sqrt(n)
        cum = 0.0
        ks = 0.0
        for k, prob in enumerate(pmf.probabilities, start=1):
            f_here = float(analytic_cdf(k / scale))
            ks = max(ks, abs(cum + prob - f_here), abs(cum - f_here))
            cum += prob
        exact_ks.append(ks)

        sample = np.sort(
            empirical_diversity(n, params, replicates=2000, seed=2, eta=memo)
        )
        f_vals = analytic_cdf(sample)
        idx = np.arange(1, len(sample) + 1, dtype=float)
        empirical_ks.append(
            float(
                np.max(
                    np.maximum(idx / len(sample) - f_vals,
                               f_vals - (idx - 1) / len(sample))
                )
            )
        )
    assert exact_ks[0] > exact_ks[1] > exact_ks[2], f"exact KS {exact_ks}"
    assert empirical_ks[1] <= empirical_ks[0] and empirical_ks[2] <= empirical_ks[1], (
        f"empirical KS {empirical_ks}"
    )
    print(
        "ACCEPTANCE 09 diversity density identities and KS convergence: PASS "
        f"(closed/generic {worst:.3e}, integral {worst_int:.3e}, "
        f"exact KS {[round(v, 5) for v in exact_ks]}, "
        f"empirical KS {[round(v, 5) for v in empirical_ks]})"
    )


def test_criterion_10_tempered_stable_machinery():
    params = GGParams(0.5, 1.0, 1.0)
    rng = np.random.default_rng(4)
    draws, stats = sample_tempered(params, rng, size=1_000_000, return_stats=True)

    worst_z = 0.0
    for lam in (0.5, 1.0, 2.0):
        x = np.exp(-lam * draws)
        target = math.exp(-laplace_exponent(params, lam))
        se = float(np.std(x, ddof=1)) / math.sqrt(len(x))
        z = abs(float(np.mean(x)) - target) / se
        worst_z = max(worst_z, z)
        assert z <= 3.0, f"Laplace transform at lam={lam}: {z:.2f} SE"

    rate = stats["accepted"] / stats["proposed"]
    target_rate = math.exp(-params.delta * params.gamma)
    se_rate = math.sqrt(target_rate * (1.0 - target_rate) / stats["proposed"])
    z_rate = abs(rate - target_rate) / se_rate
    assert z_rate <= 3.0, f"acceptance rate off by {z_rate:.2f} SE"

    worst_lk = 0.0
    for p in [
        GGParams(0.5, 1.0, 1.0),
        GGParams(0.75, 2.0, 0.5),
        GGParams(0.25, 0.5, 2.0),
        GGParams(0.6, 1.0, 0.0),
    ]:
        for lam in (0.5, 1.0, 2.0):

            def log_f(s, lam=lam, p=p):
                s = np.asarray(s, float)
                ss = np.maximum(s, 1e-300)
                with np.errstate(divide="ignore", invalid="ignore"):
                    one = np.where(
                        lam * ss > 1e-8,
                        -np.expm1(-lam * ss),
                        lam * ss * (1.0 - 0.5 * lam * ss),
                    )
                    v = np.log(one) + np.log(levy_density(p, ss))
                return np.where(s > 0.0, v, -np.inf)

            val = integrate_decaying(log_f, 0.0, QuadratureSpec(1e-8)).value
            worst_lk = max(worst_lk, abs(val / laplace_exponent(p, lam) - 1.0))
    assert worst_lk <= 1e-6, f"worst Levy-Khintchine rel dev = {worst_lk:.3e}"
    print(
        "ACCEPTANCE 10 total-mass sampler and Levy-Khintchine identity: PASS "
        f"(worst Laplace z {worst_z:.2f} SE, acceptance z {z_rate:.2f} SE, "
        f"LK rel dev {worst_lk:.3e})"
    )
