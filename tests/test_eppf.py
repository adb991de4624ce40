"""Tests for the partition-probability core: eta integrals, Gibbs weights,
the EPPF, predictive rules, and the recurrence-filled eta table.

Oracles: the n = k = 1 integral has the elementary value
1 / (2 alpha) for every beta = delta gamma; the gamma = 0 closed form
Gamma(k) 2^(-n) / alpha, which serves eta there, is the
gamma -> 0+ limit of the tilted quadrature; and the alpha = 1/2 closed form
is an independent route against generic quadrature.
"""

import math
import tracemalloc

import numpy as np
import pytest

from pktilt import eppf
from pktilt.eppf import (
    Composition,
    EtaMemo,
    PredictiveDistribution,
    log_eppf,
    log_eta,
    log_eta_half_closed,
    log_vnk,
    predictive,
)
from pktilt.blocks import blocks_pmf
from pktilt.oracle import exact_blocks_pmf
from pktilt.sampler import empirical_diversity, monte_carlo_blocks, sample_partition
from pktilt.specfun import CancellationError, QuadratureError, QuadratureSpec
from pktilt.tempered_stable import GGParams

PARAM_GRID = [
    GGParams(0.25, 0.5, 2.0),
    GGParams(0.5, 1.0, 1.0),
    GGParams(0.5, 2.0, 0.0),
    GGParams(0.75, 2.0, 0.5),
]

TIGHT = QuadratureSpec(relative_tolerance=1e-12)

EPS = 2.220446049250313e-16


# ---------------------------------------------------------------------------
# Composition


def test_composition_basic():
    c = Composition((3, 1, 2))
    assert c.n == 6 and c.k == 3
    assert c.with_increment(1).block_sizes == (3, 2, 2)
    assert c.with_new_block().block_sizes == (3, 1, 2, 1)


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition(())
    with pytest.raises(ValueError):
        Composition((2, 0))
    with pytest.raises(ValueError):
        Composition((1.5,))


# ---------------------------------------------------------------------------
# eta


@pytest.mark.parametrize("params", PARAM_GRID)
def test_eta_1_1_elementary_value(params):
    # eta carries the tilt factor e^beta, so beta drops out here
    ref = 1.0 / (2.0 * params.alpha)
    assert log_eta(1, 1, params, TIGHT).value == pytest.approx(ref, rel=1e-11)


def test_eta_gamma_zero_closed_triangle():
    # eta at gamma = 0 is the closed form; its oracle is the tilted
    # quadrature at delta gamma = 1e-14, whose gap to the limit is far below
    # the tolerance (at delta gamma = 1e-6 it would be about 1e-6)
    cells = [(1, 1), (2, 1), (2, 2), (7, 3), (40, 13), (150, 1), (150, 150)]
    for alpha in (0.02, 0.1, 0.3, 0.5, 0.75, 0.9, 0.98):
        for delta in (1e-6, 0.1, 1.0, 10.0, 1e6):
            p0 = GGParams(alpha, delta, 0.0)
            p = GGParams(alpha, delta, 1e-14 / delta)
            for n, k in cells:
                ref = math.lgamma(k) - n * math.log(2.0) - math.log(alpha)
                assert log_eta(n, k, p0).log_magnitude == pytest.approx(
                    ref, rel=1e-15, abs=1e-13
                ), (alpha, delta, n, k)
                assert log_eta(n, k, p, TIGHT).log_magnitude == pytest.approx(
                    ref, abs=1e-10
                ), (alpha, delta, n, k)


def test_eta_gamma_zero_runs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature at gamma = 0")

    monkeypatch.setattr(eppf, "integrate_decaying", refuse)
    monkeypatch.setattr(eppf, "_integrate_family", refuse)
    p = GGParams(0.4, 2.0, 0.0)
    memo = EtaMemo(p)
    memo.ensure_rows(300)
    assert memo.log_eta(300, 7) == pytest.approx(
        math.lgamma(7) - 300 * math.log(2.0) - math.log(0.4),
        abs=1e-10,
    )
    cells = EtaMemo(p)
    assert log_eta(9, 4, p).value > 0.0
    assert predictive(Composition((3, 2, 1)), p, eta=cells).total == pytest.approx(
        1.0, abs=1e-13
    )
    assert blocks_pmf(50, p, eta=memo).total == pytest.approx(1.0, abs=1e-12)
    assert memo.quadrature_cells == 0 and cells.quadrature_cells == 0


def test_eta_half_closed_vs_quadrature():
    for delta in (0.5, 1.0, 2.0):
        p = GGParams(0.5, delta, 1.0)
        for n in range(1, 13):
            for k in range(1, n + 1):
                c = log_eta_half_closed(n, k, p)
                q = log_eta(n, k, p, TIGHT)
                assert c.value == pytest.approx(q.value, rel=1e-9), (delta, n, k)


def test_eta_method_validation():
    p = GGParams(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        log_eta_half_closed(2, 1, GGParams(0.6, 1.0, 1.0))
    with pytest.raises(ValueError):
        log_eta_half_closed(2, 1, GGParams(0.5, 1.0, 0.0))
    with pytest.raises(ValueError):
        log_eta_half_closed(2, 3, p)
    with pytest.raises(ValueError):
        log_eta(0, 1, p)
    with pytest.raises(ValueError):
        log_eta(2, 3, p)


@pytest.mark.parametrize(
    "params",
    [GGParams(0.02, 1.0, 1.0), GGParams(0.02, 1e-6, 1.0),
     GGParams(0.05, 1e-6, 0.0), GGParams(0.05, 1e-6, 50.0),
     GGParams(0.02, 1e6, 50.0), GGParams(0.05, 1e6, 50.0), GGParams(0.1, 1e6, 50.0)],
)
def test_small_alpha_quadrature_does_not_overflow(params):
    # w = (u / delta)^(1/alpha) leaves float range at small alpha; the
    # integrand is formed from log w alone. At delta gamma = 5e7 the gap
    # log w - log gamma^(1/alpha) near the lower limit must come from the
    # offset u - delta gamma: two nearly equal logs keep no digits of it
    assert predictive(Composition((3, 2, 1)), params).total == pytest.approx(1.0, abs=1e-8)
    labels = sample_partition(12, params, 1, 0)
    assert labels.shape == (1, 12) and labels.min() == 1


@pytest.mark.parametrize(
    "params",
    [GGParams(0.5, 1.0, 1e9), GGParams(0.5, 1e3, 1e6),
     GGParams(0.3, 1.0, 1e10), GGParams(0.7, 10.0, 1e8)],
)
def test_predictive_sums_to_one_at_large_tilt(params):
    # a log eta that carried -delta gamma would be rounded to the float
    # spacing of delta gamma, and each eta ratio would lose its last digits
    assert predictive(Composition((3, 2, 1)), params).total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "params", [GGParams(0.5, 1.0, 1.0), GGParams(0.3, 2.0, 5e-15), GGParams(0.02, 1e6, 50.0)]
)
def test_eta_quadrature_work_is_bounded(params, monkeypatch):
    # the bracket around the peak comes from a few array scans, and the
    # Gauss-Kronrod panels take one log_f call for the seed panels, one per
    # round of splits and one per right-tail panel, so one eta quadrature is
    # about ten log_f calls.
    # delta gamma = 1e-14 is where the quadrature is the oracle of the
    # gamma = 0 closed form
    calls = []
    integrate = eppf.integrate_decaying

    def counted(log_f, lower, spec=None):
        calls.append(0)

        def f(x):
            calls[-1] += 1
            return log_f(x)

        return integrate(f, lower, spec)

    monkeypatch.setattr(eppf, "integrate_decaying", counted)
    for n, k in [(1, 1), (40, 7), (300, 150)]:
        log_eta(n, k, params)
    assert len(calls) == 3
    assert max(calls) <= 50, calls


@pytest.mark.parametrize("spec", [None, TIGHT], ids=["default", "tight"])
def test_eta_small_tilt_matches_reference(spec):
    # mpmath reference (40 digits) for log eta(2, 1) at (0.4, 1e-6, 2), tilt
    # factor included: 13.3455055953896363 for the integral at delta, plus
    # ln delta = ln 1e-6. The integrand rises over offsets of order beta =
    # 2e-6, far left of its peak
    le = log_eta(2, 1, GGParams(0.4, 1e-6, 2.0), spec).log_magnitude
    assert abs(le - -0.4700049625746378) <= 1e-10


@pytest.mark.parametrize("alpha,delta,gamma,n", [
    (0.5, 1e-154, 1e-154, 20), (0.5, 1e-160, 1e-160, 20),
    (0.5, 1.0, 3e-308, 20), (0.5, 1.0, 1e-307, 20),
    (0.5, 1.0, 1e-289, 3000), (0.9, 1.0, 1e-289, 3000),
])
def test_eta_tiny_tilt_sums_to_one(alpha, delta, gamma, n):
    # delta gamma subnormal or just above the smallest normal float: the
    # integrand's x / (delta gamma) overflows, and eta takes its gamma = 0
    # form. At 1e-289, just above that threshold, the quadrature runs with
    # x / (delta gamma) up to about 1e307 and must still sum to 1
    p = GGParams(alpha, delta, gamma)
    eta = EtaMemo(p)
    assert abs(math.fsum(blocks_pmf(n, p, eta=eta).probabilities) - 1.0) <= 1e-8
    assert eta.quadrature_cells == (n if delta * gamma >= 1e-290 else 0)
    assert abs(predictive(Composition((3, 2, 1)), p).total - 1.0) <= 1e-8


def test_eta_monotone_in_k_when_tilt_exceeds_one():
    # the integrand carries w^(k alpha - n) with w >= gamma^(1/alpha); for
    # gamma^(1/alpha) >= 1 each extra w^alpha factor is >= 1 pointwise, so
    # eta strictly increases in k
    p = GGParams(0.5, 2.0, 2.0)
    assert p.gamma_root >= 1.0
    vals = [log_eta(6, k, p).log_magnitude for k in range(1, 7)]
    assert all(a < b for a, b in zip(vals[:-1], vals[1:]))


# ---------------------------------------------------------------------------
# V and the EPPF


@pytest.mark.parametrize("params", PARAM_GRID)
def test_v_1_1_is_one(params):
    assert log_vnk(1, 1, params, eta=EtaMemo(params, TIGHT)).value == pytest.approx(
        1.0, rel=1e-10
    )


def test_eppf_symmetric_in_block_order():
    p = GGParams(0.6, 1.2, 0.8)
    a = log_eppf(Composition((4, 2, 1)), p)
    b = log_eppf(Composition((1, 4, 2)), p)
    assert a.value == pytest.approx(b.value, rel=1e-14)


def test_eppf_additivity_small_compositions():
    # p(sizes) = sum_j p(sizes with block j grown) + p(sizes + new singleton)
    for p in PARAM_GRID:
        memo = EtaMemo(p, TIGHT)  # no table: every cell is its own quadrature
        for sizes in [(1,), (2,), (1, 1), (3, 1), (2, 2, 1), (4, 2, 1)]:
            c = Composition(sizes)
            lhs = log_eppf(c, p, eta=memo).value
            rhs = math.fsum(
                log_eppf(c.with_increment(j), p, eta=memo).value for j in range(c.k)
            ) + log_eppf(c.with_new_block(), p, eta=memo).value
            assert rhs == pytest.approx(lhs, rel=1e-9), (p.alpha, sizes)


def test_eppf_pd_boundary_gamma_zero():
    # gamma = 0 must give alpha^(k-1) Gamma(k) / Gamma(n) prod (1-alpha)_(s-1),
    # independent of delta
    for alpha in (0.25, 0.5, 0.75):
        for sizes in [(1,), (2, 1), (3, 2), (2, 2, 1), (5, 1, 1)]:
            c = Composition(sizes)
            ref = (
                (c.k - 1) * math.log(alpha)
                + math.lgamma(c.k)
                - math.lgamma(c.n)
                + math.fsum(
                    math.lgamma(s - alpha) - math.lgamma(1.0 - alpha) for s in sizes
                )
            )
            for delta in (0.5, 2.0):
                p = GGParams(alpha, delta, 0.0)
                got = log_eppf(Composition(sizes), p, eta=EtaMemo(p, TIGHT))
                assert got.log_magnitude == pytest.approx(ref, abs=1e-9), (
                    alpha,
                    delta,
                    sizes,
                )


# ---------------------------------------------------------------------------
# predictive rule


def test_predictive_empty_state():
    pr = predictive(None, GGParams(0.5, 1.0, 1.0))
    assert isinstance(pr, PredictiveDistribution)
    assert pr.existing == ()
    assert pr.new_block == 1.0
    assert pr.total == 1.0


@pytest.mark.parametrize("params", PARAM_GRID)
def test_predictive_sums_to_one(params):
    for sizes in [(1,), (3, 1), (2, 2, 2), (5, 3, 1, 1)]:
        pr = predictive(Composition(sizes), params)
        assert pr.total == pytest.approx(1.0, abs=1e-10)
        assert all(w > 0.0 for w in pr.existing)
        assert pr.new_block > 0.0


def test_predictive_sums_to_one_half_deep_composition():
    # the alpha = 1/2 closed-form sum misses this total by 1.1e-8
    p = GGParams(0.5, 0.873909, 1.68718)
    pr = predictive(Composition((20, 5, 2, 1, 1)), p)
    assert pr.total == pytest.approx(1.0, abs=1e-8)


def test_predictive_weights_proportional_to_size_minus_alpha():
    p = GGParams(0.75, 1.0, 2.0)
    pr = predictive(Composition((4, 2, 1)), p)
    assert pr.existing[0] / pr.existing[1] == pytest.approx(
        (4 - 0.75) / (2 - 0.75), rel=1e-12
    )
    assert pr.existing[1] / pr.existing[2] == pytest.approx(
        (2 - 0.75) / (1 - 0.75), rel=1e-12
    )


def test_predictive_matches_eppf_ratios():
    # the chance of joining block j must equal p(grown) / p(current)
    p = GGParams(0.5, 1.0, 1.0)
    c = Composition((3, 1))
    memo = EtaMemo(p, TIGHT)
    pr = predictive(c, p, eta=memo)
    base = log_eppf(c, p, eta=memo)
    for j in range(c.k):
        ratio = (log_eppf(c.with_increment(j), p, eta=memo) / base).value
        assert pr.existing[j] == pytest.approx(ratio, rel=1e-10)
    ratio_new = (log_eppf(c.with_new_block(), p, eta=memo) / base).value
    assert pr.new_block == pytest.approx(ratio_new, rel=1e-10)


# ---------------------------------------------------------------------------
# EtaMemo table


def test_eta_memo_recurrence_matches_direct_quadrature():
    p = GGParams(0.6, 1.3, 0.8)
    memo = EtaMemo(p, TIGHT)
    memo.ensure_rows(12)
    assert memo.quadrature_cells == 12  # one row of integrals seeds it all
    for n in range(1, 13):
        for k in range(1, n + 1):
            direct = log_eta(n, k, p, TIGHT)
            assert memo.log_eta(n, k) == pytest.approx(
                direct.log_magnitude, abs=1e-10
            ), (n, k)


def test_eta_memo_spot_check_deep_row():
    p = GGParams(0.5, 1.0, 1.0)
    memo = EtaMemo(p)
    memo.ensure_rows(40)
    for k in (1, 7, 25, 40):
        direct = log_eta(40, k, p)
        assert memo.log_eta(40, k) == pytest.approx(
            direct.log_magnitude, abs=1e-9
        ), k


def test_eppf_reads_eta_from_a_shared_memo():
    p = GGParams(0.6, 1.3, 0.8)
    c = Composition((3, 1))
    memo = EtaMemo(p, TIGHT)
    lp = log_eppf(c, p, eta=memo)
    lv = log_vnk(c.n, c.k, p, eta=memo)
    assert memo.quadrature_cells == 1  # log_vnk reuses the EPPF's cell
    fresh_p = log_eppf(c, p, eta=EtaMemo(p, TIGHT))
    fresh_v = log_vnk(c.n, c.k, p, eta=EtaMemo(p, TIGHT))
    assert lp.log_magnitude == pytest.approx(fresh_p.log_magnitude, abs=1e-12)
    assert lv.log_magnitude == pytest.approx(fresh_v.log_magnitude, abs=1e-12)


ETA_CONSUMERS = {
    "log_vnk": lambda p, eta: log_vnk(3, 2, p, eta=eta),
    "log_eppf": lambda p, eta: log_eppf(Composition((2, 1)), p, eta=eta),
    "predictive": lambda p, eta: predictive(Composition((3, 2)), p, eta=eta),
    "predictive_empty": lambda p, eta: predictive(None, p, eta=eta),
    "blocks_pmf": lambda p, eta: blocks_pmf(10, p, eta=eta),
    "sample_partition": lambda p, eta: sample_partition(10, p, 1, 0, eta=eta),
    "monte_carlo_blocks": lambda p, eta: monte_carlo_blocks(10, p, 5, 0, eta=eta),
    "empirical_diversity": lambda p, eta: empirical_diversity(10, p, 5, 0, eta=eta),
    "exact_blocks_pmf": lambda p, eta: exact_blocks_pmf(4, p, eta=eta),
}


@pytest.mark.parametrize("name", sorted(ETA_CONSUMERS))
def test_eta_memo_for_other_params_is_rejected(name):
    memo = EtaMemo(GGParams(0.5, 1.0, 1.0))
    others = [
        GGParams(0.3, 1.0, 1.0),  # another alpha
        GGParams(0.5, 1.0, 2.0),  # the same alpha, another beta
        # the same (alpha, beta), so the same eta, but a memo serves only
        # the params it was built for
        GGParams(0.5, 2.0, 0.5),
    ]
    for other in others:
        with pytest.raises(ValueError, match="eta memo"):
            ETA_CONSUMERS[name](other, memo)
    assert memo.quadrature_cells == 0


def test_eta_memo_log_row_bounds():
    p = GGParams(0.5, 1.0, 1.0)
    memo = EtaMemo(p)
    memo.ensure_rows(5)
    row = memo.log_row(3)
    assert row[1] == memo.log_eta(3, 1)
    # a row off the table is one row quadrature, kept: a later ensure_rows
    # seeds from it and integrates nothing more
    cells = memo.quadrature_cells
    row = memo.log_row(9)
    assert np.array_equal(row[1:10], eppf._log_eta_row(9, p, memo.spec))
    assert row[0] == row[10] == -np.inf
    assert memo.quadrature_cells == cells + 9
    assert memo.log_eta(9, 4) == row[4]
    assert memo.log_row(9) is row
    memo.ensure_rows(9)
    assert memo.quadrature_cells == cells + 9
    assert memo.log_row(9) is row


def test_eta_memo_extends_monotonically():
    p = GGParams(0.5, 1.0, 1.0)
    memo = EtaMemo(p)
    memo.ensure_rows(4)
    first = memo.log_eta(4, 2)
    memo.ensure_rows(10)
    again = memo.log_eta(4, 2)
    # rebuilt from a deeper seed row: same value to quadrature accuracy
    assert again == pytest.approx(first, abs=1e-10)
    assert memo.log_eta(10, 3) == pytest.approx(
        log_eta(10, 3, p).log_magnitude, abs=1e-9
    )


def test_eta_memo_off_table_cells_cached():
    p = GGParams(0.5, 1.0, 1.0)
    memo = EtaMemo(p)
    memo.ensure_rows(3)
    v = memo.log_eta(7, 2)  # beyond the table: integrated and cached
    assert v == pytest.approx(log_eta(7, 2, p).log_magnitude, abs=1e-10)
    assert memo.log_eta(7, 2) == v


# ---------------------------------------------------------------------------
# the top row on one panel set

ROW_SPEC = QuadratureSpec(relative_tolerance=1e-13)


@pytest.mark.parametrize("alpha", [0.02, 0.1, 0.25, 0.5, 0.75, 0.9, 0.98])
def test_eta_row_matches_cells(alpha):
    # each k of a row integrated on the shared panels agrees with its own
    # quadrature to the tolerance plus a few roundings of log eta; where a
    # cell cannot be certified, neither can the row
    for delta in (1e-6, 1.0, 1e6):
        for gamma in (1e-12, 1.0, 50.0):
            p = GGParams(alpha, delta, gamma)
            for n in (1, 2, 7, 40, 300):
                ks = range(1, n + 1) if n <= 7 else sorted({1, 2, 3, n // 3, n // 2, n - 1, n})
                try:
                    refs = {k: eppf._log_eta_cell(n, k, p, ROW_SPEC) for k in ks}
                except (QuadratureError, CancellationError):
                    with pytest.raises((QuadratureError, CancellationError)):
                        eppf._log_eta_row(n, p, ROW_SPEC)
                    continue
                row = eppf._log_eta_row(n, p, ROW_SPEC)
                for k, ref in refs.items():
                    gap = abs(row[k - 1] - ref)
                    assert gap <= ROW_SPEC.relative_tolerance + 8 * EPS * abs(ref), (
                        alpha, delta, gamma, n, k, gap,
                    )


def test_eta_row_falls_back_to_cells(monkeypatch):
    # a k the shared panels do not certify is integrated on its own
    forced = [1, 5, 17, 40]
    family = eppf._integrate_family

    def failing(log_terms, ks, lower, spec):
        out, failed = family(log_terms, ks, lower, spec)
        out[np.subtract(forced, 1)] = np.nan
        failed.update({k - 1: "forced" for k in forced})
        return out, failed

    cells = []
    integrate = eppf.integrate_decaying

    def counted(log_f, lower, spec=None):
        cells.append(lower)
        return integrate(log_f, lower, spec)

    monkeypatch.setattr(eppf, "_integrate_family", failing)
    monkeypatch.setattr(eppf, "integrate_decaying", counted)
    p = GGParams(0.6, 1.3, 0.8)
    memo = EtaMemo(p)
    memo.ensure_rows(40)
    assert len(cells) == len(forced) and memo.quadrature_cells == 40
    for k in range(1, 41):
        cell = eppf._log_eta_cell(40, k, p, memo.spec)
        if k in forced:
            assert memo.log_eta(40, k) == cell
        else:
            assert memo.log_eta(40, k) == pytest.approx(cell, abs=1e-10), k


def test_eta_row_raises_the_cell_failure(monkeypatch):
    # a k the shared panels do not certify, and whose own cell fails too,
    # raises the cell's QuadratureError from the row
    p = GGParams(0.6, 1.3, 0.8)
    tight = QuadratureSpec(1e-15)
    with pytest.raises(QuadratureError, match="rounding floor") as cell:
        eppf._log_eta_cell(7, 3, p, tight)
    family, integrate = eppf._integrate_family, eppf.integrate_decaying

    def failing(log_terms, ks, lower, spec):
        out, failed = family(log_terms, ks, lower, spec)
        failed.update({2: "forced"})
        return out, failed

    monkeypatch.setattr(eppf, "_integrate_family", failing)
    monkeypatch.setattr(eppf, "integrate_decaying",
                        lambda log_f, lower, spec=None: integrate(log_f, lower, tight))
    with pytest.raises(QuadratureError) as row:
        eppf._log_eta_row(7, p, ROW_SPEC)
    assert str(row.value) == str(cell.value)


@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize("n", [0, -2, 2.5])
def test_eta_memo_log_row_rejects_bad_n(n, gamma):
    memo = EtaMemo(GGParams(0.5, 1.0, gamma))
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        memo.log_row(n)
    assert memo.quadrature_cells == 0
    assert memo.log_row(2)[1] == memo.log_eta(2, 1)


def test_eta_row_runs_no_cell_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-cell quadrature in the top row")

    monkeypatch.setattr(eppf, "integrate_decaying", refuse)
    memo = EtaMemo(GGParams(0.5, 1.0, 1.0))
    memo.ensure_rows(300)
    assert memo.quadrature_cells == 300


def test_eta_row_working_set_is_capped():
    # B + k D is formed in blocks of at most 2^14 floats. The table of rows
    # 1..600 takes 1.5 MB; B + k D for all k at every seed node at once
    # would take about 18 MB more
    memo = EtaMemo(GGParams(0.5, 1.0, 1.0))
    tracemalloc.start()
    try:
        memo.ensure_rows(600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
