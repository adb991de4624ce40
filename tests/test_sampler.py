"""Tests for the partition sampler and its Monte Carlo wrappers.

The sampler's step probabilities must reproduce the partition law exactly
(path product = EPPF for every partition). Partitions and the K_n chain
behind the Monte Carlo wrappers share one stream rule: one chain generator
and one seating generator per chunk of 256 replicates, so replicate r
depends on (seed, r) alone, its block count is the chain's K_n, and runs
with different target n stay coupled. The wrappers must not seat
partitions at all.
"""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from pktilt.blocks import blocks_pmf
from pktilt.eppf import Composition, EtaMemo, log_eppf
from pktilt.oracle import enumerate_set_partitions
import pktilt.sampler as sampler
from pktilt.sampler import (
    _CHUNK,
    _block_counts,
    _new_block_prob,
    _replicate_rng,
    empirical_diversity,
    monte_carlo_blocks,
    sample_partition,
)
from pktilt.tempered_stable import GGParams

PARAMS = GGParams(0.5, 1.0, 1.0)
SHAPE_LAW_PARAMS = [PARAMS, GGParams(0.3, 0.7, 1.5), GGParams(0.75, 2.0, 0.0)]


def labels_of(partition) -> tuple[int, ...]:
    out = [0] * partition.n
    for b_idx, block in enumerate(partition.blocks, start=1):
        for el in block:
            out[el - 1] = b_idx
    return tuple(out)


def block_sizes(labels) -> list[int]:
    return np.bincount(labels)[1:].tolist()


def sequential_log_prob(labels, eta) -> float:
    """Log probability that the sequential process emits exactly `labels`.

    The new-block branch is the sampler's own _new_block_prob; joining old
    block j adds the factor (n_j - alpha) / (i - k alpha).
    """
    alpha = eta.params.alpha
    sizes = [1]
    logp = 0.0
    for i in range(1, len(labels)):
        k = len(sizes)
        p_new = float(_new_block_prob(eta, i, k))
        lab = labels[i]
        if lab == k + 1:
            logp += math.log(p_new)
            sizes.append(1)
        else:
            logp += math.log1p(-p_new) + math.log((sizes[lab - 1] - alpha) / (i - k * alpha))
            sizes[lab - 1] += 1
    return logp


# ---------------------------------------------------------------------------
# law exactness


@pytest.mark.parametrize(
    "params", [PARAMS, GGParams(0.3, 0.7, 1.5), GGParams(0.75, 2.0, 0.0)]
)
def test_path_probability_equals_eppf(params):
    n = 5
    eta = EtaMemo(params)
    eta.ensure_rows(n + 1)
    total = []
    for part in enumerate_set_partitions(n):
        lp_path = sequential_log_prob(labels_of(part), eta)
        lp_eppf = log_eppf(Composition(part.block_sizes), params).log_magnitude
        assert lp_path == pytest.approx(lp_eppf, abs=1e-10)
        total.append(math.exp(lp_path))
    assert math.fsum(total) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("params", SHAPE_LAW_PARAMS)
def test_sample_partition_shape_law(params):
    # sorted block-size shapes of whole sampled partitions against the
    # enumeration x EPPF law
    n, reps = 6, 20_000
    eta = EtaMemo(params)
    eta.ensure_rows(n)
    law: dict[tuple[int, ...], float] = {}
    for part in enumerate_set_partitions(n):
        shape = tuple(sorted(part.block_sizes, reverse=True))
        p = log_eppf(Composition(part.block_sizes), params, eta=eta).value
        law[shape] = law.get(shape, 0.0) + p
    counts = Counter(
        tuple(sorted(block_sizes(row), reverse=True))
        for row in sample_partition(n, params, reps, 0, eta=eta)
    )
    assert set(counts) <= set(law)
    tv = 0.5 * math.fsum(abs(counts[s] / reps - p) for s, p in law.items())
    assert tv < 0.02, f"shape TV = {tv:.4f}"


# ---------------------------------------------------------------------------
# stream structure


def test_sampler_deterministic_in_seed():
    eta = EtaMemo(PARAMS)
    eta.ensure_rows(26)
    a = sample_partition(25, PARAMS, 5, 7, eta=eta)
    b = sample_partition(25, PARAMS, 5, 7, eta=eta)
    assert np.array_equal(a[3], b[3])
    assert not np.array_equal(a[3], a[4])  # different replicate, different stream


def test_sample_labels_first_use_order():
    eta = EtaMemo(PARAMS)
    eta.ensure_rows(41)
    labels = sample_partition(40, PARAMS, 5, 123, eta=eta)
    assert labels.shape == (5, 40) and labels.dtype == np.int64
    for row in labels:
        assert row[0] == 1
        seen = 0
        for lab in row:
            assert 1 <= lab <= seen + 1  # a new label is always the next integer
            seen = max(seen, lab)


def test_paths_coupled_across_target_n():
    # both streams are drawn step-major, so with a shared eta table the
    # n = 30 run is the first 30 steps of the n = 60 run
    eta = EtaMemo(PARAMS)
    eta.ensure_rows(61)
    small = sample_partition(30, PARAMS, 8, 9, eta=eta)
    big = sample_partition(60, PARAMS, 8, 9, eta=eta)
    assert np.array_equal(big[:, :30], small)
    assert np.all(big.max(axis=1) >= small.max(axis=1))


def test_partition_sample_validation():
    with pytest.raises(ValueError):
        sample_partition(0, PARAMS, 1, 0)
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        sample_partition(-1, PARAMS, 3, 0)
    with pytest.raises(ValueError, match=r"^replicates must be >= 1$"):
        sample_partition(5, PARAMS, 0, 0)
    with pytest.raises(ValueError, match=r"^replicates must be >= 1$"):
        sample_partition(5, PARAMS, -3, 0)


def stepwise_labels(n, params, r, seed, eta) -> list[int]:
    """Replicate r seated one element at a time from the sampler's two streams."""
    c, col = divmod(r, _CHUNK)
    u = _replicate_rng(seed, c).random((n, _CHUNK))[:, col]
    v = _replicate_rng(seed, c, 1).random((n, 2, _CHUNK))[:, :, col]
    alpha = params.alpha
    labels, joined = [1], []  # joined: earlier elements that opened no block
    for i in range(1, n):
        k = max(labels)
        if u[i] < _new_block_prob(eta, i, np.array([k]))[0]:
            labels.append(k + 1)
            continue
        if v[i, 0] * (i - k * alpha) < i - k:
            labels.append(labels[joined[int(v[i, 1] * (i - k))]])
        else:
            labels.append(int(v[i, 1] * k) + 1)
        joined.append(i)
    return labels


@pytest.mark.parametrize("params", SHAPE_LAW_PARAMS)
def test_seating_pass_equals_stepwise_seating(params):
    eta = EtaMemo(params)
    eta.ensure_rows(60)
    labels = sample_partition(60, params, 300, 9, eta=eta)
    for r in (0, 1, 100, 255, 256, 299):
        assert labels[r].tolist() == stepwise_labels(60, params, r, 9, eta)


@pytest.mark.parametrize("params", SHAPE_LAW_PARAMS)
def test_partition_block_count_is_the_chains(params):
    eta = EtaMemo(params)
    eta.ensure_rows(40)
    labels = sample_partition(40, params, 600, 2, eta=eta)
    k, _ = _block_counts(40, params, 600, 2, eta)
    assert np.array_equal(labels.max(axis=1), k)


def test_partition_blocking_does_not_change_labels(monkeypatch):
    # the chain's blocks of chunks and slabs of steps leave the opening
    # steps, and so the labels, as they are
    eta = EtaMemo(PARAMS)
    eta.ensure_rows(20)
    whole = sample_partition(20, PARAMS, 600, 3, eta=eta)
    monkeypatch.setattr(sampler, "_CHAIN_CELLS", 7 * 256 + 3)
    assert np.array_equal(sample_partition(20, PARAMS, 600, 3, eta=eta), whole)
    # seating uniforms in slabs of 7, 7 and 6 steps join up to the same stream
    monkeypatch.setattr(sampler, "_SEAT_STEPS", 7)
    assert np.array_equal(sample_partition(20, PARAMS, 600, 3, eta=eta), whole)


def test_partition_memory_at_one_replicate():
    # one replicate records and seats one column: the chain's n x 256
    # uniforms are the peak, not the seating uniforms, 2 x n x 256 of them
    n = 2000
    eta = EtaMemo(PARAMS)
    eta.ensure_rows(n)
    tracemalloc.start()
    try:
        sample_partition(n, PARAMS, 1, 5, eta=eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * n * sampler._CHUNK * 8


def test_partition_labels_independent_of_replicate_count():
    eta = EtaMemo(PARAMS)
    eta.ensure_rows(40)
    l300 = sample_partition(40, PARAMS, 300, 4, eta=eta)
    l100 = sample_partition(40, PARAMS, 100, 4, eta=eta)
    assert np.array_equal(l300[:100], l100)
    l257 = sample_partition(40, PARAMS, 257, 4, eta=eta)
    l256 = sample_partition(40, PARAMS, 256, 4, eta=eta)
    assert np.array_equal(l257[:256], l256)
    assert np.array_equal(l300[:257], l257)


@pytest.mark.parametrize("replicates", [1, 256, 257, 600])
def test_partition_builds_two_generators_per_chunk(monkeypatch, replicates):
    built = []

    def counting(seed, *key):
        built.append(key)
        return _replicate_rng(seed, *key)

    monkeypatch.setattr(sampler, "_replicate_rng", counting)
    eta = EtaMemo(PARAMS)
    eta.ensure_rows(20)
    labels = sample_partition(20, PARAMS, replicates, 6, eta=eta)
    assert labels.shape == (replicates, 20)
    chunks = range(-(-replicates // 256))
    assert [key for key in built if len(key) == 1] == [(c,) for c in chunks]
    assert [key for key in built if len(key) == 2] == [(c, 1) for c in chunks]
    assert len(built) == 2 * len(chunks)


# ---------------------------------------------------------------------------
# Monte Carlo wrappers


def test_monte_carlo_blocks_small_tv():
    report = monte_carlo_blocks(8, PARAMS, replicates=3000, seed=11)
    assert report.n == 8 and report.replicates == 3000 and report.seed == 11
    assert math.fsum(report.empirical_pmf) == pytest.approx(1.0, abs=1e-12)
    ref = blocks_pmf(8, PARAMS).probabilities
    for a, b in zip(report.reference_pmf, ref):
        assert a == pytest.approx(b, rel=1e-12)
    assert report.tv_distance < 0.03
    assert report.tv_distance == pytest.approx(
        0.5 * math.fsum(abs(e - p) for e, p in zip(report.empirical_pmf, ref)),
        abs=1e-15,
    )


def test_monte_carlo_blocks_reproducible():
    a = monte_carlo_blocks(6, PARAMS, replicates=400, seed=21)
    b = monte_carlo_blocks(6, PARAMS, replicates=400, seed=21)
    assert a.empirical_pmf == b.empirical_pmf
    c = monte_carlo_blocks(6, PARAMS, replicates=400, seed=22)
    assert a.empirical_pmf != c.empirical_pmf


def test_empirical_diversity_matches_exact_mean():
    n, reps = 400, 300
    eta = EtaMemo(PARAMS)
    eta.ensure_rows(n + 1)
    sample = empirical_diversity(n, PARAMS, replicates=reps, seed=5, eta=eta)
    assert sample.shape == (reps,)
    # every value is an integer block count over n^alpha
    ks = sample * math.sqrt(n)
    assert np.allclose(ks, np.round(ks), atol=1e-9)
    exact_mean = blocks_pmf(n, PARAMS, eta=eta).mean() / math.sqrt(n)
    se = float(np.std(sample, ddof=1)) / math.sqrt(reps)
    assert abs(float(np.mean(sample)) - exact_mean) < 4.0 * se


def test_block_counts_prefix_coupled():
    # the chain at n = 30 reads the first 30 uniforms of the n = 31 and
    # n = 60 chains, so one more step adds at most one block
    eta = EtaMemo(PARAMS)
    eta.ensure_rows(60)
    small, _ = _block_counts(30, PARAMS, 500, 9, eta)
    big, _ = _block_counts(60, PARAMS, 500, 9, eta)
    assert np.all(small <= big) and np.all(big <= small + 30)
    one_more, _ = _block_counts(31, PARAMS, 500, 9, eta)
    assert set(np.unique(one_more - small)) <= {0, 1}


def test_block_counts_blocking_does_not_change_results(monkeypatch):
    # 1000 replicates are 4 chunks of 256
    eta = EtaMemo(PARAMS)
    eta.ensure_rows(20)
    whole = monte_carlo_blocks(20, PARAMS, replicates=1000, seed=3, eta=eta)
    monkeypatch.setattr(sampler, "_CHAIN_CELLS", 3 * 20 * 256 + 5)  # blocks of 3 chunks and 1
    blocked = monte_carlo_blocks(20, PARAMS, replicates=1000, seed=3, eta=eta)
    assert blocked.empirical_pmf == whole.empirical_pmf
    # one chunk at a time, its 20 steps drawn in slabs of 7, 7 and 6
    monkeypatch.setattr(sampler, "_CHAIN_CELLS", 7 * 256 + 3)
    slabbed = monte_carlo_blocks(20, PARAMS, replicates=1000, seed=3, eta=eta)
    assert slabbed.empirical_pmf == whole.empirical_pmf


def test_block_counts_independent_of_replicate_count():
    # the last chunk is drawn whole, so replicate r's K_n depends on (seed, r) alone
    eta = EtaMemo(PARAMS)
    eta.ensure_rows(40)
    k300, _ = _block_counts(40, PARAMS, 300, 4, eta)
    k100, _ = _block_counts(40, PARAMS, 100, 4, eta)
    assert np.array_equal(k300[:100], k100)
    k257, _ = _block_counts(40, PARAMS, 257, 4, eta)
    k256, _ = _block_counts(40, PARAMS, 256, 4, eta)
    assert np.array_equal(k257[:256], k256)
    assert np.array_equal(k300[:257], k257)


@pytest.mark.parametrize("replicates", [1, 256, 257, 1000])
def test_block_counts_build_one_generator_per_chunk(monkeypatch, replicates):
    built = []

    def counting(seed, c):
        built.append(c)
        return _replicate_rng(seed, c)

    monkeypatch.setattr(sampler, "_replicate_rng", counting)
    eta = EtaMemo(PARAMS)
    eta.ensure_rows(20)
    k, _ = _block_counts(20, PARAMS, replicates, 6, eta)
    assert k.shape == (replicates,)
    assert built == list(range(-(-replicates // 256)))


def test_block_count_studies_skip_the_partition_sampler(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sample_partition called")

    monkeypatch.setattr(sampler, "sample_partition", refuse)
    eta = EtaMemo(PARAMS)
    eta.ensure_rows(30)
    monte_carlo_blocks(30, PARAMS, replicates=50, seed=1, eta=eta)
    empirical_diversity(30, PARAMS, replicates=50, seed=1, eta=eta)


def test_mc_validation():
    with pytest.raises(ValueError):
        monte_carlo_blocks(5, PARAMS, replicates=0, seed=1)
    with pytest.raises(ValueError):
        empirical_diversity(5, PARAMS, replicates=0, seed=1)
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        monte_carlo_blocks(0, PARAMS, replicates=10, seed=1)
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        empirical_diversity(0, PARAMS, replicates=10, seed=1)
