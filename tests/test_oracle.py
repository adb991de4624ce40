"""Tests for the oracles themselves.

The enumeration oracle must produce genuine set partitions (disjoint blocks
covering {1..n} in first-appearance order), count them correctly (Bell
numbers via an independent triangle), and its exact pmf must be a
probability vector. The K_n chain's forward equation must give the pmf that
blocks_pmf reads from the top eta row and the Stirling row.
"""

import math

import numpy as np
import pytest

from pktilt.blocks import blocks_pmf
from pktilt.eppf import EtaMemo
from pktilt.oracle import (
    MAX_ENUMERATION_N,
    SetPartition,
    bell_number,
    chain_blocks_pmf,
    enumerate_set_partitions,
    exact_blocks_pmf,
)
from pktilt.tempered_stable import GGParams

CHAIN_SETS = [
    (0.5, 1.0, 1.0), (0.1, 1.0, 1e-3), (0.9, 0.3, 0.1), (0.4, 2.0, 0.0),
    (0.02, 1e6, 50.0), (0.75, 10.0, 3.0), (0.25, 1e-6, 50.0), (0.98, 1.0, 1.0),
]


def test_bell_numbers_small():
    assert [bell_number(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_enumeration_count_matches_bell():
    for n in range(1, 9):
        assert sum(1 for _ in enumerate_set_partitions(n)) == bell_number(n)


def test_enumeration_yields_valid_partitions():
    for n in (1, 4, 6):
        seen = set()
        for part in enumerate_set_partitions(n):
            flat = [i for b in part.blocks for i in b]
            assert sorted(flat) == list(range(1, n + 1))  # disjoint cover
            firsts = [b[0] for b in part.blocks]
            assert firsts == sorted(firsts)  # first-appearance order
            assert firsts[0] == 1
            for b in part.blocks:
                assert list(b) == sorted(b)
            assert part.n == n
            assert part.k == len(part.blocks)
            assert part.blocks not in seen  # no duplicates
            seen.add(part.blocks)


def test_set_partition_properties():
    p = SetPartition(blocks=((1, 3), (2,), (4, 5, 6)))
    assert p.n == 6
    assert p.k == 3
    assert p.block_sizes == (2, 1, 3)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        list(enumerate_set_partitions(0))
    with pytest.raises(ValueError):
        list(enumerate_set_partitions(MAX_ENUMERATION_N + 1))
    with pytest.raises(ValueError):
        exact_blocks_pmf(MAX_ENUMERATION_N + 1, GGParams(0.5, 1.0, 1.0))


def test_exact_pmf_is_probability_vector():
    for params in [GGParams(0.5, 1.0, 1.0), GGParams(0.75, 0.5, 2.0)]:
        pmf = exact_blocks_pmf(6, params)
        assert all(p > 0.0 for p in pmf.probabilities)
        assert math.fsum(pmf.probabilities) == pytest.approx(1.0, abs=1e-10)


def test_exact_pmf_n_one_degenerate():
    pmf = exact_blocks_pmf(1, GGParams(0.3, 2.0, 0.7))
    assert pmf.probabilities[0] == pytest.approx(1.0, abs=1e-12)


def _chain_gaps(n, params):
    """TV and worst relative gap on p > 1e-12 between the chain's law and
    blocks_pmf; both read one memo, the chain its recurrence rows."""
    eta = EtaMemo(params)
    chain = np.array(chain_blocks_pmf(n, params, eta=eta).probabilities)
    ref = np.array(blocks_pmf(n, params, eta=eta).probabilities)
    big = ref > 1e-12
    return 0.5 * float(np.abs(chain - ref).sum()), float(np.max(np.abs(chain[big] / ref[big] - 1.0)))


@pytest.mark.parametrize("n", [20, 300])
@pytest.mark.parametrize("abg", CHAIN_SETS)
def test_chain_blocks_pmf_matches_blocks_pmf(abg, n):
    # measured: TV <= 5.4e-13 and relative gap <= 4.8e-12 at n = 300
    tv, rel = _chain_gaps(n, GGParams(*abg))
    assert tv <= 1e-11 and rel <= 1e-10, (tv, rel)


@pytest.mark.parametrize("abg", [(0.4, 2.0, 0.0), (0.9, 0.3, 0.1)])
def test_chain_blocks_pmf_matches_blocks_pmf_at_large_n(abg):
    # measured: TV <= 6.4e-11 and relative gap <= 4.3e-10 at n = 3000
    tv, rel = _chain_gaps(3000, GGParams(*abg))
    assert tv <= 1e-9 and rel <= 1e-8, (tv, rel)


def test_chain_blocks_pmf_n_below_one():
    with pytest.raises(ValueError):
        chain_blocks_pmf(0, GGParams(0.5, 1.0, 1.0))
