"""The partition law depends on (alpha, beta = delta gamma) only.

The total mass at (alpha, delta, gamma) is delta^(1/alpha) times the total
mass at (alpha, 1, beta), and normalising removes that scale, so every
partition-side output is a function of (alpha, beta). pktilt computes them
from alpha and beta alone, so under (delta, gamma) -> (c delta, gamma / c)
with c a power of two, which leaves beta = delta gamma exactly as it is,
each output is the same float, bit for bit.
"""

import numpy as np
import pytest

from pktilt.blocks import _log_diversity_density, blocks_pmf, diversity_density
from pktilt.eppf import Composition, EtaMemo, log_eppf, log_eta, log_vnk, predictive
from pktilt.oracle import exact_blocks_pmf
from pktilt.sampler import empirical_diversity, monte_carlo_blocks, sample_partition
from pktilt.tempered_stable import GGParams

SETS = [
    (0.4, 2.0, 3.0),
    (0.3, 1e-3, 50.0),
    (0.75, 10.0, 0.2),
    (0.5, 1.0, 1.0),
    (0.02, 1e6, 50.0),
    (0.9, 0.3, 0.0),
    (0.1, 1.0, 1e-3),
]


def _partition_outputs(p: GGParams) -> list:
    eta = EtaMemo(p)
    s = np.geomspace(0.05, 20.0, 30)
    log_f, failed = _log_diversity_density(p, s)
    return [
        log_eta(40, 7, p),
        log_vnk(40, 7, p, eta=eta),
        log_eppf(Composition((3, 2, 1)), p, eta=eta),
        predictive(Composition((3, 2, 1)), p, eta=eta),
        blocks_pmf(200, p, eta=eta),
        sample_partition(30, p, 3, 5, eta=eta).tolist(),
        monte_carlo_blocks(30, p, 300, 5, eta=eta),
        empirical_diversity(30, p, 300, 5, eta=eta).tolist(),
        exact_blocks_pmf(6, p, eta=eta),
        diversity_density(p, 1.0),
        log_f.tobytes(),
        failed,
    ]


@pytest.mark.parametrize("alpha,delta,gamma", SETS)
def test_partition_law_reads_alpha_and_beta_only(alpha, delta, gamma):
    ref = _partition_outputs(GGParams(alpha, delta, gamma))
    for c in (2.0**5, 2.0**-7):
        assert _partition_outputs(GGParams(alpha, c * delta, gamma / c)) == ref, c
