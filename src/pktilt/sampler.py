"""Sequential partition sampling and Monte Carlo summaries.

One element at a time: the next element joins existing block j with weight
proportional to (n_j - alpha) or opens a new block, the two branch masses
coming from eta ratios (see the predictive rule). Block choice within the
existing branch is done by uniform-proposal rejection, so one step costs
O(1) RNG draws regardless of n; per-step RNG consumption depends only on
the partition prefix, which keeps a replicate's path identical across
different target n for the same seed stream (used by coupled convergence
tests).

Replicate r of a run uses default_rng(SeedSequence(entropy=seed,
spawn_key=(r,))), so reports are reproducible from (seed, replicates) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import QuadratureSpec
from .tempered_stable import GGParams
from .eppf import EtaMemo
from .blocks import blocks_pmf

__all__ = [
    "PartitionSample",
    "McReport",
    "sample_partition",
    "monte_carlo_blocks",
    "empirical_diversity",
]


@dataclass(frozen=True)
class PartitionSample:
    """A sampled partition of {1, ..., n}; labels are 1-based and appear in
    first-use order (element 1 always has label 1)."""

    n: int
    labels: tuple[int, ...]
    block_sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != self.n:
            raise ValueError("labels must have length n")


@dataclass(frozen=True)
class McReport:
    """Monte Carlo block-count summary against the exact pmf."""

    n: int
    replicates: int
    seed: int
    empirical_pmf: tuple[float, ...]
    reference_pmf: tuple[float, ...]
    tv_distance: float


def _replicate_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))


def sample_partition(
    n: int,
    params: GGParams,
    rng: np.random.Generator,
    *,
    eta: EtaMemo | None = None,
    spec: QuadratureSpec | None = None,
) -> PartitionSample:
    """Draw one partition of {1, ..., n} from the tilted stable partition model."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if eta is None:
        eta = EtaMemo(params, spec)
    eta.ensure_rows(n)
    alpha, delta = params.alpha, params.delta
    labels = np.zeros(n, dtype=np.int64)
    labels[0] = 1
    sizes = [1]
    for i in range(1, n):
        cur = i
        k = len(sizes)
        row_cur = eta.log_row(cur)
        row_next = eta.log_row(cur + 1)
        le = row_cur[k]
        w_new = (2.0 / cur) * alpha * delta * math.exp(row_next[k + 1] - le)
        w_old = (2.0 / cur) * (cur - k * alpha) * math.exp(row_next[k] - le)
        u = rng.random() * (w_new + w_old)
        if u < w_new:
            sizes.append(1)
            labels[i] = k + 1
        else:
            while True:
                j = int(rng.integers(0, cur))
                b = labels[j] - 1
                sz = sizes[b]
                if rng.random() * sz < sz - alpha:
                    sizes[b] += 1
                    labels[i] = b + 1
                    break
    return PartitionSample(n=n, labels=tuple(int(v) for v in labels), block_sizes=tuple(sizes))


def _block_counts(
    n: int,
    params: GGParams,
    replicates: int,
    seed: int,
    spec: QuadratureSpec | None,
    eta: EtaMemo | None,
) -> tuple[np.ndarray, EtaMemo]:
    """K_n of replicates 0, ..., replicates - 1 of seed, and the eta table used."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if eta is None:
        eta = EtaMemo(params, spec)
    eta.ensure_rows(n)
    k = np.empty(replicates, dtype=np.int64)
    for r in range(replicates):
        k[r] = len(sample_partition(n, params, _replicate_rng(seed, r), eta=eta).block_sizes)
    return k, eta


def monte_carlo_blocks(
    n: int,
    params: GGParams,
    replicates: int,
    seed: int,
    *,
    spec: QuadratureSpec | None = None,
    eta: EtaMemo | None = None,
) -> McReport:
    """Sample block counts and compare with the exact pmf in total variation."""
    k, eta = _block_counts(n, params, replicates, seed, spec, eta)
    counts = np.bincount(k, minlength=n + 1)
    empirical = tuple(float(c) / replicates for c in counts[1:])
    reference = blocks_pmf(n, params, spec, eta=eta).probabilities
    tv = 0.5 * math.fsum(abs(e - p) for e, p in zip(empirical, reference))
    return McReport(
        n=n,
        replicates=replicates,
        seed=seed,
        empirical_pmf=empirical,
        reference_pmf=reference,
        tv_distance=tv,
    )


def empirical_diversity(
    n: int,
    params: GGParams,
    replicates: int,
    seed: int,
    *,
    spec: QuadratureSpec | None = None,
    eta: EtaMemo | None = None,
) -> np.ndarray:
    """Replicated draws of K_n / n^alpha (the finite-n diversity statistic)."""
    k, _ = _block_counts(n, params, replicates, seed, spec, eta)
    return k / float(n) ** params.alpha
