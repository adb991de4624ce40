"""Sequential partition sampling and Monte Carlo summaries.

One element at a time: element i + 1 opens a new block with probability
_new_block_prob(eta, i, k), an eta ratio read off the predictive rule, and
otherwise joins existing block j with weight proportional to (n_j - alpha).
That one function is the only place the seating rule is computed.

sample_partition draws whole partitions. Block choice within the existing
branch is done by uniform-proposal rejection, so one step costs O(1) RNG
draws regardless of n; per-step RNG consumption depends only on the
partition prefix, which keeps a replicate's path identical across different
target n for the same seed stream (used by coupled convergence tests).

monte_carlo_blocks and empirical_diversity need only the block count K_n,
which is a birth chain on its own: replicate r opens a new block at step i
when its uniform u[i] < _new_block_prob(eta, i, k).

The two stream rules, side by side:

- sample_partition: one generator per replicate. CLI sample gives
  replicate r of a run _replicate_rng(seed, r) = default_rng(SeedSequence(
  entropy=seed, spawn_key=(r,))), read one step at a time.
- the K_n chain: one generator per chunk of _CHUNK = 256 replicates.
  Chunk c = r // 256 uses _replicate_rng(seed, c) and draws its uniforms
  step-major as random((n, 256)); replicate r reads column r % 256. The
  last chunk is always drawn whole, so replicate r's K_n depends on
  (seed, r) alone, not on the replicate count. Since
  random((n, 256))[:m] == random((m, 256)), the chain is prefix-coupled
  across n. _CHUNK is part of the stream's definition: changing it
  changes every K_n stream.

The chain reads a different stream from sample_partition, so K_n of
replicate r is not the block count of sample_partition's replicate r. Both
rules make reports reproducible from (seed, replicates) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tempered_stable import GGParams
from .eppf import EtaMemo, _memo_for
from .blocks import blocks_pmf

__all__ = [
    "PartitionSample",
    "McReport",
    "sample_partition",
    "monte_carlo_blocks",
    "empirical_diversity",
]

# the K_n chain holds at most this many uniforms at once
_CHAIN_CELLS = 2**22
# replicates per K_n chain generator; part of the stream's definition
_CHUNK = 256


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


def _new_block_prob(eta: EtaMemo, i: int, k: int | np.ndarray):
    """Pr(element i + 1 opens a new block | i elements in k blocks), the
    predictive's new-block weight over its total; k may be an int array."""
    alpha, delta = eta.params.alpha, eta.params.delta
    row = eta.log_row(i + 1)
    return 1.0 / (1.0 + (i - k * alpha) / (alpha * delta) * np.exp(row[k] - row[k + 1]))


def sample_partition(
    n: int,
    params: GGParams,
    rng: np.random.Generator,
    *,
    eta: EtaMemo | None = None,
) -> PartitionSample:
    """Draw one partition of {1, ..., n} from the tilted stable partition model.

    eta, a memo for the same params, serves the eta table; by default a
    fresh memo at the default quadrature tolerance.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    eta = _memo_for(params, eta)
    eta.ensure_rows(n)
    alpha = params.alpha
    labels = np.zeros(n, dtype=np.int64)
    labels[0] = 1
    sizes = [1]
    for i in range(1, n):
        k = len(sizes)
        if rng.random() < _new_block_prob(eta, i, k):
            sizes.append(1)
            labels[i] = k + 1
        else:
            while True:
                j = int(rng.integers(0, i))
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
    eta: EtaMemo | None,
) -> tuple[np.ndarray, EtaMemo]:
    """K_n of replicates 0, ..., replicates - 1 of seed, and the eta table used.

    A block of whole chunks runs at once, with uniforms u[chunk, step,
    column]; when one chunk's n x _CHUNK uniforms exceed _CHAIN_CELLS, its
    steps are drawn in slabs, which successive random calls on its
    generator join up to exactly random((n, _CHUNK)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    eta = _memo_for(params, eta)
    eta.ensure_rows(n)
    chunks = -(-replicates // _CHUNK)
    k = np.ones((chunks, _CHUNK), dtype=np.int64)
    per_block = max(1, _CHAIN_CELLS // (n * _CHUNK))
    slab = min(n, max(1, _CHAIN_CELLS // (per_block * _CHUNK)))
    for lo in range(0, chunks, per_block):
        kb = k[lo:lo + per_block]
        gens = [_replicate_rng(seed, c) for c in range(lo, lo + len(kb))]
        for s0 in range(0, n, slab):
            u = np.empty((len(kb), min(slab, n - s0), _CHUNK))
            for g, uc in zip(gens, u):
                g.random(out=uc)
            for i in range(max(s0, 1), s0 + u.shape[1]):
                kb += u[:, i - s0] < _new_block_prob(eta, i, kb)
    return k.ravel()[:replicates], eta


def monte_carlo_blocks(
    n: int,
    params: GGParams,
    replicates: int,
    seed: int,
    *,
    eta: EtaMemo | None = None,
) -> McReport:
    """Sample block counts and compare with the exact pmf in total variation."""
    k, eta = _block_counts(n, params, replicates, seed, eta)
    counts = np.bincount(k, minlength=n + 1)
    empirical = tuple(float(c) / replicates for c in counts[1:])
    reference = blocks_pmf(n, params, eta=eta).probabilities
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
    eta: EtaMemo | None = None,
) -> np.ndarray:
    """Replicated draws of K_n / n^alpha (the finite-n diversity statistic)."""
    k, _ = _block_counts(n, params, replicates, seed, eta)
    return k / float(n) ** params.alpha
