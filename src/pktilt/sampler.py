"""Partition sampling from the predictive rule, and Monte Carlo summaries.

Given i elements in k blocks, element i + 1 opens a new block with
probability _new_block_prob(eta, i, k) = 1 / (1 + (i - k alpha) / alpha *
eta(i+1, k) / eta(i+1, k+1)), the one place eta enters, and so a function
of alpha and beta = delta gamma only; otherwise it joins block b with
probability (n_b - alpha) / (i - k alpha), free of eta (the partition is
of Gibbs type). The block count K_n is thus a birth chain,
which _block_counts runs over whole arrays of replicates for
monte_carlo_blocks and empirical_diversity. sample_partition runs the same
chain, records which steps open a block, and seats every other element in
one pass over whole arrays, by

    (n_b - alpha)/(i - k alpha) = (i - k)/(i - k alpha) * (n_b - 1)/(i - k)
                                + k (1 - alpha)/(i - k alpha) * 1/k:

with the first weight the element copies the label of a uniformly chosen
earlier element that opened no block (block b holds n_b - 1 of them), else
it joins a uniformly chosen block. Copied labels are resolved by pointer
jumping, in O(log n) array passes.

The stream rule: replicate r is column r % 256 of chunk c = r // 256, and
chunk c draws, step-major, the chain's uniforms u = random((n, 256)) from
_replicate_rng(seed, c) and the seating uniforms v = random((n, 2, 256))
from _replicate_rng(seed, c, 1), where _replicate_rng(seed, *key) is
default_rng(SeedSequence(entropy=seed, spawn_key=key)). Element i opens a
block when u[i] < _new_block_prob(eta, i, k); otherwise it copies the label
of the floor(v[i, 1] (i - k))-th earlier element that opened no block when
v[i, 0] (i - k alpha) < i - k, and else joins block floor(v[i, 1] k) + 1.
Hence a partition's block count is the K_n of the same (seed, r), bit for
bit; the last chunk is drawn whole, so replicate r depends on (seed, r)
alone, not on the replicate count; and since random((n, ...))[:m] ==
random((m, ...)), runs with a shared eta table are prefix-coupled across n.
_CHUNK is part of the stream's definition: changing it changes every stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tempered_stable import GGParams
from .eppf import EtaMemo, _memo_for
from .blocks import blocks_pmf

__all__ = [
    "McReport",
    "sample_partition",
    "monte_carlo_blocks",
    "empirical_diversity",
]

# the K_n chain holds at most this many uniforms at once
_CHAIN_CELLS = 2**22
# replicates per generator; part of the stream's definition
_CHUNK = 256
# steps of seating uniforms drawn at once; successive draws join up to the
# same stream, so this bounds memory without changing it
_SEAT_STEPS = 512


@dataclass(frozen=True)
class McReport:
    """Monte Carlo block-count summary against the exact pmf."""

    n: int
    replicates: int
    seed: int
    empirical_pmf: tuple[float, ...]
    reference_pmf: tuple[float, ...]
    tv_distance: float


def _replicate_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _chunks(n: int, replicates: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    return -(-replicates // _CHUNK)


def _new_block_prob(eta: EtaMemo, i: int, k: int | np.ndarray):
    """Pr(element i + 1 opens a new block | i elements in k blocks), the
    predictive's new-block weight over its total; k may be an int array."""
    alpha = eta.params.alpha
    row = eta.log_row(i + 1)
    return 1.0 / (1.0 + (i - k * alpha) / alpha * np.exp(row[k] - row[k + 1]))


def _block_counts(
    n: int,
    params: GGParams,
    replicates: int,
    seed: int,
    eta: EtaMemo | None,
    opens: np.ndarray | None = None,
) -> tuple[np.ndarray, EtaMemo]:
    """K_n of replicates 0, ..., replicates - 1 of seed, and the eta table used.

    A block of whole chunks runs at once, with uniforms u[chunk, step,
    column]; when one chunk's n x _CHUNK uniforms exceed _CHAIN_CELLS, its
    steps are drawn in slabs, which successive random calls on its
    generator join up to exactly random((n, _CHUNK)). If opens, a bool
    array of shape (chunks, n, w), w <= _CHUNK, is given, opens[c, i]
    records which of the first w columns of chunk c open a block at step
    i >= 1.
    """
    chunks = _chunks(n, replicates)
    eta = _memo_for(params, eta)
    eta.ensure_rows(n)
    k = np.ones((chunks, _CHUNK), dtype=np.int64)
    per_block = max(1, _CHAIN_CELLS // (n * _CHUNK))
    slab = min(n, max(1, _CHAIN_CELLS // (per_block * _CHUNK)))
    for lo in range(0, chunks, per_block):
        kb = k[lo:lo + per_block]
        ob = None if opens is None else opens[lo:lo + per_block]
        gens = [_replicate_rng(seed, c) for c in range(lo, lo + len(kb))]
        for s0 in range(0, n, slab):
            u = np.empty((len(kb), min(slab, n - s0), _CHUNK))
            for g, uc in zip(gens, u):
                g.random(out=uc)
            for i in range(max(s0, 1), s0 + u.shape[1]):
                new = u[:, i - s0] < _new_block_prob(eta, i, kb)
                kb += new
                if ob is not None:
                    ob[:, i] = new[:, :ob.shape[2]]
    return k.ravel()[:replicates], eta


def sample_partition(
    n: int,
    params: GGParams,
    replicates: int,
    seed: int,
    *,
    eta: EtaMemo | None = None,
) -> np.ndarray:
    """Draw partitions of {1, ..., n}: replicates 0, ..., replicates - 1 of seed.

    Returns an int64 array of shape (replicates, n). Row r holds replicate
    r's block labels, 1-based and in first-use order: element 1 has label 1,
    and a new block takes the next label. Its block count is the K_n of the
    same replicate in monte_carlo_blocks and empirical_diversity. eta, a
    memo for the same params, serves the eta table; by default a fresh memo
    at the default quadrature tolerance. Only the columns the run returns
    are recorded and seated: a chunk of m of them holds O(n * m)
    temporaries, and draws its seating uniforms _SEAT_STEPS steps at a time.
    """
    chunks = _chunks(n, replicates)
    # step 0 opens; the chain fills the rest
    opens = np.ones((chunks, n, min(replicates, _CHUNK)), dtype=bool)
    _block_counts(n, params, replicates, seed, eta, opens)
    i = np.arange(n)[:, None]
    labels = np.empty((replicates, n), dtype=np.int64)
    for c, o in enumerate(opens):
        rows = labels[c * _CHUNK:(c + 1) * _CHUNK]
        m = len(rows)  # only the columns the run returns are seated
        o = o[:, :m]
        # random((n, 2, _CHUNK)) in slabs of steps, keeping the m columns seated
        g, v = _replicate_rng(seed, c, 1), np.empty((n, 2, m))
        for s0 in range(0, n, _SEAT_STEPS):
            v[s0:s0 + _SEAT_STEPS] = g.random((min(_SEAT_STEPS, n - s0), 2, _CHUNK))[:, :, :m]
        cols = np.arange(m)  # element i of column j sits at flat index i * m + j
        k = np.cumsum(o, axis=0) - o  # blocks before element i
        joiners = i - k  # earlier elements that opened no block
        copy = ~o & (v[:, 0] * (i - k * params.alpha) < joiners)
        lab = np.where(o, k + 1, (v[:, 1] * k).astype(np.int64) + 1)
        # a stable sort lists the elements that opened no block first, in order
        order = np.argsort(o, axis=0, kind="stable") * m + cols
        picked = np.take(order, (v[:, 1] * joiners).astype(np.int64) * m + cols)
        ptr = np.where(copy, picked, i * m + cols)
        # pointer jumping: each pass doubles how far back a copy chain is followed
        while not np.array_equal(ptr, nxt := np.take(ptr, ptr)):
            ptr = nxt
        rows[:] = np.take(lab, ptr).T
    return labels


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
