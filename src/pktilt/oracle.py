"""Brute-force oracles: set-partition enumeration and exact block-count pmf.

Small-n ground truth for everything the fast paths claim. Enumeration is
capped at n = 10 (Bell(10) = 115975); beyond that the cap errors out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import QuadratureSpec
from .tempered_stable import GGParams
from .eppf import Composition, EtaMemo, log_eppf
from .blocks import BlockCountPmf

__all__ = [
    "SetPartition",
    "MAX_ENUMERATION_N",
    "enumerate_set_partitions",
    "bell_number",
    "exact_blocks_pmf",
]

MAX_ENUMERATION_N = 10


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1, ..., n} into blocks listed in first-appearance order."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def enumerate_set_partitions(n: int):
    """Yield every set partition of {1, ..., n}, blocks in first-appearance order."""
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise ValueError(f"n must lie in 1..{MAX_ENUMERATION_N}, got {n}")
    blocks: list[list[int]] = []

    def rec(i: int):
        if i > n:
            yield SetPartition(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(1)


def bell_number(n: int) -> int:
    """Bell number by the Bell triangle (independent of enumeration)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
    return row[-1]


def exact_blocks_pmf(
    n: int,
    params: GGParams,
    spec: QuadratureSpec | None = None,
    *,
    eta: EtaMemo | None = None,
) -> BlockCountPmf:
    """Pr(K_n = k) by summing the EPPF over every set partition of [n].

    Each eta(n, k) is read from eta, by default a memo without a table, so
    every cell is one quadrature shared by all shapes with k blocks.
    """
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise ValueError(f"n must lie in 1..{MAX_ENUMERATION_N}, got {n}")
    if eta is None:
        eta = EtaMemo(params, spec)
    cache: dict[tuple[int, ...], float] = {}
    sums: list[list[float]] = [[] for _ in range(n + 1)]
    for part in enumerate_set_partitions(n):
        shape = tuple(sorted(part.block_sizes, reverse=True))
        if shape not in cache:
            cache[shape] = math.exp(log_eppf(Composition(shape), params, eta=eta).log_magnitude)
        sums[part.k].append(cache[shape])
    probs = tuple(math.fsum(sums[k]) for k in range(1, n + 1))
    return BlockCountPmf(n=n, probabilities=probs)
