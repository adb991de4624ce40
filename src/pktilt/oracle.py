"""Oracles: brute-force enumeration and the audit routes of the blocks layer.

Small-n ground truth for everything the fast paths claim. Enumeration is
capped at n = 10 (Bell(10) = 115975); beyond that the cap errors out.

The generalized Stirling numbers have, besides the production recurrence in
pktilt.blocks, the explicit alternating sum

    S_alpha(n, k) = (1 / alpha^k k!) sum_{j=1}^{k} (-1)^j C(k, j) (-j alpha)_n,

evaluated in exact rational arithmetic because the float version cancels
badly for large n, and at alpha = 1/2 the closed product form

    S_{1/2}(n, k) = C(2n - k - 1, n - 1) Gamma(n) / Gamma(k) 2^(2k - 2n).

The alpha diversity density has a closed form at alpha = 1/2, gamma = 1:

    f_S(s) = (1 / sqrt(pi)) exp(delta - delta^2 / s^2 - s^2 / 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .specfun import log_binomial
from .tempered_stable import GGParams
from .eppf import Composition, EtaMemo, _memo_for, log_eppf
from .blocks import BlockCountPmf

__all__ = [
    "SetPartition",
    "MAX_ENUMERATION_N",
    "enumerate_set_partitions",
    "bell_number",
    "exact_blocks_pmf",
    "stirling_explicit",
    "bell_polynomial_half",
    "diversity_density_half",
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


def exact_blocks_pmf(n: int, params: GGParams, *, eta: EtaMemo | None = None) -> BlockCountPmf:
    """Pr(K_n = k) by summing the EPPF over every set partition of [n].

    Each eta(n, k) is read from eta, by default a fresh memo without a table
    at the default quadrature tolerance, so every cell is computed once (one
    quadrature at gamma > 0) and shared by all shapes with k blocks.
    """
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise ValueError(f"n must lie in 1..{MAX_ENUMERATION_N}, got {n}")
    eta = _memo_for(params, eta)
    cache: dict[tuple[int, ...], float] = {}
    sums: list[list[float]] = [[] for _ in range(n + 1)]
    for part in enumerate_set_partitions(n):
        shape = tuple(sorted(part.block_sizes, reverse=True))
        if shape not in cache:
            cache[shape] = math.exp(log_eppf(Composition(shape), params, eta=eta).log_magnitude)
        sums[part.k].append(cache[shape])
    probs = tuple(math.fsum(sums[k]) for k in range(1, n + 1))
    return BlockCountPmf(n=n, probabilities=probs)


def stirling_explicit(alpha: float, n: int, k: int) -> float:
    """Audit route: the explicit alternating sum for S_alpha(n, k).

    The sum cancels catastrophically in floating point (the largest term can
    exceed the result by many orders of magnitude), so it is evaluated in
    exact rational arithmetic instead: every float alpha is a dyadic
    rational, making each term C(k, j) (-j alpha)_n an exact Fraction. The
    only rounding is the final conversion to float. Cost grows quickly with
    n; intended as a small-to-moderate-n oracle, not a production path.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    a = Fraction(alpha)
    total = Fraction(0)
    for j in range(1, k + 1):
        # rising factorial (-j alpha)_n = prod_{i=0}^{n-1} (i - j alpha)
        rf = Fraction(1)
        for i in range(n):
            rf *= i - j * a
        if j % 2 == 1:
            rf = -rf
        total += math.comb(k, j) * rf
    return float(total / (a**k * math.factorial(k)))


def bell_polynomial_half(n: int, k: int) -> float:
    """Closed product form of S_{1/2}(n, k)."""
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    return math.exp(
        log_binomial(2 * n - k - 1, n - 1)
        + math.lgamma(n)
        - math.lgamma(k)
        + (2 * k - 2 * n) * math.log(2.0)
    )


def diversity_density_half(delta: float, s: float) -> float:
    """Closed form of the diversity density at alpha = 1/2, gamma = 1."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    if not s > 0.0:
        raise ValueError(f"s must be positive, got {s!r}")
    return math.exp(delta - delta * delta / (s * s) - 0.25 * s * s) / math.sqrt(math.pi)
