"""Block counts and alpha diversity.

The number of blocks K_n has pmf

    Pr(K_n = k) = V_{n,k} S_alpha(n, k)

where S_alpha are generalized Stirling numbers,

    S_alpha(n+1, k) = S_alpha(n, k-1) + (n - k alpha) S_alpha(n, k),
    S_alpha(1, 1) = 1,

all positive for alpha in (0, 1). Every coefficient is positive, so the
recurrence runs in linear scale with no cancellation: stirling_table keeps
each S_alpha(m, k) as a mantissa times 2 to an integer exponent of its own,
renormalised every few steps, and takes one log per k at the end.
blocks_pmf needs row n of S_alpha and row n of eta only, and builds neither
triangle, so its memory is O(n). The explicit alternating sum and
the alpha = 1/2 product form of S_alpha are audit routes, kept in
pktilt.oracle.

K_n / n^alpha converges a.s. to the alpha diversity S = delta 2^alpha T^(-alpha),
where T is the tilted total mass (the constant delta 2^alpha is the scale of
the jump measure). Since T = delta^(1/alpha) T~ with T~ the total mass at
(alpha, 1, beta), beta = delta gamma, S = 2^alpha T~^(-alpha) depends on
(alpha, beta) only, as the partition law does. Its density is the change of
variables t(s) = 2 s^(-1/alpha) of the tilted stable density at delta = 1:

    f_S(s) = exp(beta - (beta / s)^(1/alpha)) f_stable(2 s^(-1/alpha))
             (2 / alpha) s^(-1/alpha - 1),

whose closed form at alpha = 1/2, gamma = 1 is the oracle
pktilt.oracle.diversity_density_half. _log_diversity_density evaluates a
whole grid of s in one array pass, the stable series included (one call of
pktilt.tempered_stable._stable_series); diversity_density is its one-point
case, and CLI diversity passes its grid in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import CancellationError
from .tempered_stable import GGParams, _stable_series
from .eppf import _LN2, EtaMemo, _log_vnk_prefactor, _memo_for

__all__ = [
    "stirling_table",
    "BlockCountPmf",
    "blocks_pmf",
    "diversity_density",
]

_LOG_PI = math.log(math.pi)


# steps of stirling_table between renormalisations. In one step a slot
# grows by at most about 2 log2 n bits (the neighbour ratio S(m, k-1) / S(m, k)
# is at most m^2 / 2; 20.9 bits at n = 2000) and shrinks by at most
# -log2(1 - alpha) <= 53 bits, so from a mantissa in [1/2, 1) 16 steps stay
# inside the normal float range [2^-1022, 2^1024) up to n ~ 1e9
_RENORM_STEPS = 16


def stirling_table(alpha: float, n: int) -> np.ndarray:
    """Row n of the log-scale Stirling triangle: log S_alpha(n, k) at index k,
    -inf at k = 0 and k = n + 1.

    The forward recurrence runs in linear scale, slot k holding a mantissa
    y_k and an integer exponent e_k with S(m, k) = y_k 2^e_k. A step is

        y_k <- y_(k-1) r_k + (m - k alpha) y_k,   r_k = 2^(e_(k-1) - e_k),

    three array operations over the live slots; every _RENORM_STEPS steps
    np.frexp brings each mantissa back to [1/2, 1) and r is rebuilt. Scaling
    by a power of two is exact, so the row does not depend on when
    renormalisation happens; the final one leaves it canonical before the
    single log y_k + e_k log 2 per k. The row takes O(n) memory.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    # slot k at index k, as in the returned row: slot 0 stays 0
    # (S(m, 0) = 0). t holds the neighbour terms, then the row
    buf = np.zeros((3, n + 2))
    y, r, t = buf[0], buf[1], buf[2]
    r.fill(1.0)
    e = np.zeros(n + 2, dtype=np.int64)
    y[1] = 1.0
    alpha_k = np.arange(1, n + 1, dtype=float)
    alpha_k *= alpha
    stay = np.empty((_RENORM_STEPS, n))
    for m0 in range(1, n, _RENORM_STEPS):
        # steps m = m0 .. w - 1 make rows m0 + 1 .. w, whose live slots are
        # 1 .. w at most; a slot not yet alive holds 0 with e_k = 0 and comes
        # alive as S(m + 1, m + 1) = S(m, m)
        w = min(m0 + _RENORM_STEPS, n)
        block = stay[:w - m0, :w]
        np.subtract(np.arange(m0, w, dtype=float)[:, None], alpha_k[:w], out=block)
        prev, cur, rv, tv = y[:w], y[1:w + 1], r[1:w + 1], t[1:w + 1]
        for c in block:
            np.multiply(prev, rv, out=tv)
            cur *= c
            cur += tv
        _, shift = np.frexp(cur, out=(cur, None))
        e[1:w + 1] += shift
        if w < n:
            np.ldexp(1.0, e[:w + 1] - e[1:w + 2], out=r[1:w + 2])
    row = np.multiply(e, _LN2, out=t)
    row[1:n + 1] += np.log(y[1:n + 1])
    row[0] = row[n + 1] = -np.inf
    return row


@dataclass(frozen=True)
class BlockCountPmf:
    """Distribution of the number of blocks K_n; probabilities[k-1] = Pr(K_n = k)."""

    n: int
    probabilities: tuple[float, ...]

    def __post_init__(self):
        if len(self.probabilities) != self.n:
            raise ValueError("probabilities must have length n")

    @property
    def total(self) -> float:
        return math.fsum(self.probabilities)

    def mean(self) -> float:
        return math.fsum((k + 1) * p for k, p in enumerate(self.probabilities))


def blocks_pmf(n: int, params: GGParams, *, eta: EtaMemo | None = None) -> BlockCountPmf:
    """Exact pmf of K_n as V_{n,k} S_alpha(n, k), from row n of eta and row n
    of the Stirling triangle only, in O(n) memory.

    eta, a memo for the same params, serves row n of eta (EtaMemo.log_row);
    by default a fresh memo at the default quadrature tolerance. The
    probabilities are not renormalized; summing to one is a nontrivial
    identity and is left visible to tests.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    eta = _memo_for(params, eta)
    log_p = (
        _log_vnk_prefactor(n, np.arange(1, n + 1), params)
        + eta.log_row(n)[1:n + 1]
        + stirling_table(params.alpha, n)[1:n + 1]
    )
    return BlockCountPmf(n=n, probabilities=tuple(np.exp(log_p).tolist()))


def diversity_density(params: GGParams, s: float) -> float:
    """Density of the alpha diversity S = lim K_n / n^alpha at s > 0.

    Exact change of variables of the tilted stable density, summed in log
    scale, so no factor overflows at large delta gamma. For alpha != 1/2
    large s maps to the small-t region where the stable series cancels, so
    the call raises CancellationError outside the reliable region instead of
    returning noise; alpha = 1/2 has full-domain closed forms. This is the
    one-point case of _log_diversity_density.
    """
    if not s > 0.0:
        raise ValueError(f"s must be positive, got {s!r}")
    log_f, failed = _log_diversity_density(params, np.array([s], dtype=float))
    if failed:
        raise CancellationError(failed[0])
    return math.exp(log_f[0])


@np.errstate(all="ignore")
def _log_diversity_density(params: GGParams, s: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """log f_S at every point of a 1-D array s > 0, as tilt + log Jacobian +
    log stable density, in one pass of the stable series over the grid. The
    Jacobian (2 / alpha) s^(-1/alpha - 1) cancels the power (2 / t)^(alpha + 1)
    = s^(1 + 1/alpha) of the series' first term exactly, so the sum is
    tilt + log(2 / alpha) + log g(t), with log g what _stable_series returns,
    and no log of size |log s| / alpha is rounded on the way.

    Returns the logs, -inf where the density underflows to 0 and nan where
    the series failed, and the CancellationError message of each failed
    point, by index into s.
    """
    alpha, beta = params.alpha, params.delta * params.gamma
    s = np.asarray(s, dtype=float)
    # (beta / s)^(1/alpha) saturates to inf, and the tilt to -inf, where it
    # leaves the float range
    tilt = beta - np.power(beta / s, 1.0 / alpha)
    failed: dict[int, str] = {}
    if alpha == 0.5:
        # oracle.stable_density_half(1, t) at t = 2 / s^2 times 4 s^-3:
        # exp(-s^2 / 4) / sqrt(pi)
        log_f = -0.5 * _LOG_PI - 0.25 * s * s
    else:
        # log t by math.log: NumPy's SIMD log may round the last bit
        # otherwise, and near the cancellation edge the series turns that
        # bit into ~1e-9 of the density. The series reads log t, so t itself
        # may leave the float range
        log_t = _LN2 - np.array([math.log(v) for v in s.tolist()]) / alpha
        log_g, failed = _stable_series(alpha, 1.0, log_t)
        log_f = (_LN2 - math.log(alpha)) + log_g
        gone = tilt == -math.inf  # the density is 0 there, whatever the series did
        log_f[gone] = -math.inf
        failed = {i: why for i, why in failed.items() if not gone[i]}
    return tilt + log_f, failed
