"""Block counts and alpha diversity.

The number of blocks K_n has pmf

    Pr(K_n = k) = V_{n,k} S_alpha(n, k)

where S_alpha are generalized Stirling numbers,

    S_alpha(n+1, k) = S_alpha(n, k-1) + (n - k alpha) S_alpha(n, k),
    S_alpha(1, 1) = 1,

all positive for alpha in (0, 1), so the recurrence runs cleanly in log
scale. blocks_pmf needs row n of S_alpha and row n of eta only, and builds
neither triangle, so its memory is O(n). The explicit alternating sum and
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
from .tempered_stable import _SQRT_2PI, GGParams, _stable_series
from .eppf import _LN2, EtaMemo, _log_vnk_prefactor, _memo_for

__all__ = [
    "stirling_table",
    "BlockCountPmf",
    "blocks_pmf",
    "diversity_density",
]


def stirling_table(alpha: float, n: int) -> np.ndarray:
    """Row n of the log-scale Stirling triangle: log S_alpha(n, k) at index k,
    -inf at k = 0 and k = n + 1. The forward recurrence keeps one row at a
    time, so the row takes O(n) memory."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    row = np.full(n + 2, -np.inf)
    row[1] = 0.0
    alpha_k = alpha * np.arange(1, n, dtype=float)
    for m in range(1, n):
        # S(m+1, k) = S(m, k-1) + (m - k alpha) S(m, k) for k = 1..m, and
        # S(m+1, m+1) = S(m, m)
        stay = np.log(m - alpha_k[:m])
        stay += row[1:m + 1]
        row[m + 1] = row[m]
        row[1:m + 1] = np.logaddexp(row[0:m], stay, out=stay)
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
    log stable density, in one pass of the stable series over the grid.

    Returns the logs, -inf where the density underflows to 0 and nan where
    the series failed, and the CancellationError message of each failed
    point, by index into s.
    """
    alpha, beta = params.alpha, params.delta * params.gamma
    s = np.asarray(s, dtype=float)
    log_t = _LN2 - np.array([math.log(v) for v in s.tolist()]) / alpha
    # (beta / s)^(1/alpha) saturates to inf, and the tilt to -inf, where it
    # leaves the float range
    tilt = beta - np.power(beta / s, 1.0 / alpha)
    log_jac = log_t - np.log(alpha * s)
    failed: dict[int, str] = {}
    if alpha == 0.5:
        # log oracle.stable_density_half(1, t) at t = 2 / s^2: 1 / (2 t) = s^2 / 4
        log_f = -math.log(_SQRT_2PI) - 1.5 * log_t - 0.25 * s * s
    else:
        # t by math.log and math.exp: NumPy's SIMD log and exp may round the
        # last bit otherwise, and near the cancellation edge the series turns
        # that bit into ~1e-9 of the density
        t = np.exp(log_t)
        fits = log_t < 709.0
        t[fits] = [math.exp(v) for v in log_t[fits].tolist()]
        log_f, failed = _stable_series(alpha, 1.0, t)
        gone = tilt == -math.inf  # the density is 0 there, whatever the series did
        log_f[gone] = -math.inf
        failed = {i: why for i, why in failed.items() if not gone[i]}
    return tilt + log_jac + log_f, failed
