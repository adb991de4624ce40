"""Block counts and alpha diversity.

The number of blocks K_n has pmf

    Pr(K_n = k) = V_{n,k} S_alpha(n, k)

where S_alpha are generalized Stirling numbers,

    S_alpha(n+1, k) = S_alpha(n, k-1) + (n - k alpha) S_alpha(n, k),
    S_alpha(1, 1) = 1,

all positive for alpha in (0, 1), so the recurrence runs cleanly in log
scale. The explicit alternating sum and the alpha = 1/2 product form of
S_alpha are audit routes, kept in pktilt.oracle.

K_n / n^alpha converges a.s. to the alpha diversity S = delta 2^alpha T^(-alpha),
where T is the tilted total mass (the constant delta 2^alpha is the scale of
the jump measure; it makes the gamma = 0 limit law independent of delta, as
it must be since the gamma = 0 partition law is). The density of S is the
change of variables t(s) = 2 delta^(1/alpha) s^(-1/alpha) of the tilted
stable density:

    f_S(s) = exp(delta gamma - (delta gamma / s)^(1/alpha))
             f_stable(2 delta^(1/alpha) s^(-1/alpha))
             (2 delta^(1/alpha) / alpha) s^(-1/alpha - 1),

whose closed form at alpha = 1/2, gamma = 1 is the oracle
pktilt.oracle.diversity_density_half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import LogValue
from .tempered_stable import _SQRT_2PI, GGParams, stable_density_series
from .eppf import _LN2, EtaMemo, _log_vnk_prefactor, _memo_for

__all__ = [
    "StirlingTable",
    "stirling_table",
    "BlockCountPmf",
    "blocks_pmf",
    "diversity_density",
]

@dataclass(frozen=True, eq=False)
class StirlingTable:
    """Triangle of log S_alpha(n, k) for 1 <= k <= n <= n_max."""

    alpha: float
    n_max: int
    _rows: tuple[np.ndarray, ...] = field(repr=False)

    def log_value(self, n: int, k: int) -> float:
        if not (1 <= k <= n <= self.n_max):
            raise ValueError(f"need 1 <= k <= n <= {self.n_max}, got n={n}, k={k}")
        return float(self._rows[n][k])

    def value(self, n: int, k: int) -> LogValue:
        return LogValue.from_log(self.log_value(n, k))


def stirling_table(alpha: float, n_max: int) -> StirlingTable:
    """Build the log-scale Stirling triangle by the forward recurrence."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows: list[np.ndarray] = [np.array([-np.inf])]  # row 0 placeholder
    row1 = np.full(3, -np.inf)
    row1[1] = 0.0
    rows.append(row1)
    for n in range(1, n_max):
        prev = rows[n]
        k_arr = np.arange(1, n + 2, dtype=float)
        shift = prev[0:n + 1]          # S(n, k-1) for k = 1..n+1
        stay = prev[1:n + 2]           # S(n, k), -inf at k = n+1
        with np.errstate(divide="ignore", invalid="ignore"):
            stay_term = np.where(
                np.isneginf(stay), -np.inf, np.log(np.maximum(n - alpha * k_arr, 0.0)) + stay
            )
        row = np.full(n + 3, -np.inf)
        row[1:n + 2] = np.logaddexp(shift, stay_term)
        rows.append(row)
    return StirlingTable(alpha=alpha, n_max=n_max, _rows=tuple(rows))


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
    """Exact pmf of K_n via V_{n,k} and the Stirling recurrence.

    eta, a memo for the same params, serves the eta table; by default a
    fresh memo at the default quadrature tolerance. The probabilities are not
    renormalized; summing to one is a nontrivial identity and is left
    visible to tests.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    eta = _memo_for(params, eta)
    eta.ensure_rows(n)
    stirling = stirling_table(params.alpha, n)
    log_p = (
        _log_vnk_prefactor(n, np.arange(1, n + 1), params)
        + eta.log_row(n)[1:n + 1]
        + stirling._rows[n][1:n + 1]
    )
    return BlockCountPmf(n=n, probabilities=tuple(np.exp(log_p).tolist()))


def diversity_density(params: GGParams, s: float) -> float:
    """Density of the alpha diversity S = lim K_n / n^alpha at s > 0.

    Exact change of variables of the tilted stable density, summed in log
    scale, so no factor overflows at large delta gamma. For alpha != 1/2
    large s maps to the small-t region where the stable series cancels, so
    the call raises CancellationError outside the reliable region instead of
    returning noise; alpha = 1/2 has full-domain closed forms.
    """
    if not s > 0.0:
        raise ValueError(f"s must be positive, got {s!r}")
    return math.exp(_log_diversity_density(params, s))


def _log_diversity_density(params: GGParams, s: float) -> float:
    """log f_S(s) at s > 0 as tilt + log Jacobian + log stable density;
    -inf where the stable density underflows to 0."""
    alpha, delta, gamma = params.alpha, params.delta, params.gamma
    log_t = _LN2 + (math.log(delta) - math.log(s)) / alpha
    tilt = delta * gamma - (delta * gamma / s) ** (1.0 / alpha)
    log_jac = log_t - math.log(alpha * s)
    if alpha == 0.5:
        # log of stable_density_half at t = 2 delta^2 / s^2, where
        # delta^2 / (2 t) = s^2 / 4
        log_f = math.log(delta / _SQRT_2PI) - 1.5 * log_t - 0.25 * s * s
    else:
        f = stable_density_series(alpha, delta, math.exp(log_t))
        log_f = math.log(f) if f > 0.0 else -math.inf
    return tilt + log_jac + log_f
