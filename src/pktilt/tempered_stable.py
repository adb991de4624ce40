"""The exponentially tilted positive stable (generalized Gamma) law.

Conventions used throughout the package:
  - the untilted stable variable T has Laplace transform
        E exp(-lam T) = exp(-delta (2 lam)^alpha),
    i.e. the stable scale enters through the factor 2;
  - tilting by gamma >= 0 multiplies the density by
        exp(delta gamma - (1/2) gamma^(1/alpha) t),
    which gives Laplace exponent
        psi(lam) = -delta gamma + delta (gamma^(1/alpha) + 2 lam)^alpha;
  - at alpha = 1/2 the tilted law is inverse Gaussian. stable_density then
    uses the closed-form stable density, and ig_density is a cross-check
    oracle. The eta integrals of pktilt.eppf are quadrature at every alpha
    (closed form at gamma = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import CancellationError

__all__ = [
    "GGParams",
    "stable_density_series",
    "stable_density_half",
    "stable_density",
    "tempered_density",
    "ig_density",
    "laplace_exponent",
    "levy_density",
    "sample_stable",
    "sample_tempered",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class GGParams:
    """Parameters (alpha, delta, gamma) of the tilted stable family.

    alpha in (0, 1) is the stable index, delta > 0 the scale, gamma >= 0 the
    tilt, both finite; gamma = 0 recovers the untilted stable law.
    """

    alpha: float
    delta: float
    gamma: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be nonnegative and finite, got {self.gamma!r}")

    @property
    def gamma_root(self) -> float:
        """gamma^(1/alpha), the shifted-argument base of the Laplace exponent."""
        return self.gamma ** (1.0 / self.alpha)

    @property
    def tilt_rate(self) -> float:
        """Exponential decay rate (1/2) gamma^(1/alpha) of the tilt factor."""
        return 0.5 * self.gamma_root


# stable-density series: stop once a term's envelope (the term without its
# sine factor) falls below SERIES_TERM_TOLERANCE times the running sum, give
# up after SERIES_MAX_TERMS terms, and raise if the largest term exceeds
# SERIES_CANCELLATION_GUARD times the sum
SERIES_TERM_TOLERANCE = 1e-12
SERIES_MAX_TERMS = 500
SERIES_CANCELLATION_GUARD = 1e6


def _validate_alpha_delta(alpha: float, delta: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")


def stable_density_series(alpha: float, delta: float, t: float) -> float:
    """Density of the untilted stable law by its alternating series.

    f(t) = (1 / 2 pi) delta^(-1/alpha) sum_{xi>=1} (-1)^(xi-1) sin(xi pi alpha)
           [Gamma(xi alpha + 1) / xi!] 2^(xi alpha + 1) (t delta^(-1/alpha))^(-xi alpha - 1)

    The series is an expansion in inverse powers of t: far from the origin it
    converges in a handful of terms, while for small t the alternating terms
    grow before they decay. The sum stops once a term's envelope
    Gamma(xi alpha + 1) / xi! (2 / x)^(xi alpha + 1), x = t delta^(-1/alpha),
    falls below SERIES_TERM_TOLERANCE times the running sum. If the largest
    intermediate term exceeds SERIES_CANCELLATION_GUARD times the final sum
    (about 6 decimal digits lost) a CancellationError is raised rather than
    returning digits of noise.
    """
    _validate_alpha_delta(alpha, delta)
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t!r}")

    logx = math.log(t) - math.log(delta) / alpha
    terms: list[float] = []
    run = 0.0
    max_mag = 0.0
    prev_env = math.inf
    nonzero = 0
    converged = False
    for xi in range(1, SERIES_MAX_TERMS + 1):
        # sin(pi alpha xi) with argument reduction: exact zeros whenever
        # alpha xi lands on an integer (every even xi at alpha = 1/2)
        m = alpha * xi
        frac = m - math.floor(m)
        s = math.sin(math.pi * frac) * (1.0 if math.floor(m) % 2 == 0 else -1.0)
        if s == 0.0:
            continue
        # the stop test reads the envelope, the term without its sine: where
        # alpha xi is an integer only up to rounding, the sine is ~1e-14 and
        # the term looks negligible while the sum is unfinished
        log_env = math.lgamma(xi * alpha + 1.0) - math.lgamma(xi + 1.0) \
            + (xi * alpha + 1.0) * (math.log(2.0) - logx)
        if log_env > 700.0:
            raise CancellationError(
                f"series term overflows at xi={xi}; t={t} is outside the reliable region"
            )
        env = math.exp(log_env)
        term = (s if xi % 2 == 1 else -s) * env
        terms.append(term)
        run += term
        nonzero += 1
        max_mag = max(max_mag, abs(term))
        if nonzero >= 3 and env <= SERIES_TERM_TOLERANCE * max(abs(run), 1e-300) and env <= prev_env:
            converged = True
            break
        prev_env = env
    if not converged:
        raise CancellationError(
            f"series did not reach term tolerance within {SERIES_MAX_TERMS} terms at t={t}"
        )
    total = math.fsum(terms)
    if max_mag == 0.0:
        return 0.0
    if total <= 0.0 or max_mag > SERIES_CANCELLATION_GUARD * total:
        raise CancellationError(
            f"series cancellation beyond guard at t={t}: "
            f"max term {max_mag:.3e} vs sum {total:.3e}"
        )
    return total * delta ** (-1.0 / alpha) / (2.0 * math.pi)


def stable_density_half(delta: float, t: float) -> float:
    """Closed form of the alpha = 1/2 stable density:
    (delta / sqrt(2 pi)) t^(-3/2) exp(-delta^2 / (2 t))."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t!r}")
    return delta / _SQRT_2PI * t ** -1.5 * math.exp(-delta * delta / (2.0 * t))


def stable_density(alpha: float, delta: float, t: float) -> float:
    """Untilted stable density; dispatches to the closed form at alpha = 1/2."""
    if alpha == 0.5:
        return stable_density_half(delta, t)
    return stable_density_series(alpha, delta, t)


def tempered_density(params: GGParams, t: float) -> float:
    """Tilted density exp(delta gamma - (1/2) gamma^(1/alpha) t) f_stable(t)."""
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t!r}")
    tilt = params.delta * params.gamma - params.tilt_rate * t
    return math.exp(tilt) * stable_density(params.alpha, params.delta, t)


def ig_density(delta: float, gamma: float, t):
    """Inverse Gaussian density, the alpha = 1/2 member of the tilted family:

    (delta / sqrt(2 pi)) e^(delta gamma) t^(-3/2)
        exp(-(1/2)(delta^2 / t + gamma^2 t))

    t may be a positive scalar or an array of positive values.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma!r}")
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > 0.0):
        raise ValueError(f"t must be positive, got {t!r}")
    out = (
        delta / _SQRT_2PI
        * np.exp(delta * gamma)
        * t_arr ** -1.5
        * np.exp(-0.5 * (delta * delta / t_arr + gamma * gamma * t_arr))
    )
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(out)
    return out


def laplace_exponent(params: GGParams, lam):
    """psi(lam) = -delta gamma + delta (gamma^(1/alpha) + 2 lam)^alpha.

    Accepts a scalar or array lam >= 0; psi(0) = 0, and psi is nonnegative,
    increasing and concave on [0, inf).
    """
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(lam_arr < 0.0):
        raise ValueError("lam must be nonnegative")
    out = -params.delta * params.gamma + params.delta * np.power(
        params.gamma_root + 2.0 * lam_arr, params.alpha
    )
    if np.isscalar(lam) or lam_arr.ndim == 0:
        return float(out)
    return out


def levy_density(params: GGParams, s):
    """Levy density of the tilted stable subordinator:

    rho(s) = delta 2^alpha (alpha / Gamma(1 - alpha)) s^(-1 - alpha)
             exp(-(1/2) gamma^(1/alpha) s)
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0):
        raise ValueError("s must be positive")
    coeff = params.delta * 2.0 ** params.alpha * params.alpha / math.gamma(1.0 - params.alpha)
    out = coeff * np.power(s_arr, -1.0 - params.alpha) * np.exp(-params.tilt_rate * s_arr)
    if np.isscalar(s) or s_arr.ndim == 0:
        return float(out)
    return out


def sample_stable(alpha: float, delta: float, rng: np.random.Generator, size=None):
    """Draw from the untilted stable law, E exp(-lam T) = exp(-delta (2 lam)^alpha).

    Uses the one-sided stable construction T = 2 delta^(1/alpha) (A(U)/E)^((1-alpha)/alpha)
    with U uniform on (0, pi), E unit exponential and
    A(u) = [sin(alpha u)^alpha sin((1-alpha) u)^(1-alpha) / sin(u)]^(1/(1-alpha)).

    Returns a float when size is None, else an ndarray of shape (size,).
    """
    _validate_alpha_delta(alpha, delta)
    scalar = size is None
    m = 1 if scalar else int(size)
    if m < 0:
        raise ValueError("size must be nonnegative")
    u = rng.uniform(0.0, math.pi, size=m)
    np.clip(u, 1e-300, math.pi * (1.0 - 1e-16), out=u)
    e = rng.standard_exponential(size=m)
    np.maximum(e, 1e-300, out=e)
    log_a = (
        alpha * np.log(np.sin(alpha * u))
        + (1.0 - alpha) * np.log(np.sin((1.0 - alpha) * u))
        - np.log(np.sin(u))
    ) / (1.0 - alpha)
    log_s = (1.0 - alpha) / alpha * (log_a - np.log(e))
    t = 2.0 * delta ** (1.0 / alpha) * np.exp(log_s)
    if scalar:
        return float(t[0])
    return t


def sample_tempered(
    params: GGParams,
    rng: np.random.Generator,
    size=None,
    return_stats: bool = False,
):
    """Draw from the tilted law by rejection from the untilted stable proposal.

    The Laplace exponent psi is linear in delta, so T is drawn as the sum of
    m = max(1, ceil(delta gamma)) independent pieces from the tilted law at
    (alpha, delta / m, gamma) (Hofert 2011). A stable proposal piece T_i is
    accepted with probability exp(-(1/2) gamma^(1/alpha) T_i); the long-run
    acceptance rate is exp(-delta gamma / m), at least exp(-1), so a draw
    costs O(1 + delta gamma) proposals. At delta gamma <= 1, m = 1 and T is
    a single piece. With return_stats=True also returns
    {"proposed": ..., "accepted": ...} counted in pieces over whole
    proposal batches, so accepted/proposed is an unbiased rate estimate.
    """
    scalar = size is None
    m = 1 if scalar else int(size)
    if m < 0:
        raise ValueError("size must be nonnegative")
    pieces = max(1, math.ceil(params.delta * params.gamma))
    piece_delta = params.delta / pieces
    rate = math.exp(-piece_delta * params.gamma)
    out = np.zeros(m, dtype=float)
    wanted = m * pieces
    filled = 0
    proposed = 0
    accepted = 0
    while filled < wanted:
        batch = min(max(int((wanted - filled) / max(rate, 1e-6) * 1.2) + 16, 16), 4_000_000)
        t = sample_stable(params.alpha, piece_delta, rng, size=batch)
        u = rng.random(batch)
        acc = t[u < np.exp(-params.tilt_rate * t)]
        proposed += batch
        accepted += acc.size
        take = min(acc.size, wanted - filled)
        owner = np.arange(filled, filled + take) // pieces
        out += np.bincount(owner, weights=acc[:take], minlength=m)
        filled += take
    result = float(out[0]) if scalar else out
    if return_stats:
        return result, {"proposed": proposed, "accepted": accepted}
    return result
