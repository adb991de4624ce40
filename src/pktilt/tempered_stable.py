"""The exponentially tilted positive stable (generalized Gamma) law.

Conventions used throughout the package:
  - the untilted stable variable T has Laplace transform
        E exp(-lam T) = exp(-delta (2 lam)^alpha),
    i.e. the stable scale enters through the factor 2;
  - tilting by gamma >= 0 multiplies the density by
        exp(delta gamma - (1/2) gamma^(1/alpha) t),
    which gives Laplace exponent
        psi(lam) = -delta gamma + delta (gamma^(1/alpha) + 2 lam)^alpha;
  - at alpha = 1/2 the tilted law is inverse Gaussian; its closed forms,
    pktilt.oracle.stable_density_half and ig_density, are cross-check
    oracles. The eta integrals of pktilt.eppf are quadrature at every alpha
    (closed form at gamma = 0).

At other alpha the stable density is an alternating series. _stable_series
sums it over a whole array of log t in one array pass, building its xi tables
once per call; stable_density_series is its one-point case.

Samplers: sample_stable draws the untilted law by Kanter's construction.
sample_tempered splits T into the number of pieces that minimises the
expected proposals and accepts stable proposals for each piece by rejection,
drawing them in blocks of at most _BLOCK until every piece is filled.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .specfun import CancellationError

__all__ = [
    "GGParams",
    "stable_density_series",
    "laplace_exponent",
    "levy_density",
    "sample_stable",
    "sample_tempered",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_2PI = math.log(2.0 * math.pi)
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class GGParams:
    """Parameters (alpha, delta, gamma) of the tilted stable family.

    alpha in (0, 1) is the stable index, delta > 0 the scale, gamma >= 0 the
    tilt, both finite and with a finite product delta * gamma; gamma = 0
    recovers the untilted stable law.
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
        if not math.isfinite(self.delta * self.gamma):
            raise ValueError(f"delta * gamma must be finite, got {self.delta!r} * {self.gamma!r}")

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


@np.errstate(over="ignore")  # past the float range the density saturates to inf
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
    returning digits of noise. This is the one-point case of _stable_series.
    """
    _validate_alpha_delta(alpha, delta)
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t!r}")
    log_t = math.log(t)
    log_g, failed = _stable_series(alpha, delta, np.array([log_t]))
    if failed:
        raise CancellationError(failed[0])
    log_2x = _LN2 - (log_t - math.log(delta) / alpha)
    return float(np.exp(log_g[0] + (alpha + 1.0) * log_2x))


# points per row block of _stable_series: bounds its matrices on large grids
_SERIES_ROWS = 256


@np.errstate(all="ignore")
def _stable_series(alpha: float, delta: float, log_t: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """The series of stable_density_series at every point t of a 1-D array
    log_t of log t, so that a t beyond the float range is no failure.

    Returns log g = log f(t) - (alpha + 1) log(2 / x), x = t delta^(-1/alpha):
    the log density without the power of its first term, which carries all
    of its size at large t, so a caller that cancels that power analytically
    (the diversity density) sees no rounding of it. Also returns nan where a
    point failed, and why each failed point failed, by index into log_t: the
    CancellationError message stable_density_series raises, which prints t
    as exp(log t). The xi tables (signed sines with the zero sines dropped,
    xi alpha + 1, and the log Gamma ratios) are built once per call,
    SERIES_MAX_TERMS wide; each block of _SERIES_ROWS points forms its
    (points x terms) envelope and term matrices from them, relative to the
    first term's power where the first envelope's log is below -700, with
    running sums by np.cumsum. A point stops at its first term j >= 3 whose
    envelope is at most SERIES_TERM_TOLERANCE max(|running sum|, 1e-300) and
    at most the previous term's, unless an envelope overflows (log > 700)
    first; log t = inf fails. The caller takes log t by math.log: NumPy's
    SIMD log may round the last bit otherwise, which the sum amplifies near
    the cancellation edge.
    """
    tol, guard = SERIES_TERM_TOLERANCE, SERIES_CANCELLATION_GUARD
    xi = np.arange(1, SERIES_MAX_TERMS + 1)
    m = alpha * xi
    fl = np.floor(m)
    # sin(pi alpha xi) with argument reduction: exact zeros whenever alpha xi
    # lands on an integer (every even xi at alpha = 1/2); these terms drop out
    sine = np.sin(math.pi * (m - fl))
    keep = sine != 0.0
    xi = xi[keep]
    # the term's sign: (-1)^floor(alpha xi) from the reduction, (-1)^(xi-1)
    signed = np.where((fl[keep] + xi) % 2 == 1, sine[keep], -sine[keep])
    a1 = xi * alpha + 1.0
    lg = np.array([math.lgamma(a) - math.lgamma(x + 1.0) for a, x in zip(a1.tolist(), xi.tolist())])
    # sin(pi alpha) > 0, so the first term is xi = 1, of power alpha + 1
    rel = alpha * (xi - 1)
    log_scale = -math.log(delta) / alpha
    log_2x = _LN2 - (log_t + log_scale)
    log_g = np.full(log_t.shape, np.nan)
    failed: dict[int, str] = {}
    width = xi.size
    for lo in range(0, log_t.size, _SERIES_ROWS):
        rows = range(lo, min(lo + _SERIES_ROWS, log_t.size))
        # the stop test reads the envelope, the term without its sine: where
        # alpha xi is an integer only up to rounding, the sine is ~1e-14 and
        # the term looks negligible while the sum is unfinished
        block = log_2x[lo:rows.stop]
        log_env = lg + a1 * block[:, None]
        # where the first envelope is below -700, the terms would underflow:
        # they are taken relative to the first term's power, as
        # lg + alpha (xi - 1) log(2 / x), whose first is lg[0] exactly. Where
        # that power is the whole size of the density (large t) it is then
        # left out with no rounding; elsewhere log g rounds it off at the end
        far = log_env[:, 0] < -700.0
        log_env[far] = lg + rel * block[far, None]
        power = np.where(far, 0.0, (alpha + 1.0) * block).tolist()
        # below -746 exp is exactly 0; skipping those cells skips NumPy's
        # slow underflow path
        env = np.exp(log_env, out=np.zeros_like(log_env), where=log_env > -746.0)
        run = np.cumsum(signed * env, axis=1)
        stop = env <= tol * np.maximum(np.abs(run), 1e-300)
        stop[:, 1:] &= env[:, 1:] <= env[:, :-1]
        stop[:, :2] = False
        over = log_env > 700.0
        first_stop = np.where(stop.any(axis=1), stop.argmax(axis=1), width).tolist()
        first_over = np.where(over.any(axis=1), over.argmax(axis=1), width).tolist()
        for r, i in enumerate(rows):
            js, jo, lt = first_stop[r], first_over[r], float(log_t[i])
            if lt == math.inf:
                failed[i] = "t=inf is outside the float range"
                continue
            ti = math.exp(lt) if lt < 709.0 else float(np.exp(lt))
            if jo < width and jo <= js:
                failed[i] = f"series term overflows at xi={int(xi[jo])}; t={ti} is outside the reliable region"
                continue
            if js == width:
                failed[i] = f"series did not reach term tolerance within {SERIES_MAX_TERMS} terms at t={ti}"
                continue
            # the sum and the guard read terms from math.exp: NumPy's SIMD exp
            # may round the last bit otherwise, which the sum amplifies near
            # the cancellation edge, and where the guard fires its message
            # prints digits of rounding noise
            terms = signed[:js + 1] * np.array([math.exp(v) for v in log_env[r, :js + 1].tolist()])
            max_mag = float(np.abs(terms).max())
            total = math.fsum(terms.tolist())
            if total <= 0.0 or max_mag > guard * total:
                failed[i] = (
                    f"series cancellation beyond guard at t={ti}: "
                    f"max term {max_mag:.3e} vs sum {total:.3e}"
                )
            else:
                log_g[i] = math.log(total) - power[r]
    return log_g + (log_scale - _LOG_2PI), failed


def laplace_exponent(params: GGParams, lam):
    """psi(lam) = -delta gamma + delta (gamma^(1/alpha) + 2 lam)^alpha.

    Accepts a scalar or array lam >= 0; psi(0) = 0, and psi is nonnegative,
    increasing and concave on [0, inf). At gamma > 0 it is evaluated as
    delta gamma expm1(alpha log1p(2 lam / gamma^(1/alpha))), so the two
    terms never cancel, however large delta gamma is against psi.
    """
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(lam_arr < 0.0):
        raise ValueError("lam must be nonnegative")
    a, d, g = params.alpha, params.delta, params.gamma
    if g == 0.0:
        out = d * np.power(2.0 * lam_arr, a)
    else:
        # a log1p(x), x = 2 lam / g^(1/a), from log x: g^(1/a) itself
        # under- or overflows at small alpha
        with np.errstate(divide="ignore"):
            al = a * np.logaddexp(0.0, np.log(2.0 * lam_arr) - math.log(g) / a)
        # d g expm1(al), written as d (g^(1/a) + 2 lam)^a (1 - e^(-al)) so
        # that it overflows only when psi does
        out = d * np.exp(math.log(g) + al) * -np.expm1(-al)
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
    size must be an integer >= 0 (NumPy integers included): a float or other
    non-integer raises TypeError, a negative size ValueError.
    """
    _validate_alpha_delta(alpha, delta)
    scalar = size is None
    m = _draw_count(size)
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


def _draw_count(size) -> int:
    """Number of draws for a sampler's size argument: 1 for None."""
    m = 1 if size is None else operator.index(size)
    if m < 0:
        raise ValueError("size must be nonnegative")
    return m


# proposals drawn per round of sample_tempered; part of its stream's definition
_BLOCK = 2**14


def sample_tempered(
    params: GGParams,
    rng: np.random.Generator,
    size=None,
    return_stats: bool = False,
):
    """Draw from the tilted law by rejection from the untilted stable proposal.

    The Laplace exponent psi is linear in delta, so T is drawn as the sum of
    m independent pieces from the tilted law at (alpha, delta / m, gamma)
    (Hofert 2011). A stable proposal piece T_i is accepted with probability
    exp(-(1/2) gamma^(1/alpha) T_i), tested as -log(U) > (1/2) gamma^(1/alpha) T_i;
    the long-run acceptance rate is exp(-c / m), c = delta gamma, so a draw
    costs m exp(c / m) proposals on average. m is the integer that minimises
    that cost, floor(c) or floor(c) + 1 and at least 1; the acceptance rate
    is then at least 1/4 (reached at c = 2 log 2), and a draw costs
    O(1 + c) proposals. At c <= 2 log 2, m = 1 and T is a single piece.

    Proposals are drawn in rounds of min(_BLOCK, remaining / rate + 16),
    where remaining counts the pieces still missing, until size * m pieces
    are accepted. Accepted pieces fill the draws in order, m consecutive
    pieces per draw; the surplus of the last round is discarded. Memory is
    O(size + _BLOCK) at every c. The stream is fixed by the seed and _BLOCK.

    size is as for sample_stable. With return_stats=True also returns
    {"proposed": ..., "accepted": ...}, counted in pieces over every drawn
    round, surplus included, so accepted/proposed estimates the acceptance
    rate without bias.
    """
    n = _draw_count(size)
    c = params.delta * params.gamma
    lo = max(1, math.floor(c))
    pieces = min(lo, lo + 1, key=lambda k: math.log(k) + c / k)
    piece_delta = params.delta / pieces
    rate = math.exp(-c / pieces)
    out = np.zeros(n, dtype=float)
    wanted = n * pieces
    filled = 0
    proposed = 0
    accepted = 0
    while filled < wanted:
        batch = min(_BLOCK, int((wanted - filled) / rate) + 16)
        t = sample_stable(params.alpha, piece_delta, rng, size=batch)
        acc = t[-np.log(rng.random(batch)) > params.tilt_rate * t]
        proposed += batch
        accepted += acc.size
        take = min(acc.size, wanted - filled)
        first = filled // pieces
        owner = np.arange(filled, filled + take) // pieces - first
        sums = np.bincount(owner, weights=acc[:take])
        out[first:first + sums.size] += sums
        filled += take
    result = float(out[0]) if size is None else out
    if return_stats:
        return result, {"proposed": proposed, "accepted": accepted}
    return result
