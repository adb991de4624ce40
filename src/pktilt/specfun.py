"""Numerical kernels: signed log-scale values, log combinatorics, incomplete
gamma for any real first argument, and adaptive quadrature for decaying
integrands supplied in log scale.

Everything downstream (EPPF weights, Gibbs coefficients, block-count laws)
does its arithmetic through LogValue and exponentiates only at the boundary.

integrate_decaying brackets its integrand from array scans only, zooming in
on the peak until both neighbours of the best point are within 1 nat of it.
One Gauss-Kronrod heap, seeded with panels graded out from the peak, then
integrates from the lower limit to the bracket's end; doubling panels take
the right tail. It never returns a non-finite value: a peak unresolved at
float resolution, or a total that is not finite after rescaling, raises
QuadratureError. An error sum that stops falling has met the integrand's
rounding floor: refinement stops there, and the final test decides at once
instead of after the whole subdivision budget.

_integrate_family integrates a family exp(B + k D) with D increasing, one
integral per k, on one shared panel set refined in vectorised rounds, and
certifies each k with the same error model and final test; it reports the
k it cannot certify instead of raising. EtaMemo.log_row computes each row
of eta with it.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "CancellationError",
    "QuadratureError",
    "LogValue",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "sum_logvalues",
    "log_rising_factorial",
    "log_binomial",
    "upper_incomplete_gamma",
    "integrate_decaying",
]

_NEG_INF = float("-inf")
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_EULER_GAMMA = 0.5772156649015328606


class CancellationError(ArithmeticError):
    """Raised when a signed sum or series loses too many digits to trust."""


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot certify the requested tolerance."""


@dataclass(frozen=True)
class LogValue:
    """A real number stored as (log magnitude, sign), sign in {-1, 0, +1}.

    Addition and subtraction use the max-factored log-sum-exp rule, so values
    spanning hundreds of orders of magnitude combine without overflow.
    """

    log_magnitude: float
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {self.sign}")
        if math.isnan(self.log_magnitude):
            raise ValueError("log magnitude is NaN")
        if self.sign == 0 and self.log_magnitude != _NEG_INF:
            object.__setattr__(self, "log_magnitude", _NEG_INF)
        if self.log_magnitude == _NEG_INF and self.sign != 0:
            object.__setattr__(self, "sign", 0)

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(_NEG_INF, 0)

    @classmethod
    def from_log(cls, log_magnitude: float, sign: int = 1) -> "LogValue":
        return cls(float(log_magnitude), sign)

    @classmethod
    def from_value(cls, value: float) -> "LogValue":
        if value == 0.0:
            return cls.zero()
        return cls(math.log(abs(value)), 1 if value > 0 else -1)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    @property
    def value(self) -> float:
        """Linear-scale value; saturates to +-inf past the float range and
        underflows to 0.0 below it."""
        if self.sign == 0:
            return 0.0
        if self.log_magnitude > _LOG_FLOAT_MAX:
            return self.sign * math.inf
        return self.sign * math.exp(self.log_magnitude)

    def __neg__(self) -> "LogValue":
        return LogValue(self.log_magnitude, -self.sign)

    def __add__(self, other: "LogValue") -> "LogValue":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        la, lb = self.log_magnitude, other.log_magnitude
        if self.sign == other.sign:
            hi, lo = (la, lb) if la >= lb else (lb, la)
            return LogValue(hi + math.log1p(math.exp(lo - hi)), self.sign)
        if la == lb:
            return LogValue.zero()
        if la > lb:
            return LogValue(la + math.log1p(-math.exp(lb - la)), self.sign)
        return LogValue(lb + math.log1p(-math.exp(la - lb)), other.sign)

    def __sub__(self, other: "LogValue") -> "LogValue":
        return self + (-other)

    def __mul__(self, other: "LogValue") -> "LogValue":
        s = self.sign * other.sign
        if s == 0:
            return LogValue.zero()
        return LogValue(self.log_magnitude + other.log_magnitude, s)

    def __truediv__(self, other: "LogValue") -> "LogValue":
        if other.sign == 0:
            raise ZeroDivisionError("division by a zero LogValue")
        s = self.sign * other.sign
        if s == 0:
            return LogValue.zero()
        return LogValue(self.log_magnitude - other.log_magnitude, s)

    def scaled(self, c: float) -> "LogValue":
        """Multiply by a plain float c."""
        if c == 0.0 or self.sign == 0:
            return LogValue.zero()
        s = self.sign if c > 0 else -self.sign
        return LogValue(self.log_magnitude + math.log(abs(c)), s)

    def shifted(self, log_c: float) -> "LogValue":
        """Multiply by exp(log_c)."""
        if self.sign == 0:
            return self
        return LogValue(self.log_magnitude + log_c, self.sign)


def sum_logvalues(values: Iterable[LogValue]) -> LogValue:
    """Signed log-sum-exp over a collection of LogValues (max-factored, fsum)."""
    vals = [v for v in values if v.sign != 0]
    if not vals:
        return LogValue.zero()
    m = max(v.log_magnitude for v in vals)
    if m == _NEG_INF:
        return LogValue.zero()
    s = math.fsum(v.sign * math.exp(v.log_magnitude - m) for v in vals)
    if s == 0.0:
        return LogValue.zero()
    return LogValue(m + math.log(abs(s)), 1 if s > 0 else -1)


def log_rising_factorial(x: float, m: int) -> float:
    """log of x (x+1) ... (x+m-1), the rising factorial, for x > 0, m >= 0.

    Small m uses the direct product (one rounding per factor); larger m falls
    back to lgamma differences.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
    if not x > 0:
        raise ValueError(f"x must be positive, got {x!r}")
    if m == 0:
        return 0.0
    if m <= 20 and x + m < 1e10:
        p = 1.0
        for j in range(m):
            p *= x + j
        return math.log(p)
    return math.lgamma(x + m) - math.lgamma(x)


def log_binomial(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k) for integers 0 <= k <= n."""
    if not isinstance(n, (int, np.integer)) or not isinstance(k, (int, np.integer)):
        raise ValueError("n and k must be integers")
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if k == 0 or k == n:
        return 0.0
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


# ---------------------------------------------------------------------------
# incomplete gamma
# ---------------------------------------------------------------------------

def _log_lower_series(a: float, x: float) -> float:
    # lower incomplete gamma by its ascending series, valid for a > 0,
    # effective for x < a + 1; returns log gamma_lower(a, x)
    c = 1.0 / a
    s = c
    j = 0
    while True:
        j += 1
        c *= x / (a + j)
        s += c
        if c < s * 1e-17:
            break
        if j > 10_000:
            raise QuadratureError("lower incomplete gamma series stalled")
    return a * math.log(x) - x + math.log(s)


def _log_upper_cf(a: float, x: float) -> float:
    # upper incomplete gamma by its continued fraction (modified Lentz),
    # effective for x >= a + 1; returns log Gamma_upper(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 20_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise QuadratureError("upper incomplete gamma continued fraction stalled")
    return -x + a * math.log(x) + math.log(h)


def _exp_integral_e1(x: float) -> float:
    # E_1(x) = Gamma_upper(0, x), x > 0
    if x <= 1.5:
        s = -_EULER_GAMMA - math.log(x)
        term = 1.0
        for j in range(1, 200):
            term *= -x / j
            s -= term / j
            if abs(term / j) < 1e-18 * max(abs(s), 1e-300):
                break
        return s
    return math.exp(_log_upper_cf(0.0, x))


def upper_incomplete_gamma(a: float, x: float) -> LogValue:
    """Upper incomplete gamma Gamma(a; x) = int_x^inf t^(a-1) e^(-t) dt.

    Defined for any real a when x > 0, and for a > 0 also at x = 0 (where it
    is the complete Gamma(a)). Positive a uses the series /
    continued-fraction split at x = a + 1; a <= 0 walks down from a positive
    anchor with Gamma(a; x) = (Gamma(a+1; x) - x^a e^(-x)) / a, seeding
    through E_1(x) when the walk crosses an integer at zero.
    Returns a LogValue (always positive).
    """
    a = float(a)
    x = float(x)
    if not x >= 0 or math.isinf(x):
        raise ValueError(f"x must be a nonnegative finite real, got {x!r}")
    if math.isnan(a) or math.isinf(a):
        raise ValueError(f"a must be a finite real, got {a!r}")
    if x == 0.0:
        if a > 0:
            return LogValue.from_log(math.lgamma(a))
        raise ValueError(f"x = 0 diverges for a <= 0 (got a={a!r})")

    if a > 0:
        if x < a + 1.0:
            whole = LogValue.from_log(math.lgamma(a))
            lower = LogValue.from_log(_log_lower_series(a, x))
            out = whole - lower
        else:
            out = LogValue.from_log(_log_upper_cf(a, x))
        if out.sign != 1:
            raise CancellationError(f"incomplete gamma lost all digits at a={a}, x={x}")
        return out

    if a == math.floor(a):
        # integer a <= 0: anchor at Gamma(0; x) = E_1(x), then recurse down
        g = LogValue.from_value(_exp_integral_e1(x))
        b = 0.0
        steps = int(-a)
    else:
        m = int(math.ceil(1.0 - a))
        b = a + m  # in (1, 2]
        g = upper_incomplete_gamma(b, x)
        steps = m
    for _ in range(steps):
        t = LogValue.from_log((b - 1.0) * math.log(x) - x)
        g = (g - t).scaled(1.0 / (b - 1.0))
        b -= 1.0
    if g.sign != 1:
        raise CancellationError(f"incomplete gamma recurrence lost all digits at a={a}, x={x}")
    return g


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature for log-scale decaying integrands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """The relative tolerance integrate_decaying certifies."""

    relative_tolerance: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.relative_tolerance < 1.0):
            raise ValueError(f"relative_tolerance must be in (0, 1), got {self.relative_tolerance!r}")


DEFAULT_QUADRATURE = QuadratureSpec()

# core Gauss-Kronrod splits allowed per integral
MAX_SUBDIVISIONS = 2 ** 15

# an adaptive loop that has split as many panels as it holds (at least
# _MIN_STALL_WINDOW) without cutting its error sum to _STALL_FACTOR of what it
# was has met the integrand's rounding floor: a panel whose values carry
# rounding noise splits into two with the same noise between them. It stops
# refining there, and the final test decides
_MIN_STALL_WINDOW = 64
_STALL_FACTOR = 0.5

# the family integrator forms B + k D in blocks of at most this many floats
_BLOCK_FLOATS = 2 ** 14

# the core's seed edges step _GRADING-fold out from the peak, and in toward
# lower down to the bracket scan's first offset, _FIRST_OFFSET max(1, |lower|)
_GRADING = 4.0
_FIRST_OFFSET = 1e-12

# 15-point Kronrod extension of 7-point Gauss on [-1, 1]; nodes sorted, the
# Gauss subset sits at the odd indices.
_XK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985,
])
_WK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989,
])
_WK_CENTER = 0.2094821410847278
_WG = np.array([0.1294849661688697, 0.2797053914892767, 0.3818300505051189])
_WG_CENTER = 0.4179591836734694

_GK_NODES = np.concatenate([-_XK, [0.0], _XK[::-1]])
_GK_WEIGHTS = np.concatenate([_WK, [_WK_CENTER], _WK[::-1]])
_G7_WEIGHTS = np.concatenate([_WG, [_WG_CENTER], _WG[::-1]])


def _eval_log(log_f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    v = np.asarray(log_f(np.asarray(x, dtype=float)), dtype=float)
    return np.where(np.isnan(v), _NEG_INF, v)


def _panel_nodes(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    # the GK nodes of the panels [lo[i], hi[i]], one row each, and their
    # half-widths
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    h = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + h[:, None] * _GK_NODES, h


def _panels(v: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # GK estimates and error models of panels of half-widths h from the
    # integrand's values v at their nodes; v has shape (..., len(h), 15), a
    # leading axis holding one integrand of a family each
    ik = h * (v @ _GK_WEIGHTS)
    # error model with the roughness rescaling: |ik - ig| alone under-reports
    # on panels touching an integrable singularity
    err = np.abs(ik - h * (v[..., 1::2] @ _G7_WEIGHTS))
    resabs = h * (np.abs(v) @ _GK_WEIGHTS)
    dev = v - (ik / (2.0 * h))[..., None]
    resasc = h * (np.abs(dev, out=dev) @ _GK_WEIGHTS)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return ik, np.maximum(err, 10.0 * 2.220446049250313e-16 * resabs)


def _bracket(log_f, lower: float, cut: float) -> tuple[float, tuple[float, ...]]:
    # the scanned maximum of log f and the points a <= left <= peak <= right
    # <= b: the peak, its scanned neighbours, and the cut points where log f
    # has fallen by cut, all read off array scans of offsets from lower
    scale = max(1.0, abs(lower))
    hi = 1e10 * scale
    while True:
        g = np.geomspace(_FIRST_OFFSET * scale, hi, 131)
        v = _eval_log(log_f, lower + g)
        i = int(np.argmax(v))
        if v[i] > _NEG_INF and i < len(g) - 1:
            break
        if hi >= 1e250:
            if v[i] == _NEG_INF:
                return _NEG_INF, (lower,)
            raise QuadratureError("integrand still rising at offset 1e250; not decaying")
        hi = min(hi * 1e6, 1e250)

    # zoom in between the neighbours of the best point until both are
    # within 1 nat of it, so that the true maximum is not far above it
    offsets, values = [g], [v]
    while True:
        left, right = max(i - 1, 0), min(i + 1, len(g) - 1)
        if v[i] - min(v[left], v[right]) <= 1.0:
            break
        g_lo, g_hi = g[left], g[right]
        if g_hi - g_lo < 64.0 * np.spacing(lower + g_hi):
            raise QuadratureError(
                f"peak near t = {float(lower + g[i]):.17g} unresolved at float resolution"
            )
        g = np.geomspace(g_lo, g_hi, 65)
        v = _eval_log(log_f, lower + g)
        i = int(np.argmax(v))
        offsets.append(g)
        values.append(v)
    peak, m_log = float(g[i]), float(v[i])
    near = (float(g[left]), peak, float(g[right]))

    # cut points: the nearest scanned offsets at or below the cut level
    g, v = np.concatenate(offsets), np.concatenate(values)
    below = v <= m_log - cut
    a = float(np.max(g[below & (g < peak)], initial=0.0))
    beyond = g[below & (g > peak)]
    if beyond.size == 0:
        g = np.geomspace(hi, 1e290, 281)
        beyond = g[_eval_log(log_f, lower + g) <= m_log - cut]
        if beyond.size == 0:
            raise QuadratureError("integrand does not fall below the cut level; not decaying")
    return m_log, tuple(lower + t for t in (a, *near, float(np.min(beyond))))


def _core_edges(lower: float, seeds: tuple[float, ...]) -> list[float]:
    # seed edges of the heap over [lower, b]: lower, the bracket's seeds, and
    # points graded out from the peak, each step _GRADING times the last
    a, left, peak, right, b = seeds
    edges = {lower, *seeds}
    h = right - peak
    while h > 0.0 and peak + h < b:
        edges.add(peak + h)
        h *= _GRADING
    h = peak - left
    while h > 0.0 and peak - h > a:
        edges.add(peak - h)
        h *= _GRADING
    # left of the last left step, keep grading in toward lower, down to a or,
    # where log f never fell below the cut, to the scan's first offset
    floor = a - lower if a > lower else _FIRST_OFFSET * max(1.0, abs(lower))
    offset = min(e for e in edges if e > a) - lower
    while offset / _GRADING > floor:
        offset /= _GRADING
        edges.add(lower + offset)
    return sorted(edges)


def integrate_decaying(
    log_f: Callable[[np.ndarray], np.ndarray],
    lower: float,
    spec: QuadratureSpec | None = None,
) -> LogValue:
    """Integrate exp(log_f(t)) over (lower, inf) for an eventually
    exponentially decaying integrand, returned as a LogValue.

    log_f must accept a 1-D float array and return log-integrand values
    (-inf where the integrand vanishes). The integrand is assumed to have a
    single dominant peak (possibly at the boundary). A 131-point geometric
    scan of offsets t - lower from 1e-12 out to 1e10 (extended up to 1e250
    while the integrand still rises) finds it. 65-point geometric zooms
    between the neighbours of the best point repeat until both neighbours
    are within 1 nat of it, which takes about a dozen zooms at most. The
    engine rescales by that maximum and takes as the bracket [a, b] the
    nearest scanned offsets on each side where log f is at least the cut
    D = max(45, 30 - log rtol) below it; a heavy right tail gets one more
    scan out to 1e290.

    One adaptive 15-point Gauss-Kronrod heap covers [lower, b]. Its seed
    edges are lower, a, the peak, its neighbours, and points graded out from
    the peak in steps growing 4-fold from the neighbour's distance; left of
    those, offsets from lower shrink 4-fold down to a, or, if a = lower, to
    the scan's first offset. The seed panels take one log_f call and each
    split one more. Doubling panels then sweep the right tail beyond b.

    Raises QuadratureError for an integrand that does not decay, for a peak
    still unresolved when the zoom interval reaches float resolution (a
    spike narrower than the float spacing, or a jump at the maximum), for a
    total or error estimate that is not finite, or if the requested relative
    tolerance cannot be certified: within MAX_SUBDIVISIONS core splits, or
    once the error sum has stalled at the integrand's rounding floor (a
    window of max(64, panels) splits that does not halve it).
    """
    if spec is None:
        spec = DEFAULT_QUADRATURE
    rtol = spec.relative_tolerance

    cut = max(45.0, -math.log(rtol) + 30.0)
    m_log, seeds = _bracket(log_f, lower, cut)
    if m_log == _NEG_INF:
        return LogValue.zero()
    a, b = seeds[0], seeds[-1]

    def panels(lo, hi) -> tuple[np.ndarray, np.ndarray]:
        x, h = _panel_nodes(lo, hi)
        return _panels(np.exp(_eval_log(log_f, x.ravel()) - m_log).reshape(x.shape), h)

    # core: adaptive GK on [lower, b]. A kink at the true maximum lies inside
    # a panel narrow enough for the GK nodes to straddle it, and the seed
    # panels widen with the distance from the peak, so a feature far from it
    # (a rise next to lower) still meets panels of its own scale
    edges = _core_edges(lower, seeds)
    iks, errs = (v.tolist() for v in panels(edges[:-1], edges[1:]))
    heap = list(zip([-e for e in errs], range(len(errs)), edges[:-1], edges[1:], iks, errs))
    heapq.heapify(heap)
    counter, total, errsum = len(heap), sum(iks), sum(errs)
    splits, stuck_err, stalled = 0, 0.0, False
    window_end, window_err = max(_MIN_STALL_WINDOW, len(heap)), errsum
    while errsum - stuck_err > 0.0 and errsum > 0.25 * rtol * max(abs(total), 1e-300) and heap:
        if splits >= MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"subdivision budget {MAX_SUBDIVISIONS} exhausted; "
                f"achieved relative error ~{errsum / max(abs(total), 1e-300):.3e}"
            )
        if splits >= window_end:
            stalled = errsum > _STALL_FACTOR * window_err
            if stalled:
                break
            window_end, window_err = splits + max(_MIN_STALL_WINDOW, len(heap)), errsum
        neg_err, _, lo_e, hi_e, ik, err = heapq.heappop(heap)
        mid = 0.5 * (lo_e + hi_e)
        if err <= 0.0 or mid <= lo_e or mid >= hi_e:
            # unrefinable at float resolution; its error stays counted
            stuck_err += err
            continue
        (ik1, ik2), (err1, err2) = (v.tolist() for v in panels([lo_e, mid], [mid, hi_e]))
        total += ik1 + ik2 - ik
        errsum += err1 + err2 - err
        heapq.heappush(heap, (-err1, counter, lo_e, mid, ik1, err1))
        heapq.heappush(heap, (-err2, counter + 1, mid, hi_e, ik2, err2))
        counter += 2
        splits += 1

    sums = np.array([[total], [errsum]])
    _, failure = _right_tail(
        lambda rows, lo, hi: tuple(v[None] for v in panels(lo, hi)),
        np.zeros(1, dtype=int), a, b, lower, sums, rtol,
    )
    if failure:
        raise QuadratureError(failure)
    total, errsum = sums[:, 0].tolist()

    if not (math.isfinite(total) and math.isfinite(errsum)):
        raise QuadratureError(
            f"integral is not finite after rescaling by the scanned maximum e^{m_log:.6g}"
        )
    if total <= 0.0:
        return LogValue.zero()
    if errsum > rtol * abs(total):
        floor = "; the error sum stalled at the integrand's rounding floor" if stalled else ""
        raise QuadratureError(
            f"achieved relative error {errsum / abs(total):.3e} exceeds requested {rtol:.3e}{floor}"
        )
    return LogValue.from_log(m_log + math.log(total), 1)


def _right_tail(columns, rows, a, b, lower, sums, rtol) -> tuple[np.ndarray, str | None]:
    # the right tail beyond the core [a, b] of the integrands in rows:
    # doubling panels from b until each is provably negligible. columns(rows,
    # lo, hi) gives the GK estimates and errors of the panels [lo, hi], one
    # row per integrand; sums[0] (totals) and sums[1] (error sums) gain the
    # tail in place. Returns the mask of the integrands finished and, if some
    # are not, why
    done = np.zeros(sums.shape[1], dtype=bool)
    h, t_edge = max(b - a, 1e-3 * max(1.0, abs(lower))), b
    c_prev, consec = np.full(rows.size, math.inf), np.zeros(rows.size, dtype=int)
    for _ in range(2000):
        if not rows.size:
            return done, None
        if t_edge > 1e290:
            return done, "right tail does not decay; integral may diverge"
        ik, err = columns(rows, [t_edge], [t_edge + h])
        sums[0, rows] += ik[:, 0]
        sums[1, rows] += err[:, 0]
        c = np.abs(ik[:, 0])
        t_edge += h
        h *= 2.0
        scale = rtol * np.maximum(np.abs(sums[0, rows]), 1e-300)
        small = (c <= scale / 64.0) & (c <= c_prev)
        consec = np.where(small, consec + 1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where((c_prev > 0.0) & np.isfinite(c_prev), c / c_prev, 0.0)
            remaining = np.where(r < 1.0, c * r / (1.0 - r), math.inf)
        finished = small & (consec >= 2) & (remaining <= 0.25 * scale)
        done[rows[finished]] = True
        rows, c_prev, consec = rows[~finished], c[~finished], consec[~finished]
    return done, None if not rows.size else "right tail sweep did not converge"


def _blocks(n_rows: int, n_cols: int, width: int):
    # (row slice, column slice) pairs tiling an (n_rows, n_cols, width) array
    # in blocks of at most _BLOCK_FLOATS entries (one column if a column is
    # wider than that)
    cols = max(1, min(n_cols, _BLOCK_FLOATS // width))
    rows = max(1, _BLOCK_FLOATS // (cols * width))
    for r0 in range(0, n_rows, rows):
        for c0 in range(0, n_cols, cols):
            yield slice(r0, r0 + rows), slice(c0, c0 + cols)


def _log_family(base: np.ndarray, rate: np.ndarray, k: np.ndarray, shift=0.0) -> np.ndarray:
    # B + k D - shift, broadcast, in one new array; nan (from -inf + inf)
    # becomes -inf
    v = k * rate
    v += base
    v -= shift
    v[np.isnan(v)] = _NEG_INF
    return v


def _integrate_family(
    log_terms: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    ks: np.ndarray,
    lower: float,
    spec: QuadratureSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """log of int_lower^inf exp(B(t) + k D(t)) dt for each k of the
    increasing array ks, on one set of Gauss-Kronrod panels.

    log_terms(t) returns the pair (B(t), D(t)) for a 1-D float array t, and
    D must increase in t, so that the peak of f_k = exp(B + k D) moves right
    as k grows: the brackets of the first and the last k (integrate_decaying's
    scans, cut and right-tail rule) enclose every peak, and f_k has fallen by
    the cut at both ends of the core. The seed edges are both brackets' graded
    edges plus geometric edges between the two peaks. B and D are evaluated
    once per node, the seed nodes included, and B + k D is formed in blocks
    of at most _BLOCK_FLOATS floats, each k rescaled by its maximum over the
    seed nodes.

    Refinement runs in vectorised rounds: each round splits every panel on
    which some k still refining holds more than its share, 1 / (number of
    panels), of its core budget 0.25 rtol |total_k|. A k leaves the rounds
    once within that budget, or once its error sum stalls at its rounding
    floor (a window of max(64, panels) splits that does not halve it, the
    rule of integrate_decaying), keeping the sums of its round with the
    least error sum. Each k is then certified by integrate_decaying's
    final test, error sum <= rtol total, on the same error model. Returns the
    logs and a mask of the k that failed, whose logs are nan. It raises no
    QuadratureError: where a bracket scan raises one, every k is failed.
    """
    rtol = spec.relative_tolerance
    cut = max(45.0, -math.log(rtol) + 30.0)
    ks = np.asarray(ks, dtype=float)
    out = np.full(ks.size, np.nan)

    def log_f(k: float) -> Callable[[np.ndarray], np.ndarray]:
        return lambda t: _log_family(*log_terms(t), k)

    try:
        first = _bracket(log_f(ks[0]), lower, cut)
        last = _bracket(log_f(ks[-1]), lower, cut) if ks.size > 1 else first
    except QuadratureError:
        first = last = (_NEG_INF, ())
    if first[0] == _NEG_INF or last[0] == _NEG_INF:
        return out, np.ones(ks.size, dtype=bool)
    a, b = min(first[1][0], last[1][0]), max(first[1][-1], last[1][-1])
    edges = set(_core_edges(lower, first[1])) | set(_core_edges(lower, last[1]))
    # between the peaks, four edges per doubling of the offset
    near, far = first[1][2] - lower, last[1][2] - lower
    if far > near > 0.0:
        steps = 2 + math.ceil(4.0 * math.log2(far / near))
        edges.update((lower + np.geomspace(near, far, steps)).tolist())
    edges = np.array(sorted(e for e in edges if e <= b))
    lo, hi = edges[:-1], edges[1:]

    # each k is rescaled by its maximum over the seed nodes
    x, _ = _panel_nodes(lo, hi)
    base, rate = (np.asarray(v, dtype=float) for v in log_terms(x.ravel()))
    m = np.full(ks.size, _NEG_INF)
    for kb, xb in _blocks(ks.size, base.size, 1):
        v = _log_family(base[xb], rate[xb], ks[kb, None])
        m[kb] = np.fmax(m[kb], np.fmax.reduce(v, axis=1))

    def columns(rows: np.ndarray, lo, hi, terms=None) -> tuple[np.ndarray, np.ndarray]:
        # GK estimates and errors of the panels [lo, hi] for the k of ks[rows];
        # terms, if given, holds B and D at their nodes
        x, h = _panel_nodes(lo, hi)
        base, rate = (np.asarray(v, dtype=float).reshape(x.shape)
                      for v in (log_terms(x.ravel()) if terms is None else terms))
        ik, err = np.empty((rows.size, h.size)), np.empty((rows.size, h.size))
        for kb, pb in _blocks(rows.size, h.size, x.shape[1]):
            r = rows[kb, None, None]
            v = _log_family(base[pb], rate[pb], ks[r], m[r])
            ik[kb, pb], err[kb, pb] = _panels(np.exp(v, out=v), h[pb])
        return ik, err

    # core: rounds of splits on the panels of [lower, b]. Each k keeps the
    # sums of its round with the least error sum. A k leaves the rounds once
    # within budget, or, as in integrate_decaying, once a window of
    # max(_MIN_STALL_WINDOW, panels) splits has not cut its error sum to
    # _STALL_FACTOR of what it was (window: its end and that error sum)
    total, errsum = np.zeros(ks.size), np.full(ks.size, math.inf)
    rows = np.flatnonzero(np.isfinite(m))
    ik, err = columns(rows, lo, hi, (base, rate))
    splits, window = 0, np.array([np.zeros(rows.size), np.full(rows.size, math.inf)])
    while rows.size:
        tot, es = ik.sum(axis=1), err.sum(axis=1)
        better = es < errsum[rows]
        total[rows[better]], errsum[rows[better]] = tot[better], es[better]
        budget = 0.25 * rtol * np.maximum(np.abs(tot), 1e-300)
        due = splits >= window[0]
        stalled = due & (es > _STALL_FACTOR * window[1])
        window[0, due], window[1, due] = splits + max(_MIN_STALL_WINDOW, lo.size), es[due]
        keep = (es > budget) & ~stalled & (splits < MAX_SUBDIVISIONS)
        rows, ik, err, budget, window = rows[keep], ik[keep], err[keep], budget[keep], window[:, keep]
        mid = 0.5 * (lo + hi)
        split = (err > (budget / lo.size)[:, None]).any(axis=0) & (lo < mid) & (mid < hi)
        if not split.any():
            # unrefinable at float resolution; the final test decides
            break
        # a split panel's left half takes its column, its right half is appended
        left = np.flatnonzero(split)
        new_ik, new_err = columns(rows, np.concatenate([lo[left], mid[left]]),
                                  np.concatenate([mid[left], hi[left]]))
        ik[:, left], err[:, left] = new_ik[:, :left.size], new_err[:, :left.size]
        ik = np.concatenate([ik, new_ik[:, left.size:]], axis=1)
        err = np.concatenate([err, new_err[:, left.size:]], axis=1)
        lo, hi = np.concatenate([lo, mid[left]]), np.concatenate([hi, hi[left]])
        hi[left] = mid[left]
        splits += left.size

    sums = np.stack([total, errsum])
    rows = np.flatnonzero(np.isfinite(sums).all(axis=0))
    ok, _ = _right_tail(columns, rows, a, b, lower, sums, rtol)
    total, errsum = sums
    ok &= np.isfinite(total) & np.isfinite(errsum) & (total > 0.0)
    ok &= errsum <= rtol * np.abs(total)
    out[ok] = m[ok] + np.log(total[ok])
    return out, ~ok
