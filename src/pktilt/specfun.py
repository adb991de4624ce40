"""Numerical kernels: signed log-scale values, log combinatorics, incomplete
gamma for any real first argument, and adaptive quadrature for decaying
integrands supplied in log scale.

Everything downstream (EPPF weights, Gibbs coefficients, block-count laws)
does its arithmetic through LogValue and exponentiates only at the boundary.

There is one adaptive integrator, _integrate_family: it integrates a
family exp(B + k D) with D nondecreasing, one integral per k, on one shared
set of Gauss-Kronrod panels. It brackets the first and the last k from
array scans only, zooming in on each peak until both neighbours of the best
point are within 1 nat of it, seeds panels graded out from the peaks,
refines them in vectorised rounds up to the brackets' end, and takes the
right tail with doubling panels. An error sum that stops falling has met
the integrand's rounding floor: refinement stops there, and the final test
decides at once instead of after the whole subdivision budget. Each k is
certified by the same error model and final test; a k that fails gets the
reason, not a value. EtaMemo.log_row computes each row of eta with it.

integrate_decaying is the one-member family B = log f, D = 0, k = 0, and
raises QuadratureError with the reason that member failed: a peak
unresolved at float resolution, a total that is not finite after
rescaling, or a tolerance it cannot certify. It never returns a non-finite
value.
"""

from __future__ import annotations

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
# (one row of panels if a row is wider)
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


def _panel_nodes(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    # the GK nodes of the panels [lo[i], hi[i]], one row each, and their
    # half-widths
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    h = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + h[:, None] * _GK_NODES, h


def _panels(v: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # GK estimates and error models of panels of half-widths h from the
    # integrand's values v >= 0 (or nan) at their nodes; v has shape
    # (..., len(h), 15), a leading axis holding one integrand of a family
    # each, and is overwritten. The caller has floating-point warnings off
    ik = h * (v @ _GK_WEIGHTS)
    # error model with the roughness rescaling: |ik - ig| alone under-reports
    # on panels touching an integrable singularity
    err = np.abs(ik - h * (v[..., 1::2] @ _G7_WEIGHTS))
    v -= (ik / (2.0 * h))[..., None]
    resasc = h * (np.abs(v, out=v) @ _GK_WEIGHTS)
    scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    # the floor reads resabs = h (|v| @ weights), which is ik since v >= 0
    return ik, np.maximum(err, 10.0 * 2.220446049250313e-16 * ik)


def _geomspace(start: float, stop: float, num: int) -> np.ndarray:
    # the points of np.geomspace(start, stop, num) for positive scalars, by
    # its own arithmetic, without its per-call overhead, which exceeds that
    # of the bracket scan it feeds
    log_start = np.log10(start)
    g = np.arange(num, dtype=float)
    g *= (np.log10(stop) - log_start) / (num - 1)
    g += log_start
    g = np.power(10.0, g)
    g[0], g[-1] = start, stop
    return g


def _bracket(log_f, lower: float, cut: float) -> tuple[float, tuple[float, ...]]:
    # the scanned maximum of log f and the points a <= left <= peak <= right
    # <= b: the peak, its scanned neighbours, and the cut points where log f
    # has fallen by cut, all read off array scans of offsets from lower.
    # log_f maps nan to -inf
    scale = max(1.0, abs(lower))
    hi = 1e10 * scale
    while True:
        g = _geomspace(_FIRST_OFFSET * scale, hi, 131)
        v = log_f(lower + g)
        i = int(v.argmax())
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
        g = _geomspace(g_lo, g_hi, 65)
        v = log_f(lower + g)
        i = int(v.argmax())
        offsets.append(g)
        values.append(v)
    peak, m_log = float(g[i]), float(v[i])
    near = (float(g[left]), peak, float(g[right]))

    # cut points: the nearest scanned offsets at or below the cut level
    g, v = np.concatenate(offsets), np.concatenate(values)
    below = v <= m_log - cut
    a = float(np.maximum.reduce(g[below & (g < peak)], initial=0.0))
    beyond = g[below & (g > peak)]
    if beyond.size == 0:
        g = _geomspace(hi, 1e290, 281)
        beyond = g[log_f(lower + g) <= m_log - cut]
        if beyond.size == 0:
            raise QuadratureError("integrand does not fall below the cut level; not decaying")
    return m_log, tuple(lower + t for t in (a, *near, float(beyond.min())))


def _core_edges(lower: float, seeds: tuple[float, ...]) -> set[float]:
    # seed edges of the core [lower, b]: lower, the bracket's seeds, and
    # points graded out from the peak, each step _GRADING times the last. A
    # kink at the true maximum lies inside a panel narrow enough for the GK
    # nodes to straddle it, and a feature far from the peak (a rise next to
    # lower) still meets panels of its own scale
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
    return edges


def integrate_decaying(
    log_f: Callable[[np.ndarray], np.ndarray],
    lower: float,
    spec: QuadratureSpec | None = None,
) -> LogValue:
    """Integrate exp(log_f(t)) over (lower, inf) for an eventually
    exponentially decaying integrand, returned as a LogValue.

    log_f must accept a 1-D float array and return log-integrand values
    (-inf where the integrand vanishes; nan counts as -inf). The integrand is
    assumed to have a single dominant peak (possibly at the boundary). A
    131-point geometric scan of offsets t - lower from 1e-12 out to 1e10
    (extended up to 1e250 while the integrand still rises) finds it. 65-point
    geometric zooms between the neighbours of the best point repeat until
    both neighbours are within 1 nat of it, which takes about a dozen zooms
    at most. The bracket [a, b] is the nearest scanned offsets on each side
    where log f is at least the cut D = max(45, 30 - log rtol) below the
    maximum; a heavy right tail gets one more scan out to 1e290. An
    integrand that is -inf at every scanned point integrates to zero.

    The integral is the one-member family B = log f, D = 0, k = 0 of
    _integrate_family. Adaptive 15-point Gauss-Kronrod panels cover
    [lower, b], seeded with a, the peak, its neighbours, and edges graded
    4-fold out from the peak and in toward lower. Refinement runs in rounds,
    one log_f call each, that split every panel holding more than its share
    of the error budget. Doubling panels then sweep the right tail beyond b.

    Raises ValueError for a lower limit that is not finite. Raises
    QuadratureError for an integrand that does not decay, for a peak still
    unresolved when the zoom interval reaches float resolution (a spike
    narrower than the float spacing, or a jump at the maximum), for a total
    or error estimate that is not finite, or if the requested relative
    tolerance cannot be certified: within MAX_SUBDIVISIONS core splits, or
    once the error sum has stalled at the integrand's rounding floor (a
    window of max(64, panels) splits that does not halve it).
    """
    if not math.isfinite(lower):
        raise ValueError(f"lower must be a finite real, got {lower!r}")
    out, failed = _integrate_family(
        lambda t: (log_f(t), np.zeros(t.shape)), np.zeros(1), float(lower),
        DEFAULT_QUADRATURE if spec is None else spec,
    )
    if failed:
        raise QuadratureError(failed[0])
    return LogValue.from_log(out[0])


def _right_tail(columns, rows, a, b, lower, sums, rtol) -> dict[int, str]:
    # the right tail beyond the core [a, b] of the integrands in rows:
    # doubling panels from b until each is provably negligible. columns(rows,
    # lo, hi) gives the GK estimates and errors of the panels [lo, hi], one
    # row per integrand; sums[0] (totals) and sums[1] (error sums) gain the
    # tail in place. Returns the reason for each integrand left unfinished
    h, t_edge = max(b - a, 1e-3 * max(1.0, abs(lower))), b
    c_prev, consec = math.inf, 0
    for _ in range(2000):
        if not rows.size:
            return {}
        if t_edge > 1e290:
            return dict.fromkeys(rows.tolist(), "right tail does not decay; integral may diverge")
        est = columns(rows, [t_edge], [t_edge + h])[:, :, 0]
        tail = sums[:, rows] + est
        sums[:, rows] = tail
        c = np.abs(est[0])
        t_edge += h
        h *= 2.0
        scale = rtol * np.maximum(np.abs(tail[0]), 1e-300)
        small = (c <= scale / 64.0) & (c <= c_prev)
        consec = np.where(small, consec + 1, 0)
        # finished: two small panels in a row, and the geometric bound on
        # what lies beyond within a quarter of the tolerance
        finished = small & (consec >= 2)
        if finished.any():
            r = np.where((c_prev > 0.0) & np.isfinite(c_prev), c / c_prev, 0.0)
            remaining = np.where(r < 1.0, c * r / (1.0 - r), math.inf)
            finished &= remaining <= 0.25 * scale
        going = ~finished
        rows, c_prev, consec = rows[going], c[going], consec[going]
    return dict.fromkeys(rows.tolist(), "right tail sweep did not converge")


def _log_family(base: np.ndarray, rate: np.ndarray, k) -> np.ndarray:
    # B + k D, broadcast, in one new array; nan (from -inf + inf) becomes -inf
    v = k * rate
    v += base
    return np.fmax(v, _NEG_INF, out=v)


@np.errstate(all="ignore")
def _integrate_family(
    log_terms: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    ks: np.ndarray,
    lower: float,
    spec: QuadratureSpec,
) -> tuple[np.ndarray, dict[int, str]]:
    """log of int_lower^inf exp(B(t) + k D(t)) dt for each k of the
    increasing array ks, on one set of Gauss-Kronrod panels.

    log_terms(t) returns the pair (B(t), D(t)) for a 1-D float array t, and
    D must not decrease in t, so that the peak of f_k = exp(B + k D) moves
    right as k grows: the brackets of the first and the last k (the scans,
    cut and right-tail rule of integrate_decaying) enclose every peak, and
    f_k has fallen by the cut at both ends of the core. The seed edges are
    both brackets' graded edges plus geometric edges between the two peaks.
    B and D are evaluated once per node, and B + k D is formed for whole
    rows of panels in blocks of at most _BLOCK_FLOATS floats (one row if a
    row is wider), each k rescaled by its maximum over the seed nodes.

    Refinement runs in vectorised rounds: each round splits every panel on
    which some k still refining holds more than its share, 1 / (number of
    panels), of its core budget 0.25 rtol |total_k|. A k leaves the rounds
    once within that budget, once MAX_SUBDIVISIONS splits are spent, or once
    its error sum stalls at its rounding floor (a window of max(64, panels)
    splits that does not halve it), keeping the sums of its round with the
    least error sum. Each k is then certified by the final test, error sum
    <= rtol total, after its right tail. Returns the logs, nan where a k
    failed, and why each failed k failed, by index into ks: the message
    integrate_decaying raises. Where a bracket scan fails, every k fails
    with its message; where either end of the family is -inf at every
    scanned point, every k integrates to zero. Floating-point warnings are
    off throughout: the integrand's -inf and nan are part of its contract.
    """
    rtol = spec.relative_tolerance
    cut = max(45.0, -math.log(rtol) + 30.0)
    ks = np.asarray(ks, dtype=float)

    def log_f(k: float) -> Callable[[np.ndarray], np.ndarray]:
        return lambda t: _log_family(*log_terms(t), k)

    try:
        first = _bracket(log_f(ks[0]), lower, cut)
        last = _bracket(log_f(ks[-1]), lower, cut) if ks.size > 1 else first
    except QuadratureError as exc:
        return np.full(ks.size, np.nan), dict.fromkeys(range(ks.size), str(exc))
    if first[0] == _NEG_INF or last[0] == _NEG_INF:
        return np.full(ks.size, _NEG_INF), {}
    a, b = min(first[1][0], last[1][0]), max(first[1][-1], last[1][-1])
    edges = _core_edges(lower, first[1])
    if last is not first:
        edges |= _core_edges(lower, last[1])
    # between the peaks, four edges per doubling of the offset
    near, far = first[1][2] - lower, last[1][2] - lower
    if far > near > 0.0:
        steps = 2 + math.ceil(4.0 * math.log2(far / near))
        edges.update((lower + _geomspace(near, far, steps)).tolist())
    edges = np.array(sorted(e for e in edges if e <= b))
    lo, hi = edges[:-1], edges[1:]
    k_col, m = ks[:, None], np.empty((ks.size, 1))

    def columns(rows: np.ndarray, lo, hi, seed: bool = False) -> np.ndarray:
        # GK estimates (row 0) and errors (row 1) of the panels [lo, hi] for
        # the k of ks[rows], each rescaled by m; the seed panels set m, each
        # k's maximum over their nodes
        x, h = _panel_nodes(lo, hi)
        base, rate = log_terms(x.ravel())
        est = np.empty((2, rows.size, h.size))
        step = max(1, _BLOCK_FLOATS // x.size)
        for r0 in range(0, rows.size, step):
            r = rows[r0:r0 + step]
            v = _log_family(base, rate, k_col[r])
            if seed:
                m[r] = np.maximum.reduce(v, axis=1, keepdims=True)
            v -= m[r]
            est[0, r0:r0 + step], est[1, r0:r0 + step] = _panels(
                np.exp(v, out=v).reshape(r.size, *x.shape), h)
        return est

    # core: rounds of splits on the panels of [lower, b]. Each k keeps the
    # sums of its round with the least error sum (best: totals, error sums).
    # A k leaves the rounds once within budget, once the splits are spent,
    # or once a window of max(_MIN_STALL_WINDOW, panels) splits has not cut
    # its error sum to _STALL_FACTOR of what it was (every k still refining
    # opened its window in the same round: window_end, and window_err, its
    # error sum then). A k whose m is not finite has nan sums and leaves at
    # once
    best = np.zeros((2, ks.size))
    best[1] = math.inf
    floor, spent = np.zeros(ks.size, dtype=bool), np.zeros(ks.size, dtype=bool)
    rows = np.arange(ks.size)
    est = columns(rows, lo, hi, seed=True)
    splits, window_end, window_err = 0, 0, math.inf
    while True:
        sums = np.add.reduce(est, axis=2)
        tot, es = sums[0], sums[1]
        better = es < best[1, rows]
        best[:, rows[better]] = sums[:, better]
        budget = 0.25 * rtol * np.maximum(np.abs(tot), 1e-300)
        keep = es > budget
        if splits >= window_end:
            stalled = es > _STALL_FACTOR * window_err
            floor[rows[stalled]] = True
            keep &= ~stalled
            window_end, window_err = splits + max(_MIN_STALL_WINDOW, lo.size), es
        if splits >= MAX_SUBDIVISIONS:
            spent[rows[keep]] = True
            break
        rows = rows[keep]
        if not rows.size:
            break
        est, budget, window_err = est[:, keep], budget[keep], window_err[keep]
        mid = 0.5 * (lo + hi)
        split = np.logical_or.reduce(est[1] > (budget / lo.size)[:, None]) & (lo < mid) & (mid < hi)
        left = split.nonzero()[0]
        if not left.size:
            # unrefinable at float resolution; the final test decides
            break
        # a split panel's left half takes its column, its right half is appended
        mid, right = mid[left], hi[left]
        new = columns(rows, np.concatenate([lo[left], mid]), np.concatenate([mid, right]))
        est[:, :, left] = new[:, :, :left.size]
        est = np.concatenate([est, new[:, :, left.size:]], axis=2)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([hi, right])
        hi[left] = mid
        splits += left.size

    finite = np.isfinite(best[0]) & np.isfinite(best[1])
    tail = _right_tail(columns, finite.nonzero()[0], a, b, lower, best, rtol)
    total, errsum = best[0], best[1]
    ok = np.isfinite(total) & np.isfinite(errsum) & (errsum <= rtol * np.abs(total))
    for i in tail:
        ok[i] = False
    out = np.where(ok, m[:, 0] + np.log(total), np.nan)
    return out, {i: tail.get(i) or _failure(total[i], errsum[i], m[i, 0], rtol, floor[i], spent[i])
                 for i in (~ok).nonzero()[0].tolist()}


def _failure(total: float, errsum: float, m_log: float, rtol: float,
             floor: bool, spent: bool) -> str:
    # why an integral whose right tail finished failed the final test
    if not (math.isfinite(total) and math.isfinite(errsum)):
        return f"integral is not finite after rescaling by the scanned maximum e^{m_log:.6g}"
    achieved = errsum / max(abs(total), 1e-300)
    if spent:
        return (f"subdivision budget {MAX_SUBDIVISIONS} exhausted; "
                f"achieved relative error ~{achieved:.3e}")
    why = "; the error sum stalled at the integrand's rounding floor" if floor else ""
    return f"achieved relative error {achieved:.3e} exceeds requested {rtol:.3e}{why}"
