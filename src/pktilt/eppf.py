"""Exchangeable partition probabilities for the tilted stable family.

The EPPF has Gibbs form

    p(n_1, ..., n_k) = V_{n,k} prod_j (1 - alpha)_{n_j - 1}

with

    V_{n,k} = delta^k alpha^k 2^n / Gamma(n) * eta(n, k),
    eta(n, k) = int_0^inf lam^(n-1) e^(-delta (w^alpha - gamma)) w^(k alpha - n) dlam,
    w = gamma^(1/alpha) + 2 lam.

The tilt factor e^(delta gamma) sits inside eta, so eta(1, 1) = 1 / (2 alpha
delta) for every gamma, and no stored log eta carries a term -delta gamma
that would round it to the float spacing of delta gamma.

At gamma = 0 the model is Pitman's PD(alpha, 0) and eta is closed form,
eta(n, k) = Gamma(k) / (alpha delta^k 2^n). At gamma > 0 eta is evaluated by
quadrature after the substitution u = delta w^alpha, over the offset
u - delta gamma in (0, inf), where the integrand decays exponentially
(integrate_decaying). Its gap to the closed form is about delta gamma, so
tests check the closed form against the quadrature at delta gamma = 1e-14.
At alpha = 1/2, gamma > 0 there is also a finite sum of upper incomplete
gamma functions (substitution t = delta sqrt(gamma^2 + 2 lam) and a
binomial expansion). The sum alternates and loses digits as n grows, so it
is kept only as an oracle, log_eta_half_closed, with a cancellation guard.

One-customer predictive weights are eta ratios:

    p_j = (2/n) (eta(n+1, k) / eta(n, k)) (n_j - alpha),
    q   = (2/n) (eta(n+1, k+1) / eta(n, k)) alpha delta.

eta also satisfies an exact downward recurrence (integrate the total
derivative of lam^n e^(-delta w^alpha) w^(k alpha - n) over (0, inf)):

    n eta(n, k) = 2 delta alpha eta(n+1, k+1) + 2 (n - k alpha) eta(n+1, k)

whose coefficients are positive for k <= n. EtaMemo exploits it: one top
row (closed form or quadrature) seeds the whole triangle, which is both
faster and more accurate than quadrature per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import (
    CancellationError,
    DEFAULT_QUADRATURE,
    LogValue,
    QuadratureSpec,
    integrate_decaying,
    log_binomial,
    log_rising_factorial,
    sum_logvalues,
    upper_incomplete_gamma,
)
from .tempered_stable import GGParams

__all__ = [
    "Composition",
    "PredictiveDistribution",
    "EtaMemo",
    "log_eta",
    "log_eta_half_closed",
    "log_vnk",
    "log_eppf",
    "predictive",
]

_LN2 = math.log(2.0)

_MAX_DIGIT_LOSS = 6.0


@dataclass(frozen=True)
class Composition:
    """An ordered composition (n_1, ..., n_k) of block sizes, all >= 1."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        raw = tuple(self.block_sizes)
        if any(s != int(s) for s in raw):
            raise ValueError(f"block sizes must be integers, got {raw}")
        sizes = tuple(int(s) for s in raw)
        if len(sizes) == 0:
            raise ValueError("composition must have at least one block")
        if any(s < 1 for s in sizes):
            raise ValueError(f"block sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def n(self) -> int:
        return sum(self.block_sizes)

    @property
    def k(self) -> int:
        return len(self.block_sizes)

    def with_increment(self, j: int) -> "Composition":
        """The composition after adding one element to block j (0-based)."""
        if not 0 <= j < self.k:
            raise ValueError(f"block index {j} out of range")
        sizes = list(self.block_sizes)
        sizes[j] += 1
        return Composition(tuple(sizes))

    def with_new_block(self) -> "Composition":
        """The composition after opening a new singleton block."""
        return Composition(self.block_sizes + (1,))


@dataclass(frozen=True)
class PredictiveDistribution:
    """One-step seating weights: one per existing block plus the new-block mass."""

    existing: tuple[float, ...]
    new_block: float

    @property
    def total(self) -> float:
        return math.fsum(self.existing) + self.new_block


def _log_eta_cell(n: int, k: int, params: GGParams, spec: QuadratureSpec) -> float:
    """log eta(n, k): the closed form at gamma = 0, quadrature otherwise."""
    alpha, delta = params.alpha, params.delta
    u0 = delta * params.gamma
    # u0, not gamma: a product that underflows to 0 leaves the quadrature no
    # offset to integrate over, and its eta is the gamma = 0 one
    if u0 == 0.0:
        return math.lgamma(k) - n * _LN2 - k * math.log(delta) - math.log(alpha)
    c = k * alpha - n + 1.0 - alpha
    # lam = (w - gamma^(1/alpha)) / 2 is taken in log scale, since w overflows
    # at small alpha. The 2^(1-n) of lam^(n-1) is folded into log_norm.
    log_norm = math.log(2.0 * alpha * delta) + (n - 1) * _LN2
    # integrate over the offset x = u - u0, so that
    # d = log w - log gamma^(1/alpha) = log1p(x / u0) / alpha keeps its digits
    # near the lower limit even when u0 is large. The tilt factor e^(u0) of
    # eta cancels e^(-u0) exactly, so neither enters in floating point.
    log_gr = (math.log(u0) - math.log(delta)) / alpha
    const = (c + n - 1) * log_gr - log_norm

    def log_f(x: np.ndarray) -> np.ndarray:
        d = np.log1p(x / u0) / alpha
        out = const - x + c * d
        if n > 1:
            with np.errstate(divide="ignore"):
                out = out + (n - 1) * (d + np.log(-np.expm1(-d)))
        return out

    return integrate_decaying(log_f, 0.0, spec).log_magnitude


def _validate_nk(n: int, k: int) -> None:
    if not isinstance(n, (int, np.integer)) or not isinstance(k, (int, np.integer)):
        raise ValueError("n and k must be integers")
    if n < 1 or k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")


def log_eta(n: int, k: int, params: GGParams, spec: QuadratureSpec | None = None) -> LogValue:
    """log of eta(n, k) as a LogValue: closed form at gamma = 0, else quadrature."""
    _validate_nk(n, k)
    if spec is None:
        spec = DEFAULT_QUADRATURE
    return LogValue.from_log(_log_eta_cell(n, k, params, spec))


def log_eta_half_closed(n: int, k: int, params: GGParams) -> LogValue:
    """Oracle for log eta(n, k) at alpha = 1/2, gamma > 0:

        eta(n, k) = 2^(1-n) delta^(-k) e^(delta gamma) sum_i C(n-1, i)
                    (-1)^(n-1-i) (delta gamma)^(2(n-1-i)) Gamma(k-2n+2+2i; delta gamma).

    The sum alternates; CancellationError is raised once it loses more than
    six digits, which happens as n grows.
    """
    _validate_nk(n, k)
    if params.alpha != 0.5 or params.gamma <= 0.0:
        raise ValueError("closed form requires alpha = 1/2 and gamma > 0")
    delta = params.delta
    x = delta * params.gamma
    log_x = math.log(x)
    terms = []
    for i in range(n):
        a_i = k - 2 * n + 2 + 2 * i
        g = upper_incomplete_gamma(float(a_i), x)
        lv = g.shifted(log_binomial(n - 1, i) + 2.0 * (n - 1 - i) * log_x)
        if (n - 1 - i) % 2 == 1:
            lv = -lv
        terms.append(lv)
    total = sum_logvalues(terms)
    max_log = max(t.log_magnitude for t in terms)
    if total.sign != 1:
        raise CancellationError(
            f"closed-form eta sum destroyed by cancellation at n={n}, k={k}"
        )
    loss = (max_log - total.log_magnitude) / math.log(10.0)
    if loss > _MAX_DIGIT_LOSS:
        raise CancellationError(
            f"closed-form eta lost {loss:.1f} digits at n={n}, k={k}"
        )
    return LogValue.from_log(x + (1 - n) * _LN2 - k * math.log(delta) + total.log_magnitude)


def log_vnk(n: int, k: int, params: GGParams, *, eta: EtaMemo | None = None) -> LogValue:
    """log of the Gibbs coefficient V_{n,k} as a LogValue.

    eta, a memo for the same params, serves eta(n, k); by default a fresh
    memo at the default quadrature tolerance.
    """
    le = _memo_for(params, eta).log_eta(n, k)
    return LogValue.from_log(le + _log_vnk_prefactor(n, k, params))


def _log_vnk_prefactor(n: int, k: int, params: GGParams) -> float:
    return (
        k * (math.log(params.delta) + math.log(params.alpha))
        + n * _LN2
        - math.lgamma(n)
    )


def log_eppf(
    composition: Composition, params: GGParams, *, eta: EtaMemo | None = None
) -> LogValue:
    """log EPPF value of an ordered composition of block sizes.

    eta, a memo for the same params, serves eta(n, k); by default a fresh
    memo at the default quadrature tolerance.
    """
    n, k = composition.n, composition.k
    lv = log_vnk(n, k, params, eta=eta)
    w = math.fsum(
        log_rising_factorial(1.0 - params.alpha, s - 1) for s in composition.block_sizes
    )
    return lv.shifted(w)


def _memo_for(params: GGParams, eta: EtaMemo | None) -> EtaMemo:
    """The eta memo a consumer reads: eta itself, or a fresh memo at the
    default quadrature tolerance. A memo for other params is an error."""
    if eta is None:
        return EtaMemo(params)
    if eta.params != params:
        raise ValueError(f"eta memo is for {eta.params}, not {params}")
    return eta


class EtaMemo:
    """Memoized log eta(n, k) values for one parameter set.

    ensure_rows(n_top) computes the top row as log_eta does (n_top
    quadratures at gamma > 0, closed form at gamma = 0) and fills every row
    below through the exact downward recurrence. Cells outside the table are
    computed on demand the same way and cached; quadrature_cells counts the
    integrals run. spec, the quadrature settings, reaches every eta consumer
    only through its memo.
    """

    def __init__(self, params: GGParams, spec: QuadratureSpec | None = None):
        self.params = params
        self.spec = spec if spec is not None else DEFAULT_QUADRATURE
        self._rows: dict[int, np.ndarray] = {}
        self._top = 0
        self._cells: dict[tuple[int, int], float] = {}
        self._by_quadrature = params.delta * params.gamma != 0.0
        self.quadrature_cells = 0

    def ensure_rows(self, n_top: int) -> None:
        """Guarantee table coverage of every (n, k) with n <= n_top."""
        if n_top < 1:
            raise ValueError("n_top must be >= 1")
        if self._top >= n_top:
            return
        alpha, delta = self.params.alpha, self.params.delta
        top = np.full(n_top + 2, -np.inf)
        for k in range(1, n_top + 1):
            top[k] = _log_eta_cell(n_top, k, self.params, self.spec)
        self.quadrature_cells += n_top * self._by_quadrature
        rows = {n_top: top}
        log_2ad = math.log(2.0 * alpha * delta)
        for n in range(n_top - 1, 0, -1):
            nxt = rows[n + 1]
            k_arr = np.arange(1, n + 1, dtype=float)
            new_part = log_2ad + nxt[2:n + 2]
            old_part = _LN2 + np.log(n - alpha * k_arr) + nxt[1:n + 1]
            row = np.full(n + 2, -np.inf)
            row[1:n + 1] = np.logaddexp(new_part, old_part) - math.log(n)
            rows[n] = row
        self._rows = rows
        self._top = n_top

    def log_eta(self, n: int, k: int) -> float:
        _validate_nk(n, k)
        if n <= self._top:
            return float(self._rows[n][k])
        key = (n, k)
        if key not in self._cells:
            self._cells[key] = log_eta(n, k, self.params, self.spec).log_magnitude
            self.quadrature_cells += self._by_quadrature
        return self._cells[key]

    def log_row(self, n: int) -> np.ndarray:
        """Direct row access (index k, valid 1..n); table rows only."""
        if n > self._top:
            raise KeyError(f"row {n} not in table (top is {self._top})")
        return self._rows[n]


def predictive(
    composition: Composition | None,
    params: GGParams,
    *,
    eta: EtaMemo | None = None,
) -> PredictiveDistribution:
    """Seating weights for the next element given the current composition.

    For the empty state (composition None) the first element opens a new
    block with probability one. Weights are eta ratios computed as log
    differences; they sum to one up to quadrature tolerance.
    """
    eta = _memo_for(params, eta)
    if composition is None:
        return PredictiveDistribution(existing=(), new_block=1.0)
    n, k = composition.n, composition.k
    le = eta.log_eta(n, k)
    le_same = eta.log_eta(n + 1, k)
    le_up = eta.log_eta(n + 1, k + 1)
    base = (2.0 / n) * math.exp(le_same - le)
    existing = tuple(base * (s - params.alpha) for s in composition.block_sizes)
    new_block = (2.0 / n) * math.exp(le_up - le) * params.alpha * params.delta
    return PredictiveDistribution(existing=existing, new_block=new_block)
