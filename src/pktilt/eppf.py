"""Exchangeable partition probabilities for the tilted stable family.

The EPPF has Gibbs form

    p(n_1, ..., n_k) = V_{n,k} prod_j (1 - alpha)_{n_j - 1}

with

    V_{n,k} = alpha^k 2^n / Gamma(n) * eta(n, k),
    eta(n, k) = int_0^inf lam^(n-1) e^(-(w^alpha - beta)) w^(k alpha - n) dlam,
    w = beta^(1/alpha) + 2 lam,  beta = delta gamma.

The partition law is that of the normalised measure, and the total mass at
(alpha, delta, gamma) is delta^(1/alpha) times that at (alpha, 1, beta), so
the law depends on (alpha, beta) only (Lijoi, Mena & Prunster 2007): eta is
the integral at delta = 1, and delta enters below only through beta.

The tilt factor e^beta sits inside eta, so eta(1, 1) = 1 / (2 alpha) for
every beta, and no stored log eta carries a term -beta that would round it
to the float spacing of beta.

At beta = 0 the model is Pitman's PD(alpha, 0) and eta is closed form,
eta(n, k) = Gamma(k) / (alpha 2^n); pktilt takes that form whenever
beta < 1e-290 (_by_quadrature). Otherwise eta is evaluated by quadrature
after the substitution u = w^alpha, over the offset x = u - beta in
(0, inf), where the integrand decays exponentially. Its gap to the closed
form shrinks about as beta log(1 / beta), so tests check the closed form
against the quadrature at beta = 1e-14.

In x, every eta(n, k) of a row n has the log-integrand B(x) + k D(x), with
D increasing (_eta_log_terms). Rows and cells take the one integrator,
specfun._integrate_family. A whole row is one pass over a shared set of
Gauss-Kronrod panels (_log_eta_row, the route of EtaMemo.log_row), each k
certified on its own. One cell is one integrate_decaying call, the
one-member family B + k D with its own brackets (_log_eta_cell, the route
of log_eta, of cells off the memo's rows, and of any k a row pass cannot
certify).
At alpha = 1/2, beta > 0 there is also a finite sum of upper incomplete
gamma functions (substitution t = sqrt(beta^2 + 2 lam) and a binomial
expansion). The sum alternates and loses digits as n grows, so it
is kept only as an oracle, log_eta_half_closed, with a cancellation guard.

One-customer predictive weights are eta ratios:

    p_j = (2/n) (eta(n+1, k) / eta(n, k)) (n_j - alpha),
    q   = (2/n) (eta(n+1, k+1) / eta(n, k)) alpha.

eta also satisfies an exact downward recurrence (integrate the total
derivative of lam^n e^(-w^alpha) w^(k alpha - n) over (0, inf)):

    n eta(n, k) = 2 alpha eta(n+1, k+1) + 2 (n - k alpha) eta(n+1, k)

whose coefficients are positive for k <= n. EtaMemo.ensure_rows exploits
it: one top row (closed form or one row quadrature) seeds the whole
triangle, which is both faster and more accurate than quadrature per cell.
A consumer that needs one row only, such as blocks_pmf, reads it from
EtaMemo.log_row and builds no triangle.
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
    _integrate_family,
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

# beta = delta gamma below which eta takes its gamma = 0 form. Above it, the
# integrand's x / beta stays finite for offsets x up to 1e18. Below it, the
# gap to the closed form is far below float resolution: it shrinks about as
# beta log(1 / beta), and is 5e-11 in log at beta = 1e-15, n = 3000,
# alpha = 0.98.
_MIN_QUADRATURE_TILT = 1e-290


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


def _by_quadrature(params: GGParams) -> bool:
    """Whether eta is computed by quadrature, not in its gamma = 0 form."""
    return params.delta * params.gamma >= _MIN_QUADRATURE_TILT


def _eta_log_terms(n: int, params: GGParams):
    """The integrand of row n of eta at beta > 0, over the offset
    x = u - beta in (0, inf): log f_k(x) = B(x) + k D(x), returned as the
    function x -> (B(x), D(x)).

    With s = alpha (log w - log beta^(1/alpha)) = log1p(x / beta),
    g = log beta and log_norm = log(2 alpha) + (n - 1) log 2,

        D = g + s,
        B = -g - log_norm - x - s + (n - 1) log(1 - e^(-s / alpha)).

    s keeps its digits near the lower limit even when beta is large,
    lam = (w - beta^(1/alpha)) / 2 enters in log scale (w overflows at small
    alpha), and the 2^(1-n) of lam^(n-1) is folded into log_norm. The tilt
    factor e^beta of eta cancels e^(-u) at the lower limit exactly, so
    neither enters in floating point. No term of size (n - 1) s / alpha
    is formed: the w^(k alpha - n) of the integrand and the w^(n-1) of
    lam^(n-1) cancel to w^(k alpha - alpha) before rounding.
    """
    alpha, beta = params.alpha, params.delta * params.gamma
    g = math.log(beta)
    base0 = -g - math.log(2.0 * alpha) - (n - 1) * _LN2

    def log_terms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = np.log1p(x / beta)
        base = base0 - x - s
        if n > 1:
            with np.errstate(divide="ignore"):
                base += (n - 1) * np.log(-np.expm1(-s / alpha))
        return base, g + s

    return log_terms


def _log_eta_cell(n: int, k: int, params: GGParams, spec: QuadratureSpec) -> float:
    """log eta(n, k): quadrature if _by_quadrature(params), else closed form."""
    if not _by_quadrature(params):
        return math.lgamma(k) - n * _LN2 - math.log(params.alpha)
    log_terms = _eta_log_terms(n, params)

    def log_f(x: np.ndarray) -> np.ndarray:
        base, rate = log_terms(x)
        return base + k * rate

    return integrate_decaying(log_f, 0.0, spec).log_magnitude


def _log_eta_row(n: int, params: GGParams, spec: QuadratureSpec) -> np.ndarray:
    """log eta(n, k) for k = 1..n at index k - 1: the closed form if not
    _by_quadrature(params), else one quadrature of the whole row.

    Every k of the row shares the integrand family B + k D of
    _eta_log_terms, and D increases in x, so one panel set serves the row
    (specfun._integrate_family), certified k by k with integrate_decaying's
    error model and final test at spec's tolerance. A k the family cannot
    certify is integrated on its own by _log_eta_cell, which raises
    QuadratureError if that fails too.
    """
    if not _by_quadrature(params):
        lgam = np.array([math.lgamma(k) for k in range(1, n + 1)])
        return lgam - n * _LN2 - math.log(params.alpha)
    row, failed = _integrate_family(_eta_log_terms(n, params), np.arange(1, n + 1), 0.0, spec)
    for i in sorted(failed):
        row[i] = _log_eta_cell(n, i + 1, params, spec)
    return row


def _validate_nk(n: int, k: int) -> None:
    if not isinstance(n, (int, np.integer)) or not isinstance(k, (int, np.integer)):
        raise ValueError("n and k must be integers")
    if n < 1 or k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")


def log_eta(n: int, k: int, params: GGParams, spec: QuadratureSpec | None = None) -> LogValue:
    """log of eta(n, k) as a LogValue: the gamma = 0 closed form when
    beta = delta gamma < 1e-290 (gamma = 0 included), quadrature otherwise."""
    _validate_nk(n, k)
    if spec is None:
        spec = DEFAULT_QUADRATURE
    return LogValue.from_log(_log_eta_cell(n, k, params, spec))


def log_eta_half_closed(n: int, k: int, params: GGParams) -> LogValue:
    """Oracle for log eta(n, k) at alpha = 1/2, gamma > 0:

        eta(n, k) = 2^(1-n) e^beta sum_i C(n-1, i) (-1)^(n-1-i)
                    beta^(2(n-1-i)) Gamma(k-2n+2+2i; beta),  beta = delta gamma.

    The sum alternates; CancellationError is raised once it loses more than
    six digits, which happens as n grows.
    """
    _validate_nk(n, k)
    if params.alpha != 0.5 or params.gamma <= 0.0:
        raise ValueError("closed form requires alpha = 1/2 and gamma > 0")
    x = params.delta * params.gamma
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
    return LogValue.from_log(x + (1 - n) * _LN2 + total.log_magnitude)


def log_vnk(n: int, k: int, params: GGParams, *, eta: EtaMemo | None = None) -> LogValue:
    """log of the Gibbs coefficient V_{n,k} as a LogValue.

    eta, a memo for the same params, serves eta(n, k); by default a fresh
    memo at the default quadrature tolerance.
    """
    le = _memo_for(params, eta).log_eta(n, k)
    return LogValue.from_log(le + _log_vnk_prefactor(n, k, params))


def _log_vnk_prefactor(n: int, k: int, params: GGParams) -> float:
    return k * math.log(params.alpha) + n * _LN2 - math.lgamma(n)


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

    The memo keeps rows of eta in one dict. log_row(n) serves row n from it,
    or computes the row by _log_eta_row and keeps it: the closed form when
    beta < 1e-290, gamma = 0 included, else one quadrature pass over
    the row's shared panels, which certifies each k at spec's tolerance with
    the same error model as a cell and integrates any k it cannot certify as
    its own cell. ensure_rows(n_top) takes row n_top from log_row and fills
    every row below it through the exact downward recurrence. log_eta reads
    any kept row; other cells are computed as log_eta does and cached.
    quadrature_cells counts the eta values integrated, n for each row n
    integrated at beta >= 1e-290. spec, the quadrature settings,
    reaches every eta consumer only through its memo.
    """

    def __init__(self, params: GGParams, spec: QuadratureSpec | None = None):
        self.params = params
        self.spec = spec if spec is not None else DEFAULT_QUADRATURE
        self._rows: dict[int, np.ndarray] = {}
        self._top = 0
        self._cells: dict[tuple[int, int], float] = {}
        self._by_quadrature = _by_quadrature(params)
        self.quadrature_cells = 0

    def ensure_rows(self, n_top: int) -> None:
        """Guarantee table coverage of every (n, k) with n <= n_top."""
        if n_top < 1:
            raise ValueError("n_top must be >= 1")
        if self._top >= n_top:
            return
        alpha = self.params.alpha
        row = self.log_row(n_top)
        log_2a = math.log(2.0 * alpha)
        for n in range(n_top - 1, 0, -1):
            k_arr = np.arange(1, n + 1, dtype=float)
            new_part = log_2a + row[2:n + 2]
            old_part = _LN2 + np.log(n - alpha * k_arr) + row[1:n + 1]
            row = np.full(n + 2, -np.inf)
            row[1:n + 1] = np.logaddexp(new_part, old_part) - math.log(n)
            self._rows[n] = row
        self._top = n_top

    def log_eta(self, n: int, k: int) -> float:
        _validate_nk(n, k)
        if n in self._rows:
            return float(self._rows[n][k])
        key = (n, k)
        if key not in self._cells:
            self._cells[key] = log_eta(n, k, self.params, self.spec).log_magnitude
            self.quadrature_cells += self._by_quadrature
        return self._cells[key]

    def log_row(self, n: int) -> np.ndarray:
        """Row n of log eta, indexed by k (valid 1..n, -inf at 0 and n + 1):
        a kept row, or one computed by _log_eta_row and kept."""
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        if n not in self._rows:
            row = np.full(n + 2, -np.inf)
            row[1:n + 1] = _log_eta_row(n, self.params, self.spec)
            self.quadrature_cells += n * self._by_quadrature
            self._rows[n] = row
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
    new_block = (2.0 / n) * math.exp(le_up - le) * params.alpha
    return PredictiveDistribution(existing=existing, new_block=new_block)
