"""pktilt: exponentially tilted stable Poisson-Kingman partition models.

EPPF evaluation, predictive (seating) rules, number-of-blocks laws, alpha
diversity densities, and samplers for the generalized Gamma random-partition
family. Each quantity has one production route; the closed inverse-Gaussian
forms at alpha = 1/2 cross-check the generic numerical routes, and the audit
routes live in pktilt.oracle. Every eta consumer reads its quadrature
settings from one EtaMemo, passed as eta=.
"""

__version__ = "0.1.0"

from .specfun import (
    CancellationError,
    QuadratureError,
    LogValue,
    QuadratureSpec,
    DEFAULT_QUADRATURE,
    log_rising_factorial,
    log_binomial,
    upper_incomplete_gamma,
    integrate_decaying,
)
from .tempered_stable import (
    GGParams,
    stable_density_series,
    laplace_exponent,
    levy_density,
    sample_stable,
    sample_tempered,
)
from .eppf import (
    Composition,
    PredictiveDistribution,
    EtaMemo,
    log_eta,
    log_vnk,
    log_eppf,
    predictive,
)
from .blocks import (
    stirling_table,
    BlockCountPmf,
    blocks_pmf,
    diversity_density,
)
from .sampler import (
    McReport,
    sample_partition,
    monte_carlo_blocks,
    empirical_diversity,
)
from .oracle import (
    SetPartition,
    enumerate_set_partitions,
    bell_number,
    exact_blocks_pmf,
)

__all__ = [
    "__version__",
    "CancellationError", "QuadratureError", "LogValue", "QuadratureSpec",
    "DEFAULT_QUADRATURE", "log_rising_factorial", "log_binomial",
    "upper_incomplete_gamma", "integrate_decaying",
    "GGParams", "stable_density_series", "laplace_exponent",
    "levy_density", "sample_stable", "sample_tempered",
    "Composition", "PredictiveDistribution", "EtaMemo", "log_eta", "log_vnk",
    "log_eppf", "predictive",
    "stirling_table", "BlockCountPmf", "blocks_pmf",
    "diversity_density",
    "McReport", "sample_partition", "monte_carlo_blocks", "empirical_diversity",
    "SetPartition", "enumerate_set_partitions", "bell_number", "exact_blocks_pmf",
]
