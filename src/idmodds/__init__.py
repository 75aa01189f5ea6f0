"""Illness-death-model prevalence odds toolkit.

Computes age-specific prevalence odds of a chronic disease from the
transition rates of the three-state illness-death model, simulates
aggregated current-status studies on the Lexis plane from the same rates,
and recovers duration-dependent mortality parameters by binomial maximum
likelihood with asymptotic confidence intervals.
"""

__version__ = "0.1.0"

from idmodds.quadrature import QuadratureConfig, QuadratureError, adaptive_quad
from idmodds.rates import (
    ExponentialIncidence,
    GompertzParams,
    MortalityRatioParams,
    PositivePartIncidence,
    RateDomainError,
    RateModel,
    RatioHorizonError,
    TabulatedIncidence,
    reference_rate_model,
)
from idmodds.prevalence import (
    AgeProfile,
    PrevalenceResult,
    cross_section_profile,
    diseased_population,
    effective_diseased_mortality,
    healthy_population,
    pde_residual_odds,
    pde_residual_prevalence,
    prevalence,
    prevalence_odds_exponential,
    prevalence_odds_keiding,
    prevalence_odds_pseudo_convolution,
    reconstruct_incidence,
)
from idmodds.simulate import (
    AgeGroupTable,
    PopulationLedger,
    SimConfig,
    calibrate_births_per_year,
    cross_section,
    replicate_study,
    run_simulation,
)
from idmodds.fit import (
    FitConfig,
    FitResult,
    fit,
    group_prevalence,
    log_likelihood,
    wald_intervals,
)

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "adaptive_quad",
    "ExponentialIncidence",
    "GompertzParams",
    "MortalityRatioParams",
    "PositivePartIncidence",
    "RateDomainError",
    "RateModel",
    "RatioHorizonError",
    "TabulatedIncidence",
    "reference_rate_model",
    "AgeProfile",
    "PrevalenceResult",
    "cross_section_profile",
    "diseased_population",
    "effective_diseased_mortality",
    "healthy_population",
    "pde_residual_odds",
    "pde_residual_prevalence",
    "prevalence",
    "prevalence_odds_exponential",
    "prevalence_odds_keiding",
    "prevalence_odds_pseudo_convolution",
    "reconstruct_incidence",
    "AgeGroupTable",
    "PopulationLedger",
    "SimConfig",
    "calibrate_births_per_year",
    "cross_section",
    "replicate_study",
    "run_simulation",
    "FitConfig",
    "FitResult",
    "fit",
    "group_prevalence",
    "log_likelihood",
    "wald_intervals",
    "__version__",
]
