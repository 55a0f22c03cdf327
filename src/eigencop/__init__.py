"""Eigen-expansion copulas: construction and validation, stationary
Markov-chain sampling, closed-form association measures with quadrature
oracles, psi-mixing certificates, coefficient estimators with their
central limit theory, and a coverage-probability experiment harness."""

from .association import (AssociationReport, associate, kendall_tau,
                          spearman_rho)
from .basis import (Cosine, Family, PiecewiseSign, ShiftedLegendre,
                    SineCosine, TwoValueStep, eval_phi, eval_Phi, extrema)
from .config import (ConfigError, copula_to_config, load_copula,
                     parse_copula_config)
from .copula import (CounterexampleRecord, SpectralCoefficients,
                     SpectralCopula, ValidityReport, Verdict, cosine_copula,
                     fgm, independence, piecewise_sign,
                     shifted_legendre_copula, sine_cosine_copula,
                     sine_counterexample, star_product, two_sine_model,
                     two_value_step, zero_association_model)
from .coverage import (CoverageRow, CoverageTable, ExperimentConfig,
                       load_experiment, parse_experiment_config, run_coverage)
from .estimation import (MeanCI, MuEstimate, WeightedMuEstimate,
                         chi2_statistic, estimate_mu, estimate_mu_weighted,
                         indicator_zero_effect_closed,
                         indicator_zero_effect_threshold, long_run_variance,
                         mean_ci, sigma2_exponential, sigma2_indicator,
                         sigma2_uniform_mean, wald_interval)
from .mixing import Certificate, MixingReport, certify_psi, rho_sequence
from .sampling import (Bernoulli, ChainSample, Exponential, Uniform,
                       apply_transform, generate_chain, generate_chain_bank,
                       innovation_stream, next_state, sample_wl)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
