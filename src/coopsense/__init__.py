"""Cooperative spectrum sensing with enhanced energy detection.

Library layout:

* :mod:`coopsense.specfun` - log-gamma, regularized incomplete gamma,
  generalized Marcum Q.
* :mod:`coopsense.noise_model` - complex Gaussian noise generation,
  variance estimation, confidence brackets.
* :mod:`coopsense.detector` - detector configuration, energy statistic and
  the closed-form single-detector probabilities.
* :mod:`coopsense.threshold_schemes` - fixed, two-step interval,
  expectation-normalized and convex-weighted threshold strategies, named
  by ``SchemeKind`` and decided by one vectorized kernel.
* :mod:`coopsense.fusion` - cooperative error rates of n-out-of-K voting,
  optimal vote count.
* :mod:`coopsense.montecarlo` - deterministic, worker-count-invariant
  block-batched Monte Carlo engine that draws each sweep value once for
  every scheme, and the nominal closed-form rates.
* :mod:`coopsense.cli_experiments` - command-line sweep runner over JSON
  experiment specs, CSV output.
"""

from .detector import (
    DetectorConfig,
    Hypothesis,
    analytic_pd,
    analytic_pf,
    energy_statistic,
    pdf_normalized,
    pf_pm_from_pdf,
)
from .fusion import (
    CooperativeRates,
    FusionConfig,
    coop_qf,
    coop_qm,
    cooperative_rates,
    effective_rate,
    optimize_vote_count,
    total_error,
    total_error_over_noise_states,
)
from .montecarlo import (
    AnalyticFamily,
    AnalyticRates,
    RateEstimate,
    Scenario,
    ScenarioEstimate,
    SweepDraws,
    TruthMode,
    estimate,
    nominal_rates,
    wilson_interval,
)
from .noise_model import (
    NoiseUncertaintyModel,
    VarianceBracket,
    confidence_bracket,
    estimate_noise_expectation,
    generate_noise,
    sample_noise_variance,
    two_sided_kappa,
)
from .specfun import (
    ConvergenceError,
    log_gamma,
    marcum_q,
    reg_lower_gamma,
    reg_upper_gamma,
)
from .threshold_schemes import (
    SchemeKind,
    convex_normalizer,
    decide_scheme,
    default_weights,
    scheme_normalizer,
)

__version__ = "0.1.0"
