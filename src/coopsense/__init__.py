"""Cooperative spectrum sensing with enhanced energy detection.

Library layout:

* :mod:`coopsense.specfun` - regularized incomplete gamma, generalized
  Marcum Q.
* :mod:`coopsense.noise_model` - the noise-power bracket, from a
  calibration's confidence interval or given directly.
* :mod:`coopsense.detector` - detector configuration and the chi-square
  closed-form single-detector probabilities.
* :mod:`coopsense.threshold_schemes` - fixed, two-step interval,
  expectation-normalized and convex-weighted threshold strategies, named
  by ``SchemeKind`` and decided by one vectorized kernel.
* :mod:`coopsense.fusion` - cooperative error rates of n-out-of-K voting,
  optimal vote count.
* :mod:`coopsense.montecarlo` - deterministic, worker-count-invariant
  block-batched Monte Carlo engine that draws each sweep value once for
  every scheme, on the caller's process pool when given one, and the
  nominal closed-form rates.
* :mod:`coopsense.cli_experiments` - command-line sweep runner over JSON
  experiment specs, CSV output.
"""

from .detector import (
    DetectorConfig,
    analytic_pd,
    analytic_pf,
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
)
from .montecarlo import (
    AnalyticFamily,
    AnalyticRates,
    RateEstimate,
    Scenario,
    ScenarioEstimate,
    SweepDraws,
    estimate,
    nominal_rates,
    wilson_interval,
)
from .noise_model import (
    NoiseUncertaintyModel,
    VarianceBracket,
    confidence_bracket,
    two_sided_kappa,
)
from .specfun import (
    ConvergenceError,
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
