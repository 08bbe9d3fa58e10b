"""Cooperative spectrum sensing with enhanced energy detection.

Library layout:

* :mod:`coopsense.specfun` - regularized incomplete gamma, generalized
  Marcum Q.
* :mod:`coopsense.noise_model` - the noise-power bracket, from a
  calibration's confidence interval or given directly.
* :mod:`coopsense.detector` - detector configuration and the chi-square
  closed-form single-detector probabilities.
* :mod:`coopsense.threshold_schemes` - the fixed, two-step interval,
  expectation-normalized and convex-weighted threshold strategies, named
  by ``SchemeKind`` (convex is the expectation rule in this model), and
  the one vectorized kernel that decides them.
* :mod:`coopsense.fusion` - ``cooperative_rates``, the one closed form of
  n-out-of-K voting, its ``CooperativeRates`` record; optimal vote count.
* :mod:`coopsense.montecarlo` - deterministic, worker-count-invariant
  block-batched Monte Carlo engine: each ``Scenario`` (a sweep value; it
  holds no scheme) is drawn once for every scheme that ``estimate`` reads,
  on the caller's process pool when given one; the nominal closed-form
  rates, a ``CooperativeRates`` record.
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
    cooperative_rates,
    effective_rate,
    optimize_vote_count,
)
from .montecarlo import (
    AnalyticFamily,
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
from .threshold_schemes import SchemeKind, decide_scheme

__version__ = "0.1.0"
