"""Cooperative spectrum sensing with enhanced energy detection.

Library layout:

* :mod:`coopsense.specfun` - regularized incomplete gamma, generalized
  Marcum Q.
* :mod:`coopsense.noise_model` - the noise-power bracket, from a
  calibration's confidence interval or given directly.
* :mod:`coopsense.detector` - detector configuration and the chi-square
  closed-form single-detector probabilities.
* :mod:`coopsense.fusion` - ``cooperative_rates``, the one closed form of
  n-out-of-K voting, its ``CooperativeRates`` record; optimal vote count.
* :mod:`coopsense.montecarlo` - deterministic, worker-count-invariant
  block-batched Monte Carlo engine: each ``Scenario`` (a sweep value; it
  holds no scheme) is drawn once for every scheme that ``estimate`` reads,
  on the caller's process pool when given one; the nominal closed-form
  rates, a ``CooperativeRates`` record; the paper's threshold schemes,
  named by ``SchemeKind``, and ``decide_scheme``, their one kernel.
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
    SchemeKind,
    SweepDraws,
    decide_scheme,
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

__version__ = "0.1.0"
