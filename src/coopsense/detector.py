"""Single-receiver energy detector: configuration and both closed-form families.

The threshold test itself (H1 when the statistic is >= the threshold) has
one implementation, ``montecarlo.decide_scheme``.

Both closed-form families describe one detector, whose order u is its
sample count (u = TW in Digham, Alouini and Simon, IEEE Trans. Commun.
55(1), 2007). A scenario declares its ``AnalyticFamily``, and
``receiver_rates`` gives that family's per-receiver (p_f, p_d):

* ``chi_square`` - the configured threshold lives on the accumulated
  energy scale (2 * sum|y|^2 / power), signaling is constant-envelope, and
  the SNR is the linear ratio accumulated over the whole window. Its rates
  are ``analytic_pf`` and ``analytic_pd``.
* ``exponential`` - the threshold lives on the normalized scale
  (energy / (u * power)), signaling is Gaussian, and the SNR is per
  sample. Its rates are ``reg_upper_gamma(u, u * threshold)`` and the same
  at the threshold divided by 1 + SNR.

SNR is linear everywhere in this module; dB conversion belongs to the CLI.
"""

import enum
import math
from dataclasses import dataclass

from .fusion import integer
from .specfun import MAX_ORDER, marcum_q, reg_upper_gamma

__all__ = [
    "AnalyticFamily",
    "DetectorConfig",
    "analytic_pf",
    "analytic_pd",
    "receiver_rates",
]


_MAX_THRESHOLD = 1e100  # proved safe in montecarlo.Scenario
# analytic_pd's largest snr and threshold: sqrt(2 * 5e299) and sqrt(1e300)
# round to marcum_q's largest a and b, 1e150, and the next doubles above
# these bounds round past it
_MAX_PD_SNR, _MAX_PD_THRESHOLD = 5e299, 1e300


class AnalyticFamily(str, enum.Enum):
    CHI_SQUARE = "chi_square"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class DetectorConfig:
    """Static parameters of one energy detector: ``sample_count`` in [1, 2**53]
    complex samples per sensing window, which is also the order u of both
    families' closed forms, and the decision ``threshold`` in [0, 1e100]."""

    sample_count: int
    threshold: float

    def __post_init__(self):
        if not 1 <= integer(self.sample_count, "sample_count") <= MAX_ORDER:
            raise ValueError(
                f"sample_count must lie in [1, 2**53], got {self.sample_count!r}")
        if not 0.0 <= self.threshold <= _MAX_THRESHOLD:
            raise ValueError(f"threshold must lie in [0, 1e100], got {self.threshold!r}")


def analytic_pf(order: float, threshold: float) -> float:
    """False-alarm probability of the accumulated statistic.

    Args:
        order: sample count u of the sensing window.
        threshold: decision threshold on the accumulated-energy scale.

    Returns:
        Q(order, threshold / 2), the central chi-square tail.
    """
    if not 0.0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    return reg_upper_gamma(order, 0.5 * threshold)


def analytic_pd(order: float, snr: float, threshold: float) -> float:
    """Detection probability of the accumulated statistic.

    Args:
        order: sample count u of the sensing window.
        snr: linear signal-to-noise ratio accumulated over the window, in
            [0, 5e299].
        threshold: decision threshold on the accumulated-energy scale, in
            [0, 1e300].

    Returns:
        Marcum Q_order(sqrt(2 * snr), sqrt(threshold)).
    """
    if not 0.0 <= snr <= _MAX_PD_SNR:
        raise ValueError(f"snr must lie in [0, 5e299], got {snr!r}")
    if not 0.0 <= threshold <= _MAX_PD_THRESHOLD:
        raise ValueError(f"threshold must lie in [0, 1e300], got {threshold!r}")
    return marcum_q(order, math.sqrt(2.0 * snr), math.sqrt(threshold))


def receiver_rates(family: AnalyticFamily, sample_count: int, threshold: float,
                   snr: float) -> tuple[float, float]:
    """Per-receiver (p_f, p_d) of ``family`` at ``threshold`` on its scale
    and linear ``snr``; an unknown family is a ``ValueError``."""
    u = sample_count
    if AnalyticFamily(family) == AnalyticFamily.CHI_SQUARE:
        return analytic_pf(u, threshold), analytic_pd(u, snr, threshold)
    x = u * threshold
    return reg_upper_gamma(u, x), reg_upper_gamma(u, x / (1.0 + snr))
