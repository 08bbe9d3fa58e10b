"""Single-receiver energy detector: configuration and chi-square closed forms.

The threshold test itself (H1 when the statistic is >= the threshold) has
one implementation, ``montecarlo.decide_scheme``.

Both closed-form families describe one detector, whose order u is its
sample count (u = TW in Digham, Alouini and Simon, IEEE Trans. Commun.
55(1), 2007). ``analytic_pf`` and ``analytic_pd`` are the chi-square
family: they describe the accumulated statistic 2 * sum|y|^2 / sigma^2 of
a window of u complex samples and a constant-envelope signal. The
exponential family (Gaussian signaling, normalized statistic) needs no
function of its own: its rates are ``reg_upper_gamma(u, u * threshold)``
and the same at the threshold divided by 1 + SNR, evaluated in
``montecarlo.nominal_rates``.

SNR is linear everywhere in this module; dB conversion belongs to the CLI.
"""

import math
from dataclasses import dataclass

from .fusion import integer
from .specfun import marcum_q, reg_upper_gamma

__all__ = [
    "DetectorConfig",
    "analytic_pf",
    "analytic_pd",
]


@dataclass(frozen=True)
class DetectorConfig:
    """Static parameters of one energy detector: ``sample_count`` complex
    samples per sensing window, which is also the order u of both
    families' closed forms, and the decision ``threshold``."""

    sample_count: int
    threshold: float

    def __post_init__(self):
        if integer(self.sample_count, "sample_count") < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count!r}")
        if self.threshold < 0.0 or not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite and >= 0, got {self.threshold!r}")


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
        snr: linear signal-to-noise ratio accumulated over the window.
        threshold: decision threshold on the accumulated-energy scale.

    Returns:
        Marcum Q_order(sqrt(2 * snr), sqrt(threshold)).
    """
    if not 0.0 <= snr < math.inf:
        raise ValueError(f"snr must be finite and >= 0, got {snr!r}")
    if not 0.0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    # 2 * snr overflows above half the largest double; sqrt(2) sqrt(snr) does not
    a = math.sqrt(2.0 * snr) if snr < 8e307 else math.sqrt(2.0) * math.sqrt(snr)
    return marcum_q(order, a, math.sqrt(threshold))

