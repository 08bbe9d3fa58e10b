"""Single-receiver energy detector: configuration and chi-square closed forms.

The threshold test itself (H1 when the statistic is >= the threshold) has
one implementation, ``threshold_schemes.decide_scheme``.

``analytic_pf`` and ``analytic_pd`` are the chi-square family: they
describe the accumulated statistic 2 * sum|y|^2 / sigma^2 of a sensing
window with time-bandwidth product ``u`` and a constant-envelope signal.
The exponential family (Gaussian signaling, normalized statistic) needs no
function of its own: its rates are ``reg_upper_gamma(u, u * threshold)``
and the same at the threshold divided by 1 + SNR, evaluated in
``montecarlo.nominal_rates``.

SNR is linear everywhere in this module; dB conversion belongs to the CLI.
"""

import math
from dataclasses import dataclass

from .specfun import marcum_q, reg_upper_gamma

__all__ = [
    "DetectorConfig",
    "analytic_pf",
    "analytic_pd",
]


@dataclass(frozen=True)
class DetectorConfig:
    """Static parameters of one energy detector.

    ``sample_count`` is the number of complex samples per sensing interval
    and ``time_bandwidth`` the degrees-of-freedom parameter of the
    chi-square closed forms. They are related (one complex sample per
    degree of freedom in the accumulated statistic) but deliberately kept
    independent so either family can be evaluated on its own terms.
    ``signal_variance`` normally stays ``None`` and is derived from the
    scenario SNR; setting it overrides that derivation (``0.0`` gives a
    degenerate, signal-free H1).
    """

    sample_count: int
    time_bandwidth: float
    threshold: float
    channel_gain: float = 1.0
    signal_variance: float | None = None

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count!r}")
        if not math.isfinite(self.time_bandwidth) or self.time_bandwidth <= 0.0:
            raise ValueError(
                f"time_bandwidth must be finite and > 0, got {self.time_bandwidth!r}"
            )
        if self.threshold < 0.0 or not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite and >= 0, got {self.threshold!r}")
        if not math.isfinite(self.channel_gain):
            raise ValueError("channel_gain must be finite")
        if self.signal_variance is not None and not (
            math.isfinite(self.signal_variance) and self.signal_variance >= 0.0
        ):
            raise ValueError(
                f"signal_variance must be finite and >= 0, got {self.signal_variance!r}"
            )


def analytic_pf(order: float, threshold: float) -> float:
    """False-alarm probability of the accumulated statistic.

    Args:
        order: time-bandwidth product of the sensing window.
        threshold: decision threshold on the accumulated-energy scale.

    Returns:
        Q(order, threshold / 2), the central chi-square tail.
    """
    if threshold < 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold!r}")
    return reg_upper_gamma(order, 0.5 * threshold)


def analytic_pd(order: float, snr: float, threshold: float) -> float:
    """Detection probability of the accumulated statistic.

    Args:
        order: time-bandwidth product of the sensing window.
        snr: linear signal-to-noise ratio accumulated over the window.
        threshold: decision threshold on the accumulated-energy scale.

    Returns:
        Marcum Q_order(sqrt(2 * snr), sqrt(threshold)).
    """
    if snr < 0.0:
        raise ValueError(f"snr must be >= 0, got {snr!r}")
    if threshold < 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold!r}")
    # 2 * snr overflows above half the largest double; sqrt(2) sqrt(snr) does not
    a = math.sqrt(2.0 * snr) if snr < 8e307 else math.sqrt(2.0) * math.sqrt(snr)
    return marcum_q(order, a, math.sqrt(threshold))

