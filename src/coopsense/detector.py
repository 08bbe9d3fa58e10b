"""Single-receiver energy detector: configuration, statistic, closed forms.

The threshold test itself (H1 when the statistic is >= the threshold) has
one implementation, ``threshold_schemes.decide_scheme``.

Two analytic families coexist and are both exposed:

* the chi-square family (``analytic_pf`` / ``analytic_pd``), which describes
  the accumulated statistic 2 * sum|y|^2 / sigma^2 of a sensing window with
  time-bandwidth product ``u`` and a constant-envelope signal, and
* the exponential family (``pdf_normalized`` / ``pf_pm_from_pdf``), which
  describes a single normalized energy sample with mean noise power ``w``
  under Gaussian signaling.

SNR is linear everywhere in this module; dB conversion belongs to the CLI.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .specfun import marcum_q, reg_upper_gamma

__all__ = [
    "Hypothesis",
    "DetectorConfig",
    "energy_statistic",
    "analytic_pf",
    "analytic_pd",
    "pdf_normalized",
    "pf_pm_from_pdf",
]


class Hypothesis(enum.IntEnum):
    """Channel state: primary signal absent (H0) or present (H1)."""

    H0 = 0
    H1 = 1


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


def energy_statistic(samples, noise_variance: float) -> float:
    """Normalized energy (1/k) * sum |y_i|^2 / noise_variance.

    Averages to 1 over noise-only input when normalized by the true noise
    power.
    """
    noise_variance = float(noise_variance)
    if not math.isfinite(noise_variance) or noise_variance <= 0.0:
        raise ValueError(f"noise_variance must be > 0, got {noise_variance!r}")
    data = np.asarray(samples)
    if data.size == 0:
        raise ValueError("samples must be nonempty")
    energy = float(np.sum(np.abs(data) ** 2))
    return energy / (data.size * noise_variance)


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


def pdf_normalized(
    y: float, w: float, snr_bar: float, hypothesis: Hypothesis
) -> float:
    """Density of the normalized energy sample under either hypothesis.

    Exponential with mean ``w`` under H0 and mean ``w * (1 + snr_bar)``
    under H1, where ``snr_bar`` is the average linear SNR.
    """
    if w <= 0.0:
        raise ValueError(f"w must be > 0, got {w!r}")
    if y < 0.0:
        raise ValueError(f"y must be >= 0, got {y!r}")
    if snr_bar < 0.0:
        raise ValueError(f"snr_bar must be >= 0, got {snr_bar!r}")
    mean = w if hypothesis == Hypothesis.H0 else w * (1.0 + snr_bar)
    return math.exp(-y / mean) / mean


def pf_pm_from_pdf(threshold: float, w: float, snr_bar: float) -> tuple[float, float]:
    """(P_f, P_m) of the exponential model at the given threshold.

    P_f = exp(-threshold / w); P_m = 1 - exp(-threshold / (w (1 + snr_bar))).
    """
    if w <= 0.0:
        raise ValueError(f"w must be > 0, got {w!r}")
    if threshold < 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold!r}")
    if snr_bar < 0.0:
        raise ValueError(f"snr_bar must be >= 0, got {snr_bar!r}")
    p_f = math.exp(-threshold / w)
    p_m = -math.expm1(-threshold / (w * (1.0 + snr_bar)))
    return p_f, p_m
