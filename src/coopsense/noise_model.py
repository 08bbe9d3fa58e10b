"""Noise-power uncertainty: the bracket the true power lives in.

The calibration story is: a calibration run estimates the noise power
(its sample mean and standard deviation over a known number of noise-only
observations), and ``confidence_bracket`` wraps that estimate in a
two-sided normal confidence bracket; a spec may give the bracket directly
instead. At run time the "true" variance of each receiver in each sensing
round is drawn uniformly from the bracket (by the Monte Carlo engine),
which is what makes a fixed-threshold detector miscalibrated while the
expectation-normalized schemes stay honest.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

from .fusion import integer

__all__ = [
    "VARIANCE_FLOOR",
    "VarianceBracket",
    "NoiseUncertaintyModel",
    "two_sided_kappa",
    "confidence_bracket",
]

# Lower clamp of a calibration bracket's endpoints: a calibration whose
# half width reaches past its mean still gives a bracket above zero.
VARIANCE_FLOOR = 1e-12
_MIN_VARIANCE, _MAX_VARIANCE = 1e-100, 1e100  # proved safe in montecarlo.Scenario

_STANDARD_NORMAL = NormalDist()


def two_sided_kappa(confidence: float) -> float:
    """Two-sided standard-normal quantile for a confidence level in (0, 1).

    ``two_sided_kappa(0.99)`` is 2.5758... (2.58 to two decimals) and
    ``two_sided_kappa(0.8)`` is 1.2816.
    """
    confidence = float(confidence)
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    return _STANDARD_NORMAL.inv_cdf(0.5 + 0.5 * confidence)


@dataclass(frozen=True)
class VarianceBracket:
    """Closed interval 1e-100 <= low <= high <= 1e100 of admissible noise variances."""

    low: float
    high: float

    def __post_init__(self):
        if not _MIN_VARIANCE <= self.low <= self.high <= _MAX_VARIANCE:
            raise ValueError("bracket requires 1e-100 <= low <= high <= 1e100, "
                             f"got [{self.low!r}, {self.high!r}]")

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def confidence_bracket(
    calibration_mean: float,
    calibration_sd: float,
    calibration_count: int,
    confidence: float = 0.99,
) -> VarianceBracket:
    """Two-sided normal confidence bracket around a calibration's mean.

    The half width is kappa * calibration_sd / sqrt(calibration_count) with
    kappa the two-sided quantile of ``confidence``. The low endpoint is
    clamped at ``VARIANCE_FLOOR``.
    """
    calibration_mean = float(calibration_mean)
    calibration_sd = float(calibration_sd)
    if not math.isfinite(calibration_mean) or not math.isfinite(calibration_sd):
        raise ValueError("calibration_mean and calibration_sd must be finite")
    if calibration_sd < 0.0:
        raise ValueError(f"calibration_sd must be >= 0, got {calibration_sd!r}")
    if integer(calibration_count, "calibration_count") < 2:
        raise ValueError(
            f"calibration_count must be an integer >= 2, got {calibration_count!r}"
        )
    half = two_sided_kappa(confidence) * calibration_sd / math.sqrt(calibration_count)
    low = max(calibration_mean - half, VARIANCE_FLOOR)
    high = max(calibration_mean + half, VARIANCE_FLOOR)
    return VarianceBracket(low=low, high=high)


@dataclass(frozen=True)
class NoiseUncertaintyModel:
    """Nominal noise power plus the bracket its true value lives in.

    ``nominal_variance`` is the power the fixed-threshold detector assumes;
    the bracket (from calibration at a given confidence, or given directly)
    bounds the variance actually in effect, which is drawn uniformly per
    sensing round. The nominal value must lie inside the bracket but need
    not sit at its center: an off-center nominal is exactly the
    miscalibration the enhanced schemes are built to absorb.
    """

    nominal_variance: float
    bracket: VarianceBracket

    def __post_init__(self):
        if not self.bracket.contains(self.nominal_variance):
            raise ValueError(
                f"nominal_variance {self.nominal_variance!r} outside bracket "
                f"[{self.bracket.low!r}, {self.bracket.high!r}]"
            )
