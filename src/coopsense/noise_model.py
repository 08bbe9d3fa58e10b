"""Complex Gaussian noise: generation, variance estimation, uncertainty bracket.

The calibration story is: collect noise-only observations arranged as a
(component x receiver) matrix, estimate the noise power as the averaged
per-component sample variance, and wrap the estimate in a two-sided normal
confidence bracket. At run time the "true" variance of each sensing round
is drawn uniformly from that bracket, which is what makes a fixed-threshold
detector miscalibrated while the expectation-normalized schemes stay honest.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "VARIANCE_FLOOR",
    "VarianceBracket",
    "NoiseUncertaintyModel",
    "two_sided_kappa",
    "estimate_noise_expectation",
    "confidence_bracket",
    "sample_noise_variance",
    "generate_noise",
]

# Lower clamp for bracket endpoints, keeps normalized statistics finite.
VARIANCE_FLOOR = 1e-12

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
    """Closed interval [low, high] of admissible noise variances."""

    low: float
    high: float

    def __post_init__(self):
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValueError("bracket endpoints must be finite")
        if self.low <= 0.0:
            raise ValueError(f"bracket low must be > 0, got {self.low!r}")
        if self.low > self.high:
            raise ValueError(
                f"bracket requires low <= high, got [{self.low!r}, {self.high!r}]"
            )

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def width(self) -> float:
        return self.high - self.low

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def estimate_noise_expectation(samples) -> float:
    """Averaged sample variance of a (component x receiver) complex matrix.

    Each row holds the observations of one signal component across the
    receivers; the unbiased complex sample variance is taken along each row
    and the row variances are averaged. A 1-D input is treated as a single
    row. Raises if any row has fewer than 2 entries.
    """
    data = np.atleast_2d(np.asarray(samples, dtype=complex))
    if data.size == 0:
        raise ValueError("samples must be nonempty")
    if not np.all(np.isfinite(data.real)) or not np.all(np.isfinite(data.imag)):
        raise ValueError("samples must be finite")
    if data.shape[1] < 2:
        raise ValueError(
            "variance needs at least 2 samples per component, "
            f"got {data.shape[1]}"
        )
    centered = data - data.mean(axis=1, keepdims=True)
    row_vars = np.sum((centered * centered.conj()).real, axis=1) / (data.shape[1] - 1)
    return float(row_vars.mean())


def confidence_bracket(
    sample_mean: float,
    sample_sd: float,
    n: int,
    confidence: float,
) -> VarianceBracket:
    """Two-sided normal confidence bracket for an estimated noise power.

    The half width is kappa * sample_sd / sqrt(n) with kappa the two-sided
    quantile of ``confidence``. The low endpoint is clamped at
    ``VARIANCE_FLOOR``.
    """
    sample_mean = float(sample_mean)
    sample_sd = float(sample_sd)
    if not math.isfinite(sample_mean) or not math.isfinite(sample_sd):
        raise ValueError("sample_mean and sample_sd must be finite")
    if sample_sd < 0.0:
        raise ValueError(f"sample_sd must be >= 0, got {sample_sd!r}")
    if int(n) != n or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    half = two_sided_kappa(confidence) * sample_sd / math.sqrt(n)
    low = max(sample_mean - half, VARIANCE_FLOOR)
    high = max(sample_mean + half, VARIANCE_FLOOR)
    return VarianceBracket(low=low, high=high)


@dataclass(frozen=True)
class NoiseUncertaintyModel:
    """Nominal noise power plus the bracket its true value lives in.

    ``nominal_variance`` is the power the fixed-threshold detector assumes;
    the bracket (from calibration at the given confidence) bounds the
    variance actually in effect, which is drawn uniformly per sensing round.
    The nominal value must lie inside the bracket but need not sit at its
    center: an off-center nominal is exactly the miscalibration the
    enhanced schemes are built to absorb.
    """

    nominal_variance: float
    confidence: float
    bracket: VarianceBracket
    sample_count: int

    def __post_init__(self):
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must lie in (0, 1), got {self.confidence!r}"
            )
        if not self.bracket.contains(self.nominal_variance):
            raise ValueError(
                f"nominal_variance {self.nominal_variance!r} outside bracket "
                f"[{self.bracket.low!r}, {self.bracket.high!r}]"
            )
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count!r}")

    @classmethod
    def from_calibration(
        cls,
        nominal_variance: float,
        calibration_mean: float,
        calibration_sd: float,
        sample_count: int,
        confidence: float = 0.99,
    ) -> "NoiseUncertaintyModel":
        bracket = confidence_bracket(
            calibration_mean, calibration_sd, sample_count, confidence
        )
        return cls(
            nominal_variance=nominal_variance,
            confidence=confidence,
            bracket=bracket,
            sample_count=sample_count,
        )

    @classmethod
    def exact(cls, variance: float) -> "NoiseUncertaintyModel":
        """Degenerate model with no uncertainty (bracket collapsed)."""
        bracket = VarianceBracket(low=variance, high=variance)
        return cls(
            nominal_variance=variance,
            confidence=0.99,
            bracket=bracket,
            sample_count=1,
        )

    @property
    def expected_variance(self) -> float:
        """Mean of the uniform law over the bracket."""
        return self.bracket.mean


def sample_noise_variance(model: NoiseUncertaintyModel, rng: np.random.Generator) -> float:
    """One variance draw, uniform over the model bracket."""
    low, high = model.bracket.low, model.bracket.high
    if high == low:
        return low
    return float(rng.uniform(low, high))


def generate_noise(variance: float, k: int, rng: np.random.Generator) -> np.ndarray:
    """k i.i.d. circularly symmetric complex Gaussian samples.

    Real and imaginary parts are independent N(0, variance / 2), so the
    complex sample has the requested total variance.
    """
    variance = float(variance)
    if not math.isfinite(variance) or variance <= 0.0:
        raise ValueError(f"variance must be > 0, got {variance!r}")
    if int(k) != k or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    scale = math.sqrt(0.5 * variance)
    parts = rng.standard_normal(size=(2, int(k)))
    return scale * (parts[0] + 1j * parts[1])
