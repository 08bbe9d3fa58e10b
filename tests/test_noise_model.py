"""Tests for the noise-power bracket and its calibration."""

import math

import numpy as np
import pytest

from coopsense.noise_model import (
    VARIANCE_FLOOR,
    NoiseUncertaintyModel,
    VarianceBracket,
    confidence_bracket,
    two_sided_kappa,
)


class TestConfidenceBracket:
    def test_kappa_anchor_99(self):
        assert round(two_sided_kappa(0.99), 2) == 2.58

    def test_kappa_anchor_80(self):
        assert two_sided_kappa(0.8) == pytest.approx(1.2816, abs=5e-5)

    def test_degenerate_when_sd_zero(self):
        bracket = confidence_bracket(2.0, 0.0, 10, 0.99)
        assert bracket.low == bracket.high == 2.0

    def test_half_width_formula(self):
        bracket = confidence_bracket(5.0, 1.0, 100, 0.95)
        half = two_sided_kappa(0.95) * 1.0 / 10.0
        assert bracket.low == pytest.approx(5.0 - half)
        assert bracket.high == pytest.approx(5.0 + half)

    def test_low_endpoint_clamped_positive(self):
        bracket = confidence_bracket(0.001, 10.0, 4, 0.99)
        assert bracket.low == VARIANCE_FLOOR

    def test_width_scales_inverse_sqrt_n(self):
        narrow = confidence_bracket(1.0, 0.3, 10**4, 0.99)
        wide = confidence_bracket(1.0, 0.3, 10**2, 0.99)
        ratio = (wide.high - wide.low) / (narrow.high - narrow.low)
        assert ratio == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_rejects_bad_confidence(self, confidence):
        with pytest.raises(ValueError):
            confidence_bracket(1.0, 0.1, 10, confidence)

    @pytest.mark.parametrize("n", [0, 1, -3, math.inf, math.nan, 2.5])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError, match="calibration_count must be an integer"):
            confidence_bracket(1.0, 0.1, n, 0.95)

    def test_coverage_at_99(self):
        # 1e4 fresh calibration sets; the true power must fall inside the
        # bracket in at least 98% of them.
        rng = np.random.default_rng(2024)
        true_variance = 2.0
        reps, n = 10**4, 1000
        energies = rng.exponential(true_variance, size=(reps, n))
        covered = 0
        for row in energies:
            bracket = confidence_bracket(
                float(row.mean()), float(row.std(ddof=1)), n, 0.99
            )
            covered += bracket.contains(true_variance)
        assert covered / reps >= 0.98


class TestNoiseUncertaintyModel:
    def test_nominal_must_sit_inside_bracket(self):
        bracket = VarianceBracket(low=1.0, high=2.0)
        with pytest.raises(ValueError):
            NoiseUncertaintyModel(nominal_variance=0.5, bracket=bracket)

    def test_from_calibration(self):
        model = NoiseUncertaintyModel(
            nominal_variance=1.0,
            bracket=confidence_bracket(
                calibration_mean=1.01,
                calibration_sd=0.05,
                calibration_count=100,
                confidence=0.99,
            ),
        )
        assert model.bracket.contains(1.0)
        assert model.bracket.mean == pytest.approx(1.01)

    def test_bracket_invariants(self):
        with pytest.raises(ValueError):
            VarianceBracket(low=2.0, high=1.0)
        with pytest.raises(ValueError):
            VarianceBracket(low=0.0, high=1.0)
