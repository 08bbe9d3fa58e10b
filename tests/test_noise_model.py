"""Tests for noise generation, estimation and confidence bracketing."""

import math

import numpy as np
import pytest

from coopsense.noise_model import (
    VARIANCE_FLOOR,
    NoiseUncertaintyModel,
    VarianceBracket,
    confidence_bracket,
    estimate_noise_expectation,
    generate_noise,
    sample_noise_variance,
    two_sided_kappa,
)


def two_pass_variance_oracle(matrix):
    """Independent two-pass computation: per-row unbiased complex variance,
    averaged across rows."""
    rows = []
    for row in matrix:
        mean = sum(row) / len(row)
        rows.append(
            sum(abs(x - mean) ** 2 for x in row) / (len(row) - 1)
        )
    return sum(rows) / len(rows)


class TestEstimateNoiseExpectation:
    def test_constant_matrix_has_zero_spread(self):
        data = np.full((4, 6), 1.5 - 0.5j)
        assert estimate_noise_expectation(data) == 0.0

    def test_matches_two_pass_oracle_exactly(self):
        matrix = [
            [1.0 + 2.0j, 2.0 - 1.0j],
            [0.5 + 0.5j, -1.0 + 0.25j],
        ]
        expected = two_pass_variance_oracle(matrix)
        assert expected == pytest.approx(3.078125, abs=1e-12)
        assert estimate_noise_expectation(matrix) == pytest.approx(
            expected, abs=1e-12
        )

    def test_large_sample_convergence(self):
        rng = np.random.default_rng(100)
        data = generate_noise(2.0, 10**6, rng).reshape(1000, 1000)
        assert estimate_noise_expectation(data) == pytest.approx(2.0, abs=0.01)

    def test_one_dimensional_input_is_single_component(self):
        rng = np.random.default_rng(101)
        data = generate_noise(1.0, 10**5, rng)
        assert estimate_noise_expectation(data) == pytest.approx(1.0, abs=0.02)

    def test_rejects_single_sample_per_component(self):
        with pytest.raises(ValueError):
            estimate_noise_expectation(np.ones((3, 1), dtype=complex))

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            estimate_noise_expectation(np.empty((0, 0), dtype=complex))
        with pytest.raises(ValueError):
            estimate_noise_expectation(np.array([[1.0, np.nan]], dtype=complex))

    def test_round_trip_across_decades(self):
        # generate -> estimate recovers the variance within 4 standard errors
        for seed, variance in [(7, 0.1), (8, 1.0), (9, 10.0)]:
            rng = np.random.default_rng(seed)
            k, m = 500, 2000
            data = generate_noise(variance, k * m, rng).reshape(k, m)
            se = variance / math.sqrt(k * m)
            assert abs(estimate_noise_expectation(data) - variance) < 4 * se


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
        assert wide.width / narrow.width == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_rejects_bad_confidence(self, confidence):
        with pytest.raises(ValueError):
            confidence_bracket(1.0, 0.1, 10, confidence)

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
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


class TestSampleNoiseVariance:
    def test_degenerate_bracket(self):
        model = NoiseUncertaintyModel.exact(2.0)
        rng = np.random.default_rng(0)
        assert sample_noise_variance(model, rng) == 2.0

    def test_uniform_mean(self):
        bracket = VarianceBracket(low=1.0, high=3.0)
        model = NoiseUncertaintyModel(nominal_variance=2.0, bracket=bracket)
        rng = np.random.default_rng(5)
        draws = np.array(
            [sample_noise_variance(model, rng) for _ in range(10**6)]
        )
        assert draws.mean() == pytest.approx(2.0, abs=0.01)
        assert draws.min() >= 1.0 and draws.max() <= 3.0

    def test_seeded_determinism(self):
        bracket = VarianceBracket(low=0.5, high=1.5)
        model = NoiseUncertaintyModel(nominal_variance=1.0, bracket=bracket)
        a = [sample_noise_variance(model, np.random.default_rng(42)) for _ in range(1)]
        b = [sample_noise_variance(model, np.random.default_rng(42)) for _ in range(1)]
        assert a == b


class TestGenerateNoise:
    def test_round_trip_variance(self):
        rng = np.random.default_rng(77)
        samples = generate_noise(1.0, 10**6, rng)
        assert estimate_noise_expectation(samples.reshape(1000, 1000)) == (
            pytest.approx(1.0, abs=0.005)
        )

    def test_single_sample(self):
        sample = generate_noise(2.0, 1, np.random.default_rng(1))
        assert sample.shape == (1,)
        assert np.isfinite(sample[0].real) and np.isfinite(sample[0].imag)

    def test_component_variances_split_evenly(self):
        rng = np.random.default_rng(88)
        samples = generate_noise(4.0, 10**6, rng)
        assert samples.real.var() == pytest.approx(2.0, rel=0.01)
        assert samples.imag.var() == pytest.approx(2.0, rel=0.01)

    def test_seeded_determinism_bit_identical(self):
        a = generate_noise(1.5, 1000, np.random.default_rng(9))
        b = generate_noise(1.5, 1000, np.random.default_rng(9))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("variance", [0.0, -1.0, math.nan])
    def test_rejects_bad_variance(self, variance):
        with pytest.raises(ValueError):
            generate_noise(variance, 10, np.random.default_rng(0))


class TestNoiseUncertaintyModel:
    def test_nominal_must_sit_inside_bracket(self):
        bracket = VarianceBracket(low=1.0, high=2.0)
        with pytest.raises(ValueError):
            NoiseUncertaintyModel(nominal_variance=0.5, bracket=bracket)

    def test_from_calibration(self):
        model = NoiseUncertaintyModel.from_calibration(
            nominal_variance=1.0,
            calibration_mean=1.01,
            calibration_sd=0.05,
            sample_count=100,
            confidence=0.99,
        )
        assert model.bracket.contains(1.0)
        assert model.expected_variance == pytest.approx(1.01)

    def test_bracket_invariants(self):
        with pytest.raises(ValueError):
            VarianceBracket(low=2.0, high=1.0)
        with pytest.raises(ValueError):
            VarianceBracket(low=0.0, high=1.0)
