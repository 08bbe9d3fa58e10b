"""Tests for the single-receiver energy detector and its closed forms.

Frozen oracles:

* analytic_pf(5, 30) anchor = 8.566412107825924e-4, adaptive quadrature of
  the regularized upper gamma integrand at (5, 15).
* analytic_pd(5, 0.1, 30) anchor = 0.00105520 +/- 1.03e-5, empirical tail
  of 1e7 noncentral chi-square draws (10 dof, noncentrality 0.2, seed
  12345), cross-checked against direct series summation (0.001065180059).
"""

import math

import numpy as np
import pytest
from scipy import integrate

from coopsense.detector import (
    DetectorConfig,
    Hypothesis,
    analytic_pd,
    analytic_pf,
    energy_statistic,
    pdf_normalized,
    pf_pm_from_pdf,
)
from coopsense.montecarlo import wilson_interval
from coopsense.noise_model import generate_noise
from coopsense.threshold_schemes import decide_scheme

PF_ANCHOR_U5_G30 = 8.566412107825924e-4
PD_ANCHOR_U5_SNR01_G30 = 0.00105520
PD_ANCHOR_SE = 1.03e-5


class TestEnergyStatistic:
    def test_all_zero_samples(self):
        assert energy_statistic(np.zeros(8, dtype=complex), 1.0) == 0.0

    def test_direct_arithmetic(self):
        sample = np.array([math.sqrt(3.0) + 0.0j])
        assert energy_statistic(sample, 1.5) == pytest.approx(2.0, rel=1e-15)

    def test_noise_only_averages_to_one(self):
        rng = np.random.default_rng(303)
        samples = generate_noise(2.5, 10**6, rng)
        assert energy_statistic(samples, 2.5) == pytest.approx(1.0, abs=0.005)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            energy_statistic(np.ones(3), 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            energy_statistic(np.array([]), 1.0)


class TestAnalyticPf:
    def test_zero_threshold(self):
        assert analytic_pf(5.0, 0.0) == 1.0

    def test_huge_threshold_vanishes(self):
        assert analytic_pf(5.0, 1e4) < 1e-12

    def test_frozen_oracle(self):
        assert analytic_pf(5.0, 30.0) == pytest.approx(PF_ANCHOR_U5_G30, abs=1e-10)

    def test_nonincreasing_in_threshold(self):
        for u in [1.0, 2.0, 5.0, 10.0]:
            values = [analytic_pf(u, g) for g in np.linspace(0.0, 100.0, 60)]
            assert all(a >= b - 1e-13 for a, b in zip(values, values[1:]))


class TestAnalyticPd:
    def test_zero_snr_degenerates_to_pf(self):
        for u, g in [(1.0, 2.0), (5.0, 30.0), (10.0, 12.0)]:
            assert analytic_pd(u, 0.0, g) == pytest.approx(
                analytic_pf(u, g), abs=1e-9
            )

    def test_zero_threshold(self):
        assert analytic_pd(5.0, 0.1, 0.0) == 1.0

    def test_frozen_oracle(self):
        value = analytic_pd(5.0, 0.1, 30.0)
        assert abs(value - PD_ANCHOR_U5_SNR01_G30) <= 4 * PD_ANCHOR_SE

    def test_roc_dominance(self):
        snrs = [0.01, 0.1, 1.0, 10.0]
        for u in range(1, 11):
            for g in np.linspace(0.0, 100.0, 21):
                pf = analytic_pf(float(u), float(g))
                for snr in snrs:
                    assert analytic_pd(float(u), snr, float(g)) >= pf - 1e-12

    def test_nonincreasing_in_threshold(self):
        for u in [1.0, 5.0]:
            values = [analytic_pd(u, 0.5, g) for g in np.linspace(0.0, 100.0, 60)]
            assert all(a >= b - 1e-13 for a, b in zip(values, values[1:]))


class TestNormalizedPdf:
    def test_origin_density_h0(self):
        assert pdf_normalized(0.0, 2.0, 0.0, Hypothesis.H0) == pytest.approx(0.5)

    def test_origin_density_h1(self):
        assert pdf_normalized(0.0, 1.0, 1.0, Hypothesis.H1) == pytest.approx(0.5)

    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    def test_normalization(self, hypothesis):
        w, snr = 1.7, 0.4
        total, _ = integrate.quad(
            lambda y: pdf_normalized(y, w, snr, hypothesis), 0.0, np.inf
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            pdf_normalized(1.0, 0.0, 0.1, Hypothesis.H0)


class TestPfPmFromPdf:
    def test_zero_threshold(self):
        assert pf_pm_from_pdf(0.0, 1.0, 0.5) == (1.0, 0.0)

    def test_median_of_exponential(self):
        w = 2.0
        p_f, _ = pf_pm_from_pdf(w * math.log(2.0), w, 0.0)
        assert p_f == pytest.approx(0.5, rel=1e-12)

    def test_matches_quadrature_of_pdf(self):
        threshold, w, snr = 30.0, 1.0, 0.1
        p_f, p_m = pf_pm_from_pdf(threshold, w, snr)
        tail_h0, _ = integrate.quad(
            lambda y: pdf_normalized(y, w, snr, Hypothesis.H0), threshold, np.inf
        )
        body_h1, _ = integrate.quad(
            lambda y: pdf_normalized(y, w, snr, Hypothesis.H1), 0.0, threshold
        )
        assert p_f == pytest.approx(tail_h0, abs=1e-10)
        assert p_m == pytest.approx(body_h1, abs=1e-10)

    def test_empirical_false_alarm_matches_model(self):
        # the threshold test on energy_statistic(noise-only) at k=1, where the
        # normalized statistic is exactly exponential with w the expected
        # noise power
        variance, threshold, trials = 2.0, 0.7, 10**6
        rng = np.random.default_rng(404)
        samples = generate_noise(variance, trials, rng)
        statistics = np.abs(samples) ** 2 / variance  # per-sample k=1 chain
        spot = energy_statistic(samples[:1], variance)
        assert spot == pytest.approx(float(statistics[0]), rel=1e-12)
        energies = np.abs(samples[:200]) ** 2
        hits = sum(
            bool(decide_scheme(float(e), 1, threshold, variance)[0]) for e in energies
        )
        assert hits == int(np.sum(statistics[:200] >= threshold))
        total_hits = int(np.sum(statistics >= threshold))
        p_f, _ = pf_pm_from_pdf(threshold, 1.0, 0.0)
        lower, upper = wilson_interval(total_hits, trials)
        half = (upper - lower) / 2.0
        assert abs(total_hits / trials - p_f) <= 4 * half


class TestDetectorConfig:
    def test_valid(self):
        cfg = DetectorConfig(sample_count=5, time_bandwidth=5.0, threshold=30.0)
        assert cfg.channel_gain == 1.0
        assert cfg.signal_variance is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sample_count=0, time_bandwidth=1.0, threshold=1.0),
            dict(sample_count=1, time_bandwidth=0.0, threshold=1.0),
            dict(sample_count=1, time_bandwidth=1.0, threshold=-1.0),
            dict(sample_count=1, time_bandwidth=1.0, threshold=1.0, signal_variance=-0.5),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)
