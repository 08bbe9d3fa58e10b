"""Tests for the single-receiver energy detector and its closed forms.

Frozen oracles:

* analytic_pf(5, 30) anchor = 8.566412107825924e-4, adaptive quadrature of
  the regularized upper gamma integrand at (5, 15).
* analytic_pd(5, 0.1, 30) anchor = 0.00105520 +/- 1.03e-5, empirical tail
  of 1e7 noncentral chi-square draws (10 dof, noncentrality 0.2, seed
  12345), cross-checked against direct series summation (0.001065180059).
"""

import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from coopsense.detector import (
    AnalyticFamily,
    DetectorConfig,
    analytic_pd,
    analytic_pf,
    receiver_rates,
)
from coopsense.montecarlo import decide_scheme, wilson_interval
from coopsense.specfun import reg_upper_gamma

PF_ANCHOR_U5_G30 = 8.566412107825924e-4
PD_ANCHOR_U5_SNR01_G30 = 0.00105520
PD_ANCHOR_SE = 1.03e-5


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

    @pytest.mark.parametrize("threshold", [-1.0, -math.inf, math.inf, math.nan])
    def test_invalid_threshold_named(self, threshold):
        with pytest.raises(ValueError, match="^threshold must be finite and >= 0"):
            analytic_pf(5.0, threshold)


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

    @pytest.mark.parametrize("past", [-1.0, -math.inf, math.inf, math.nan, "edge"])
    @pytest.mark.parametrize("name, bound", [("snr", "5e299"), ("threshold", "1e300")])
    def test_invalid_argument_named(self, name, bound, past):
        # past the range marcum_q admits: a = sqrt(2 snr) or b = sqrt(threshold)
        # above 1e150, which the next double above each bound reaches
        value = math.nextafter(float(bound), math.inf) if past == "edge" else past
        arguments = {"snr": 0.1, "threshold": 30.0, name: value}
        message = f"{name} must lie in [0, {bound}], got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            analytic_pd(5.0, **arguments)

    @pytest.mark.parametrize("order", [1, 5, 2000, 2**53])
    def test_range_edges_evaluate(self, order):
        # the bounds are tight: the next doubles up take a or b past 1e150
        assert math.sqrt(2.0 * 5e299) == math.sqrt(1e300) == 1e150
        assert math.sqrt(2.0 * math.nextafter(5e299, math.inf)) > 1e150
        assert math.sqrt(math.nextafter(1e300, math.inf)) > 1e150
        for snr, threshold in [(5e299, 0.0), (5e299, 1e300), (0.0, 1e300)]:
            assert 0.0 <= analytic_pd(order, snr, threshold) <= 1.0


class TestReceiverRates:
    """``receiver_rates``, the one family dispatch of the closed forms."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from([*AnalyticFamily, *(f.value for f in AnalyticFamily)]),
        order=st.integers(1, 5000),
        threshold=st.floats(1e-3, 1e3),
        snr_db=st.floats(-100.0, 100.0),
    )
    def test_each_family_is_its_closed_forms_bit_for_bit(
        self, family, order, threshold, snr_db
    ):
        snr = 10.0 ** (snr_db / 10.0)
        if AnalyticFamily(family) == AnalyticFamily.CHI_SQUARE:
            want = analytic_pf(order, threshold), analytic_pd(order, snr, threshold)
        else:
            want = (reg_upper_gamma(order, order * threshold),
                    reg_upper_gamma(order, order * threshold / (1.0 + snr)))
        assert receiver_rates(family, order, threshold, snr) == want

    @pytest.mark.parametrize("family", ["gaussian", None, 0])
    def test_unknown_family_raises(self, family):
        with pytest.raises(ValueError, match="is not a valid AnalyticFamily"):
            receiver_rates(family, 5, 30.0, 0.1)


class TestPfPmFromPdf:
    """The exponential family at order 1: one normalized energy sample with
    mean noise power w is exponential, so P_f = Q(1, t / w) = exp(-t / w)
    and P_m = 1 - Q(1, t / (w (1 + snr)))."""

    def test_zero_threshold(self):
        assert reg_upper_gamma(1.0, 0.0) == 1.0
        assert 1.0 - reg_upper_gamma(1.0, 0.0 / 1.5) == 0.0

    def test_median_of_exponential(self):
        w = 2.0
        p_f = reg_upper_gamma(1.0, w * math.log(2.0) / w)
        assert p_f == pytest.approx(0.5, rel=1e-12)

    def test_matches_quadrature_of_pdf(self):
        threshold, w, snr = 30.0, 1.0, 0.1
        p_f = reg_upper_gamma(1.0, threshold / w)
        p_m = 1.0 - reg_upper_gamma(1.0, threshold / (w * (1.0 + snr)))
        mean_h1 = w * (1.0 + snr)
        tail_h0, _ = integrate.quad(
            lambda y: math.exp(-y / w) / w, threshold, np.inf
        )
        body_h1, _ = integrate.quad(
            lambda y: math.exp(-y / mean_h1) / mean_h1, 0.0, threshold
        )
        assert p_f == pytest.approx(tail_h0, abs=1e-10)
        assert p_m == pytest.approx(body_h1, abs=1e-10)

    def test_empirical_false_alarm_matches_model(self):
        # the threshold test on one noise-only complex Gaussian sample (k=1),
        # whose normalized energy is exactly exponential with mean 1
        variance, threshold, trials = 2.0, 0.7, 10**6
        rng = np.random.default_rng(404)
        parts = rng.standard_normal((2, trials))
        samples = math.sqrt(0.5 * variance) * (parts[0] + 1j * parts[1])
        energies = np.abs(samples) ** 2
        statistics = energies / variance
        hits = sum(
            bool(decide_scheme(float(e), 1, threshold, variance))
            for e in energies[:200]
        )
        assert hits == int(np.sum(statistics[:200] >= threshold))
        total_hits = int(np.sum(statistics >= threshold))
        p_f = reg_upper_gamma(1.0, threshold)
        lower, upper = wilson_interval(total_hits, trials)
        half = (upper - lower) / 2.0
        assert abs(total_hits / trials - p_f) <= 4 * half


class TestDetectorConfig:
    def test_valid(self):
        cfg = DetectorConfig(sample_count=5, threshold=30.0)
        assert astuple(cfg) == (5, 30.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sample_count=0, threshold=1.0),
            dict(sample_count=1, threshold=float("inf")),
            dict(sample_count=1, threshold=-1.0),
            dict(sample_count=2.5, threshold=1.0),
            dict(sample_count=math.inf, threshold=1.0),
            dict(sample_count=math.nan, threshold=1.0),
            dict(sample_count=5.0, threshold=1.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError, match="|".join(kwargs)):
            DetectorConfig(**kwargs)
