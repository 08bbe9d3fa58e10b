"""Tests for the enhanced threshold strategies and their decision kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsense.detector import analytic_pf
from coopsense.noise_model import NoiseUncertaintyModel, VarianceBracket
from coopsense.threshold_schemes import (
    SchemeKind,
    convex_normalizer,
    decide_scheme,
    default_weights,
    scheme_normalizer,
)


def brute_force_convex_minimum(expectations, weights, exponent):
    """Independent oracle: evaluate every cyclic alignment explicitly."""
    size = len(expectations)
    best = math.inf
    for offset in range(size):
        num = 0.0
        den = 0.0
        for t in range(size):
            w = weights[(t - offset) % size] ** exponent
            num += w * expectations[t]
            den += w
        best = min(best, num / den)
    return best


def interval_rule(energies, k, threshold, bracket):
    """Independent oracle for the two-step rule as the paper states it:
    decide from the bracket endpoints when the interval clears or misses
    the threshold, otherwise re-decide with the bracket mean."""
    energies = np.asarray(energies, dtype=float)
    low = energies / (k * bracket.high)
    high = energies / (k * bracket.low)
    second = energies / (k * bracket.mean) >= threshold
    decisions = np.where(
        low >= threshold, True, np.where(high < threshold, False, second)
    )
    steps = np.where((low < threshold) & (high >= threshold), 2, 1)
    return decisions, steps


def assert_statistic(energy, k, normalizer, expected, rel=1e-12, abs=0.0):
    """The kernel's statistic equals ``expected`` within the tolerance: it
    clears a threshold just below that band and misses one just above."""
    tol = max(abs, rel * math.fabs(expected))
    assert decide_scheme(energy, k, expected - tol, normalizer)[0]
    assert not decide_scheme(energy, k, expected + tol, normalizer)[0]


def uncertain_noise():
    return NoiseUncertaintyModel(
        nominal_variance=0.65,
        bracket=VarianceBracket(low=0.5, high=0.8),
    )


class TestStatisticInterval:
    def test_degenerate_bracket_collapses(self):
        parts = np.random.default_rng(1).standard_normal((2, 16))
        power = np.abs(math.sqrt(0.5) * (parts[0] + 1j * parts[1])) ** 2
        energy = float(np.sum(power))
        bracket = VarianceBracket(low=0.8, high=0.8)
        reference = float(np.mean(power)) / 0.8
        assert_statistic(energy, 16, bracket.mean, reference)
        for threshold in (0.5 * reference, reference, 2.0 * reference):
            _, steps = decide_scheme(energy, 16, threshold, bracket.mean, bracket)
            assert steps == 1

    def test_direct_arithmetic(self):
        # energy 8, k=2, bracket [1, 4]: the interval is exactly [1, 4]
        bracket = VarianceBracket(low=1.0, high=4.0)
        for threshold, decision, steps in [
            (1.0, True, 1),
            (math.nextafter(1.0, 2.0), True, 2),
            (4.0, False, 2),
            (math.nextafter(4.0, 5.0), False, 1),
        ]:
            assert decide_scheme(8.0, 2, threshold, bracket.mean, bracket) == (
                decision,
                steps,
            )

    def test_interval_contains_every_interior_statistic(self):
        # a receiver settled in one step gets the same decision under every
        # admissible noise power, so the normalizer may be any in-bracket value
        rng = np.random.default_rng(2)
        for _ in range(10**4):
            energy = float(rng.uniform(0.0, 50.0))
            low_v = float(rng.uniform(0.1, 2.0))
            high_v = low_v + float(rng.uniform(0.0, 2.0))
            k = int(rng.integers(1, 20))
            bracket = VarianceBracket(low=low_v, high=high_v)
            inner = float(rng.uniform(low_v, high_v))
            value = energy / (k * inner)
            threshold = float(rng.uniform(0.0, 2.0 * value))
            decision, steps = decide_scheme(energy, k, threshold, inner, bracket)
            assert decision == (value >= threshold)
            if steps == 1:
                assert (energy / (k * high_v) >= threshold) == decision
                assert (energy / (k * low_v) >= threshold) == decision


class TestTwoStepDecide:
    # energy E, k=1 and bracket [low, high] give the interval [E/high, E/low]
    def decide(self, energy, low, high, threshold):
        bracket = VarianceBracket(low=low, high=high)
        return decide_scheme(energy, 1, threshold, bracket.mean, bracket)

    def test_interval_above(self):
        assert self.decide(70.0, 1.75, 2.0, 30.0) == (True, 1)  # [35, 40]

    def test_interval_below(self):
        assert self.decide(20.0, 1.0, 2.0, 30.0) == (False, 1)  # [10, 20]

    def test_straddling_is_undecided(self):
        _, steps = self.decide(50.0, 1.0, 2.0, 30.0)  # [25, 50]
        assert steps == 2

    def test_boundary_counts_as_detection(self):
        assert self.decide(60.0, 1.5, 2.0, 30.0) == (True, 1)  # [30, 40]


class TestExpectationStatistic:
    def test_matches_energy_statistic_when_exact(self):
        # the mean power of a 32-sample noise waveform of variance 2 (unit
        # real and imaginary parts) over that variance
        parts = np.random.default_rng(3).standard_normal((2, 32))
        power = np.abs(parts[0] + 1j * parts[1]) ** 2
        energy = float(np.sum(power))
        assert_statistic(energy, 32, 2.0, float(np.mean(power)) / 2.0)

    def test_direct_arithmetic(self):
        assert_statistic(12.0, 3, 2.0, 2.0)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            decide_scheme(1.0, 4, 1.0, 0.0)

    def test_false_alarm_tracks_design_better_than_fixed(self):
        # Miscalibrated fixed normalization vs the bracket-mean one, under
        # true variance drifting uniformly across the bracket.
        rng = np.random.default_rng(515)
        trials, k, threshold = 4 * 10**5, 5, 30.0
        bracket = VarianceBracket(low=1.0, high=1.1)
        nominal = 1.0
        design_pf = analytic_pf(k, threshold)
        variances = rng.uniform(bracket.low, bracket.high, size=trials)
        energies = variances * rng.standard_gamma(k, size=trials)
        # accumulated-scale statistic: 2 * energy / normalizer
        pf_fixed = np.mean(decide_scheme(2.0 * energies, 1, threshold, nominal)[0])
        pf_expect = np.mean(
            decide_scheme(2.0 * energies, 1, threshold, bracket.mean)[0]
        )
        assert abs(pf_expect - design_pf) < abs(pf_fixed - design_pf)


class TestConvexScheme:
    def test_unit_weights_reduce_to_expectation(self):
        rng = np.random.default_rng(4)
        for _ in range(10**4):
            size = int(rng.integers(1, 12))
            exps = rng.uniform(0.2, 5.0, size=size)
            energy = float(rng.uniform(0.0, 40.0))
            k = int(rng.integers(1, 30))
            exponent = int(rng.integers(1, 4))
            normalizer = convex_normalizer(exps, np.ones(size), exponent)
            expectation = energy / (k * float(np.mean(exps)))
            assert_statistic(energy, k, normalizer, expectation, rel=1e-12, abs=1e-12)

    def test_single_expectation_ignores_weights(self):
        for weights, exponent in [((3.0,), 1), ((0.25,), 5)]:
            assert convex_normalizer([2.5], weights, exponent) == pytest.approx(2.5)

    def test_constant_expectations_are_exact(self):
        assert convex_normalizer(np.full(2000, 1.01), default_weights(2000)) == 1.01
        noise = uncertain_noise()
        expected = noise.expected_variance
        assert scheme_normalizer(SchemeKind.CONVEX, noise) == expected

    def test_brute_force_offset_oracle(self):
        expectations = [1.0, 2.0, 4.0]
        weights = [1.0, 0.5, 0.25]
        oracle = brute_force_convex_minimum(expectations, weights, 1)
        assert oracle == pytest.approx(12.0 / 7.0, rel=1e-12)
        assert convex_normalizer(expectations, weights, 1) == pytest.approx(
            oracle, rel=1e-12
        )

    def test_brute_force_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            size = int(rng.integers(1, 9))
            exps = list(rng.uniform(0.2, 5.0, size=size))
            weights = list(rng.uniform(0.1, 3.0, size=size))
            exponent = int(rng.integers(1, 4))
            assert convex_normalizer(exps, weights, exponent) == pytest.approx(
                brute_force_convex_minimum(exps, weights, exponent), rel=1e-12
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            convex_normalizer([1.0, 2.0], [1.0], 1)

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError):
            convex_normalizer([1.0, -2.0], [1.0, 1.0], 1)
        with pytest.raises(ValueError):
            convex_normalizer([1.0, 2.0], [1.0, 0.0], 1)

    def test_default_weights_geometric(self):
        assert default_weights(4) == (1.0, 0.5, 0.25, 0.125)


class TestDecideEnhanced:
    """Per-scheme decisions: scheme_normalizer feeding decide_scheme."""

    # energy 40, k=2, bracket [0.5, 0.8] (mean 0.65)
    energy, k = 40.0, 2

    def test_two_step_clear_interval_single_step(self):
        # interval [25, 40], threshold 20
        noise = uncertain_noise()
        normalizer = scheme_normalizer(SchemeKind.TWO_STEP, noise)
        assert decide_scheme(self.energy, self.k, 20.0, normalizer, noise.bracket) == (
            True,
            1,
        )

    def test_two_step_straddle_matches_expectation_in_two_steps(self):
        noise = uncertain_noise()
        threshold = 30.0  # inside [25, 40]
        decision, steps = decide_scheme(
            self.energy,
            self.k,
            threshold,
            scheme_normalizer(SchemeKind.TWO_STEP, noise),
            noise.bracket,
        )
        expectation, _ = decide_scheme(
            self.energy,
            self.k,
            threshold,
            scheme_normalizer(SchemeKind.EXPECTATION, noise),
        )
        assert steps == 2
        assert decision == expectation

    def test_unit_weight_convex_matches_expectation_decision(self):
        rng = np.random.default_rng(6)
        noise = uncertain_noise()
        for _ in range(500):
            exps = tuple(rng.uniform(0.3, 3.0, size=int(rng.integers(1, 8))))
            energy = float(rng.uniform(0.0, 60.0))
            k = int(rng.integers(1, 10))
            threshold = float(rng.uniform(0.1, 20.0))
            convex = convex_normalizer(exps, np.ones(len(exps)))
            convex_decision, _ = decide_scheme(energy, k, threshold, convex)
            expectation_decision, _ = decide_scheme(
                energy, k, threshold, float(np.mean(exps))
            )
            assert convex_decision == expectation_decision

    def test_fixed_single_call(self):
        normalizer = scheme_normalizer(
            SchemeKind.FIXED,
            NoiseUncertaintyModel(1.0, VarianceBracket(1.0, 1.0)),
        )
        assert normalizer == 1.0
        assert decide_scheme(self.energy, self.k, 19.0, normalizer) == (True, 1)
        # the statistic is exactly 20.0
        assert decide_scheme(self.energy, self.k, 20.0, normalizer)[0]
        assert not decide_scheme(
            self.energy, self.k, math.nextafter(20.0, 21.0), normalizer
        )[0]

    def test_never_more_than_two_steps(self):
        rng = np.random.default_rng(7)
        noise = uncertain_noise()
        schemes = [
            SchemeKind.FIXED,
            SchemeKind.TWO_STEP,
            SchemeKind.EXPECTATION,
            SchemeKind.CONVEX,
        ]
        for _ in range(400):
            energy = float(rng.uniform(0.0, 80.0))
            for scheme in schemes:
                bracket = noise.bracket if scheme == SchemeKind.TWO_STEP else None
                _, steps = decide_scheme(
                    energy,
                    self.k,
                    float(rng.uniform(1, 60)),
                    scheme_normalizer(scheme, noise),
                    bracket,
                )
                assert steps in (1, 2)

    @pytest.mark.parametrize(
        "args,name",
        [
            ((1.0, 0, 1.0, 1.0), "sample_count"),
            ((1.0, 1.5, 1.0, 1.0), "sample_count"),
            ((1.0, 1, 1.0, -1.0), "normalizer"),
            ((1.0, 1, 1.0, math.nan), "normalizer"),
            ((1.0, 1, 1.0, 0.9, VarianceBracket(low=0.5, high=0.8)), "outside bracket"),
        ],
    )
    def test_invalid_arguments_named(self, args, name):
        with pytest.raises(ValueError, match=name):
            decide_scheme(*args)

    def test_step_one_agreement_with_midpoint_fixed(self):
        # whenever the interval resolves in step 1, a fixed detector fed the
        # bracket midpoint agrees (the midpoint statistic lies inside the
        # interval), so agreement holds on a strict majority trivially
        rng = np.random.default_rng(8)
        bracket = VarianceBracket(low=0.9, high=1.1)
        energies = np.empty(10**4)
        for i in range(energies.size):
            snr = float(rng.uniform(1.0, 4.0))
            energies[i] = float((bracket.mean * (1 + snr)) * rng.standard_gamma(4))
        decisions, steps = decide_scheme(energies, 4, 1.8, bracket.mean, bracket)
        resolved = steps == 1
        fixed = energies / (4 * bracket.mean) >= 1.8
        agreed = int(np.count_nonzero(fixed[resolved] == decisions[resolved]))
        assert resolved.sum() > 0
        assert agreed > resolved.sum() / 2


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        energies=st.lists(
            st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=40
        ),
        k=st.integers(1, 5000),
        low=st.floats(1e-6, 1e3),
        width=st.floats(0.0, 1e3),
        threshold=st.floats(0.0, 1e4, allow_nan=False),
    )
    def test_two_step_is_expectation_bit_for_bit(
        self, energies, k, low, width, threshold
    ):
        bracket = VarianceBracket(low=low, high=low + width)
        two_step, steps = decide_scheme(energies, k, threshold, bracket.mean, bracket)
        expectation, one = decide_scheme(energies, k, threshold, bracket.mean)
        oracle, oracle_steps = interval_rule(energies, k, threshold, bracket)
        assert np.array_equal(two_step, expectation)
        assert np.array_equal(two_step, oracle)
        assert np.array_equal(steps, oracle_steps)
        assert set(np.unique(steps)) <= {1, 2}
        assert np.all(one == 1)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 5000),
        value=st.floats(1e-300, 1e300),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(1, 5),
    )
    def test_constant_expectations_return_the_constant(self, k, value, seed, exponent):
        weights = np.random.default_rng(seed).uniform(1e-3, 1e3, size=k)
        assert convex_normalizer(np.full(k, value), weights, exponent) == value

    @settings(max_examples=60, deadline=None)
    @given(
        energy=st.floats(0.0, 1e6),
        k=st.integers(1, 5000),
        threshold=st.floats(0.0, 1e4),
        normalizer=st.floats(0.5, 0.8),
        two_step=st.booleans(),
    )
    def test_scalar_matches_one_element_array(
        self, energy, k, threshold, normalizer, two_step
    ):
        bracket = VarianceBracket(low=0.5, high=0.8) if two_step else None
        scalar = decide_scheme(energy, k, threshold, normalizer, bracket)
        array = decide_scheme([energy], k, threshold, normalizer, bracket)
        assert scalar[0] == array[0][0] and scalar[1] == array[1][0]
        assert np.shape(scalar[0]) == np.shape(scalar[1]) == ()

