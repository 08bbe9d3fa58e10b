"""Tests for the threshold schemes (``montecarlo.SchemeKind``) and their
one decision kernel, ``montecarlo.decide_scheme``."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsense.detector import analytic_pf
from coopsense.montecarlo import SchemeKind, decide_scheme
from coopsense.noise_model import NoiseUncertaintyModel, VarianceBracket


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
    second = (low < threshold) & (high >= threshold)
    return decisions, second


def second_steps(energies, k, threshold, bracket):
    """Two-step's second steps as the engine counts them: decided H1 at the
    bracket's low end and not at its high end."""
    return decide_scheme(energies, k, threshold, bracket.low) & ~decide_scheme(
        energies, k, threshold, bracket.high
    )


def assert_statistic(energy, k, normalizer, expected, rel=1e-12, abs=0.0):
    """The kernel's statistic equals ``expected`` within the tolerance: it
    clears a threshold just below that band and misses one just above."""
    tol = max(abs, rel * math.fabs(expected))
    assert decide_scheme(energy, k, expected - tol, normalizer)
    assert not decide_scheme(energy, k, expected + tol, normalizer)


def uncertain_noise():
    return NoiseUncertaintyModel(
        nominal_variance=0.65,
        bracket=VarianceBracket(low=0.5, high=0.8),
    )


class TestSecondStepMask:
    """Two-step's second steps from ``decide_scheme`` at the bracket ends:
    the bracket's interval of the normalized energy against the threshold."""

    def test_degenerate_bracket_collapses(self):
        parts = np.random.default_rng(1).standard_normal((2, 16))
        power = np.abs(math.sqrt(0.5) * (parts[0] + 1j * parts[1])) ** 2
        energy = float(np.sum(power))
        bracket = VarianceBracket(low=0.8, high=0.8)
        reference = float(np.mean(power)) / 0.8
        assert_statistic(energy, 16, bracket.mean, reference)
        for threshold in (0.5 * reference, reference, 2.0 * reference):
            assert not second_steps(energy, 16, threshold, bracket)

    def test_direct_arithmetic(self):
        # energy 8, k=2, bracket [1, 4]: the interval is exactly [1, 4]
        bracket = VarianceBracket(low=1.0, high=4.0)
        for threshold, decision, second in [
            (1.0, True, False),
            (math.nextafter(1.0, 2.0), True, True),
            (4.0, False, True),
            (math.nextafter(4.0, 5.0), False, False),
        ]:
            assert decide_scheme(8.0, 2, threshold, bracket.mean) == decision
            assert second_steps(8.0, 2, threshold, bracket) == second

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
            decision = decide_scheme(energy, k, threshold, inner)
            second = second_steps(energy, k, threshold, bracket)
            assert decision == (value >= threshold)
            if not second:
                assert (energy / (k * high_v) >= threshold) == decision
                assert (energy / (k * low_v) >= threshold) == decision


class TestTwoStepDecide:
    # energy E, k=1 and bracket [low, high] give the interval [E/high, E/low]
    def decide(self, energy, low, high, threshold):
        bracket = VarianceBracket(low=low, high=high)
        return (
            decide_scheme(energy, 1, threshold, bracket.mean),
            second_steps(energy, 1, threshold, bracket),
        )

    def test_interval_above(self):
        assert self.decide(70.0, 1.75, 2.0, 30.0) == (True, False)  # [35, 40]

    def test_interval_below(self):
        assert self.decide(20.0, 1.0, 2.0, 30.0) == (False, False)  # [10, 20]

    def test_straddling_is_undecided(self):
        _, second = self.decide(50.0, 1.0, 2.0, 30.0)  # [25, 50]
        assert second

    def test_boundary_counts_as_detection(self):
        assert self.decide(60.0, 1.5, 2.0, 30.0) == (True, False)  # [30, 40]


class TestOneNormalizer:
    """``decide_scheme``: the energy normalized by one noise power against
    the threshold."""

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
        pf_fixed = np.mean(decide_scheme(2.0 * energies, 1, threshold, nominal))
        pf_expect = np.mean(decide_scheme(2.0 * energies, 1, threshold, bracket.mean))
        assert abs(pf_expect - design_pf) < abs(pf_fixed - design_pf)


class TestDecideEnhanced:
    """Per-scheme decisions: the nominal power (``fixed``) or the bracket
    mean (every other scheme) feeding decide_scheme, and two-step's second
    steps from decisions at the bracket ends."""

    # energy 40, k=2, bracket [0.5, 0.8] (mean 0.65)
    energy, k = 40.0, 2

    def test_two_step_clear_interval_single_step(self):
        # interval [25, 40], threshold 20
        noise = uncertain_noise()
        normalizer = noise.bracket.mean
        assert decide_scheme(self.energy, self.k, 20.0, normalizer)
        assert not second_steps(self.energy, self.k, 20.0, noise.bracket)

    def test_two_step_straddle_matches_expectation_in_two_steps(self):
        noise = uncertain_noise()
        threshold = 30.0  # inside [25, 40]
        # the paper's rule, step by step, against the kernel's one comparison
        decision, _ = interval_rule(self.energy, self.k, threshold, noise.bracket)
        expectation = decide_scheme(self.energy, self.k, threshold, noise.bracket.mean)
        assert second_steps(self.energy, self.k, threshold, noise.bracket)
        assert decision == expectation

    def test_fixed_single_call(self):
        normalizer = NoiseUncertaintyModel(
            1.0, VarianceBracket(1.0, 1.0)
        ).nominal_variance
        assert normalizer == 1.0
        assert decide_scheme(self.energy, self.k, 19.0, normalizer) == True
        # the statistic is exactly 20.0
        assert decide_scheme(self.energy, self.k, 20.0, normalizer)
        assert not decide_scheme(
            self.energy, self.k, math.nextafter(20.0, 21.0), normalizer
        )

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
                normalizer = (
                    noise.nominal_variance
                    if scheme == SchemeKind.FIXED
                    else noise.bracket.mean
                )
                threshold = float(rng.uniform(1, 60))
                decision = decide_scheme(energy, self.k, threshold, normalizer)
                assert decision.dtype == bool and decision.shape == ()
                # at most one step beyond the first, and only for two_step:
                # H1 at the high end is H1 at the low end, so the count of
                # the steps is 1 or 2
                if scheme == SchemeKind.TWO_STEP:
                    ends = [
                        int(decide_scheme(energy, self.k, threshold, end))
                        for end in (noise.bracket.low, noise.bracket.high)
                    ]
                    assert 1 + ends[0] - ends[1] in (1, 2)

    @pytest.mark.parametrize(
        "args,name",
        [
            ((1.0, 0, 1.0, 1.0), "sample_count"),
            ((1.0, 1.5, 1.0, 1.0), "sample_count"),
            ((1.0, 1, 1.0, -1.0), "normalizer"),
            ((1.0, 1, 1.0, math.nan), "normalizer"),
            ((1.0, True, 1.0, 1.0), "sample_count must be an integer"),
            ((1.0, math.inf, 1.0, 1.0), "sample_count must be an integer"),
            ((1.0, math.nan, 1.0, 1.0), "sample_count must be an integer"),
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
        decisions = decide_scheme(energies, 4, 1.8, bracket.mean)
        resolved = ~second_steps(energies, 4, 1.8, bracket)
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
        expectation = decide_scheme(energies, k, threshold, bracket.mean)
        second = second_steps(energies, k, threshold, bracket)
        oracle, oracle_second = interval_rule(energies, k, threshold, bracket)
        assert np.array_equal(expectation, oracle)
        assert np.array_equal(second, oracle_second)
        assert second.dtype == bool and second.shape == expectation.shape

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
        scalar = decide_scheme(energy, k, threshold, normalizer)
        array = decide_scheme([energy], k, threshold, normalizer)
        assert scalar == array[0] and np.shape(scalar) == ()
        if two_step:
            bracket = VarianceBracket(low=0.5, high=0.8)
            scalar = second_steps(energy, k, threshold, bracket)
            array = second_steps([energy], k, threshold, bracket)
            assert scalar == array[0] and np.shape(scalar) == ()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        energies=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=40),
        k=st.integers(1, 10**6),
        low=st.floats(1e-12, 1e300),
        width=st.one_of(st.just(0.0), st.floats(0.0, 1e300)),
        threshold=st.floats(0.0, 1e300),
    )
    def test_decisions_nest_across_the_bracket(
        self, energies, k, low, width, threshold
    ):
        # the engine counts two-step's second steps as count(H1 at low) -
        # count(H1 at high), exact only because the decisions nest:
        # E / (k * high) <= E / (k * mean) <= E / (k * low) in floating point;
        # plain normalizers keep the domain past a bracket's 1e100 range
        high = low + width
        mean = 0.5 * (low + high)  # VarianceBracket.mean
        # a quotient past the largest double rounds to inf, which still nests
        with np.errstate(over="ignore"):
            at_high, at_mean, at_low = (
                decide_scheme(energies, k, threshold, end) for end in (high, mean, low)
            )
        assert np.all(at_mean[at_high]) and np.all(at_low[at_mean])
        assert np.count_nonzero(at_low) - np.count_nonzero(at_high) == np.count_nonzero(
            at_low & ~at_high
        )


def test_help_explains_every_scheme():
    # the paper's rules are stated once, in the docstring of the scheme names
    lines = inspect.getdoc(SchemeKind).splitlines()
    assert all(kind.value in lines for kind in SchemeKind)
