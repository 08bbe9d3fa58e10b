"""Tests for the Monte Carlo trial engine."""

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsense.cli_experiments import _scenario_for, load_spec, resolve_spec_path
from coopsense.detector import DetectorConfig, analytic_pf
from coopsense.fusion import FusionConfig
from coopsense.montecarlo import (
    BLOCK_TRIALS,
    AnalyticFamily,
    Scenario,
    SweepDraws,
    _block_rng,
    _run_blocks,
    _runtime,
    _scheme_tally,
    _simulate_block,
    _Tally,
    estimate,
    nominal_rates,
    wilson_interval,
)
from coopsense.noise_model import NoiseUncertaintyModel, VarianceBracket
from coopsense.threshold_schemes import SchemeKind


def chi_square_scenario(**overrides):
    base = dict(
        detector=DetectorConfig(sample_count=5, threshold=30.0),
        noise=NoiseUncertaintyModel(1.0, VarianceBracket(1.0, 1.0)),
        scheme=SchemeKind.FIXED,
        fusion=FusionConfig(num_sus=1, vote_threshold=1, prior_h0=0.5),
        snr_db=-10.0,
        trials=1000,
        seed=42,
        family=AnalyticFamily.CHI_SQUARE,
    )
    base.update(overrides)
    return Scenario(**base)


def uncertain_scenario(**overrides):
    base = dict(
        detector=DetectorConfig(sample_count=2000, threshold=1.062),
        noise=NoiseUncertaintyModel.from_calibration(
            nominal_variance=1.0,
            calibration_mean=1.01,
            calibration_sd=0.03883,
            sample_count=100,
            confidence=0.99,
        ),
        scheme=SchemeKind.EXPECTATION,
        fusion=FusionConfig(
            num_sus=5, vote_threshold=1, prior_h0=0.5, report_error=0.001
        ),
        snr_db=-10.0,
        trials=1000,
        seed=99,
        family=AnalyticFamily.EXPONENTIAL,
    )
    base.update(overrides)
    return Scenario(**base)


def only(hypothesis, make=None, **overrides):
    """A scenario of ``make`` whose every trial is H0 (prior_h0 = 1) or H1
    (prior_h0 = 0)."""
    make = make or uncertain_scenario
    prior_h0 = {"h0": 1.0, "h1": 0.0}[hypothesis]
    fusion = replace(make().fusion, prior_h0=prior_h0)
    return make(fusion=fusion, **overrides)


def block_tallies(scenario, blocks, n=BLOCK_TRIALS):
    """The tally of the scenario's scheme for each block: the kernel tallies
    both normalizers, and the scheme picks its own."""
    rt = _runtime(scenario)
    return [
        _scheme_tally(
            scenario.scheme, *_simulate_block(rt, _block_rng(scenario.seed, block), n)
        )
        for block in blocks
    ]


class TestRunTrial:
    """The block kernel: one block of trials from its (seed, block) stream."""

    def test_deterministic_in_seed_and_index(self):
        scenario = uncertain_scenario(scheme=SchemeKind.TWO_STEP)
        for block in [0, 1, 17, 999]:
            assert block_tallies(scenario, [block]) == block_tallies(scenario, [block])

    def test_different_indices_differ(self):
        # fixed reads the nominal-power tally, two_step the bracket-mean one
        for scheme in [SchemeKind.FIXED, SchemeKind.TWO_STEP]:
            scenario = uncertain_scenario(trials=200, scheme=scheme)
            outcomes = {astuple(t) for t in block_tallies(scenario, range(50), n=200)}
            assert len(outcomes) > 1

    def test_overwhelming_signal_always_detected(self):
        scenario = only("h1", snr_db=40.0, trials=10**4)
        # both normalizers: fixed's nominal power and the bracket mean
        for tally in _run_blocks(_runtime(scenario), scenario.seed, 10**4, 0, 20):
            assert tally.trials_h1 == 10**4
            assert 1.0 - tally.fused_misses / tally.trials_h1 >= 0.999

    def test_zero_signal_variance_matches_noise_only(self):
        # a degenerate H1 consumes the same draws as H0, so outcomes match
        # trial for trial, not just in distribution; the linear SNR of
        # -4000 dB underflows to exactly 0
        for make, scheme in product(
            [uncertain_scenario, chi_square_scenario], SchemeKind
        ):
            h1 = only("h1", make, snr_db=-4000.0, scheme=scheme)
            h0 = only("h0", make, snr_db=-4000.0, scheme=scheme)
            assert _runtime(h1).signal == 0.0
            for on, off in zip(
                block_tallies(h1, range(4)), block_tallies(h0, range(4))
            ):
                assert on.trials_h1 == off.trials_h0 == BLOCK_TRIALS
                assert on.su_detections == off.su_false_alarms
                assert on.fused_misses == BLOCK_TRIALS - off.fused_false_alarms
                assert on.second_steps == off.second_steps

    def test_su_decisions_match_inline_oracle(self):
        # replays one block's documented draw order and checks the kernel's
        # tally against each scheme's rule written out here, trial by trial
        block = 3
        for scheme in [
            SchemeKind.FIXED,
            SchemeKind.TWO_STEP,
            SchemeKind.EXPECTATION,
            SchemeKind.CONVEX,
        ]:
            # flips frequent enough to change fused outcomes within a block
            fusion = FusionConfig(
                num_sus=5, vote_threshold=2, prior_h0=0.5, report_error=0.05
            )
            scenario = uncertain_scenario(scheme=scheme, fusion=fusion)
            (result,) = block_tallies(scenario, [block])
            noise = scenario.noise
            k = scenario.detector.sample_count
            threshold = scenario.detector.threshold
            shape = (BLOCK_TRIALS, fusion.num_sus)
            rng = _block_rng(scenario.seed, block)
            truth_rolls = rng.random(BLOCK_TRIALS)
            variances = rng.uniform(noise.bracket.low, noise.bracket.high, shape)
            gammas = rng.standard_gamma(k, shape)
            flips = rng.random(shape) < fusion.report_error
            power = scenario.snr_linear * noise.nominal_variance

            expected = _Tally()
            for trial in range(BLOCK_TRIALS):
                is_h0 = truth_rolls[trial] < fusion.prior_h0
                votes = positives = 0
                for su in range(fusion.num_sus):
                    variance = float(variances[trial, su])
                    energy = (variance if is_h0 else variance + power) * float(
                        gammas[trial, su]
                    )
                    second = False
                    if scheme == SchemeKind.FIXED:
                        decision = energy / (k * noise.nominal_variance) >= threshold
                    elif scheme == SchemeKind.TWO_STEP:
                        low = energy / (k * noise.bracket.high)
                        high = energy / (k * noise.bracket.low)
                        if low >= threshold:
                            decision = True
                        elif high < threshold:
                            decision = False
                        else:
                            second = True
                            decision = energy / (k * noise.bracket.mean) >= threshold
                    else:
                        # every component expects the bracket mean, so the
                        # convex normalizer is that mean
                        decision = energy / (k * noise.bracket.mean) >= threshold
                    positives += decision
                    votes += decision != flips[trial, su]
                    expected.second_steps += second
                fused_h1 = votes >= fusion.vote_threshold
                if is_h0:
                    expected.trials_h0 += 1
                    expected.su_false_alarms += positives
                    expected.fused_false_alarms += fused_h1
                    expected.fused_errors += fused_h1
                else:
                    expected.trials_h1 += 1
                    expected.su_detections += positives
                    expected.fused_misses += not fused_h1
                    expected.fused_errors += not fused_h1
            assert result == expected, scheme

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            _block_rng(chi_square_scenario().seed, -1)


class TestEnergyLawSampling:
    """The engine draws window energies from their exact laws; these tests
    check those laws against direct waveform simulation."""

    def test_noise_only_energy_law(self):
        rng = np.random.default_rng(1212)
        k, trials, variance, threshold = 6, 10**5, 1.3, 9.0
        scale = math.sqrt(variance / 2.0)
        waves = scale * (
            rng.standard_normal((trials, k)) + 1j * rng.standard_normal((trials, k))
        )
        waveform_energy = np.sum(np.abs(waves) ** 2, axis=1)
        law_energy = variance * rng.standard_gamma(k, trials)
        p_wave = np.mean(waveform_energy >= threshold)
        p_law = np.mean(law_energy >= threshold)
        se = math.sqrt(2 * p_wave * (1 - p_wave) / trials)
        assert abs(p_wave - p_law) <= 4 * se

    def test_constant_envelope_energy_law(self):
        rng = np.random.default_rng(1313)
        k, trials, variance = 5, 10**5, 1.0
        window_signal = 0.8  # accumulated |h s|^2 over the window
        amplitude = math.sqrt(window_signal / k)
        scale = math.sqrt(variance / 2.0)
        waves = amplitude + scale * (
            rng.standard_normal((trials, k)) + 1j * rng.standard_normal((trials, k))
        )
        waveform_energy = np.sum(np.abs(waves) ** 2, axis=1)
        law_energy = 0.5 * variance * rng.noncentral_chisquare(
            2 * k, 2.0 * window_signal / variance, trials
        )
        for threshold in [4.0, 8.0, 12.0]:
            p_wave = np.mean(waveform_energy >= threshold)
            p_law = np.mean(law_energy >= threshold)
            se = math.sqrt(2 * p_wave * (1 - p_wave) / trials)
            assert abs(p_wave - p_law) <= 4 * se

    def test_gaussian_signal_energy_law(self):
        rng = np.random.default_rng(1414)
        k, trials, variance, signal_power = 4, 10**5, 0.9, 0.5
        noise_scale = math.sqrt(variance / 2.0)
        signal_scale = math.sqrt(signal_power / 2.0)
        waves = signal_scale * (
            rng.standard_normal((trials, k)) + 1j * rng.standard_normal((trials, k))
        ) + noise_scale * (
            rng.standard_normal((trials, k)) + 1j * rng.standard_normal((trials, k))
        )
        waveform_energy = np.sum(np.abs(waves) ** 2, axis=1)
        law_energy = (variance + signal_power) * rng.standard_gamma(k, trials)
        for threshold in [3.0, 6.0, 10.0]:
            p_wave = np.mean(waveform_energy >= threshold)
            p_law = np.mean(law_energy >= threshold)
            se = math.sqrt(2 * max(p_wave, 1e-6) * (1 - p_wave) / trials)
            assert abs(p_wave - p_law) <= 4 * se


class TestEstimate:
    def test_closed_form_self_consistency(self):
        scenario = chi_square_scenario(trials=2 * 10**5, seed=314)
        result = estimate(scenario)
        half_f = (result.p_f.upper - result.p_f.lower) / 2.0
        half_d = (result.p_d.upper - result.p_d.lower) / 2.0
        nominal = nominal_rates(scenario)
        assert abs(result.p_f.value - nominal.p_f) <= 4 * half_f
        assert abs(result.p_d.value - nominal.p_d) <= 4 * half_d

    def test_reporting_errors_shift_q_e_slightly(self):
        clean = uncertain_scenario(
            fusion=FusionConfig(
                num_sus=5, vote_threshold=1, prior_h0=0.5, report_error=0.0
            ),
            trials=5 * 10**4,
        )
        noisy = uncertain_scenario(
            fusion=FusionConfig(
                num_sus=5, vote_threshold=1, prior_h0=0.5, report_error=0.001
            ),
            trials=5 * 10**4,
        )
        q_e_clean = estimate(clean).q_e.value
        q_e_noisy = estimate(noisy).q_e.value
        assert abs(q_e_clean - q_e_noisy) < 0.01

    def test_single_trial_degenerate_intervals(self):
        result = estimate(uncertain_scenario(trials=1))
        assert result.trials == 1
        for rate in [result.p_d, result.p_f, result.q_f, result.q_m]:
            if rate.observations == 0:
                assert math.isnan(rate.value)
                assert (rate.lower, rate.upper) == (0.0, 1.0)
            else:
                assert 0.0 <= rate.lower <= rate.value <= rate.upper <= 1.0

    def test_fixed_truth_modes(self):
        h0_run = estimate(only("h0", trials=4000))
        assert h0_run.p_d.observations == 0
        assert h0_run.p_f.observations == 4000 * 5
        h1_run = estimate(only("h1", trials=4000))
        assert h1_run.p_f.observations == 0
        assert h1_run.p_d.observations == 4000 * 5

    def test_parallel_determinism(self):
        scenario = uncertain_scenario(
            scheme=SchemeKind.TWO_STEP, trials=30_001, seed=777
        )
        serial = estimate(scenario)
        with ProcessPoolExecutor(max_workers=3) as pool:
            parallel = estimate(scenario, draws=SweepDraws(scenario, 3, pool))
        assert serial == parallel

    def test_block_boundaries_do_not_change_estimates(self):
        # workers split cells on block boundaries only, including the short
        # last block, so the estimate is the same for any worker count
        scenario = uncertain_scenario(scheme=SchemeKind.TWO_STEP)
        B = BLOCK_TRIALS
        with ProcessPoolExecutor(max_workers=3) as shared:
            for trials in [1, B - 1, B, B + 1, 3 * B + 7]:
                cell = replace(scenario, trials=trials)
                serial = estimate(cell)
                assert serial.trials == trials
                assert serial.q_f.observations + serial.q_m.observations == trials
                for workers in [1, 2, 3]:
                    draws = SweepDraws(cell, workers, shared)
                    assert estimate(cell, draws=draws) == serial

    def test_schemes_share_random_numbers(self):
        # draws never depend on the scheme: convex is expectation exactly,
        # and two_step decides like expectation while counting second steps
        results = {
            scheme: estimate(uncertain_scenario(scheme=scheme, trials=5000))
            for scheme in [
                SchemeKind.FIXED,
                SchemeKind.TWO_STEP,
                SchemeKind.EXPECTATION,
                SchemeKind.CONVEX,
            ]
        }
        expectation = results[SchemeKind.EXPECTATION]
        for result in results.values():
            assert result.q_f.observations == expectation.q_f.observations
            assert result.q_m.observations == expectation.q_m.observations
        assert results[SchemeKind.CONVEX] == expectation
        two_step = results[SchemeKind.TWO_STEP]
        for rate in ["p_f", "p_d", "q_f", "q_m", "q_e"]:
            assert getattr(two_step, rate) == getattr(expectation, rate)
        assert two_step.steps_mean >= 1.0

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
    def test_shared_draws_match_standalone_estimates(self, tmp_path, name):
        # one handle per sweep value serves every scheme exactly as a
        # standalone estimate of that cell would
        document = json.loads(resolve_spec_path(name).read_text(encoding="utf-8"))
        document["scenario"]["trials"] = 1500
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        spec = load_spec(path)
        with ProcessPoolExecutor(max_workers=2) as pool:
            for workers, executor in [(1, None), (2, pool)]:
                for value in spec.sweep_values:
                    cells = [_scenario_for(spec, value, s) for s in spec.schemes]
                    shared = SweepDraws(cells[0], workers, executor)
                    for cell in cells:
                        alone = estimate(cell)
                        shared_estimate = estimate(cell, draws=shared)
                        assert shared_estimate == alone, (value, cell.scheme)

    def test_block_ranges_need_the_callers_pool(self):
        # the engine makes no pool: without one, every block is one range
        scenario = uncertain_scenario(trials=600)
        with pytest.raises(ValueError, match="executor"):
            SweepDraws(scenario, 2)
        with pytest.raises(ValueError, match="workers"):
            SweepDraws(scenario, 0)

    def test_draws_of_another_sweep_value_rejected(self):
        scenario = uncertain_scenario(scheme=SchemeKind.FIXED, trials=600)
        shared = SweepDraws(scenario)
        # any scheme at the same sweep value may read the draws ...
        for scheme in SchemeKind:
            estimate(replace(scenario, scheme=scheme), draws=shared)
        # ... a scenario that differs in anything else may not
        for other in [
            replace(scenario, snr_db=-12.0),
            replace(scenario, seed=100),
            replace(scenario, trials=601),
            replace(scenario, fusion=replace(scenario.fusion, vote_threshold=2)),
        ]:
            with pytest.raises(ValueError, match="another sweep value"):
                estimate(other, draws=shared)

    def test_wilson_coverage_across_seeds(self):
        # the 95% interval for P_f must cover the closed form in >= 90% of
        # independent-seed repetitions
        scenario = only(
            "h0",
            chi_square_scenario,
            detector=DetectorConfig(sample_count=5, threshold=12.0),
            trials=2000,
        )
        target = analytic_pf(5.0, 12.0)
        covered = 0
        for seed in range(100):
            result = estimate(replace(scenario, seed=seed))
            covered += result.p_f.lower <= target <= result.p_f.upper
        assert covered >= 90

    def test_steps_mean_tracks_two_step_usage(self):
        one_step = estimate(uncertain_scenario(trials=2000))
        assert one_step.steps_mean == 1.0
        two_step = estimate(
            uncertain_scenario(scheme=SchemeKind.TWO_STEP, trials=2000)
        )
        assert 1.0 < two_step.steps_mean <= 2.0

    def test_scheme_ordering_at_low_snr(self):
        # with uncertainty active at -10 dB, the interval and convex schemes
        # must not lose to the miscalibrated fixed threshold on total error
        trials = 10**6
        fixed = estimate(
            uncertain_scenario(scheme=SchemeKind.FIXED, trials=trials)
        )
        two_step = estimate(
            uncertain_scenario(scheme=SchemeKind.TWO_STEP, trials=trials)
        )
        convex = estimate(
            uncertain_scenario(scheme=SchemeKind.CONVEX, trials=trials)
        )
        assert two_step.q_e.value <= fixed.q_e.value
        assert convex.q_e.value <= fixed.q_e.value


class TestScenarioValidation:
    def test_rejects_nonfinite_snr(self):
        with pytest.raises(ValueError):
            chi_square_scenario(snr_db=math.inf)

    def test_rejects_overflowing_linear_snr(self):
        # 10^(3100 / 10) is past the largest double, 10^(3082 / 10) is not
        base = load_spec(resolve_spec_path("fig2")).base
        with pytest.raises(ValueError, match="finite linear SNR"):
            replace(base, snr_db=3100.0)
        assert math.isfinite(replace(base, snr_db=3082.0).snr_linear)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            chi_square_scenario(trials=0)

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError):
            chi_square_scenario(seed=2**64)

    @pytest.mark.parametrize(
        "field,value",
        [("trials", 100.5), ("trials", math.inf), ("seed", 1.5), ("seed", math.nan)],
    )
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            chi_square_scenario(**{field: value})

    def test_snr_conversion(self):
        assert chi_square_scenario(snr_db=-10.0).snr_linear == pytest.approx(0.1)

    def test_scheme_coerced_from_string(self):
        assert chi_square_scenario(scheme="two_step").scheme is SchemeKind.TWO_STEP
        with pytest.raises(ValueError):
            chi_square_scenario(scheme="wavelet")


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 10**6))
            s = int(rng.integers(0, n + 1))
            lower, upper = wilson_interval(s, n)
            assert 0.0 <= lower <= s / n <= upper <= 1.0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), observations=st.integers(1, 2**53))
    def test_contains_point_estimate_for_every_count(self, data, observations):
        successes = data.draw(st.integers(0, observations), label="successes")
        lower, upper = wilson_interval(successes, observations)
        assert 0.0 <= lower <= successes / observations <= upper <= 1.0

    def test_no_observations(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
