"""Tests for the Monte Carlo trial engine."""

import json
import math
import pickle
import re
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import astuple, fields, replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsense import montecarlo
from coopsense.cli_experiments import load_spec, resolve_spec_path
from coopsense.detector import AnalyticFamily, DetectorConfig, analytic_pf
from coopsense.fusion import FusionConfig
from coopsense.montecarlo import (
    BLOCK_TRIALS,
    Scenario,
    SchemeKind,
    SweepDraws,
    _block_rng,
    _run_blocks,
    _scheme_tally,
    _simulate_block,
    _Tally,
    estimate,
    nominal_rates,
    wilson_interval,
)
from coopsense.noise_model import (
    NoiseUncertaintyModel,
    VarianceBracket,
    confidence_bracket,
)


def chi_square_scenario(**overrides):
    base = dict(
        detector=DetectorConfig(sample_count=5, threshold=30.0),
        noise=NoiseUncertaintyModel(1.0, VarianceBracket(1.0, 1.0)),
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
        noise=NoiseUncertaintyModel(
            nominal_variance=1.0,
            bracket=confidence_bracket(
                calibration_mean=1.01,
                calibration_sd=0.03883,
                calibration_count=100,
                confidence=0.99,
            ),
        ),
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


def block_tallies(scenario, scheme, blocks, n=BLOCK_TRIALS):
    """The tally of ``scheme`` for each block: the kernel tallies both
    normalizers, and the scheme picks its own."""
    return [
        _scheme_tally(
            scheme, *_simulate_block(scenario, _block_rng(scenario.seed, block), n)
        )
        for block in blocks
    ]


def oracle_tallies(scenario, block, n=BLOCK_TRIALS):
    """Each scheme's tally of ``n`` trials of block ``block``: replays the
    documented draw order and applies each scheme's rule, written out here,
    trial by trial in Python floats."""
    fusion, noise = scenario.fusion, scenario.noise
    bracket = noise.bracket
    k = scenario.detector.sample_count
    threshold = scenario.detector.threshold
    power = scenario.snr_linear * noise.nominal_variance
    shape = (n, fusion.num_sus)
    rng = _block_rng(scenario.seed, block)
    is_h1 = [roll >= fusion.prior_h0 for roll in rng.random(n).tolist()]
    variances = rng.uniform(bracket.low, bracket.high, shape).tolist()
    if scenario.family == AnalyticFamily.CHI_SQUARE:
        threshold = threshold / (2.0 * k)
        noncentrality = [[(2.0 * power if h1 else 0.0) / v for v in row]
                         for h1, row in zip(is_h1, variances)]
        draws = rng.noncentral_chisquare(2.0 * k, noncentrality).tolist()
        energies = [[0.5 * v * draw for v, draw in zip(row, drawn)]
                    for row, drawn in zip(variances, draws)]
    else:
        draws = rng.standard_gamma(k, shape).tolist()
        energies = [[(v + power if h1 else v) * draw for v, draw in zip(row, drawn)]
                    for h1, row, drawn in zip(is_h1, variances, draws)]
    flips = [[False] * fusion.num_sus] * n
    if fusion.report_error > 0.0:
        flips = (rng.random(shape) < fusion.report_error).tolist()

    expected = {scheme: dict.fromkeys(_Tally._fields, 0) for scheme in SchemeKind}
    for scheme, counts in expected.items():
        for trial in range(n):
            votes = positives = 0
            for energy, flip in zip(energies[trial], flips[trial]):
                if scheme == SchemeKind.FIXED:
                    decision = energy / (k * noise.nominal_variance) >= threshold
                elif scheme == SchemeKind.TWO_STEP:
                    low = energy / (k * bracket.high)
                    high = energy / (k * bracket.low)
                    if low >= threshold:
                        decision = True
                    elif high < threshold:
                        decision = False
                    else:
                        counts["second_steps"] += 1
                        decision = energy / (k * bracket.mean) >= threshold
                else:
                    # every component expects the bracket mean, so the
                    # convex normalizer is that mean
                    decision = energy / (k * bracket.mean) >= threshold
                positives += decision
                votes += decision != flip
            fused_h1 = votes >= fusion.vote_threshold
            if is_h1[trial]:
                counts["trials_h1"] += 1
                counts["su_detections"] += positives
                counts["fused_misses"] += not fused_h1
            else:
                counts["su_false_alarms"] += positives
                counts["fused_false_alarms"] += fused_h1
    return {scheme: _Tally(**counts) for scheme, counts in expected.items()}


@st.composite
def oracle_cases(draw):
    """A scenario of either family, a block index and a partial block's
    trial count, drawn so that decisions and votes go both ways."""
    family = draw(st.sampled_from(AnalyticFamily))
    num_sus = draw(st.integers(1, 12))
    fusion = FusionConfig(
        num_sus=num_sus,
        vote_threshold=draw(st.integers(1, num_sus)),
        prior_h0=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95)),
        report_error=draw(st.just(0.0) | st.floats(0.05, 0.3)),
    )
    low = draw(st.floats(0.5, 2.0))
    bracket = VarianceBracket(low, draw(st.just(low) | st.floats(low, 1.5 * low)))
    # the nominal power at either bracket end, its mean or in between
    where = draw(st.sampled_from(["low", "high", "mean"]) | st.floats(0.0, 1.0))
    if isinstance(where, str):
        nominal = getattr(bracket, where)
    else:
        nominal = min(bracket.high, low + where * (bracket.high - low))
    k = draw(st.integers(1, 40))
    # the chi-square threshold lives on the accumulated scale, 2k per unit
    scale = 2.0 * k if family == AnalyticFamily.CHI_SQUARE else 1.0
    scenario = Scenario(
        detector=DetectorConfig(sample_count=k, threshold=scale * draw(st.floats(0.5, 2.0))),
        noise=NoiseUncertaintyModel(nominal, bracket),
        fusion=fusion,
        snr_db=draw(st.floats(-10.0, 5.0)),
        trials=BLOCK_TRIALS,
        seed=draw(st.integers(0, 2**64 - 1)),
        family=family,
    )
    return scenario, draw(st.integers(0, 1000)), draw(st.integers(1, BLOCK_TRIALS - 1))


class InlinePool:
    """Keeps each submitted task's ``(scenario, first, stop)`` segments and,
    if ``run``, runs it at once in this process, its result pickled and
    unpickled as a process pool would."""

    def __init__(self, run=True):
        self.tasks = []
        self.run = run

    def submit(self, fn, segments):
        self.tasks.append(segments)
        future = Future()
        if self.run:
            future.set_result(pickle.loads(pickle.dumps(fn(segments))))
        return future


def share_draws(segments):
    """Energy draws of a pool task's ``(scenario, first, stop)`` segments."""
    return sum(
        (min(stop * BLOCK_TRIALS, s.trials) - first * BLOCK_TRIALS) * s.fusion.num_sus
        for s, first, stop in segments
    )


def fig4_scenarios(trials):
    """The bundled fig4 sweep (K = 1 to 30 receivers, 20 values) cut to
    ``trials``."""
    return [replace(cell, trials=trials)
            for cell in load_spec(resolve_spec_path("fig4")).cells]


class TestSimulateBlock:
    """The block kernel ``_simulate_block``: one block of trials from its
    (seed, block) stream."""

    def test_deterministic_in_seed_and_index(self):
        scenario = uncertain_scenario()
        for block in [0, 1, 17, 999]:
            assert block_tallies(scenario, SchemeKind.TWO_STEP, [block]) == (
                block_tallies(scenario, SchemeKind.TWO_STEP, [block])
            )

    def test_different_indices_differ(self):
        # fixed reads the nominal-power tally, two_step the bracket-mean one
        for scheme in [SchemeKind.FIXED, SchemeKind.TWO_STEP]:
            scenario = uncertain_scenario(trials=200)
            outcomes = set(block_tallies(scenario, scheme, range(50), n=200))
            assert len(outcomes) > 1

    def test_overwhelming_signal_always_detected(self):
        scenario = only("h1", snr_db=40.0, trials=10**4)
        # both normalizers: fixed's nominal power and the bracket mean
        for tally in _run_blocks(scenario, 0, 20):
            assert tally.trials_h1 == 10**4
            assert 1.0 - tally.fused_misses / tally.trials_h1 >= 0.999

    def test_zero_signal_variance_matches_noise_only(self):
        # a degenerate H1 consumes the same draws as H0, so outcomes match
        # trial for trial, not just in distribution; the linear SNR of
        # -4000 dB underflows to exactly 0
        for make, scheme in product(
            [uncertain_scenario, chi_square_scenario], SchemeKind
        ):
            h1 = only("h1", make, snr_db=-4000.0)
            h0 = only("h0", make, snr_db=-4000.0)
            assert h1.snr_linear == 0.0
            for on, off in zip(
                block_tallies(h1, scheme, range(4)),
                block_tallies(h0, scheme, range(4)),
            ):
                assert (on.trials_h1, off.trials_h1) == (BLOCK_TRIALS, 0)
                assert on.su_detections == off.su_false_alarms
                assert on.fused_misses == BLOCK_TRIALS - off.fused_false_alarms
                assert on.second_steps == off.second_steps

    def test_su_decisions_match_inline_oracle(self):
        # flips frequent enough to change fused outcomes within a block
        fusion = FusionConfig(num_sus=5, vote_threshold=2, prior_h0=0.5, report_error=0.05)
        scenario = uncertain_scenario(fusion=fusion)
        expected = oracle_tallies(scenario, 3)
        for scheme in SchemeKind:
            assert block_tallies(scenario, scheme, [3]) == [expected[scheme]], scheme

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=oracle_cases())
    def test_both_tallies_match_the_oracle(self, case):
        scenario, block, n = case
        nominal, mean = _simulate_block(scenario, _block_rng(scenario.seed, block), n)
        expected = oracle_tallies(scenario, block, n)
        assert (nominal, mean) == (expected[SchemeKind.FIXED], expected[SchemeKind.TWO_STEP])
        for scheme in SchemeKind:
            assert _scheme_tally(scheme, nominal, mean) == expected[scheme], scheme

    def test_every_count_is_a_python_int(self):
        # a numpy integer passes every equality here but fails json.dump
        scenario = uncertain_scenario(trials=BLOCK_TRIALS + 100)
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = SweepDraws([scenario], 2, pool).tallies(scenario)
        for tallies in [
            _simulate_block(scenario, _block_rng(scenario.seed, 0), 100),
            _run_blocks(scenario, 0, 2),
            SweepDraws([scenario]).tallies(scenario),
            pooled,
        ]:
            for tally in tallies:
                assert [type(count) for count in tally] == [int] * len(tally), tally
        for scheme in SchemeKind:
            result = estimate(scenario, scheme)
            for rate in [result.p_d, result.p_f, result.q_f, result.q_m, result.q_e]:
                assert (type(rate.successes), type(rate.observations)) == (int, int)

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
        q_e_clean = estimate(clean, SchemeKind.EXPECTATION).q_e.value
        q_e_noisy = estimate(noisy, SchemeKind.EXPECTATION).q_e.value
        assert abs(q_e_clean - q_e_noisy) < 0.01

    def test_single_trial_degenerate_intervals(self):
        result = estimate(uncertain_scenario(trials=1), SchemeKind.EXPECTATION)
        assert result.trials == 1
        for rate in [result.p_d, result.p_f, result.q_f, result.q_m]:
            if rate.observations == 0:
                assert math.isnan(rate.value)
                assert (rate.lower, rate.upper) == (0.0, 1.0)
            else:
                assert 0.0 <= rate.lower <= rate.value <= rate.upper <= 1.0

    def test_fixed_truth_modes(self):
        h0_run = estimate(only("h0", trials=4000), SchemeKind.EXPECTATION)
        assert h0_run.p_d.observations == 0
        assert h0_run.p_f.observations == 4000 * 5
        h1_run = estimate(only("h1", trials=4000), SchemeKind.EXPECTATION)
        assert h1_run.p_f.observations == 0
        assert h1_run.p_d.observations == 4000 * 5

    def test_parallel_determinism(self):
        scenario = uncertain_scenario(trials=30_001, seed=777)
        serial = estimate(scenario, SchemeKind.TWO_STEP)
        with ProcessPoolExecutor(max_workers=3) as pool:
            draws = SweepDraws([scenario], 3, pool)
            parallel = estimate(scenario, SchemeKind.TWO_STEP, draws=draws)
        assert serial == parallel

    def test_block_boundaries_do_not_change_estimates(self):
        # workers split cells on block boundaries only, including the short
        # last block, so the estimate is the same for any worker count
        scenario = uncertain_scenario()
        B = BLOCK_TRIALS
        with ProcessPoolExecutor(max_workers=3) as shared:
            for trials in [1, B - 1, B, B + 1, 3 * B + 7]:
                cell = replace(scenario, trials=trials)
                serial = estimate(cell, SchemeKind.TWO_STEP)
                assert serial.trials == trials
                assert serial.q_f.observations + serial.q_m.observations == trials
                for workers in [1, 2, 3]:
                    draws = SweepDraws([cell], workers, shared)
                    assert estimate(cell, SchemeKind.TWO_STEP, draws) == serial

    def test_schemes_share_random_numbers(self):
        # draws never depend on the scheme: convex is expectation exactly,
        # and two_step decides like expectation while counting second steps
        results = {
            scheme: estimate(uncertain_scenario(trials=5000), scheme)
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
        # the draws of one sweep value serve every scheme exactly as a
        # standalone estimate of that cell would
        document = json.loads(resolve_spec_path(name).read_text(encoding="utf-8"))
        document["scenario"]["trials"] = 1500
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        spec = load_spec(path)
        with ProcessPoolExecutor(max_workers=2) as pool:
            for workers, executor in [(1, None), (2, pool)]:
                for value, cell in zip(spec.sweep_values, spec.cells):
                    shared = SweepDraws([cell], workers, executor)
                    for scheme in spec.schemes:
                        alone = estimate(cell, scheme)
                        shared_estimate = estimate(cell, scheme, draws=shared)
                        assert shared_estimate == alone, (value, scheme)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_sweep_shares_hold_equal_draws(self, workers):
        # a num_sus sweep: cutting by block count would give the first half
        # of the blocks (K = 1..10) 55 of the 265 receiver columns
        scenarios = fig4_scenarios(1100)
        pool = InlinePool()
        draws = SweepDraws(scenarios, workers, pool)
        shares = 4 * workers  # at least four shares per worker
        assert len(pool.tasks) == shares
        # some value is cut at a share boundary and merges two pieces
        assert sum(map(len, pool.tasks)) > len(scenarios)
        total = sum(s.trials * s.fusion.num_sus for s in scenarios)
        block_draws = BLOCK_TRIALS * max(s.fusion.num_sus for s in scenarios)
        for segments in pool.tasks:
            assert abs(share_draws(segments) - total / shares) < block_draws
        for scenario in scenarios:
            blocks = -(-scenario.trials // BLOCK_TRIALS)
            assert draws.tallies(scenario) == _run_blocks(scenario, 0, blocks)

    def test_value_spread_over_many_shares_merges_its_pieces(self):
        # one block at K = 1, then ten blocks at K = 30: at 4 workers the
        # 16 shares are smaller than one K = 30 block, so the big value is
        # spread over many shares and merges each of its pieces
        small = uncertain_scenario(
            trials=BLOCK_TRIALS, fusion=FusionConfig(num_sus=1, vote_threshold=1)
        )
        big = uncertain_scenario(
            trials=10 * BLOCK_TRIALS, fusion=FusionConfig(num_sus=30, vote_threshold=1)
        )
        pool = InlinePool()
        draws = SweepDraws([small, big], 4, pool)
        pieces = [
            (first, stop)
            for segments in pool.tasks
            for s, first, stop in segments
            if s.fusion.num_sus == 30
        ]
        assert len(pieces) >= 3
        # the pieces cover the big value's blocks once, in order
        assert [b for first, stop in pieces for b in range(first, stop)] == list(
            range(10)
        )
        assert draws.tallies(big) == _run_blocks(big, 0, 10)
        assert draws.tallies(small) == _run_blocks(small, 0, 1)
        # a separate scenario equal to a later value reads that value's tallies
        assert draws.tallies(replace(big)) is draws.tallies(big)

    def test_large_sweep_shares_hold_a_fixed_draw_count(self):
        # 20000 trials of fig4 are 5.3M energy draws: ten shares, not 4 x 2
        scenarios = fig4_scenarios(20_000)
        pool = InlinePool(run=False)
        SweepDraws(scenarios, 2, pool)
        total = sum(s.trials * s.fusion.num_sus for s in scenarios)
        assert len(pool.tasks) == total // montecarlo._SHARE_DRAWS == 10
        for segments in pool.tasks:
            assert abs(share_draws(segments) - total / 10) < BLOCK_TRIALS * 30

    def test_failing_segment_raises_in_its_own_value_only(self, monkeypatch):
        run_blocks = montecarlo._run_blocks

        def failing(scenario, first, stop):
            if scenario.snr_db == -10.0:
                raise ArithmeticError("block failed")
            return run_blocks(scenario, first, stop)

        monkeypatch.setattr(montecarlo, "_run_blocks", failing)
        # one block per value, two values per share: -10 dB opens the second
        scenarios = [uncertain_scenario(snr_db=-12.0 + snr, trials=100) for snr in range(8)]
        pool = InlinePool()
        draws = SweepDraws(scenarios, 1, pool)
        assert [len(segments) for segments in pool.tasks] == [2, 2, 2, 2]
        for index in (1, 4):
            assert draws.tallies(scenarios[index]) == run_blocks(
                scenarios[index], 0, 1
            )
        with pytest.raises(ArithmeticError, match="block failed") as failure:
            draws.tallies(scenarios[2])
        # the worker's traceback survives pickling as a note on the error
        (note,) = failure.value.__notes__
        assert "in failing" in note and "block failed" in note
        # the share's next value still ran: its tallies are its own
        assert draws.tallies(scenarios[3]) == run_blocks(scenarios[3], 0, 1)

    def test_block_ranges_need_the_callers_pool(self):
        # the engine makes no pool: without one, every block is one range
        scenario = uncertain_scenario(trials=600)
        with pytest.raises(ValueError, match="executor"):
            SweepDraws([scenario], 2, None)
        with pytest.raises(ValueError, match="workers"):
            SweepDraws([scenario], 0, None)
        # a worker count is an integer, checked before any task is queued
        pool = InlinePool(run=False)
        with pytest.raises(ValueError, match="workers must be an integer"):
            SweepDraws([scenario], 2.0, pool)
        assert pool.tasks == []

    def test_draws_of_another_sweep_value_rejected(self):
        scenario = uncertain_scenario(trials=600)
        shared = SweepDraws([scenario])
        # any scheme at the same sweep value may read the draws, through
        # the sweep's own scenario or a separate one equal in every field
        equal = uncertain_scenario(trials=600)
        assert equal is not scenario and equal == scenario
        for scheme, cell in product(SchemeKind, [scenario, equal]):
            assert estimate(cell, scheme, draws=shared) == estimate(scenario, scheme)
        # ... a scenario that differs in any field may not
        for other in [
            replace(scenario, snr_db=-12.0),
            replace(scenario, seed=100),
            replace(scenario, trials=601),
            replace(scenario, fusion=replace(scenario.fusion, vote_threshold=2)),
        ]:
            with pytest.raises(ValueError, match="another sweep value"):
                estimate(other, draws=shared)
        # two SNRs whose linear signal both underflow to 0.0 are still two
        # sweep values
        silent = SweepDraws([replace(scenario, snr_db=-4000.0)])
        with pytest.raises(ValueError, match="another sweep value"):
            estimate(replace(scenario, snr_db=-5000.0), draws=silent)

    def test_every_field_of_the_scenario_names_the_sweep_value(self):
        scenario = uncertain_scenario(trials=600)
        others = {
            "detector": replace(scenario.detector, threshold=1.05),
            "noise": replace(scenario.noise, nominal_variance=1.01),
            "fusion": replace(scenario.fusion, report_error=0.002),
            "snr_db": -12.0,
            "trials": 601,
            "seed": 100,
            "family": AnalyticFamily.CHI_SQUARE,
        }
        # a scenario holds no scheme: estimate takes it beside the scenario
        assert set(others) == {f.name for f in fields(Scenario)}
        assert not hasattr(scenario, "scheme")
        shared = SweepDraws([scenario])
        for name, value in others.items():
            with pytest.raises(ValueError, match="another sweep value"):
                shared.tallies(replace(scenario, **{name: value}))
        assert shared.tallies(replace(scenario)) == shared.tallies(scenario)

    def test_scheme_coerced_from_string(self, monkeypatch):
        scenario = chi_square_scenario(trials=600)
        for scheme in SchemeKind:
            assert estimate(scenario, scheme.value) == estimate(scenario, scheme)

        def no_blocks(*args):
            raise AssertionError("a block ran")

        # an unknown scheme is named before any block runs
        monkeypatch.setattr(montecarlo, "_run_blocks", no_blocks)
        with pytest.raises(ValueError, match="'wavelet'"):
            estimate(scenario, "wavelet")

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
        one_step = estimate(uncertain_scenario(trials=2000), SchemeKind.EXPECTATION)
        assert one_step.steps_mean == 1.0
        two_step = estimate(uncertain_scenario(trials=2000), SchemeKind.TWO_STEP)
        assert 1.0 < two_step.steps_mean <= 2.0

    def test_scheme_ordering_at_low_snr(self):
        # with uncertainty active at -10 dB, the interval and convex schemes
        # must not lose to the miscalibrated fixed threshold on total error
        scenario = uncertain_scenario(trials=10**6)
        fixed = estimate(scenario, SchemeKind.FIXED)
        two_step = estimate(scenario, SchemeKind.TWO_STEP)
        convex = estimate(scenario, SchemeKind.CONVEX)
        assert two_step.q_e.value <= fixed.q_e.value
        assert convex.q_e.value <= fixed.q_e.value


# each range's edges and the doubles just past them: the bracket ends, then
# the threshold's
RANGE_EDGES = [1e-100, math.nextafter(1e-100, 0.0), 0.0, 1e100,
               math.nextafter(1e100, math.inf)]


class TestScenarioValidation:
    def test_rejects_nonfinite_snr(self):
        with pytest.raises(ValueError):
            chi_square_scenario(snr_db=math.inf)

    def test_rejects_overflowing_linear_snr(self):
        # 10^(3100 / 10) is past the largest double; 1000 dB, a linear SNR of
        # 1e100, is the largest a scenario accepts
        base = load_spec(resolve_spec_path("fig2")).base
        for snr_db in (3100.0, math.nextafter(1000.0, math.inf)):
            with pytest.raises(ValueError, match=re.escape(
                    f"snr_db must be finite and at most 1000 dB, got {snr_db!r}")):
                replace(base, snr_db=snr_db)
        assert replace(base, snr_db=1000.0).snr_linear == 1e100

    # the reproduction of an overflowed normalized statistic: with
    # 4 * 1e308 = inf, every enhanced quotient was 0 or NaN, and
    # `expectation` read p_f 0.0 against 0.865 under `fixed`
    @pytest.mark.parametrize(
        "sample_count, reason",
        [(4, "bracket requires 1e-100 <= low <= high <= 1e100, got [1.0, 1e+308]"),
         (10**400, f"sample_count must lie in [1, 2**53], got {10**400}")],
        ids=["4", "10**400"],
    )
    def test_rejects_an_overflowing_denominator(self, sample_count, reason):
        with pytest.raises(ValueError, match=re.escape(reason)):
            uncertain_scenario(
                detector=DetectorConfig(sample_count=sample_count, threshold=1.0),
                noise=NoiseUncertaintyModel(1e307, VarianceBracket(1.0, 1e308)),
                fusion=FusionConfig(num_sus=1, vote_threshold=1, prior_h0=1.0),
            )

    # an exponential closed form at sample_count * threshold = inf failed in
    # nominal_rates with "x must be finite"; 1e100 is the largest threshold,
    # and both families' closed forms take it
    def test_rejects_an_overflowing_exponential_threshold(self):
        with pytest.raises(ValueError, match=re.escape(
                "threshold must lie in [0, 1e100], got 1e+300")):
            DetectorConfig(sample_count=10**10, threshold=1e300)
        detector = DetectorConfig(sample_count=10**10, threshold=1e100)
        for rates in (nominal_rates(uncertain_scenario(detector=detector)),
                      nominal_rates(chi_square_scenario(detector=detector))):
            assert 0.0 <= rates.p_f <= rates.p_d <= 1.0

    def test_accepts_the_largest_finite_denominator(self):
        scenario = uncertain_scenario(
            detector=DetectorConfig(sample_count=2**53, threshold=1.0),
            noise=NoiseUncertaintyModel(1e100, VarianceBracket(1e-100, 1e100)),
        )
        assert scenario.detector.sample_count * scenario.noise.bracket.high == 2**53 * 1e100

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(AnalyticFamily),
        sample_count=st.one_of(st.integers(1, 10**4), st.integers(1, 2**53),
                               st.integers(1, 10**310),
                               st.sampled_from([2**53, 2**53 + 1])),
        ends=st.lists(
            st.one_of(st.floats(0.0, sys.float_info.max, exclude_min=True),
                      st.floats(1e-100, 1e100),
                      st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e),
                      st.sampled_from(RANGE_EDGES)),
            min_size=2, max_size=2),
        where=st.floats(0.0, 1.0),
        threshold=st.one_of(st.floats(0.0, sys.float_info.max), st.floats(0.0, 1e100),
                            st.sampled_from(RANGE_EDGES[2:])),
        snr_db=st.one_of(st.floats(-3100.0, 3100.0), st.floats(-1000.0, 1000.0),
                         st.sampled_from([1000.0, math.nextafter(1000.0, math.inf)])),
        num_sus=st.integers(1, 3),
        prior_h0=st.sampled_from([0.0, 0.5, 1.0]),
        report_error=st.sampled_from([0.0, 0.1]),
        n=st.integers(1, 8),
    )
    def test_every_accepted_scenario_decides_finite_quotients(
        self, family, sample_count, ends, where, threshold, snr_db, num_sus,
        prior_h0, report_error, n,
    ):
        # draws up to the float range; Scenario accepts exactly the fields
        # in their ranges, and whatever it accepts runs its block with no
        # overflow, invalid operation (inf / inf, inf * 0) or division by
        # zero, divides by finite sample_count * normalizer only, and its
        # closed forms give rates
        low, high = sorted(ends)
        in_range = (sample_count <= 2**53 and threshold <= 1e100
                    and 1e-100 <= low and high <= 1e100 and snr_db <= 1000.0)
        try:
            scenario = Scenario(
                detector=DetectorConfig(sample_count=sample_count, threshold=threshold),
                noise=NoiseUncertaintyModel(
                    min(max(low + where * (high - low), low), high),
                    VarianceBracket(low, high)),
                fusion=FusionConfig(num_sus=num_sus, vote_threshold=1,
                                    prior_h0=prior_h0, report_error=report_error),
                snr_db=snr_db, trials=n, seed=7, family=family,
            )
        except ValueError:
            assert not in_range
            return
        assert in_range
        noise = scenario.noise
        for normalizer in (noise.nominal_variance, noise.bracket.mean, low, high):
            assert sample_count * normalizer < math.inf, normalizer
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            tallies = _simulate_block(scenario, _block_rng(7, 0), n)
        for tally in tallies:
            assert tally.trials_h1 <= n and 0 <= tally.su_detections <= n * num_sus
        assert all(0.0 <= rate <= 1.0 for rate in astuple(nominal_rates(scenario)))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            chi_square_scenario(trials=0)

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError):
            chi_square_scenario(seed=2**64)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("trials", 100.5),
            ("trials", math.inf),
            ("seed", 1.5),
            ("seed", math.nan),
            ("trials", 100.0),
            ("seed", 7.0),
            ("trials", True),
            ("seed", True),
        ],
    )
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            chi_square_scenario(**{field: value})

    def test_snr_conversion(self):
        assert chi_square_scenario(snr_db=-10.0).snr_linear == pytest.approx(0.1)


class TestRangeCorners:
    # degenerate brackets at the corners of the scenario ranges, where the
    # nominal closed forms are the exact rates: every count lies within
    # |z| < 4 of them, or equals its bound where the rate is 0 or 1 (the
    # chi-square cases at 1000 dB)
    @pytest.mark.parametrize(
        "family, sample_count, threshold, variance, snr_db",
        [
            (AnalyticFamily.EXPONENTIAL, 1, 1e100, 1e99, 1000.0),
            (AnalyticFamily.EXPONENTIAL, 2**53, 1.0, 1e100, -80.0),
            (AnalyticFamily.CHI_SQUARE, 5, 1e100, 1e-100, 1000.0),
            (AnalyticFamily.CHI_SQUARE, 5, 1e100, 1e100, 1000.0),
            (AnalyticFamily.CHI_SQUARE, 5, 10.0, 1e-100, 5.0),
            (AnalyticFamily.CHI_SQUARE, 5, 10.0, 1e100, 5.0),
        ],
    )
    def test_monte_carlo_matches_the_closed_form(
        self, family, sample_count, threshold, variance, snr_db
    ):
        scenario = Scenario(
            detector=DetectorConfig(sample_count=sample_count, threshold=threshold),
            noise=NoiseUncertaintyModel(variance, VarianceBracket(variance, variance)),
            fusion=FusionConfig(num_sus=1, vote_threshold=1, prior_h0=0.5),
            snr_db=snr_db, trials=20_000, seed=11, family=family,
        )
        exact = nominal_rates(scenario)
        result = estimate(scenario)
        for rate, p in ((result.p_f, exact.p_f), (result.p_d, exact.p_d)):
            n = rate.observations
            if p in (0.0, 1.0):
                assert rate.successes == p * n
            else:
                assert abs(rate.successes - n * p) < 4.0 * math.sqrt(n * p * (1.0 - p))


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
