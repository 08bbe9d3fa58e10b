"""Tests for voting and cooperative error rates."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsense.fusion import (
    FusionConfig,
    coop_qf,
    coop_qm,
    cooperative_rates,
    effective_rate,
    optimize_vote_count,
    total_error,
)
from coopsense.montecarlo import wilson_interval


def enumerate_vote_rate(num_sus, vote_threshold, p):
    """Exhaustive oracle: weight every outcome vector by its Bernoulli
    probability and add up those whose vote count reaches the threshold."""
    total = 0.0
    for bits in itertools.product((0, 1), repeat=num_sus):
        weight = 1.0
        for b in bits:
            weight *= p if b else (1.0 - p)
        if sum(bits) >= vote_threshold:
            total += weight
    return total


def scan_vote_count_oracle(num_sus, p_f, p_d, prior_h0):
    """Independent argmin reimplementation using math.comb sums."""
    def tail(p, n):
        return sum(
            math.comb(num_sus, l) * p**l * (1.0 - p) ** (num_sus - l)
            for l in range(n, num_sus + 1)
        )

    best = None
    for n in range(1, num_sus + 1):
        qe = prior_h0 * tail(p_f, n) + (1.0 - prior_h0) * (1.0 - tail(p_d, n))
        if best is None or qe < best[1]:
            best = (n, qe)
    return best


def enumerate_fused_rates(config, p_f, p_d):
    """Exhaustive oracle over the 2^K report vectors. A receiver reports 1
    when it decides 1 and its report is not flipped, or decides 0 and it
    is; each vector is weighted by the product of its reports' odds."""
    k, n, flip = config.num_sus, config.vote_threshold, config.report_error
    bits = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
    reaches = bits.sum(axis=1) >= n

    def vote_mass(p):
        report = sum(
            (p if decided else 1.0 - p) * (flip if flipped else 1.0 - flip)
            for decided in (0, 1) for flipped in (0, 1) if decided != flipped
        )
        weights = np.where(bits == 1, report, 1.0 - report).prod(axis=1)
        return weights[reaches].sum(), weights[~reaches].sum()

    q_f = vote_mass(p_f)[0]
    q_m = vote_mass(p_d)[1]
    return q_f, q_m, config.prior_h0 * q_f + (1.0 - config.prior_h0) * q_m


class TestVoteTails:
    def test_or_rule_closed_form(self):
        assert coop_qf(5, 1, 0.1) == pytest.approx(0.40951, abs=1e-12)

    def test_and_rule_closed_form(self):
        assert coop_qf(5, 5, 0.1) == pytest.approx(1e-5, rel=1e-10)

    def test_enumeration_anchor(self):
        assert coop_qf(5, 3, 0.2) == pytest.approx(0.05792, abs=1e-12)

    def test_enumeration_equivalence(self):
        probabilities = [0.02, 0.2, 0.5, 0.8, 0.97]
        for num_sus in range(1, 11):
            for n in range(1, num_sus + 1):
                for p in probabilities:
                    oracle = enumerate_vote_rate(num_sus, n, p)
                    assert coop_qf(num_sus, n, p) == pytest.approx(
                        oracle, abs=1e-12
                    )
                    assert coop_qm(num_sus, n, p) == pytest.approx(
                        1.0 - oracle, abs=1e-12
                    )

    def test_completeness_identity(self):
        for num_sus in [1, 3, 7, 15, 20]:
            for p in [0.0, 0.1, 0.5, 0.9, 1.0]:
                assert coop_qf(num_sus, 1, p) + (1.0 - p) ** num_sus == (
                    pytest.approx(1.0, abs=1e-12)
                )

    def test_monotonicity_in_vote_threshold(self):
        for num_sus in range(1, 21):
            for p in [0.05, 0.3, 0.6, 0.95]:
                qf = [coop_qf(num_sus, n, p) for n in range(1, num_sus + 1)]
                qm = [coop_qm(num_sus, n, p) for n in range(1, num_sus + 1)]
                assert all(a >= b - 1e-12 for a, b in zip(qf, qf[1:]))
                assert all(a <= b + 1e-12 for a, b in zip(qm, qm[1:]))

    def test_extreme_probabilities(self):
        assert coop_qf(6, 2, 0.0) == 0.0
        assert coop_qf(6, 2, 1.0) == 1.0
        assert coop_qm(6, 2, 1.0) == 0.0
        assert coop_qm(6, 2, 0.0) == 1.0

    def test_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            coop_qf(5, 2, 1.2)
        with pytest.raises(ValueError):
            coop_qm(5, 2, -0.1)

    def test_empirical_fusion_agreement(self):
        trials, num_sus, n, p = 10**6, 7, 3, 0.23
        rng = np.random.default_rng(606)
        decisions = rng.random((trials, num_sus)) < p
        fused = decisions.sum(axis=1) >= n
        hits = int(fused.sum())
        lower, upper = wilson_interval(hits, trials)
        half = (upper - lower) / 2.0
        assert abs(hits / trials - coop_qf(num_sus, n, p)) <= 4 * half


class TestTotalError:
    def test_weighted_sum(self):
        assert total_error(0.5, 0.2, 0.1) == pytest.approx(0.15)

    def test_pure_false_alarm(self):
        assert total_error(1.0, 0.2, 0.9) == pytest.approx(0.2)

    def test_pure_miss(self):
        assert total_error(0.0, 0.2, 0.9) == pytest.approx(0.9)


class TestOptimizeVoteCount:
    def test_single_receiver(self):
        n, _ = optimize_vote_count(1, 0.3, 0.8, 0.5)
        assert n == 1

    def test_perfect_detector_tie_breaks_low(self):
        n, qe = optimize_vote_count(8, 0.0, 1.0, 0.5)
        assert n == 1
        assert qe == 0.0

    def test_known_case_matches_oracle(self):
        assert optimize_vote_count(10, 0.1, 0.9, 0.5) == pytest.approx(
            scan_vote_count_oracle(10, 0.1, 0.9, 0.5)
        )

    def test_random_tuples_match_oracle(self):
        rng = np.random.default_rng(707)
        for _ in range(100):
            num_sus = int(rng.integers(1, 21))
            p_f = float(rng.random())
            p_d = float(rng.random())
            alpha = float(rng.random())
            n, qe = optimize_vote_count(num_sus, p_f, p_d, alpha)
            n_ref, qe_ref = scan_vote_count_oracle(num_sus, p_f, p_d, alpha)
            assert n == n_ref
            assert qe == pytest.approx(qe_ref, abs=1e-12)

    def test_result_never_beaten(self):
        rng = np.random.default_rng(708)
        for _ in range(50):
            num_sus = int(rng.integers(1, 16))
            p_f, p_d, alpha = rng.random(3)
            n_star, qe_star = optimize_vote_count(num_sus, p_f, p_d, alpha)
            for n in range(1, num_sus + 1):
                qe = total_error(
                    alpha, coop_qf(num_sus, n, p_f), coop_qm(num_sus, n, p_d)
                )
                assert qe_star <= qe + 1e-15

    def test_one_pass_matches_per_rule_scan_at_large_k(self):
        # the per-rule scan sums each tail afresh; the one-pass prefix and
        # suffix sums add the same terms in another order
        rng = np.random.default_rng(709)
        for _ in range(20):
            num_sus = int(rng.integers(16, 121))
            p_f, p_d, alpha = (float(v) for v in rng.random(3))
            n_star, qe_star = optimize_vote_count(num_sus, p_f, p_d, alpha)
            scan = [
                total_error(alpha, coop_qf(num_sus, n, p_f), coop_qm(num_sus, n, p_d))
                for n in range(1, num_sus + 1)
            ]
            best = min(scan)
            assert abs(qe_star - best) <= 1e-14 * best + 1e-300
            assert abs(scan[n_star - 1] - best) <= 1e-14 * best + 1e-300


class TestReportingErrors:
    def test_effective_rate(self):
        assert effective_rate(0.0, 0.001) == pytest.approx(0.001)
        assert effective_rate(1.0, 0.001) == pytest.approx(0.999)
        assert effective_rate(0.4, 0.0) == 0.4


class TestCooperativeRates:
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        num_sus=st.integers(1, 12),
        p_f=st.floats(0.0, 1.0),
        p_d=st.floats(0.0, 1.0),
        prior_h0=st.floats(0.0, 1.0),
        report_error=st.floats(0.0, 0.5),
    )
    def test_matches_enumeration_of_every_report_vector(
        self, data, num_sus, p_f, p_d, prior_h0, report_error
    ):
        vote_threshold = data.draw(st.integers(1, num_sus), label="vote_threshold")
        config = FusionConfig(num_sus, vote_threshold, prior_h0, report_error)
        fused = cooperative_rates(config, p_f, p_d)
        want = enumerate_fused_rates(config, p_f, p_d)
        for got, expected in zip((fused.q_f, fused.q_m, fused.q_e), want):
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-300)

    def test_total_error_holds_by_construction(self):
        config = FusionConfig(
            num_sus=8, vote_threshold=3, prior_h0=0.35, report_error=0.001
        )
        rates = cooperative_rates(config, p_f=0.12, p_d=0.88)
        assert rates.q_e == pytest.approx(
            0.35 * rates.q_f + 0.65 * rates.q_m, abs=1e-15
        )

    def test_flips_fold_into_per_receiver_rates(self):
        config = FusionConfig(
            num_sus=5, vote_threshold=1, prior_h0=0.5, report_error=0.01
        )
        rates = cooperative_rates(config, p_f=0.0, p_d=1.0)
        assert rates.q_f == pytest.approx(coop_qf(5, 1, 0.01), rel=1e-12)
        assert rates.q_m == pytest.approx(coop_qm(5, 1, 0.99), rel=1e-12)


class TestFusionConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_sus=0, vote_threshold=1),
            dict(num_sus=5, vote_threshold=0),
            dict(num_sus=5, vote_threshold=6),
            dict(num_sus=5, vote_threshold=2, prior_h0=1.5),
            dict(num_sus=5, vote_threshold=2, report_error=0.7),
            dict(num_sus=2.5, vote_threshold=1),
            dict(num_sus=5, vote_threshold=1.5),
            dict(num_sus=math.inf, vote_threshold=1),
            dict(num_sus=5, vote_threshold=math.nan),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError, match="|".join(kwargs)):
            FusionConfig(**kwargs)
