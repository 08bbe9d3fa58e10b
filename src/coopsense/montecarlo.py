"""Monte Carlo engine for cooperative sensing scenarios.

Reproducibility contract (``STREAM_VERSION`` 1): a scenario's trials are
cut into blocks of ``BLOCK_TRIALS`` consecutive trials, and only a cell's
last block may be shorter. Block ``b`` draws from its own counter-mode
stream, ``Philox(key=seed, counter=[0, 0, STREAM_VERSION, b])``, so a
block's outcome never depends on execution order or worker count, and
workers split a cell on block boundaries only. Within a block of n trials
and K receivers the draw order is fixed: n truth coins (a trial is H1 when
its coin is >= ``prior_h0``, so a prior of 1 or 0 runs one hypothesis
only), n x K noise variances, n x K window energies (one Gamma draw each,
or under the ``chi_square`` family one noncentral chi-square draw each,
with noncentrality 0 on H0 trials), n x K reporting flips (only when the
flip probability is positive). No draw depends on the threshold scheme,
so every scheme at one sweep value sees the same random numbers. The
block size is part of the contract, not a setting.

Window energies are drawn from their exact sampling laws instead of being
accumulated sample by sample: for k complex Gaussian samples the energy is
a Gamma(k) variate scaled by the in-effect power (Gaussian signaling adds
the received signal power to that scale), and under constant-envelope
signaling it is a scaled noncentral chi-square with 2k degrees of freedom.
These identities are exercised against direct waveform simulation in the
test suite. Receivers are simulated i.i.d.: signal draws are per-receiver,
matching the independence assumed by the binomial fusion model.

The engine's unit of work is a sweep value (a scenario up to its scheme),
not a cell. Every scheme tests the same window energy against the same
threshold and differs only in the noise power it divides by: the nominal
power for ``fixed`` and the bracket mean for every other scheme. So a
sweep value is drawn once, each block is decided once per distinct
normalizer by ``threshold_schemes.decide_scheme`` and tallied for both
with numpy reductions, and the bracket-mean tally also counts the
receivers whose two-step interval straddles the threshold.
``_scheme_tally``, the one place that maps a scheme to its normalizer,
picks the tally ``estimate`` reads. A ``SweepDraws`` handle carries one
sweep value's tallies from the first scheme's ``estimate`` call to the
others: it runs every block in this process in that first call, or, given
the caller's executor, queues its block ranges on that pool as soon as it
is made and the first call waits for them, so that a runner can queue
every sweep value before reading any. The engine never makes a pool of its
own, and a handle keeps nothing beyond its own lifetime.

``estimate`` returns Monte Carlo rates only. ``nominal_rates`` holds the
closed forms at the nominal operating point; they depend on neither the
scheme nor the draws, so a sweep evaluates them once per sweep value. A
scenario declares which analytic family both use:

* ``chi_square`` - the configured threshold lives on the accumulated
  energy scale (2 * sum|y|^2 / power), signaling is constant-envelope, and
  the scenario SNR is the linear ratio accumulated over the whole window.
* ``exponential`` - the threshold lives on the normalized scale
  (energy / (k * power)), signaling is Gaussian, and the scenario SNR is
  per sample.

Only the block kernel uses numpy, and it imports numpy at its first draw:
importing the package, validating a spec and the closed forms load no
numpy. A pooled run (``cli_experiments.run_experiment``) imports it in the
parent before the pool forks, so forked workers inherit it.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import TYPE_CHECKING

from .detector import DetectorConfig, analytic_pd, analytic_pf
from .fusion import FusionConfig, cooperative_rates, integer
from .noise_model import NoiseUncertaintyModel, VarianceBracket
from .specfun import reg_upper_gamma
from .threshold_schemes import SchemeKind, decide_scheme

if TYPE_CHECKING:
    from concurrent.futures import Executor

    import numpy as np

__all__ = [
    "AnalyticFamily",
    "BLOCK_TRIALS",
    "STREAM_VERSION",
    "Scenario",
    "RateEstimate",
    "AnalyticRates",
    "ScenarioEstimate",
    "wilson_interval",
    "nominal_rates",
    "SweepDraws",
    "estimate",
]

# Trials per block and the version of the stream contract above; changing
# either changes every estimate, so neither is configurable.
BLOCK_TRIALS = 512
STREAM_VERSION = 1


class AnalyticFamily(str, enum.Enum):
    CHI_SQUARE = "chi_square"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class Scenario:
    """One fully specified simulation: detector, noise, scheme, fusion."""

    detector: DetectorConfig
    noise: NoiseUncertaintyModel
    scheme: SchemeKind
    fusion: FusionConfig
    snr_db: float
    trials: int
    seed: int
    family: AnalyticFamily = AnalyticFamily.EXPONENTIAL

    def __post_init__(self):
        object.__setattr__(self, "scheme", SchemeKind(self.scheme))
        object.__setattr__(self, "family", AnalyticFamily(self.family))
        try:
            finite = math.isfinite(self.snr_db) and math.isfinite(self.snr_linear)
        except OverflowError:  # 10^(snr_db / 10) beyond the largest double
            finite = False
        if not finite:
            raise ValueError(
                "snr_db must be finite, with a finite linear SNR "
                f"10^(snr_db / 10), got {self.snr_db!r}"
            )
        if integer(self.trials, "trials") < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if not 0 <= integer(self.seed, "seed") < 2**64:
            raise ValueError(f"seed must be a 64-bit integer, got {self.seed!r}")

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)


@dataclass(frozen=True)
class RateEstimate:
    """Empirical rate with its Wilson 95% interval."""

    value: float
    lower: float
    upper: float
    successes: int
    observations: int


@dataclass(frozen=True)
class AnalyticRates:
    p_f: float
    p_d: float
    q_f: float
    q_m: float
    q_e: float


@dataclass(frozen=True)
class ScenarioEstimate:
    p_d: RateEstimate
    p_f: RateEstimate
    q_f: RateEstimate
    q_m: RateEstimate
    q_e: RateEstimate
    steps_mean: float
    trials: int
    seed: int


_WILSON_Z = NormalDist().inv_cdf(0.975)


def wilson_interval(successes: int, observations: int) -> tuple[float, float]:
    """Wilson 95% score interval; (0, 1) when there are no observations."""
    if observations < 0 or successes < 0 or successes > max(observations, 0):
        raise ValueError(
            f"invalid counts: {successes!r} successes of {observations!r}"
        )
    if observations == 0:
        return 0.0, 1.0
    n = float(observations)
    z = _WILSON_Z
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    # clamp so the interval always contains the point estimate exactly
    lower = min(max(0.0, center - half), phat)
    upper = max(min(1.0, center + half), phat)
    return lower, upper


def _rate(successes: int, observations: int) -> RateEstimate:
    lower, upper = wilson_interval(successes, observations)
    value = successes / observations if observations > 0 else math.nan
    return RateEstimate(
        value=value,
        lower=lower,
        upper=upper,
        successes=successes,
        observations=observations,
    )


@dataclass(frozen=True)
class _Runtime:
    """Scheme-free constants of a scenario, hoisted out of the block loop;
    pool tasks carry this, not the ``Scenario``."""

    k: int
    num_sus: int
    vote_threshold: int
    threshold_norm: float
    prior_h0: float
    report_error: float
    family: AnalyticFamily
    bracket: VarianceBracket
    nominal: float  # the fixed scheme's normalizer
    mean: float  # every other scheme's normalizer, inside the bracket
    # received signal: per-sample power (exponential family), whole-window
    # energy (chi-square family)
    signal: float


def _runtime(scenario: Scenario) -> _Runtime:
    det = scenario.detector
    fus = scenario.fusion
    noise = scenario.noise
    k = det.sample_count
    if scenario.family == AnalyticFamily.CHI_SQUARE:
        threshold_norm = det.threshold / (2.0 * k)
    else:
        threshold_norm = det.threshold
    return _Runtime(
        k=k,
        num_sus=fus.num_sus,
        vote_threshold=fus.vote_threshold,
        threshold_norm=threshold_norm,
        prior_h0=fus.prior_h0,
        report_error=fus.report_error,
        family=scenario.family,
        bracket=noise.bracket,
        nominal=noise.nominal_variance,
        mean=noise.bracket.mean,
        signal=scenario.snr_linear * noise.nominal_variance,
    )


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """Counter-mode stream of one block: the key is the seed, and the two
    top counter words hold the contract version and the block index."""
    import numpy as np

    if block < 0:
        raise ValueError(f"block must be >= 0, got {block!r}")
    bits = np.random.Philox(key=seed, counter=[0, 0, STREAM_VERSION, block])
    return np.random.Generator(bits)


@dataclass
class _Tally:
    trials_h0: int = 0
    trials_h1: int = 0
    su_false_alarms: int = 0
    su_detections: int = 0
    fused_false_alarms: int = 0
    fused_misses: int = 0
    fused_errors: int = 0
    second_steps: int = 0  # receivers whose two-step interval straddles

    def merge(self, other: _Tally) -> _Tally:
        return _Tally(
            trials_h0=self.trials_h0 + other.trials_h0,
            trials_h1=self.trials_h1 + other.trials_h1,
            su_false_alarms=self.su_false_alarms + other.su_false_alarms,
            su_detections=self.su_detections + other.su_detections,
            fused_false_alarms=self.fused_false_alarms + other.fused_false_alarms,
            fused_misses=self.fused_misses + other.fused_misses,
            fused_errors=self.fused_errors + other.fused_errors,
            second_steps=self.second_steps + other.second_steps,
        )


def _merge(
    a: tuple[_Tally, _Tally], b: tuple[_Tally, _Tally]
) -> tuple[_Tally, _Tally]:
    return a[0].merge(b[0]), a[1].merge(b[1])


def _simulate_block(
    rt: _Runtime, rng: np.random.Generator, n: int
) -> tuple[_Tally, _Tally]:
    """Tallies of ``n`` trials drawn from ``rng`` in the documented order:
    decided on the nominal power, then on the bracket mean with the
    two-step second steps counted."""
    import numpy as np

    shape = (n, rt.num_sus)
    h1 = rng.random(n) >= rt.prior_h0
    variances = rng.uniform(rt.bracket.low, rt.bracket.high, size=shape)
    if rt.family == AnalyticFamily.CHI_SQUARE:
        # noncentrality 0 is the central law: 0.5 * v * chi2(2k) = v * Gamma(k);
        # the signal is selected by h1, not multiplied by it, since inf * 0
        # (a signal energy past half the largest double) is NaN
        signal = np.where(h1, 2.0 * rt.signal, 0.0)
        noncentrality = signal[:, None] / variances
        energies = 0.5 * variances * rng.noncentral_chisquare(2.0 * rt.k, noncentrality)
    else:
        scale = variances + np.where(h1, rt.signal, 0.0)[:, None]
        energies = scale * rng.standard_gamma(rt.k, size=shape)

    nominal, _ = decide_scheme(energies, rt.k, rt.threshold_norm, rt.nominal)
    mean, second = decide_scheme(energies, rt.k, rt.threshold_norm, rt.mean, rt.bracket)
    # one row per normalizer; both rows see the same report flips
    decisions = np.stack((nominal, mean))
    reported = decisions
    if rt.report_error > 0.0:
        reported = decisions ^ (rng.random(shape) < rt.report_error)

    fused = np.count_nonzero(reported, axis=2) >= rt.vote_threshold
    positives = np.count_nonzero(decisions, axis=2)
    counts = zip(
        positives.sum(axis=1).tolist(),
        positives[:, h1].sum(axis=1).tolist(),
        np.count_nonzero(fused & ~h1, axis=1).tolist(),
        np.count_nonzero(h1 & ~fused, axis=1).tolist(),
        (0, int(np.count_nonzero(second))),
    )
    trials_h1 = int(np.count_nonzero(h1))
    return tuple(
        _Tally(
            trials_h0=n - trials_h1,
            trials_h1=trials_h1,
            su_false_alarms=positive - detections,
            su_detections=detections,
            fused_false_alarms=false_alarms,
            fused_misses=misses,
            fused_errors=false_alarms + misses,
            second_steps=second_steps,
        )
        for positive, detections, false_alarms, misses, second_steps in counts
    )


def _run_blocks(
    rt: _Runtime, seed: int, trials: int, first: int, stop: int
) -> tuple[_Tally, _Tally]:
    """Tallies of blocks ``first`` up to ``stop`` of a ``trials``-trial
    sweep value."""
    tallies = (_Tally(), _Tally())
    for block in range(first, stop):
        n = min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS)
        tallies = _merge(tallies, _simulate_block(rt, _block_rng(seed, block), n))
    return tallies


def _scheme_tally(scheme: SchemeKind, nominal: _Tally, mean: _Tally) -> _Tally:
    """The tally a scheme's cell reads: ``fixed`` decides on the nominal
    power, every other scheme (``convex`` too) on the bracket mean, and
    only ``two_step`` takes second steps."""
    if scheme == SchemeKind.FIXED:
        return nominal
    if scheme == SchemeKind.TWO_STEP:
        return mean
    return replace(mean, second_steps=0)


def nominal_rates(scenario: Scenario) -> AnalyticRates:
    """Family-matched closed forms at the configured operating point
    (nominal normalization, no uncertainty). They do not depend on the
    scheme, the trial count or the seed."""
    u = scenario.detector.sample_count
    threshold = scenario.detector.threshold
    snr = scenario.snr_linear
    if scenario.family == AnalyticFamily.CHI_SQUARE:
        p_f = analytic_pf(u, threshold)
        p_d = analytic_pd(u, snr, threshold)
    else:
        p_f = reg_upper_gamma(u, u * threshold)
        p_d = reg_upper_gamma(u, u * threshold / (1.0 + snr))
    fused = cooperative_rates(scenario.fusion, p_f, p_d)
    return AnalyticRates(p_f=p_f, p_d=p_d, q_f=fused.q_f, q_m=fused.q_m, q_e=fused.q_e)


def _split_ranges(count: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, count))
    step = count // parts
    extra = count % parts
    ranges = []
    start = 0
    for i in range(parts):
        stop = start + step + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


class SweepDraws:
    """The tallies of one sweep value, shared by the ``estimate`` calls of
    every scheme at that value.

    A sweep value is a scenario up to its scheme: the scheme-free runtime,
    the seed and the trial count. Given the caller's ``executor``, its
    blocks are split into ``workers`` contiguous ranges, each queued on
    that pool when the handle is made; without one, every block runs in
    this process as one range in the first ``tallies`` call, and
    ``workers`` must be 1.
    """

    def __init__(
        self,
        scenario: Scenario,
        workers: int = 1,
        executor: Executor | None = None,
    ):
        if workers < 1 or (workers > 1 and executor is None):
            raise ValueError(
                f"workers must be 1, or >= 1 with an executor, got {workers!r}"
            )
        self._key = (_runtime(scenario), scenario.seed, scenario.trials)
        blocks = -(-scenario.trials // BLOCK_TRIALS)
        self._tasks = [
            (*self._key, first, stop) for first, stop in _split_ranges(blocks, workers)
        ]
        self._futures = (
            None
            if executor is None
            else [executor.submit(_run_blocks, *task) for task in self._tasks]
        )
        self._tallies = None

    def tallies(self, scenario: Scenario) -> tuple[_Tally, _Tally]:
        """Nominal-power and bracket-mean tallies over every block; runs or
        waits for the blocks on the first call. Raises ``ValueError`` for a
        scenario of another sweep value."""
        if (_runtime(scenario), scenario.seed, scenario.trials) != self._key:
            raise ValueError(
                "these draws belong to another sweep value: the scenario "
                "differs in more than its scheme"
            )
        if self._tallies is None:
            if self._futures is None:
                parts = [_run_blocks(*task) for task in self._tasks]
            else:
                parts = [future.result() for future in self._futures]
            self._tallies = functools.reduce(_merge, parts)
        return self._tallies


def estimate(scenario: Scenario, draws: SweepDraws | None = None) -> ScenarioEstimate:
    """Aggregate all trials of a scenario into Monte Carlo rate estimates.

    ``draws`` is the ``SweepDraws`` handle of the scenario's sweep value,
    shared by the cells of every scheme at that value; it must have been
    made for this scenario up to the scheme, else ``ValueError``. Without
    it the call runs every block in this process and keeps nothing. The
    scheme picks the tally it reads: ``fixed`` the nominal-power
    decisions, every other scheme the bracket-mean ones, and only
    ``two_step`` counts second steps. Because each block derives its own
    stream, every estimate is bit-identical for any worker count, shared
    draws or not.
    """
    if draws is None:
        draws = SweepDraws(scenario)
    tally = _scheme_tally(scenario.scheme, *draws.tallies(scenario))

    num_sus = scenario.fusion.num_sus
    su_obs_h0 = tally.trials_h0 * num_sus
    su_obs_h1 = tally.trials_h1 * num_sus
    p_f = _rate(tally.su_false_alarms, su_obs_h0)
    p_d = _rate(tally.su_detections, su_obs_h1)
    q_f = _rate(tally.fused_false_alarms, tally.trials_h0)
    q_m = _rate(tally.fused_misses, tally.trials_h1)
    q_e = _rate(tally.fused_errors, scenario.trials)

    decisions = scenario.trials * num_sus
    return ScenarioEstimate(
        p_d=p_d,
        p_f=p_f,
        q_f=q_f,
        q_m=q_m,
        q_e=q_e,
        steps_mean=(decisions + tally.second_steps) / decisions,
        trials=scenario.trials,
        seed=scenario.seed,
    )
