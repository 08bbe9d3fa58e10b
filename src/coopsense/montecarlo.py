"""Monte Carlo engine for cooperative sensing scenarios.

Reproducibility contract (``STREAM_VERSION`` 1): a scenario's trials are
cut into blocks of ``BLOCK_TRIALS`` consecutive trials, and only a cell's
last block may be shorter. Block ``b`` draws from its own counter-mode
stream, ``Philox(key=seed, counter=[0, 0, STREAM_VERSION, b])``, so a
block's outcome never depends on execution order or worker count, and
workers split a cell on block boundaries only. Within a block of n trials
and K receivers the draw order is fixed: n truth coins (mixed truth
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

The engine holds no scheme logic: each scenario's normalizer and two-step
bracket are computed once, and every block hands its n x K energies to
``threshold_schemes.decide_scheme`` and tallies the result with numpy
reductions.

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
"""

import enum
import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .detector import DetectorConfig, analytic_pd, analytic_pf
from .fusion import FusionConfig, cooperative_rates
from .noise_model import NoiseUncertaintyModel, VarianceBracket
from .specfun import reg_upper_gamma
from .threshold_schemes import SchemeKind, decide_scheme, scheme_normalizer

__all__ = [
    "TruthMode",
    "AnalyticFamily",
    "BLOCK_TRIALS",
    "STREAM_VERSION",
    "Scenario",
    "RateEstimate",
    "AnalyticRates",
    "ScenarioEstimate",
    "wilson_interval",
    "nominal_rates",
    "estimate",
]

# Trials per block and the version of the stream contract above; changing
# either changes every estimate, so neither is configurable.
BLOCK_TRIALS = 512
STREAM_VERSION = 1


class TruthMode(str, enum.Enum):
    H0 = "h0"
    H1 = "h1"
    MIXED = "mixed"


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
    truth: TruthMode = TruthMode.MIXED
    family: AnalyticFamily = AnalyticFamily.EXPONENTIAL

    def __post_init__(self):
        object.__setattr__(self, "scheme", SchemeKind(self.scheme))
        object.__setattr__(self, "truth", TruthMode(self.truth))
        object.__setattr__(self, "family", AnalyticFamily(self.family))
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if not 0 <= self.seed < 2**64:
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


def wilson_interval(
    successes: int, observations: int, z: float = _WILSON_Z
) -> tuple[float, float]:
    """Wilson score interval; (0, 1) when there are no observations."""
    if observations < 0 or successes < 0 or successes > max(observations, 0):
        raise ValueError(
            f"invalid counts: {successes!r} successes of {observations!r}"
        )
    if observations == 0:
        return 0.0, 1.0
    n = float(observations)
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
    """Scenario constants hoisted out of the block loop; pool tasks carry
    this, not the ``Scenario``."""

    k: int
    num_sus: int
    vote_threshold: int
    threshold_norm: float
    prior_h0: float
    report_error: float
    truth: TruthMode
    family: AnalyticFamily
    bracket: VarianceBracket
    normalizer: float
    step_bracket: VarianceBracket | None  # two-step interval, else None
    signal_power: float  # received per-sample power (exponential family)
    signal_energy: float  # received whole-window energy (chi-square family)


def _runtime(scenario: Scenario) -> _Runtime:
    det = scenario.detector
    fus = scenario.fusion
    noise = scenario.noise
    k = det.sample_count
    if scenario.family == AnalyticFamily.CHI_SQUARE:
        threshold_norm = det.threshold / (2.0 * k)
    else:
        threshold_norm = det.threshold

    gain2 = det.channel_gain**2
    if det.signal_variance is not None:
        per_sample = gain2 * det.signal_variance
        window = k * per_sample
    else:
        per_sample = scenario.snr_linear * noise.nominal_variance
        window = scenario.snr_linear * noise.nominal_variance

    return _Runtime(
        k=k,
        num_sus=fus.num_sus,
        vote_threshold=fus.vote_threshold,
        threshold_norm=threshold_norm,
        prior_h0=fus.prior_h0,
        report_error=fus.report_error,
        truth=scenario.truth,
        family=scenario.family,
        bracket=noise.bracket,
        normalizer=scheme_normalizer(scenario.scheme, noise),
        step_bracket=(
            noise.bracket if scenario.scheme == SchemeKind.TWO_STEP else None
        ),
        signal_power=per_sample,
        signal_energy=window,
    )


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """Counter-mode stream of one block: the key is the seed, and the two
    top counter words hold the contract version and the block index."""
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
    steps_total: int = 0

    def merge(self, other: "_Tally") -> "_Tally":
        return _Tally(
            trials_h0=self.trials_h0 + other.trials_h0,
            trials_h1=self.trials_h1 + other.trials_h1,
            su_false_alarms=self.su_false_alarms + other.su_false_alarms,
            su_detections=self.su_detections + other.su_detections,
            fused_false_alarms=self.fused_false_alarms + other.fused_false_alarms,
            fused_misses=self.fused_misses + other.fused_misses,
            fused_errors=self.fused_errors + other.fused_errors,
            steps_total=self.steps_total + other.steps_total,
        )


def _simulate_block(rt: _Runtime, rng: np.random.Generator, n: int) -> _Tally:
    """Tally of ``n`` trials drawn from ``rng`` in the documented order."""
    shape = (n, rt.num_sus)
    if rt.truth == TruthMode.MIXED:
        h1 = rng.random(n) >= rt.prior_h0
    else:
        h1 = np.full(n, rt.truth == TruthMode.H1)
    variances = rng.uniform(rt.bracket.low, rt.bracket.high, size=shape)
    if rt.family == AnalyticFamily.CHI_SQUARE:
        # noncentrality 0 is the central law: 0.5 * v * chi2(2k) = v * Gamma(k)
        noncentrality = 2.0 * rt.signal_energy * h1[:, None] / variances
        energies = 0.5 * variances * rng.noncentral_chisquare(2.0 * rt.k, noncentrality)
    else:
        scale = variances + rt.signal_power * h1[:, None]
        energies = scale * rng.standard_gamma(rt.k, size=shape)

    decisions, steps = decide_scheme(
        energies, rt.k, rt.threshold_norm, rt.normalizer, rt.step_bracket
    )
    reported = decisions
    if rt.report_error > 0.0:
        reported = decisions ^ (rng.random(shape) < rt.report_error)

    fused = np.count_nonzero(reported, axis=1) >= rt.vote_threshold
    positives = np.count_nonzero(decisions, axis=1)
    trials_h1 = int(np.count_nonzero(h1))
    su_detections = int(positives[h1].sum())
    false_alarms = int(np.count_nonzero(fused & ~h1))
    misses = int(np.count_nonzero(h1 & ~fused))
    return _Tally(
        trials_h0=n - trials_h1,
        trials_h1=trials_h1,
        su_false_alarms=int(positives.sum()) - su_detections,
        su_detections=su_detections,
        fused_false_alarms=false_alarms,
        fused_misses=misses,
        fused_errors=false_alarms + misses,
        steps_total=int(steps.sum()),
    )


def _run_blocks(rt: _Runtime, seed: int, trials: int, first: int, stop: int) -> _Tally:
    """Tally of blocks ``first`` up to ``stop`` of a ``trials``-trial cell."""
    tally = _Tally()
    for block in range(first, stop):
        n = min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS)
        tally = tally.merge(_simulate_block(rt, _block_rng(seed, block), n))
    return tally


def _blocks_worker(args) -> _Tally:
    return _run_blocks(*args)


def nominal_rates(scenario: Scenario) -> AnalyticRates:
    """Family-matched closed forms at the configured operating point
    (nominal normalization, no uncertainty). They do not depend on the
    scheme, the trial count or the seed."""
    det = scenario.detector
    snr = scenario.snr_linear
    if scenario.family == AnalyticFamily.CHI_SQUARE:
        p_f = analytic_pf(det.time_bandwidth, det.threshold)
        p_d = analytic_pd(det.time_bandwidth, snr, det.threshold)
    else:
        u = det.time_bandwidth
        p_f = reg_upper_gamma(u, u * det.threshold)
        p_d = reg_upper_gamma(u, u * det.threshold / (1.0 + snr))
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


def estimate(
    scenario: Scenario,
    workers: int = 1,
    executor: ProcessPoolExecutor | None = None,
) -> ScenarioEstimate:
    """Aggregate all trials of a scenario into Monte Carlo rate estimates.

    ``workers`` > 1 splits the cell's blocks into contiguous ranges, one
    pool task each (run on ``executor`` when given); a cell that yields one
    range runs in this process. Because each block derives its own stream,
    the tallies (and therefore every estimate) are bit-identical for any
    worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    blocks = -(-scenario.trials // BLOCK_TRIALS)
    rt = _runtime(scenario)
    args = [
        (rt, scenario.seed, scenario.trials, first, stop)
        for first, stop in _split_ranges(blocks, workers)
    ]
    if len(args) == 1:
        tallies = [_run_blocks(*args[0])]
    elif executor is not None:
        tallies = list(executor.map(_blocks_worker, args))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tallies = list(pool.map(_blocks_worker, args))
    tally = functools.reduce(_Tally.merge, tallies)

    num_sus = scenario.fusion.num_sus
    su_obs_h0 = tally.trials_h0 * num_sus
    su_obs_h1 = tally.trials_h1 * num_sus
    p_f = _rate(tally.su_false_alarms, su_obs_h0)
    p_d = _rate(tally.su_detections, su_obs_h1)
    q_f = _rate(tally.fused_false_alarms, tally.trials_h0)
    q_m = _rate(tally.fused_misses, tally.trials_h1)
    if scenario.truth == TruthMode.MIXED:
        q_e = _rate(tally.fused_errors, scenario.trials)
    else:
        # single-truth runs cannot observe the prior-weighted error directly
        q_e = RateEstimate(math.nan, 0.0, 1.0, tally.fused_errors, 0)

    return ScenarioEstimate(
        p_d=p_d,
        p_f=p_f,
        q_f=q_f,
        q_m=q_m,
        q_e=q_e,
        steps_mean=tally.steps_total / (scenario.trials * num_sus),
        trials=scenario.trials,
        seed=scenario.seed,
    )
