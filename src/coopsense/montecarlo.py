"""Monte Carlo trial engine for cooperative sensing scenarios.

Reproducibility contract: every trial owns a counter-derived random stream
keyed by (scenario seed, trial index), so a trial's outcome never depends
on execution order, chunking, or worker count. Within a trial the draw
order is fixed: truth coin (mixed mode only), per-receiver noise variances,
per-receiver window energies, reporting-channel flips (only when the flip
probability is positive).

Window energies are drawn from their exact sampling laws instead of being
accumulated sample by sample: for k complex Gaussian samples the energy is
a Gamma(k) variate scaled by the in-effect power (Gaussian signaling adds
the received signal power to that scale), and under constant-envelope
signaling it is a scaled noncentral chi-square with 2k degrees of freedom.
These identities are exercised against direct waveform simulation in the
test suite. Receivers are simulated i.i.d.: signal draws are per-receiver,
matching the independence assumed by the binomial fusion model.

The trial loop holds no scheme logic: each scenario's normalizer and
two-step bracket are computed once, and every trial hands its receivers'
energies to ``threshold_schemes.decide_scheme``.

A scenario declares which analytic family its closed-form columns use:

* ``chi_square`` - the configured threshold lives on the accumulated
  energy scale (2 * sum|y|^2 / power), signaling is constant-envelope, and
  the scenario SNR is the linear ratio accumulated over the whole window.
* ``exponential`` - the threshold lives on the normalized scale
  (energy / (k * power)), signaling is Gaussian, and the scenario SNR is
  per sample.
"""

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .detector import DetectorConfig, Hypothesis, analytic_pd, analytic_pf
from .fusion import FusionConfig, cooperative_rates
from .noise_model import NoiseUncertaintyModel, VarianceBracket
from .specfun import reg_upper_gamma
from .threshold_schemes import (
    SchemeConfig,
    SchemeKind,
    decide_scheme,
    scheme_normalizer,
)

__all__ = [
    "TruthMode",
    "AnalyticFamily",
    "Scenario",
    "TrialResult",
    "RateEstimate",
    "AnalyticRates",
    "ScenarioEstimate",
    "wilson_interval",
    "run_trial",
    "estimate",
]


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
    scheme: SchemeConfig
    fusion: FusionConfig
    snr_db: float
    trials: int
    seed: int
    truth: TruthMode = TruthMode.MIXED
    family: AnalyticFamily = AnalyticFamily.EXPONENTIAL

    def __post_init__(self):
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
class TrialResult:
    truth: Hypothesis
    su_decisions: tuple[int, ...]
    reported: tuple[int, ...]
    fused: Hypothesis
    steps: int


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
    analytic: AnalyticRates
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
    """Scenario constants hoisted out of the trial loop."""

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
            noise.bracket if scenario.scheme.kind == SchemeKind.TWO_STEP else None
        ),
        signal_power=per_sample,
        signal_energy=window,
    )


def _trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Counter-mode stream for one trial: key is the seed, the trial index
    selects a disjoint counter block."""
    bits = np.random.Philox(key=seed, counter=[0, 0, 0, trial_index])
    return np.random.Generator(bits)


class _TrialStreams:
    """Reusable per-trial streams: one Philox instance whose counter block
    is reset for every trial index, yielding streams bit-identical to fresh
    construction at a fraction of the cost."""

    def __init__(self, seed: int):
        self._bits = np.random.Philox(key=seed, counter=[0, 0, 0, 0])
        self.generator = np.random.Generator(self._bits)
        self._state = self._bits.state

    def for_trial(self, trial_index: int) -> np.random.Generator:
        state = self._state
        counter = state["state"]["counter"]
        counter[:] = 0
        counter[3] = trial_index
        state["buffer_pos"] = 4  # discard any buffered words
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._bits.state = state
        return self.generator


def _simulate_trial(rt: _Runtime, rng: np.random.Generator):
    """One trial; returns (truth, decisions, reported, fused, steps)."""
    if rt.truth == TruthMode.MIXED:
        truth = Hypothesis.H0 if rng.random() < rt.prior_h0 else Hypothesis.H1
    else:
        truth = Hypothesis.H0 if rt.truth == TruthMode.H0 else Hypothesis.H1

    variances = rng.uniform(rt.bracket.low, rt.bracket.high, size=rt.num_sus)

    if truth == Hypothesis.H0:
        energies = variances * rng.standard_gamma(rt.k, size=rt.num_sus)
    elif rt.family == AnalyticFamily.CHI_SQUARE:
        noncentrality = 2.0 * rt.signal_energy / variances
        energies = 0.5 * variances * rng.noncentral_chisquare(
            2.0 * rt.k, noncentrality, size=rt.num_sus
        )
    else:
        energies = (variances + rt.signal_power) * rng.standard_gamma(
            rt.k, size=rt.num_sus
        )

    decisions, steps = decide_scheme(
        energies, rt.k, rt.threshold_norm, rt.normalizer, rt.step_bracket
    )

    if rt.report_error > 0.0:
        reported = decisions ^ (rng.random(rt.num_sus) < rt.report_error)
    else:
        reported = decisions

    fused = (
        Hypothesis.H1
        if int(np.count_nonzero(reported)) >= rt.vote_threshold
        else Hypothesis.H0
    )
    return truth, decisions, reported, fused, int(steps.sum())


def run_trial(scenario: Scenario, trial_index: int) -> TrialResult:
    """Simulate one trial; a pure function of (scenario.seed, trial_index)."""
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index!r}")
    rt = _runtime(scenario)
    truth, decisions, reported, fused, steps = _simulate_trial(
        rt, _trial_rng(scenario.seed, trial_index)
    )
    return TrialResult(
        truth=truth,
        su_decisions=tuple(int(d) for d in decisions),
        reported=tuple(int(r) for r in reported),
        fused=fused,
        steps=steps,
    )


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


def _run_range(scenario: Scenario, start: int, stop: int) -> _Tally:
    rt = _runtime(scenario)
    streams = _TrialStreams(scenario.seed)
    tally = _Tally()
    for index in range(start, stop):
        truth, decisions, _, fused, steps = _simulate_trial(
            rt, streams.for_trial(index)
        )
        positives = int(np.count_nonzero(decisions))
        tally.steps_total += steps
        if truth == Hypothesis.H0:
            tally.trials_h0 += 1
            tally.su_false_alarms += positives
            if fused == Hypothesis.H1:
                tally.fused_false_alarms += 1
                tally.fused_errors += 1
        else:
            tally.trials_h1 += 1
            tally.su_detections += positives
            if fused == Hypothesis.H0:
                tally.fused_misses += 1
                tally.fused_errors += 1
    return tally


def _range_worker(args) -> _Tally:
    return _run_range(*args)


def _analytic_rates(scenario: Scenario) -> AnalyticRates:
    """Family-matched closed forms at the configured operating point
    (nominal normalization, no uncertainty)."""
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


def _split_ranges(trials: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, trials))
    step = trials // parts
    extra = trials % parts
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
    """Aggregate all trials of a scenario into rate estimates.

    ``workers`` > 1 splits the trial range across processes; because each
    trial derives its own stream, the tallies (and therefore every estimate)
    are bit-identical for any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if executor is not None or workers > 1:
        ranges = _split_ranges(scenario.trials, workers)
        args = [(scenario, start, stop) for start, stop in ranges]
        if executor is not None:
            tallies = list(executor.map(_range_worker, args))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                tallies = list(pool.map(_range_worker, args))
        tally = _Tally()
        for part in tallies:
            tally = tally.merge(part)
    else:
        tally = _run_range(scenario, 0, scenario.trials)

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
        analytic=_analytic_rates(scenario),
        steps_mean=tally.steps_total / (scenario.trials * num_sus),
        trials=scenario.trials,
        seed=scenario.seed,
    )
