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

The engine's unit of work is a sweep value, not a cell: a ``Scenario`` is
what the kernel draws and what pool tasks carry, and holds no scheme;
``estimate`` takes the scheme beside it. Every scheme (``SchemeKind``
states the paper's rules) tests the same window energy against the same
threshold and differs only in the noise power it divides by: the nominal
power for ``fixed`` and the bracket mean for every other scheme. So a
sweep value is drawn once, each block is decided once per distinct
normalizer by ``decide_scheme``, the one threshold comparison. It divides
no energy: each energy is compared with one cutoff per normalizer, the
least energy whose quotient by sample count times normalizer clears the
threshold, which gives the quotient's decisions bit for bit. Each
normalizer's tally is made of whole-array totals, over all trials and over
the H1 trials, of its decisions and of the trials whose one vote count
(reported decisions summed per trial) reaches the threshold. The
bracket-mean tally also counts two-step's second steps: the receivers
whose interval straddles the threshold, decided H1 at the
bracket's low end and not at its high end. ``_scheme_tally``, the one
place that maps a scheme to its normalizer, picks the tally ``estimate``
reads. A ``SweepDraws`` is the sweep: it carries each value's tallies
from the first scheme's ``estimate`` call to the others, running the
value's blocks in this process in that first call, or waiting there for
its pieces of the caller's pool tasks. It is the only code that queues
pool work: made with an executor, it cuts the sweep's blocks, in value
order, into shares of equal energy draws (trials x receivers). The engine
never makes a pool of its own, and a ``SweepDraws`` keeps nothing past
its lifetime.

``estimate`` returns Monte Carlo rates only, each a ``RateEstimate``: the
rate and the two counts it is formed from, with no interval; the CSV
writer forms the two it prints, the per-receiver bounds, from the counts.
``nominal_rates`` holds the closed forms at the nominal operating point;
they depend on neither the scheme nor the draws, so a sweep evaluates them
once per sweep value. A
scenario's ``family`` (``detector.AnalyticFamily``; the ``detector``
docstring states both families) picks the law the kernel draws energies
from and the closed form, ``detector.receiver_rates``, that
``nominal_rates`` fuses.

Only the block kernel and ``decide_scheme`` use numpy, and each imports it
where it is called, so numpy loads at the first draw: importing any
module, validating a spec and the closed forms load no numpy. A pooled
run imports ``numpy.random``, a lazy submodule, before its pool forks, so
forked workers inherit it.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .detector import AnalyticFamily, DetectorConfig, receiver_rates
from .fusion import CooperativeRates, FusionConfig, cooperative_rates, integer
from .noise_model import NoiseUncertaintyModel, two_sided_kappa

if TYPE_CHECKING:
    from concurrent.futures import Executor

    import numpy as np

__all__ = [
    "SchemeKind",
    "decide_scheme",
    "BLOCK_TRIALS",
    "STREAM_VERSION",
    "Scenario",
    "RateEstimate",
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

# Energy draws (30-60 ms of work on the bundled figures) in a share of a pooled
# sweep, which has at least four shares per worker, so the pool's queue evens
# out and can be cancelled.
_SHARE_DRAWS = 2**19

_MAX_SNR_DB = 1000.0  # a linear SNR of 1e100, proved safe in Scenario


class SchemeKind(str, enum.Enum):
    """The paper's threshold schemes. Each tests one normalized statistic,
    the window energy divided by sample count times a noise-power
    normalizer, against the threshold (``decide_scheme``, the one
    comparison); they differ only in that normalizer and in whether a
    second interval step is counted (``_scheme_tally``).

    fixed
        Normalize by the nominal noise power and threshold once.
        Miscalibrated whenever the true power drifts away from nominal.

    two_step
        Evaluate the statistic at both bracket endpoints, giving the
        interval of values it could take for any admissible noise power.
        If the whole interval clears (or misses) the threshold the decision
        is made in one step; if the threshold falls inside the interval, a
        second and final step re-decides with the expectation-normalized
        statistic.

    expectation
        Normalize by the expected noise power (the bracket mean) instead
        of a per-draw or nominal value.

    convex
        Normalize by the smallest cyclically-aligned weighted average of
        the per-component expected noise powers. Weight alignments wrap
        around so every alignment spans all components, and every weighted
        average of equal values is that value. In this model every
        component expects the bracket mean, so the scheme is
        ``expectation`` exactly and carries no weights or exponent: a
        scheme is its ``SchemeKind``.
    """

    FIXED = "fixed"
    TWO_STEP = "two_step"
    EXPECTATION = "expectation"
    CONVEX = "convex"


@dataclass(frozen=True)
class Scenario:
    """One sweep value, all that the engine draws; it holds no scheme."""

    detector: DetectorConfig
    noise: NoiseUncertaintyModel
    fusion: FusionConfig
    snr_db: float
    trials: int
    seed: int
    family: AnalyticFamily = AnalyticFamily.EXPONENTIAL

    def __post_init__(self):
        object.__setattr__(self, "family", AnalyticFamily(self.family))
        # Each field has one range, checked by its model: 1 <= k <= 2**53 < 1e16,
        # 0 <= t <= 1e100, every variance v and normalizer c in [1e-100, 1e100]
        # and snr_db <= 1000 (here), a linear SNR <= 1e100. So every number the
        # kernel and the closed forms form is finite, and every divisor k * c,
        # in [1e-100, 1e116], is normal. The signal s = snr * nominal is <= 1e200.
        # - exponential: the energy (v + s) * G, G ~ Gamma(k), is <= ~1e216; its
        #   quotient E / (k * c) is <= (1e100 + 1e200) / 1e-100 * G / k <~ 1e302;
        # - chi-square: the noncentrality 2 * s / v is <= 2e300, the energy
        #   0.5 * v * X ~ v * k + s (X the chi-square draw) is <= ~1e200, its
        #   quotient is <= ~1e300, and 0.5 * v >= 5e-101 is normal (no inf * 0);
        # - the closed forms take k * t <= 1e116, sqrt(2 * snr) <= 1.5e50, sqrt(t) <= 1e50.
        if not -math.inf < self.snr_db <= _MAX_SNR_DB:
            raise ValueError(
                f"snr_db must be finite and at most 1000 dB, got {self.snr_db!r}")
        if integer(self.trials, "trials") < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if not 0 <= integer(self.seed, "seed") < 2**64:
            raise ValueError(f"seed must be a 64-bit integer, got {self.seed!r}")

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)


@dataclass(frozen=True)
class RateEstimate:
    """Empirical rate and the counts it is formed from (NaN when there are no
    observations); ``wilson_interval`` of the counts gives its interval."""

    value: float
    successes: int
    observations: int


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


_WILSON_Z = two_sided_kappa(0.95)


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
    value = successes / observations if observations > 0 else math.nan
    return RateEstimate(value, successes, observations)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """Counter-mode stream of one block: the key is the seed, and the two
    top counter words hold the contract version and the block index."""
    import numpy as np

    if block < 0:
        raise ValueError(f"block must be >= 0, got {block!r}")
    bits = np.random.Philox(key=seed, counter=[0, 0, STREAM_VERSION, block])
    return np.random.Generator(bits)


class _Tally(NamedTuple):
    """Counts of some trials; H0 trials and fused errors are derived."""

    trials_h1: int = 0
    su_false_alarms: int = 0
    su_detections: int = 0
    fused_false_alarms: int = 0
    fused_misses: int = 0
    second_steps: int = 0  # receivers whose two-step interval straddles


def _merge(a: tuple[_Tally, _Tally], b: tuple[_Tally, _Tally]) -> tuple[_Tally, _Tally]:
    return tuple(_Tally(*map(operator.add, x, y)) for x, y in zip(a, b))


def decide_scheme(energies, sample_count: int, threshold: float, normalizer: float):
    """Decisions for window energies of any shape: a receiver decides H1
    (``True``) when ``energy / (sample_count * normalizer) >= threshold``.
    Returns boolean decisions shaped like ``energies``. The quotient is never
    formed: the rule is energy >= the least energy whose quotient clears the
    threshold (``_energy_cutoff``), which decides every energy, -0.0, inf and
    NaN included, as the quotient does. This comparison is every scheme's one
    decision rule; the schemes differ only in the normalizer, and two-step's
    second steps are the receivers decided H1 at the bracket's low end and
    not at its high end (``_simulate_block``).
    """
    import numpy as np

    if integer(sample_count, "sample_count") < 1:
        raise ValueError(f"sample_count must be an integer >= 1, got {sample_count!r}")
    if not math.isfinite(normalizer) or normalizer <= 0.0:
        raise ValueError(f"normalizer must be finite and > 0, got {normalizer!r}")
    if math.isnan(threshold):
        raise ValueError(f"threshold must not be NaN, got {threshold!r}")
    divisor = sample_count * normalizer
    if divisor == math.inf:
        raise ValueError(f"sample_count * normalizer must be finite, got "
                         f"{sample_count!r} * {normalizer!r}")
    return np.asarray(energies, dtype=float) >= _energy_cutoff(divisor, float(threshold))


_INF_KEY = 0x7FF0000000000000  # +inf's bit pattern, the largest ordered key


def _energy_cutoff(divisor: float, threshold: float) -> float:
    """The least double ``e``, in value order, with ``e / divisor >= threshold``,
    for a finite ``divisor > 0`` and a threshold that is not NaN. Pure
    Python, so it needs no numpy."""
    # IEEE division rounds correctly and e -> e / divisor increases for a
    # divisor > 0, so the rounded quotient never decreases as e grows: the
    # doubles whose quotient clears the threshold are all those from one
    # least double on. So ``energy >= cutoff`` is the quotient's decision for
    # every energy: -0.0 and 0.0 are equal in both forms, inf clears (its
    # quotient is inf) and NaN clears neither. A normal product lies within
    # an ulp or two of that double; a few steps settle it.
    energy = threshold * divisor
    for _ in range(4):
        if energy / divisor >= threshold:
            below = math.nextafter(energy, -math.inf)
            if not below / divisor >= threshold:
                return energy
            energy = below
        else:
            energy = math.nextafter(energy, math.inf)
    # the steps did not settle (t = 0 or subnormal, a quotient that
    # underflows or overflows): bisect over the ordered bit patterns, keys
    # from -inf's to +inf's; +inf always clears, and ``low`` starts one key
    # below -inf, as if it failed
    low, high = -_INF_KEY - 1, _INF_KEY
    while high - low > 1:
        middle = (low + high) // 2
        if _ordered_double(middle) / divisor >= threshold:
            high = middle
        else:
            low = middle
    return _ordered_double(high)


def _ordered_double(key: int) -> float:
    """The double whose magnitude's bit pattern is ``|key|``, with the sign
    of ``key``: keys in value order, 0 for both zeros."""
    return math.copysign(struct.unpack("<d", struct.pack("<Q", abs(key)))[0], key)


def _simulate_block(
    scenario: Scenario, rng: np.random.Generator, n: int
) -> tuple[_Tally, _Tally]:
    """Tallies of ``n`` trials of the scenario's sweep value drawn from
    ``rng`` in the documented order: decided on the nominal power, then on
    the bracket mean, with two-step's second steps counted from decisions
    at the bracket ends. Every count is a Python ``int``: a total of the
    decisions, or of the trials whose reported votes reach the threshold."""
    import numpy as np

    fusion = scenario.fusion
    noise = scenario.noise
    bracket = noise.bracket
    k = scenario.detector.sample_count
    threshold = scenario.detector.threshold
    # received signal: per-sample power (exponential family), whole-window
    # energy (chi-square family)
    signal = scenario.snr_linear * noise.nominal_variance
    shape = (n, fusion.num_sus)
    h1 = rng.random(n) >= fusion.prior_h0
    variances = rng.uniform(bracket.low, bracket.high, size=shape)
    if scenario.family == AnalyticFamily.CHI_SQUARE:
        # the configured threshold lives on the accumulated energy scale
        threshold = threshold / (2.0 * k)
        # noncentrality 0 is the central law: 0.5 * v * chi2(2k) = v * Gamma(k)
        noncentrality = np.where(h1, 2.0 * signal, 0.0)[:, None] / variances
        # in place, the same products in the same order: (0.5 * v) * X
        energies = variances
        energies *= 0.5
        energies *= rng.noncentral_chisquare(2.0 * k, noncentrality)
    else:
        energies = variances  # in place: (v + s) * G
        energies += np.where(h1, signal, 0.0)[:, None]
        energies *= rng.standard_gamma(k, size=shape)

    nominal = decide_scheme(energies, k, threshold, noise.nominal_variance)
    mean = decide_scheme(energies, k, threshold, bracket.mean)
    # two-step's second steps: E / (k * high) <= E / (k * low) for E >= 0
    # (IEEE multiply and divide are monotone), so every energy at or above
    # the high end's cutoff is at or above the low end's, and the
    # difference of the two counts is the straddles
    h1_low, h1_high = (np.count_nonzero(decide_scheme(energies, k, threshold, end))
                       for end in (bracket.low, bracket.high))
    reported = (nominal, mean)
    if fusion.report_error > 0.0:  # both normalizers see the same report flips
        flips = rng.random(shape) < fusion.report_error
        reported = (nominal ^ flips, mean ^ flips)
    ones = np.ones(fusion.num_sus, dtype=np.intp)
    trials_h1 = int(np.count_nonzero(h1))

    def tally(decisions, reported, second_steps: int) -> _Tally:
        # each trial's votes by integer matmul; totals over all and H1 trials
        fused = reported @ ones >= fusion.vote_threshold
        positives, detections, fused_h1, fused_hits = (
            int(np.count_nonzero(a))
            for a in (decisions, decisions & h1[:, None], fused, fused & h1))
        return _Tally(trials_h1, positives - detections, detections,
                      fused_h1 - fused_hits, trials_h1 - fused_hits, second_steps)

    return tuple(map(tally, (nominal, mean), reported, (0, int(h1_low - h1_high))))


def _run_blocks(scenario: Scenario, first: int, stop: int) -> tuple[_Tally, _Tally]:
    """Tallies of blocks ``first`` up to ``stop`` of the scenario."""

    def run(b: int) -> tuple[_Tally, _Tally]:
        n = min(BLOCK_TRIALS, scenario.trials - b * BLOCK_TRIALS)
        return _simulate_block(scenario, _block_rng(scenario.seed, b), n)

    return functools.reduce(_merge, map(run, range(first, stop)), (_Tally(), _Tally()))


def _scheme_tally(scheme: SchemeKind, nominal: _Tally, mean: _Tally) -> _Tally:
    """The tally a scheme's cell reads: ``fixed`` decides on the nominal
    power, every other scheme (``convex`` too) on the bracket mean, and
    only ``two_step`` takes second steps."""
    if scheme == SchemeKind.FIXED:
        return nominal
    if scheme == SchemeKind.TWO_STEP:
        return mean
    return mean._replace(second_steps=0)


def nominal_rates(scenario: Scenario) -> CooperativeRates:
    """Family-matched closed forms at the configured operating point
    (nominal normalization, no uncertainty), fused by ``cooperative_rates``.
    They do not depend on the scheme, the trial count or the seed."""
    detector = scenario.detector
    return cooperative_rates(scenario.fusion, *receiver_rates(
        scenario.family, detector.sample_count, detector.threshold, scenario.snr_linear))


class SweepDraws:
    """The tallies of a sweep's values (its scenarios), each shared by the
    ``estimate`` calls of every scheme at that value. With the caller's
    ``executor``, the blocks, in value order, are queued at once as
    contiguous shares that hold equal energy draws (trials x receivers) to
    within a block, ~2^19 draws each and at least four per worker; a value
    may have pieces in several shares. Else a value's blocks run here in
    its first ``tallies`` call."""

    def __init__(self, scenarios: list[Scenario], workers: int = 1,
                 executor: Executor | None = None):
        if integer(workers, "workers") < 1 or (workers > 1 and executor is None):
            raise ValueError(f"workers must be 1, or more with an executor: {workers!r}")
        self._scenarios = tuple(scenarios)
        self._values = {id(s): value for value, s in enumerate(self._scenarios)}
        self._pieces = [[] for _ in self._scenarios]  # (pool task, segment slot)
        self._tallies = [None] * len(self._scenarios)
        if executor is None:
            return
        total = sum(s.trials * s.fusion.num_sus for s in self._scenarios)
        count = max(4 * workers, total // _SHARE_DRAWS)
        shares = [{} for _ in range(count)]
        done = 0  # energy draws of the sweep values before this one
        for value, s in enumerate(self._scenarios):
            for block in range(-(-s.trials // BLOCK_TRIALS)):
                # a block joins the share in whose part of the draws it starts
                start = done + block * BLOCK_TRIALS * s.fusion.num_sus
                shares[start * count // total].setdefault(value, []).append(block)
            done += s.trials * s.fusion.num_sus
        for share in filter(None, shares):
            segments = [(self._scenarios[value], run[0], run[-1] + 1)
                        for value, run in share.items()]
            future = executor.submit(_run_share, segments)
            for slot, value in enumerate(share):
                self._pieces[value].append((future, slot))

    def tallies(self, scenario: Scenario) -> tuple[_Tally, _Tally]:
        """Nominal-power and bracket-mean tallies over every block of the
        scenario's value; runs or waits for its blocks on the first call,
        and raises a failed piece's exception. Raises ``ValueError`` for a
        scenario equal to no value of the sweep."""
        # identity first: a run reads each value with its own scenario
        value = self._values.get(id(scenario))
        if value is None:
            if scenario not in self._scenarios:
                raise ValueError(
                    "these draws belong to another sweep value: the scenario differs"
                )
            value = self._scenarios.index(scenario)
        if self._tallies[value] is None:
            parts = []
            for future, slot in self._pieces[value]:
                parts.append(future.result()[slot])
                if isinstance(parts[-1], Exception):
                    raise parts[-1]
            s = self._scenarios[value]
            parts = parts or [_run_blocks(s, 0, -(-s.trials // BLOCK_TRIALS))]
            self._tallies[value] = functools.reduce(_merge, parts)
        return self._tallies[value]


def _run_share(segments: list[tuple[Scenario, int, int]]) -> list:
    """The outcome of each ``(scenario, first, stop)`` segment of a pool
    task: its tallies, or the exception it raised, noted with the worker's
    traceback, which pickling would drop."""
    results = []
    for segment in segments:
        try:
            results.append(_run_blocks(*segment))
        except Exception as exc:
            import traceback  # only a failure pays its import

            exc.__notes__ = [*getattr(exc, "__notes__", ()), traceback.format_exc()]
            results.append(exc)
    return results


def estimate(scenario: Scenario, scheme: SchemeKind = SchemeKind.FIXED,
             draws: SweepDraws | None = None) -> ScenarioEstimate:
    """Aggregate all trials of a scenario into one scheme's Monte Carlo rates.

    ``scheme`` is a ``SchemeKind`` or its value, else ``ValueError`` before
    any block runs. ``draws`` is the ``SweepDraws`` of the scenario's
    sweep, shared by the cells of every scheme; one of its values must
    equal the scenario, else ``ValueError``. Without it the call runs
    every block in this process and keeps nothing. The scheme
    picks the tally it reads: ``fixed`` the nominal-power decisions, every
    other scheme the bracket-mean ones, and only ``two_step`` counts second
    steps. Because each block derives its own stream, every estimate is
    bit-identical for any worker count, shared draws or not.
    """
    if type(scheme) is not SchemeKind:  # a member passes with no Enum call
        scheme = SchemeKind(scheme)
    if draws is None:
        draws = SweepDraws([scenario])
    tally = _scheme_tally(scheme, *draws.tallies(scenario))

    num_sus = scenario.fusion.num_sus
    trials_h0 = scenario.trials - tally.trials_h1
    p_f = _rate(tally.su_false_alarms, trials_h0 * num_sus)
    p_d = _rate(tally.su_detections, tally.trials_h1 * num_sus)
    q_f = _rate(tally.fused_false_alarms, trials_h0)
    q_m = _rate(tally.fused_misses, tally.trials_h1)
    q_e = _rate(tally.fused_false_alarms + tally.fused_misses, scenario.trials)

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
