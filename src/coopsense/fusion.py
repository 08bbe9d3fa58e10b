"""Fusion-center logic: cooperative error rates of n-out-of-K voting.

Per-receiver decisions are assumed i.i.d., so the fused rates are binomial
tails, and reporting-channel flips fold into the per-receiver rates
(``effective_rate``). ``cooperative_rates`` is the one closed form of the
vote and ``CooperativeRates`` the one record of its result; the rule is
checked by ``FusionConfig`` alone. Each binomial term is formed in log
space, and each rate sums the terms of its own side of the split (q_f the
vote counts l >= n, q_m those below n) and never subtracts from 1, so
neither loses its digits to cancellation. ``optimize_vote_count`` scans
every threshold in one pass over the same terms and returns the closed
form's own total error at the threshold it picks. The simulated vote count
and report flips live in the Monte Carlo engine only.
"""

import functools
import math
import operator
from dataclasses import dataclass

__all__ = [
    "FusionConfig",
    "CooperativeRates",
    "cooperative_rates",
    "probability",
    "integer",
    "optimize_vote_count",
    "effective_rate",
]


def probability(value: float, name: str = "probability") -> float:
    """Validate a probability: finite and inside [0, 1]."""
    value = float(value)
    if not math.isfinite(value) or value < 0.0 or value > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def integer(value, name: str) -> int:
    """Validate a count: an int or a numpy integer, not a bool or a float
    such as ``3.0``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class FusionConfig:
    """Vote rule parameters: K receivers, n votes needed, prior, link errors."""

    num_sus: int
    vote_threshold: int
    prior_h0: float = 0.5
    report_error: float = 0.0

    def __post_init__(self):
        if integer(self.num_sus, "num_sus") < 1:
            raise ValueError(f"num_sus must be >= 1, got {self.num_sus!r}")
        if not 1 <= integer(self.vote_threshold, "vote_threshold") <= self.num_sus:
            raise ValueError(
                f"vote_threshold must lie in [1, {self.num_sus}], "
                f"got {self.vote_threshold!r}"
            )
        probability(self.prior_h0, "prior_h0")
        if not 0.0 <= self.report_error <= 0.5:
            raise ValueError(
                f"report_error must lie in [0, 0.5], got {self.report_error!r}"
            )


@dataclass(frozen=True)
class CooperativeRates:
    """Per-receiver rates as given (before flips) and the fused rates;
    q_e is the prior-weighted sum by construction."""

    p_f: float
    p_d: float
    q_f: float
    q_m: float
    q_e: float


def cooperative_rates(
    config: FusionConfig, p_f: float, p_d: float
) -> CooperativeRates:
    """Fused rates for i.i.d. per-receiver rates under the config's rule.

    Reporting-channel flips are folded into the per-receiver rates before
    the binomial tails, since the fusion center only sees the flipped bits.
    """
    p_f = probability(p_f, "p_f")
    p_d = probability(p_d, "p_d")
    num_sus, n, flip = config.num_sus, config.vote_threshold, config.report_error
    # plain left-to-right adds, in increasing l (sum() compensates from 3.12 on)
    q_f = functools.reduce(operator.add, _binomial_terms(
        num_sus, range(n, num_sus + 1), effective_rate(p_f, flip)), 0.0)
    q_m = functools.reduce(operator.add, _binomial_terms(
        num_sus, range(n), effective_rate(p_d, flip)), 0.0)
    q_f, q_m = min(q_f, 1.0), min(q_m, 1.0)
    prior_h0 = float(config.prior_h0)
    return CooperativeRates(
        p_f=p_f, p_d=p_d, q_f=q_f, q_m=q_m,
        q_e=prior_h0 * q_f + (1.0 - prior_h0) * q_m,
    )


def _binomial_terms(num_sus: int, support: range, p: float) -> list[float]:
    """C(K, l) p^l (1-p)^(K-l) for each l in ``support``, via log terms."""
    if p == 0.0:
        return [1.0 if l == 0 else 0.0 for l in support]
    if p == 1.0:
        return [1.0 if l == num_sus else 0.0 for l in support]
    log_p = math.log(p)
    log_q = math.log1p(-p)
    log_k_factorial = math.lgamma(num_sus + 1)
    return [
        math.exp(
            log_k_factorial
            - math.lgamma(l + 1)
            - math.lgamma(num_sus - l + 1)
            + l * log_p
            + (num_sus - l) * log_q
        )
        for l in support
    ]


def optimize_vote_count(
    num_sus: int, p_f: float, p_d: float, prior_h0: float
) -> tuple[int, float]:
    """Exhaustive argmin of the total error over vote thresholds 1..K.

    The K + 1 binomial terms of each rate are computed once, and the scan
    takes Q_f(n) as the suffix sum from l = K down to n and Q_m(n) as the
    prefix sum over l < n. Ties break toward the smaller threshold (the
    OR-leaning rule). The Q_e returned is :func:`cooperative_rates`' own at
    the chosen n, bit for bit: its Q_f is summed again in increasing l.
    """
    prior_h0 = float(FusionConfig(num_sus, 1, prior_h0).prior_h0)
    p_f = probability(p_f, "p_f")
    p_d = probability(p_d, "p_d")
    outcomes = range(num_sus + 1)
    false_alarm_terms = _binomial_terms(num_sus, outcomes, p_f)
    detect_terms = _binomial_terms(num_sus, outcomes, p_d)
    q_f = [0.0] * (num_sus + 2)
    for l in reversed(outcomes):
        q_f[l] = q_f[l + 1] + false_alarm_terms[l]
    best_n, best_qe, best_qm = 1, math.inf, 0.0
    q_m = 0.0
    for n in range(1, num_sus + 1):
        q_m += detect_terms[n - 1]
        qe = prior_h0 * min(q_f[n], 1.0) + (1.0 - prior_h0) * min(q_m, 1.0)
        if qe < best_qe:
            best_n, best_qe, best_qm = n, qe, q_m
    best_qf = min(functools.reduce(operator.add, false_alarm_terms[best_n:], 0.0), 1.0)
    return best_n, prior_h0 * best_qf + (1.0 - prior_h0) * min(best_qm, 1.0)


def effective_rate(p: float, flip_probability: float) -> float:
    """Per-receiver H1-report rate seen at the fusion center after flips."""
    p = probability(p, "p")
    flip_probability = float(flip_probability)
    if not 0.0 <= flip_probability <= 0.5:
        raise ValueError(
            f"flip_probability must lie in [0, 0.5], got {flip_probability!r}"
        )
    return p * (1.0 - flip_probability) + (1.0 - p) * flip_probability
