"""Exact reference rates for coopsense cells, computed with scipy only.

The simulated model is exact. Receivers are i.i.d.; each draws its noise
variance v uniformly from the bracket [low, high] and its window energy
E = sum |y|^2 from its exact law:

* H0: E = v * Gamma(k).
* H1, ``exponential`` family (Gaussian signalling): E = (v + s) * Gamma(k),
  with s the received per-sample signal power.
* H1, ``chi_square`` family (constant-envelope signalling):
  2 E / v is noncentral chi-square with 2k degrees of freedom and
  noncentrality 2 S / v, with S the received whole-window signal energy.

A receiver decides H1 when E >= x. So its rates are 1-D integrals over the
bracket, taken here with 64-node Gauss-Legendre quadrature on scipy's
``gamma.sf`` and ``ncx2.sf``, and the fused rates are binomial tails of the
per-receiver rates after reporting flips. Nothing here imports coopsense:
the gate shares no code with what it checks. The spec fields are read from
the JSON document directly, following the README's definitions.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

NODES = 64
VARIANCE_FLOOR = 1e-12

# Probability that a correct program fails the gate anywhere in one run.
FAMILYWISE_ALPHA = 1e-6

SCHEMES = ("fixed", "two_step", "expectation", "convex")
RATES = ("p_f", "p_d", "q_f", "q_m", "q_e")


@dataclass(frozen=True)
class Cell:
    """One (sweep value, scheme) cell reduced to the quantities its rates
    depend on."""

    family: str
    k: int
    x: float  # decision threshold on the window energy: H1 when E >= x
    low: float
    high: float
    signal: float  # s (exponential) or S (chi_square), see module docstring
    num_sus: int
    vote_threshold: int
    prior_h0: float
    report_error: float


def bracket(noise: dict) -> tuple[float, float]:
    """Variance bracket of a spec's noise block."""
    if "bracket" in noise:
        low, high = noise["bracket"]
        return float(low), float(high)
    kappa = stats.norm.isf(0.5 - 0.5 * noise.get("confidence", 0.99))
    half = kappa * noise["calibration_sd"] / math.sqrt(noise["calibration_count"])
    mean = noise["calibration_mean"]
    return max(mean - half, VARIANCE_FLOOR), max(mean + half, VARIANCE_FLOOR)


def spec_cells(doc: dict) -> list[tuple[object, str, Cell]]:
    """(sweep value, scheme, cell) for every cell of a spec, in the order
    ``coopsense run`` writes its rows."""
    scenario = doc["scenario"]
    det = scenario["detector"]
    noise = scenario["noise"]
    fusion = scenario["fusion"]
    axis = doc["sweep"]["axis"]
    if "signal_variance" in det:
        raise ValueError("detector.signal_variance is not modelled here")
    if "vote_threshold_complement" in fusion and axis == "num_sus":
        raise ValueError("complement vote convention with a num_sus sweep")
    family = scenario.get("family", "exponential")
    k = det["sample_count"]
    nominal = noise["nominal_variance"]
    low, high = bracket(noise)
    base_sus = fusion["num_sus"]
    votes = fusion.get("vote_threshold")
    if votes is None:
        votes = base_sus - fusion["vote_threshold_complement"]

    cells = []
    for value in doc["sweep"]["values"]:
        snr_db = value if axis == "snr_db" else scenario["snr_db"]
        num_sus = value if axis == "num_sus" else base_sus
        threshold = value if axis == "threshold" else det["threshold"]
        # the threshold is on the accumulated scale 2E/v for chi_square
        # and on the normalized scale E/(k v) for exponential
        per_power = threshold / 2.0 if family == "chi_square" else threshold * k
        for scheme in doc["schemes"]:
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}")
            # two_step and convex reduce to expectation: see the README
            normalizer = nominal if scheme == "fixed" else 0.5 * (low + high)
            cells.append((value, scheme, Cell(
                family=family,
                k=k,
                x=per_power * normalizer,
                low=low,
                high=high,
                signal=10.0 ** (snr_db / 10.0) * nominal,
                num_sus=num_sus,
                vote_threshold=votes,
                prior_h0=fusion.get("prior_h0", 0.5),
                report_error=fusion.get("report_error", 0.0),
            )))
    return cells


def variance_nodes(low: float, high: float, nodes: int = NODES):
    """Quadrature nodes and weights of the uniform law on [low, high]."""
    if low == high:
        return np.array([low]), np.array([1.0])
    t, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (low + high) + 0.5 * (high - low) * t, 0.5 * w


def receiver_rates(cell: Cell) -> tuple[float, float]:
    """Uncertainty-averaged per-receiver (p_f, p_d)."""
    v, w = variance_nodes(cell.low, cell.high)
    p_f = stats.gamma.sf(cell.x / v, cell.k)
    if cell.family == "chi_square":
        p_d = stats.ncx2.sf(2.0 * cell.x / v, 2 * cell.k, 2.0 * cell.signal / v)
    else:
        p_d = stats.gamma.sf(cell.x / (v + cell.signal), cell.k)
    # the weights sum to 1 only up to rounding
    return min(float(np.dot(w, p_f)), 1.0), min(float(np.dot(w, p_d)), 1.0)


def flipped(p: float, report_error: float) -> float:
    """Rate of H1 reports after each bit flips with ``report_error``."""
    return p * (1.0 - report_error) + (1.0 - p) * report_error


def fused_rates(num_sus, vote_threshold, prior_h0, p_f, p_d):
    """(q_f, q_m, q_e) of the n-out-of-K rule for i.i.d. report rates."""
    q_f = float(stats.binom.sf(vote_threshold - 1, num_sus, p_f))
    q_m = float(stats.binom.cdf(vote_threshold - 1, num_sus, p_d))
    return q_f, q_m, prior_h0 * q_f + (1.0 - prior_h0) * q_m


def exact_rates(cell: Cell) -> dict[str, float]:
    """Exact p_f, p_d, q_f, q_m and q_e of a cell."""
    p_f, p_d = receiver_rates(cell)
    q_f, q_m, q_e = fused_rates(
        cell.num_sus,
        cell.vote_threshold,
        cell.prior_h0,
        flipped(p_f, cell.report_error),
        flipped(p_d, cell.report_error),
    )
    return {"p_f": p_f, "p_d": p_d, "q_f": q_f, "q_m": q_m, "q_e": q_e}


def optimal_votes(cell: Cell, p_f: float, p_d: float) -> list[float]:
    """Total error for every vote threshold 1..K, index n - 1."""
    return [
        fused_rates(cell.num_sus, n, cell.prior_h0, p_f, p_d)[2]
        for n in range(1, cell.num_sus + 1)
    ]


def binomial_z(successes: int, observations: int, p: float) -> float:
    """Signed normal-equivalent of the exact two-sided binomial test.

    The two-sided p-value is twice the smaller exact tail, so the score
    stays valid for the tiny expected counts that a normal approximation
    gets wrong. An impossible count (p = 0 with successes > 0) gives inf.
    """
    if observations == 0:
        return 0.0
    lower = stats.binom.cdf(successes, observations, p)
    upper = stats.binom.sf(successes - 1, observations, p)
    two_sided = min(1.0, 2.0 * min(lower, upper))
    return math.copysign(float(stats.norm.isf(0.5 * two_sided)),
                         successes - observations * p)


def z_bound(tests: int, alpha: float = FAMILYWISE_ALPHA) -> float:
    """Bonferroni |z| bound holding the family-wise false-failure rate."""
    return float(stats.norm.isf(0.5 * alpha / max(tests, 1)))
