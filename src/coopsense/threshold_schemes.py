"""Enhanced energy-detection threshold strategies under noise uncertainty.

Every strategy tests one normalized statistic, the window energy divided by
sample count times a noise-power normalizer, against the threshold. The
strategies differ only in that normalizer (``scheme_normalizer``) and in
whether a first interval step is counted (``decide_scheme``):

fixed
    Normalize by the nominal noise power and threshold once. Miscalibrated
    whenever the true power drifts away from nominal.

two_step
    Evaluate the statistic at both bracket endpoints, giving the interval
    of values it could take for any admissible noise power. If the whole
    interval clears (or misses) the threshold the decision is made in one
    step; if the threshold falls inside the interval, a second and final
    step re-decides with the expectation-normalized statistic.

expectation
    Normalize by the expected noise power (the bracket mean) instead of a
    per-draw or nominal value.

convex
    Normalize by the smallest cyclically-aligned weighted average of the
    per-component expected noise powers. Weight alignments wrap around so
    every alignment spans all components; when every component expects the
    same power the normalizer is that power exactly, so with the model's
    constant expectations the scheme is ``expectation`` by construction
    and carries no weights or exponent: a scheme is its ``SchemeKind``.

The two-step interval endpoints and the expectation statistic are ordered
(low <= expectation <= high whenever the bracket contains its own mean, and
IEEE division is monotone), so whichever step settles a receiver, its
decision is the expectation decision. ``decide_scheme`` therefore computes
the expectation decision once and only counts the receivers whose interval
straddles the threshold as taking a second step.
"""

import enum
import math
from typing import Sequence

from .noise_model import NoiseUncertaintyModel, VarianceBracket

__all__ = [
    "SchemeKind",
    "default_weights",
    "convex_normalizer",
    "scheme_normalizer",
    "decide_scheme",
]


class SchemeKind(str, enum.Enum):
    FIXED = "fixed"
    TWO_STEP = "two_step"
    EXPECTATION = "expectation"
    CONVEX = "convex"


def default_weights(length: int, ratio: float = 0.5) -> tuple[float, ...]:
    """Geometric weight ladder (1, ratio, ratio^2, ...); an arbitrary but
    documented default for the convex scheme.

    Floored at 1e-120 so long windows stay strictly positive instead of
    underflowing; weights that small contribute nothing to the averages.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length!r}")
    if ratio <= 0.0:
        raise ValueError(f"ratio must be > 0, got {ratio!r}")
    return tuple(max(ratio**i, 1e-120) for i in range(length))


def convex_normalizer(
    expectations: Sequence[float],
    weights: Sequence[float] | None = None,
    exponent: int = 1,
) -> float:
    """Minimum over cyclic weight alignments of the weighted mean power.

    For alignment ``i`` the weight applied to component ``t`` is
    ``weights[(t - i) % len]`` raised to ``exponent``; each alignment spans
    all components, so with unit weights every alignment yields the plain
    mean and the minimum equals it. Constant expectations are returned
    exactly: every weighted mean of a constant is that constant, while
    evaluating the alignments would round it.
    """
    import numpy as np

    exps = np.asarray(expectations, dtype=float)
    if exps.ndim != 1 or exps.size == 0:
        raise ValueError("expectations must be a nonempty 1-D sequence")
    if np.any(exps <= 0.0) or not np.all(np.isfinite(exps)):
        raise ValueError("expectations must be finite and positive")
    if weights is None:
        weights = default_weights(exps.size)
    w = np.asarray(weights, dtype=float)
    if w.shape != exps.shape:
        raise ValueError(
            f"weights length {w.size} does not match expectations length {exps.size}"
        )
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and positive")
    if int(exponent) != exponent or exponent < 1:
        raise ValueError(f"exponent must be an integer >= 1, got {exponent!r}")
    if np.all(exps == exps[0]):
        return float(exps[0])
    wg = w**exponent
    best = math.inf
    for i in range(exps.size):
        aligned = np.roll(wg, i)
        best = min(best, float(np.dot(aligned, exps) / aligned.sum()))
    return best


def scheme_normalizer(kind: SchemeKind, noise: NoiseUncertaintyModel) -> float:
    """Noise power the scheme divides the window energy by.

    ``fixed`` divides by the nominal power and every other scheme by the
    bracket mean. Every component expects that mean, so the convex
    normalizer (``convex_normalizer`` over constant expectations) is the
    mean exactly, whatever the weights or exponent.
    """
    if SchemeKind(kind) == SchemeKind.FIXED:
        return noise.nominal_variance
    return noise.expected_variance


def decide_scheme(
    energies,
    sample_count: int,
    threshold: float,
    normalizer: float,
    bracket: VarianceBracket | None = None,
):
    """Decisions and step counts for window energies of any shape.

    A receiver decides H1 (``True``) when ``energy / (sample_count *
    normalizer) >= threshold``. With a ``bracket`` (the two-step scheme,
    whose ``normalizer`` must be the bracket mean or another value inside
    it) a receiver takes a second step exactly when its interval
    ``[energy / (sample_count * high), energy / (sample_count * low)]``
    straddles the threshold; its decision is the same either way. Returns
    boolean decisions and integer steps (1 or 2), both shaped like
    ``energies``.
    """
    import numpy as np

    if int(sample_count) != sample_count or sample_count < 1:
        raise ValueError(f"sample_count must be an integer >= 1, got {sample_count!r}")
    if not math.isfinite(normalizer) or normalizer <= 0.0:
        raise ValueError(f"normalizer must be finite and > 0, got {normalizer!r}")
    energies = np.asarray(energies, dtype=float)
    decisions = energies / (sample_count * normalizer) >= threshold
    steps = np.ones(energies.shape, dtype=int)
    if bracket is not None:
        if not bracket.contains(normalizer):
            raise ValueError(
                f"normalizer {normalizer!r} outside bracket "
                f"[{bracket.low!r}, {bracket.high!r}]"
            )
        steps += (energies / (sample_count * bracket.high) < threshold) & (
            energies / (sample_count * bracket.low) >= threshold
        )
    return decisions, steps
