"""Enhanced energy-detection threshold strategies under noise uncertainty.

Every strategy tests one normalized statistic, the window energy divided by
sample count times a noise-power normalizer, against the threshold. The
strategies differ only in that normalizer, and in whether a second
interval step is counted (``decide_scheme``). The Monte Carlo engine decides
each block once per distinct normalizer and tallies both at once;
``montecarlo._scheme_tally`` picks the tally a scheme reads:

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
    every alignment spans all components, and every weighted average of
    equal values is that value. In this model every component expects the
    bracket mean, so the scheme is ``expectation`` exactly and carries no
    weights or exponent: a scheme is its ``SchemeKind``.

The two-step interval endpoints and the expectation statistic are ordered
(low <= expectation <= high whenever the bracket contains its own mean, and
IEEE division is monotone), so whichever step settles a receiver, its
decision is the expectation decision. ``decide_scheme`` therefore computes
the expectation decision once and only marks the receivers whose interval
straddles the threshold as taking a second step.
"""

import enum
import math

from .fusion import integer
from .noise_model import VarianceBracket

__all__ = ["SchemeKind", "decide_scheme"]


class SchemeKind(str, enum.Enum):
    FIXED = "fixed"
    TWO_STEP = "two_step"
    EXPECTATION = "expectation"
    CONVEX = "convex"


def decide_scheme(
    energies,
    sample_count: int,
    threshold: float,
    normalizer: float,
    bracket: VarianceBracket | None = None,
):
    """Decisions and second steps for window energies of any shape.

    A receiver decides H1 (``True``) when ``energy / (sample_count *
    normalizer) >= threshold``. With a ``bracket`` (the two-step scheme,
    whose ``normalizer`` must be the bracket mean or another value inside
    it) a receiver takes a second step exactly when its interval
    ``[energy / (sample_count * high), energy / (sample_count * low)]``
    straddles the threshold; its decision is the same either way. Returns
    ``(decisions, second)``: boolean decisions shaped like ``energies``,
    and the boolean mask of second steps, shaped alike, or ``None``
    without a bracket.
    """
    import numpy as np

    if integer(sample_count, "sample_count") < 1:
        raise ValueError(f"sample_count must be an integer >= 1, got {sample_count!r}")
    if not math.isfinite(normalizer) or normalizer <= 0.0:
        raise ValueError(f"normalizer must be finite and > 0, got {normalizer!r}")
    energies = np.asarray(energies, dtype=float)
    decisions = energies / (sample_count * normalizer) >= threshold
    second = None
    if bracket is not None:
        if not bracket.contains(normalizer):
            raise ValueError(
                f"normalizer {normalizer!r} outside bracket "
                f"[{bracket.low!r}, {bracket.high!r}]"
            )
        second = (energies / (sample_count * bracket.high) < threshold) & (
            energies / (sample_count * bracket.low) >= threshold
        )
    return decisions, second
