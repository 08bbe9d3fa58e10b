"""Spans around coopsense's public functions, recorded from outside.

A ``Tracer`` replaces a module attribute with a wrapper that records one
span per call: name, start, end and the enclosing span. It wraps a name
where it is looked up (``coopsense.detector.marcum_q`` is the name
``analytic_pd`` calls), so a call is timed once, at the site it goes
through. Spans stay in memory until ``summary`` aggregates them.

A site whose module or attribute no longer exists is skipped with a note;
its span name then records 0 calls rather than failing the run.

Durations are computed by a ``duration(start, end)`` function that the
caller passes, so that spans can be reported at reference speed.
"""

import importlib
import time

# (module, attribute, span name). The span is named after the module that
# defines the function, the module is the one whose namespace calls it.
SITES = (
    ("coopsense.cli_experiments", "run_experiment", "cli_experiments.run_experiment"),
    ("coopsense.cli_experiments", "load_spec", "cli_experiments.load_spec"),
    ("coopsense.cli_experiments", "estimate", "montecarlo.estimate"),
    ("coopsense.montecarlo", "convex_normalizer", "threshold_schemes.convex_normalizer"),
    ("coopsense.montecarlo", "analytic_pf", "detector.analytic_pf"),
    ("coopsense.montecarlo", "analytic_pd", "detector.analytic_pd"),
    ("coopsense.montecarlo", "reg_upper_gamma", "specfun.reg_upper_gamma"),
    ("coopsense.montecarlo", "cooperative_rates", "fusion.cooperative_rates"),
    ("coopsense.detector", "analytic_pf", "detector.analytic_pf"),
    ("coopsense.detector", "analytic_pd", "detector.analytic_pd"),
    ("coopsense.detector", "reg_upper_gamma", "specfun.reg_upper_gamma"),
    ("coopsense.detector", "marcum_q", "specfun.marcum_q"),
    ("coopsense.specfun", "reg_upper_gamma", "specfun.reg_upper_gamma"),
    ("coopsense.fusion", "cooperative_rates", "fusion.cooperative_rates"),
    ("coopsense.fusion", "optimize_vote_count", "fusion.optimize_vote_count"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SITES))

# The cell probe: the only site wrapped on untraced sweeps, so that cell
# times and counts are measured there too.
CELL_SITE = ("coopsense.cli_experiments", "estimate", "montecarlo.estimate")

_NAME, _START, _END, _PARENT, _RESULT = range(5)


class Tracer:
    """Records spans at the sites it wraps until ``restore`` is called."""

    def __init__(self, sites, before_probe=None):
        """Spans of the cell probe keep their call's result; ``before_probe``,
        if given, is called ahead of each of them, outside the span."""
        self.spans = []
        self.notes = []
        self._stack = []
        self._saved = []
        for module_name, attr, span in sites:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.notes.append(f"{module_name} not found: {span} records 0 calls")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.notes.append(
                    f"{module_name}.{attr} not found: {span} records 0 calls"
                )
                continue
            self._saved.append((module, attr, original))
            is_probe = span == CELL_SITE[2]
            setattr(module, attr, self._wrap(
                original, span, is_probe, before_probe if is_probe else None))

    def _wrap(self, function, span, keep_result, before):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before()
            record = [span, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[_START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
            if keep_result:
                record[_RESULT] = result
            return result

        return traced

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def calls(self, span, duration):
        """(duration, result) of every call to ``span``, in call order."""
        return [
            (duration(r[_START], r[_END]), r[_RESULT])
            for r in self.spans if r[_NAME] == span
        ]

    def summary(self, duration) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds for every span name.

        Self time is a span's duration minus that of its direct children.
        """
        lengths = [duration(r[_START], r[_END]) for r in self.spans]
        child = [0.0] * len(self.spans)
        for record, length in zip(self.spans, lengths):
            if record[_PARENT] >= 0:
                child[record[_PARENT]] += length
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for record, length, inner in zip(self.spans, lengths, child):
            entry = out.setdefault(record[_NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += length
            entry["self_s"] += length - inner
        return out
