"""Runs one workload's sweeps in a fresh interpreter and records timings.

Usage: python3 perfbench/workload.py REQUEST.json RESULT.json

``run.py`` writes the request (the generated inputs and the time budget)
and reads the result; coopsense must be importable (PYTHONPATH=src). This
process imports only coopsense, numpy and the standard library, so its
peak RSS is the program's, not the checker's.

A sweep is one pass over the workload: one ``run_experiment`` call for a
Monte Carlo workload, every reference cell for ``closed-form``. Sweeps
repeat until the budget is spent; in a traced run they alternate between
untraced and traced, so both wall times come from the same process.
"""

import hashlib
import json
import resource
import sys
import time

import numpy as np

from coopsense import cli_experiments, detector, fusion, specfun

from speed import SpeedClock, steal_s
from tracing import CELL_SITE, SITES, Tracer

RATES = ("p_f", "p_d", "q_f", "q_m", "q_e")


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of its children.

    The process's own peak is read from VmHWM, which starts afresh at exec:
    ``ru_maxrss`` would carry over the peak of the process that spawned it.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            own = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _measured(run, sites, kernel, busy=1):
    """Run ``run(clock)`` under a tracer and a speed clock.

    Times are at reference speed (see ``speed``); ``raw_wall_s`` is the
    plain wall time, calibrations included.
    """
    clock = SpeedClock(kernel, busy)
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    steal0 = steal_s()
    clock.calibrate()
    with Tracer(sites, before_probe=clock.tick) as tracer:
        start = time.perf_counter()
        payload = run(clock)
        end = time.perf_counter()
    clock.calibrate()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    factor = clock.factor()
    kernel_s = sum(e - s for s, e in clock.marks)
    sweep = {
        "wall_s": clock.duration(start, end),
        "raw_wall_s": end - start,
        "speed_factor": factor,
        "steal_s": steal_s() - steal0,
        "parent_cpu_s": (_cpu_s(self1) - _cpu_s(self0) - kernel_s) * factor,
        "child_cpu_s": (_cpu_s(kids1) - _cpu_s(kids0)) * factor,
        "spans": tracer.summary(clock.duration),
    }
    return sweep, payload, tracer, clock


def monte_carlo_sweep(request, traced):
    def run(clock):
        cli_experiments.run_experiment(
            request["spec"],
            out_path=request["out"],
            seed=request["seed"],
            workers=request["workers"],
        )

    sweep, _, tracer, clock = _measured(
        run, SITES if traced else (CELL_SITE,), request["speed_kernel"], request["workers"])
    cells = tracer.calls(CELL_SITE[2], clock.duration)
    with open(request["out"], "rb") as handle:
        sweep["sha256"] = hashlib.sha256(handle.read()).hexdigest()
    sweep["cell_s"] = [seconds for seconds, _ in cells]
    sweep["trials"] = [result.trials for _, result in cells]
    counts = [
        {
            rate: [getattr(result, rate).successes, getattr(result, rate).observations]
            for rate in RATES
        }
        for _, result in cells
    ]
    return sweep, counts, tracer.notes


def _exact_cell(cell, nodes):
    """Uncertainty-averaged rates of one cell through coopsense's closed
    forms; names are looked up on their modules so tracing sees them."""
    k, x, signal = cell["k"], cell["x"], cell["signal"]
    p_f = p_d = 0.0
    for v, w in nodes:
        if cell["family"] == "chi_square":
            p_f += w * detector.analytic_pf(k, 2.0 * x / v)
            p_d += w * detector.analytic_pd(k, signal / v, 2.0 * x / v)
        else:
            p_f += w * specfun.reg_upper_gamma(k, x / v)
            p_d += w * specfun.reg_upper_gamma(k, x / (v + signal))
    # the weights sum to 1 only up to rounding
    p_f, p_d = min(p_f, 1.0), min(p_d, 1.0)
    config = fusion.FusionConfig(
        num_sus=cell["num_sus"],
        vote_threshold=cell["vote_threshold"],
        prior_h0=cell["prior_h0"],
        report_error=cell["report_error"],
    )
    fused = fusion.cooperative_rates(config, p_f, p_d)
    out = {"p_f": p_f, "p_d": p_d, "q_f": fused.q_f, "q_m": fused.q_m, "q_e": fused.q_e}
    if cell["optimize"]:
        out["n_star"], out["q_e_star"] = fusion.optimize_vote_count(
            cell["num_sus"],
            fusion.effective_rate(p_f, cell["report_error"]),
            fusion.effective_rate(p_d, cell["report_error"]),
            cell["prior_h0"],
        )
    return out


def _grid_row(order, signal, thresholds):
    return {
        "p_f": [detector.analytic_pf(order, t) for t in thresholds],
        "p_d": [detector.analytic_pd(order, signal, t) for t in thresholds],
    }


def _variance_nodes(low, high, legendre):
    """Nodes and weights of the uniform law on [low, high], from the
    Gauss-Legendre rule on [-1, 1] that the request carries."""
    if low == high:
        return [(low, 1.0)]
    mid, half = 0.5 * (low + high), 0.5 * (high - low)
    return [(mid + half * t, 0.5 * w) for t, w in legendre]


def closed_form_sweep(request, traced):
    jobs = []
    for cell in request["cells"]:
        nodes = _variance_nodes(cell["low"], cell["high"], request["legendre"])
        jobs.append((_exact_cell, (cell, nodes)))
    for row in request["grid"]:
        jobs.append((_grid_row, (request["grid_order"], row["signal"], row["thresholds"])))

    def run(clock):
        times, outputs = [], []
        for function, args in jobs:
            clock.tick()
            start = time.perf_counter()
            try:
                outputs.append(function(*args))
            except Exception as exc:  # a raising cell is counted as failed
                outputs.append({"error": f"{type(exc).__name__}: {exc}"})
            times.append((start, time.perf_counter()))
        return times, outputs

    sweep, (times, outputs), tracer, clock = _measured(
        run, SITES if traced else (), request["speed_kernel"])
    sweep["cell_s"] = [clock.duration(start, end) for start, end in times]
    sweep["sha256"] = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    return sweep, outputs, tracer.notes


def main(request_path, result_path) -> int:
    with open(request_path, encoding="utf-8") as handle:
        request = json.load(handle)
    sweep_fn = monte_carlo_sweep if request["kind"] == "monte_carlo" else closed_form_sweep
    trace = request["trace"]
    min_sweeps = 4 if trace else 3
    start = time.perf_counter()
    sweeps, outputs, notes = [], None, []
    while True:
        traced = trace and len(sweeps) % 2 == 1
        sweep, payload, sweep_notes = sweep_fn(request, traced)
        sweep["traced"] = traced
        sweeps.append(sweep)
        outputs = outputs if outputs is not None else payload
        notes.extend(n for n in sweep_notes if n not in notes)
        elapsed = time.perf_counter() - start
        next_wall = max(s["raw_wall_s"] for s in sweeps[-2:])
        if len(sweeps) >= min_sweeps and elapsed + next_wall > request["seconds"]:
            break
    result = {
        "sweeps": sweeps,
        "outputs": outputs,
        "notes": notes,
        "peak_rss_mb": _peak_rss_mb(),
        "numpy": np.__version__,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
