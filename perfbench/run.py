"""coopsense benchmark: three workloads, an exact-reference gate, layer timings.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``WORKLOADS``):

* ``fig4-serial``: the bundled fig4 sweep (receiver count K = 1..30,
  Gamma(2000) energies, k = 2000) at a reduced trial count, one worker.
  The engine's per-trial loop does nearly all the work and convex cells,
  which pay the O(k^2) ``convex_normalizer`` twice, form the slow tail.
* ``fig3-pool``: the bundled fig3 sweep at a reduced trial count with two
  workers. Its only users of the noncentral chi-square sampler and the
  Marcum-Q closed form; its trials are cheap, so pool dispatch matters.
* ``closed-form``: no Monte Carlo. Every cell of fig2, fig3 and fig4 is
  computed exactly (64-node Gauss-Legendre over the noise bracket through
  coopsense's ``reg_upper_gamma``, ``analytic_pf`` and ``analytic_pd``,
  then ``cooperative_rates``, plus ``optimize_vote_count`` on fig4),
  followed by a seeded chi-square-family grid at order 2000.

Each run sets up (fresh interpreters: import coopsense and load the
workload's specs), then runs sweeps of the workload in a child interpreter
for about ``--seconds``, then checks every output against ``reference``
(scipy only). Monte Carlo counts must pass an exact binomial test against
the uncertainty-averaged rates; closed-form outputs must match scipy to
``CLOSED_FORM_RTOL``. Every sweep of a run must give the same output hash,
and so must every run of one workload, seed and source tree in a checkout.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: spans around coopsense's public functions (see ``tracing``), pool CPU
and the tracing overhead. Human-readable lines come first; the last line of
standard output is the JSON result. A provenance record of each run is
written to ``perfbench/out/``.

Every time is at reference speed: wall time scaled by a calibration kernel
timed alongside the work (see ``speed``), because the host's CPU speed
drifts by up to 30% between runs. The provenance record also keeps the
plain wall times. End-to-end metrics (``--trace 0``):

* ``setup_s``: import coopsense and ``load_spec`` the workload's specs in
  a fresh interpreter; median of ``SETUP_REPEATS``.
* ``wall_s``: one sweep (``run_experiment`` up to the CSV written); median
  over the run's sweeps.
* ``trials_per_s``: Monte Carlo trials over the summed ``estimate`` time,
  median over sweeps. On ``closed-form``, exact evaluations (one per
  quadrature node or grid point, both hypotheses) over the summed cell time.
* ``cell_s_p50``, ``cell_s_p85``: Harrell-Davis quantiles over cells of each
  cell's median time across sweeps. A cell is one ``estimate`` call, or one
  exact cell or grid row.
* ``peak_rss_mb``: the larger of the workload process's peak RSS and that
  of its children (the pool workers).
* ``cells_passed_frac``: 1 - cells_failed_frac, where cells_failed_frac is
  failed / attempted of the result line (cells that raised or failed the
  gate). Reported as the complement so that it is never 0.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy import stats

import reference

BENCH_VERSION = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPECS = SRC / "coopsense" / "specs"
OUT = HERE / "out"

WORKLOADS = {
    "fig4-serial": {"kind": "monte_carlo", "spec": "fig4", "workers": 1, "trials": 1500,
                    "speed_kernel": "numpy"},
    "fig3-pool": {"kind": "monte_carlo", "spec": "fig3", "workers": 2, "trials": 1500,
                  "speed_kernel": "numpy"},
    "closed-form": {"kind": "closed_form", "specs": ("fig2", "fig3", "fig4"),
                    "optimize": ("fig4",), "grid_order": 2000, "grid_side": 24,
                    "speed_kernel": "python"},
}
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 120
# coopsense's closed forms against scipy: relative, with an absolute floor
# for values that are themselves at the level of double rounding.
CLOSED_FORM_RTOL = 1e-8
CLOSED_FORM_ATOL = 1e-12

SETUP_CODE = """
import sys, time
start = time.perf_counter()
import coopsense
from coopsense.cli_experiments import load_spec
for path in sys.argv[1:]:
    load_spec(path)
seconds = time.perf_counter() - start
import speed
print(seconds, speed.speed_factor("module"))
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p
    )
    return env


def measure_setup(spec_paths) -> tuple[float, float]:
    """Median set-up time at reference speed, and the raw median."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *map(str, spec_paths)],
            env=_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        seconds, factor = map(float, done.stdout.split())
        scaled.append(seconds * factor)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


# ---- inputs ---------------------------------------------------------------

def monte_carlo_inputs(name, config, seed):
    doc = json.loads((SPECS / f"{config['spec']}.json").read_text(encoding="utf-8"))
    doc["scenario"]["trials"] = config["trials"]
    spec = OUT / f"{name}.spec.json"
    spec.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    request = {
        "kind": "monte_carlo",
        "spec": str(spec),
        "out": str(OUT / f"{name}.csv"),
        "seed": seed,
        "workers": config["workers"],
    }
    return request, [spec], doc


def closed_form_inputs(config, seed):
    cells = []
    for name in config["specs"]:
        doc = json.loads((SPECS / f"{name}.json").read_text(encoding="utf-8"))
        for value, scheme, cell in reference.spec_cells(doc):
            entry = dict(vars(cell), spec=name, value=value, scheme=scheme,
                         optimize=name in config["optimize"])
            cells.append(entry)
    # Stratified grid with seeded jitter: whole-window SNR S log-uniform in
    # [2, 200]; thresholds uniform from 3 standard deviations below the
    # noise-only mean 2u to 3 above the largest signal's mean 2u + 2S.
    rng = np.random.default_rng(seed)
    order, side, top = config["grid_order"], config["grid_side"], 200.0
    low = 2 * order - 3 * math.sqrt(4 * order)
    high = 2 * (order + top) + 3 * math.sqrt(4 * order + 8 * top)
    grid = []
    for i in range(side):
        signal = 2.0 * (top / 2.0) ** ((i + rng.random()) / side)
        thresholds = [low + (high - low) * (j + rng.random()) / side for j in range(side)]
        grid.append({"signal": signal, "thresholds": thresholds})
    request = {
        "kind": "closed_form",
        "cells": cells,
        # computed here so that the workload process loads no linear algebra
        "legendre": np.column_stack(np.polynomial.legendre.leggauss(reference.NODES)).tolist(),
        "grid_order": order,
        "grid": grid,
    }
    return request, [SPECS / f"{name}.json" for name in config["specs"]], None


# ---- correctness ----------------------------------------------------------

def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_monte_carlo(request, doc, rows, result, problems):
    """Gate every Monte Carlo cell; returns (attempted, failed, max |z|)."""
    cells = reference.spec_cells(doc)
    counts = result["outputs"]
    if not len(cells) == len(rows) == len(counts):
        problems.append(
            f"{len(rows)} CSV rows and {len(counts)} estimates for {len(cells)} cells"
        )
        return len(cells), len(cells), math.inf
    bound = reference.z_bound(5 * len(cells))
    columns = {"p_f": "pf", "p_d": "pd", "q_f": "qf", "q_m": "qm", "q_e": "qe"}
    exact_cache = {}
    failed, worst = 0, 0.0
    for (value, scheme, cell), row, count in zip(cells, rows, counts):
        where = f"{value} {scheme}"
        errors = []
        if float(row["sweep_value"]) != float(value) or row["scheme"] != scheme:
            errors.append(f"row is {row['sweep_value']} {row['scheme']}")
        if int(row["trials"]) != doc["scenario"]["trials"] or int(row["seed"]) != request["seed"]:
            errors.append(f"trials/seed columns {row['trials']}/{row['seed']}")
        for rate, column in columns.items():
            successes, observations = count[rate]
            if float(row[column]) != successes / observations:
                errors.append(f"{column}={row[column]} but counts {successes}/{observations}")
        for column in ("pd", "pf"):
            if not float(row[f"{column}_lo"]) <= float(row[column]) <= float(row[f"{column}_hi"]):
                errors.append(f"{column} outside its Wilson bounds")
        h0, h1 = count["q_f"][1], count["q_m"][1]
        if (h0 + h1 != count["q_e"][1] or count["p_f"][1] != h0 * cell.num_sus
                or count["p_d"][1] != h1 * cell.num_sus):
            errors.append("observation counts are inconsistent")
        if cell not in exact_cache:
            exact_cache[cell] = reference.exact_rates(cell)
        exact = exact_cache[cell]
        for rate in reference.RATES:
            z = reference.binomial_z(*count[rate], exact[rate])
            worst = max(worst, abs(z))
            if abs(z) > bound:
                errors.append(f"{rate}: z={z:+.2f} (exact {exact[rate]:.6g}, "
                              f"counts {count[rate][0]}/{count[rate][1]})")
        if errors:
            failed += 1
            problems.append(f"cell {where}: " + "; ".join(errors))
    return len(cells), failed, worst


def _close(got, want):
    return abs(got - want) <= CLOSED_FORM_RTOL * abs(want) + CLOSED_FORM_ATOL


def check_closed_form(request, result, problems):
    """Compare every closed-form output with scipy; (attempted, failed, 0)."""
    outputs = result["outputs"]
    cells, grid = request["cells"], request["grid"]
    if len(outputs) != len(cells) + len(grid):
        problems.append(f"{len(outputs)} outputs for {len(cells) + len(grid)} cells")
        return len(cells) + len(grid), len(cells) + len(grid), 0.0
    failed = 0
    for cell, out in zip(cells, outputs):
        where = f"cell {cell['spec']} {cell['value']} {cell['scheme']}"
        if "error" in out:
            failed += 1
            problems.append(f"{where}: raised {out['error']}")
            continue
        ref_cell = reference.Cell(**{f: cell[f] for f in reference.Cell.__dataclass_fields__})
        exact = reference.exact_rates(ref_cell)
        errors = [f"{rate}={out[rate]!r}, scipy {exact[rate]!r}"
                  for rate in reference.RATES if not _close(out[rate], exact[rate])]
        if cell["optimize"]:
            totals = reference.optimal_votes(
                ref_cell,
                reference.flipped(exact["p_f"], cell["report_error"]),
                reference.flipped(exact["p_d"], cell["report_error"]),
            )
            best = min(totals)
            if not _close(totals[out["n_star"] - 1], best) or not _close(out["q_e_star"], best):
                errors.append(f"n_star={out['n_star']} gives {totals[out['n_star'] - 1]!r}, "
                              f"optimum {best!r}")
        if errors:
            failed += 1
            problems.append(f"{where}: " + "; ".join(errors))
    order = request["grid_order"]
    for row, out in zip(grid, outputs[len(cells):]):
        where = f"grid row S={row['signal']:.4g}"
        if "error" in out:
            failed += 1
            problems.append(f"{where}: raised {out['error']}")
            continue
        thr = row["thresholds"]
        want_pf = stats.chi2.sf(thr, 2 * order)
        want_pd = stats.ncx2.sf(thr, 2 * order, 2.0 * row["signal"])
        bad = [t for t, a, b, c, d in zip(thr, out["p_f"], want_pf, out["p_d"], want_pd)
               if not (_close(a, b) and _close(c, d))]
        if bad:
            failed += 1
            problems.append(f"{where}: {len(bad)} thresholds off, first {bad[0]!r}")
    return len(outputs), failed, 0.0


def check_hashes(key, sweeps, problems):
    """Every sweep, and every earlier run with the same key, hashes alike."""
    hashes = {s["sha256"] for s in sweeps}
    if len(hashes) != 1:
        problems.append(f"sweeps of one run hash differently: {sorted(hashes)}")
    digest = sweeps[0]["sha256"]
    ledger_path = OUT / "hashes.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    if ledger.setdefault(key, digest) != digest:
        problems.append(f"output hash {digest} differs from earlier run's {ledger[key]}")
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, ledger_path)
    return digest


# ---- metrics --------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def harrell_davis(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics. Cell times cluster by scheme, and the plain median
    jumps between the clusters' edges; this estimate does not."""
    n = len(values)
    edges = stats.beta.cdf(np.arange(n + 1) / n, p * (n + 1), (1 - p) * (n + 1))
    return float(np.diff(edges) @ np.sort(values))


def cell_quantiles(sweeps):
    """p50 and p85 over cells of each cell's median time across sweeps."""
    per_cell = [statistics.median(times) for times in zip(*(s["cell_s"] for s in sweeps))]
    return harrell_davis(per_cell, 0.5), harrell_davis(per_cell, 0.85)


def trials_per_sweep(request, sweep):
    if request["kind"] == "monte_carlo":
        return sum(sweep["trials"])
    nodes = sum(1 if c["low"] == c["high"] else len(request["legendre"])
                for c in request["cells"])
    return nodes + sum(len(row["thresholds"]) for row in request["grid"])


def end_to_end(request, result, setup_s, attempted, failed):
    sweeps = [s for s in result["sweeps"] if not s["traced"]]
    p50, p85 = cell_quantiles(sweeps)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (_median([s["wall_s"] for s in sweeps]), "s"),
        "trials_per_s": (_median([trials_per_sweep(request, s) / sum(s["cell_s"])
                                  for s in sweeps]), "1/s"),
        "cell_s_p50": (p50, "s"),
        "cell_s_p85": (p85, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "cells_passed_frac": (1.0 - failed / attempted, "fraction"),
    }


def per_layer(request, rows, result):
    """Per-layer metrics (``--trace 1``).

    Span counts and times are per sweep, medians over the traced sweeps;
    self time excludes the spans a call encloses. Spans are recorded in the
    workload process only: what pool workers run shows as
    ``pool.child_cpu_s``. Per-scheme trials/s and the pool figures come
    from the run's untraced sweeps, ``trace.overhead_s`` is the traced minus
    the untraced median wall time. A layer a workload does not use reads 0.
    """
    plain = [s for s in result["sweeps"] if not s["traced"]]
    traced = [s for s in result["sweeps"] if s["traced"]]

    def span(name, field):
        return _median([s["spans"].get(name, {}).get(field, 0) for s in traced])

    metrics = {}
    for name in ("montecarlo.estimate", "cli_experiments.run_experiment"):
        metrics[f"{name}.self_s"] = (span(name, "self_s"), "s")
    for name in ("montecarlo.estimate", "threshold_schemes.convex_normalizer",
                 "specfun.reg_upper_gamma", "specfun.marcum_q",
                 "fusion.cooperative_rates", "fusion.optimize_vote_count"):
        metrics[f"{name}.calls"] = (span(name, "calls"), "count")
    for name in ("montecarlo.estimate", "threshold_schemes.convex_normalizer",
                 "specfun.reg_upper_gamma", "specfun.marcum_q",
                 "detector.analytic_pf", "detector.analytic_pd",
                 "fusion.cooperative_rates", "fusion.optimize_vote_count",
                 "cli_experiments.load_spec", "cli_experiments.run_experiment"):
        metrics[f"{name}.s"] = (span(name, "s"), "s")
    for name in ("specfun.reg_upper_gamma", "specfun.marcum_q"):
        rates = [s["spans"][name]["calls"] / s["spans"][name]["s"]
                 for s in traced if s["spans"].get(name, {}).get("calls")]
        metrics[f"{name}.calls_per_s"] = (_median(rates), "1/s")

    # probe-based numbers come from the run's untraced sweeps
    for scheme in reference.SCHEMES:
        rates = []
        if request["kind"] == "monte_carlo":
            for s in plain:
                picked = [(t, c) for row, t, c in zip(rows, s["trials"], s["cell_s"])
                          if row["scheme"] == scheme]
                if picked:
                    rates.append(sum(t for t, _ in picked) / sum(c for _, c in picked))
        metrics[f"montecarlo.trials_per_s.{scheme}"] = (_median(rates), "1/s")
    workers = request.get("workers", 1)
    metrics["pool.parent_cpu_s"] = (_median([s["parent_cpu_s"] for s in plain]), "s")
    metrics["pool.child_cpu_s"] = (_median([s["child_cpu_s"] for s in plain]), "s")
    busy = [s["child_cpu_s"] / (workers * sum(s["cell_s"])) for s in plain] if workers > 1 else []
    metrics["pool.busy_frac"] = (_median(busy), "fraction")
    metrics["trace.overhead_s"] = (
        _median([s["wall_s"] for s in traced]) - _median([s["wall_s"] for s in plain]), "s")
    return metrics


# ---- provenance -----------------------------------------------------------

def source_digest() -> str:
    """Hash of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "coopsense").rglob("*"), *HERE.glob("*.py")]):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, config, result, src_digest):
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git_sha = done.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "bench_version": BENCH_VERSION,
        "git_sha": git_sha,
        "src_sha256": src_digest,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "trials": config.get("trials"),
        "speed_kernel": config["speed_kernel"],
        "seconds": args.seconds,
        "trace": args.trace,
        "sweeps": len(result["sweeps"]),
        "time_unix": time.time(),
    }


# ---- driver ---------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coopsense" / "__init__.py").is_file():
        print(f"coopsense sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    config = WORKLOADS[args.workload]
    if config["kind"] == "monte_carlo":
        request, spec_paths, doc = monte_carlo_inputs(args.workload, config, args.seed)
    else:
        request, spec_paths, doc = closed_form_inputs(config, args.seed)
    request.update(seconds=args.seconds, trace=bool(args.trace),
                   speed_kernel=config["speed_kernel"])

    setup_s, raw_setup_s = measure_setup(spec_paths)

    request_path = OUT / f"{args.workload}.request.json"
    result_path = OUT / f"{args.workload}.result.json"
    request_path.write_text(json.dumps(request), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    # own session, so that a timeout also stops the process pool it starts
    with subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), str(request_path), str(result_path)],
        env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as child:
        try:
            _, stderr = child.communicate(timeout=args.seconds + CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            print("workload process timed out", file=sys.stderr)
            return 1
    if child.returncode != 0:
        print(stderr, file=sys.stderr)
        print(f"workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))

    problems = []
    if request["kind"] == "monte_carlo":
        rows = read_csv(request["out"])
        attempted, failed, worst_z = check_monte_carlo(request, doc, rows, result, problems)
        trials = config["trials"]
    else:
        attempted, failed, worst_z = check_closed_form(request, result, problems)
        rows, trials = [], None
    src_digest = source_digest()
    digest = check_hashes(f"{args.workload}|seed={args.seed}|trials={trials}|src={src_digest}",
                          result["sweeps"], problems)
    correct = not problems

    if args.trace:
        metrics = per_layer(request, rows, result)
    else:
        metrics = end_to_end(request, result, setup_s, attempted, failed)

    record = {
        "provenance": provenance(args, config, result, src_digest),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "cells_failed_frac": failed / attempted,
        "max_abs_z": worst_z,
        "output_sha256": digest,
        "problems": problems,
        "notes": result["notes"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        # plain wall-clock figures next to the reference-speed ones
        "raw_setup_s": raw_setup_s,
        "sweeps": [{k: s[k] for k in ("traced", "wall_s", "raw_wall_s", "speed_factor", "steal_s")}
                   for s in result["sweeps"]],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    for line in problems + [f"note: {n}" for n in result["notes"]]:
        print(line)
    p = record["provenance"]
    print(f"{args.workload} seed={args.seed} trials={trials} sweeps={p['sweeps']} "
          f"sha={p['git_sha'] or p['src_sha256'][:12]} nproc={p['nproc']} "
          f"python={p['python']} numpy={p['numpy']} scipy={p['scipy']} "
          f"bench={BENCH_VERSION}")
    print(f"cells_failed_frac {failed / attempted:.6g} ({failed}/{attempted}) "
          f"max|z| {worst_z:.3f} output {digest[:16]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
