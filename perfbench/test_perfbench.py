"""Tests of the benchmark's exact reference, gate, tracer and speed clock.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench
"""

import json
import math
import os
from dataclasses import replace
from pathlib import Path

import pytest

from coopsense import detector
from coopsense.cli_experiments import load_spec, run_experiment
from coopsense.montecarlo import estimate

import reference
import run
import speed
import tracing

SPECS = Path(__file__).resolve().parent.parent / "src" / "coopsense" / "specs"


def _spec(name, snr_db=(-20, -10, 0), **scenario):
    """A bundled spec cut to a few sweep points, so that the tests stay quick."""
    doc = json.loads((SPECS / f"{name}.json").read_text(encoding="utf-8"))
    doc["sweep"]["values"] = list(snr_db)
    doc["scenario"].update(scenario)
    return doc


def _write(doc, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("name", ["fig2", "fig3"])  # exponential, chi_square
def test_degenerate_bracket_equals_analytic_columns(name, tmp_path):
    doc = _spec(name, trials=1)
    doc["scenario"]["noise"] = {"nominal_variance": 1.0, "bracket": [1.0, 1.0]}
    out = run_experiment(_write(doc, tmp_path), out_path=tmp_path / "out.csv",
                         workers=1, quiet=True)
    rows = run.read_csv(out)
    cells = reference.spec_cells(doc)
    assert len(rows) == len(cells)
    for (_, _, cell), row in zip(cells, rows):
        exact = reference.exact_rates(cell)
        assert exact["p_f"] == pytest.approx(float(row["pf_analytic"]), rel=1e-9, abs=1e-15)
        assert exact["p_d"] == pytest.approx(float(row["pd_analytic"]), rel=1e-9, abs=1e-15)
        assert exact["q_e"] == pytest.approx(float(row["qe_analytic"]), rel=1e-9, abs=1e-15)


def test_fig3_csv_is_byte_identical_across_worker_counts(tmp_path):
    spec = _write(_spec("fig3", trials=300), tmp_path)
    one = run_experiment(spec, out_path=tmp_path / "one.csv", workers=1, quiet=True)
    two = run_experiment(spec, out_path=tmp_path / "two.csv", workers=2, quiet=True)
    assert one.read_bytes() == two.read_bytes()


def test_gate_passes_exact_reference_and_rejects_nominal_point():
    # fig2 at -14 dB, fixed threshold: the nominal-point p_f is ~4x too low
    doc = _spec("fig2", snr_db=[-14])
    scenario = replace(load_spec(SPECS / "fig2.json").base, snr_db=-14.0, trials=4000)
    result = estimate(scenario)
    (_, _, cell), = [c for c in reference.spec_cells(doc) if c[0] == -14 and c[1] == "fixed"]
    nominal = replace(cell, low=1.0, high=1.0)
    bound = reference.z_bound(len(reference.RATES))
    for rate in reference.RATES:
        counts = (getattr(result, rate).successes, getattr(result, rate).observations)
        assert abs(reference.binomial_z(*counts, reference.exact_rates(cell)[rate])) < bound
    p_f = (result.p_f.successes, result.p_f.observations)
    assert abs(reference.binomial_z(*p_f, reference.exact_rates(nominal)["p_f"])) > bound


def test_binomial_z():
    assert reference.binomial_z(50, 100, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert reference.binomial_z(30, 100, 0.5) == -reference.binomial_z(70, 100, 0.5)
    assert reference.binomial_z(70, 100, 0.5) > 3.5
    assert reference.binomial_z(1, 100, 0.0) == math.inf
    assert reference.binomial_z(0, 0, 0.3) == 0.0
    assert reference.z_bound(400) > reference.z_bound(4) > 4.0


def test_tracer_nests_spans_and_restores_names():
    original = detector.marcum_q
    sites = [("coopsense.detector", "analytic_pd", "detector.analytic_pd"),
             ("coopsense.detector", "marcum_q", "specfun.marcum_q")]
    with tracing.Tracer(sites) as tracer:
        detector.analytic_pd(5.0, 2.0, 30.0)
    assert detector.marcum_q is original
    summary = tracer.summary(lambda start, end: end - start)
    outer, inner = summary["detector.analytic_pd"], summary["specfun.marcum_q"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"])
    assert inner["self_s"] == inner["s"]


def test_tracer_notes_missing_names_and_records_zero_calls():
    sites = [("coopsense.fusion", "no_such_function", "fusion.optimize_vote_count"),
             ("coopsense.no_such_module", "anything", "specfun.marcum_q")]
    with tracing.Tracer(sites) as tracer:
        pass
    assert len(tracer.notes) == 2
    summary = tracer.summary(lambda start, end: end - start)
    assert summary["fusion.optimize_vote_count"]["calls"] == 0
    assert summary["specfun.marcum_q"]["calls"] == 0


def test_speed_clock_scales_gaps_and_skips_calibrations():
    clock = speed.SpeedClock("numpy")
    # kernel runs of 1, 1 and 3 units; the median over neighbours discounts
    # the outlier, so both gaps run at the reference speed
    clock.marks = [(0.0, 1.0), (2.0, 3.0), (4.0, 7.0)]
    clock._steal = [0.0, 0.0, 0.0]
    ref = speed.KERNELS["numpy"][1]
    assert clock.duration(1.0, 2.0) == pytest.approx(ref)
    assert clock.duration(3.0, 4.0) == pytest.approx(ref)
    assert clock.duration(0.0, 7.0) == pytest.approx(2 * ref)
    assert clock.duration(1.5, 3.5) == pytest.approx(ref)


def test_speed_clock_discounts_stolen_time():
    clock = speed.SpeedClock("numpy")
    clock.marks = [(0.0, 1.0), (2.0, 3.0)]
    cpus = os.cpu_count() or 1
    clock._steal = [0.0, 0.25 * cpus]  # a quarter of the gap's capacity
    assert clock.duration(1.0, 2.0) == pytest.approx(0.75 * speed.KERNELS["numpy"][1])
    pool = speed.SpeedClock("numpy", busy=2)
    pool.marks, pool._steal = clock.marks, clock._steal
    assert pool.duration(1.0, 2.0) == pytest.approx(0.6 * speed.KERNELS["numpy"][1])
