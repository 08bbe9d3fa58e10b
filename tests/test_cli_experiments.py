"""Tests for the experiment spec loader, runner and CLI."""

import concurrent.futures
import copy
import itertools
import json
import math
import multiprocessing
import os
import re
import runpy
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsense import cli_experiments, montecarlo
from coopsense.cli_experiments import (
    CSV_COLUMNS,
    ENV_OUTPUT_DIR,
    ExperimentSpec,
    SpecValidationError,
    load_spec,
    main,
    resolve_spec_path,
    run_experiment,
    validate_spec,
)
from coopsense.detector import AnalyticFamily
from coopsense.montecarlo import Scenario, SchemeKind, nominal_rates
from coopsense.specfun import ConvergenceError


def spec_document(**overrides):
    document = {
        "name": "unit",
        "sweep": {"axis": "snr_db", "values": [-12.0, -10.0]},
        "schemes": ["fixed", "expectation"],
        "output": "unit_results.csv",
        "scenario": {
            "family": "exponential",
            "trials": 1500,
            "seed": 4242,
            "detector": {
                "sample_count": 400,
                "threshold": 1.12,
            },
            "noise": {
                "nominal_variance": 1.0,
                "confidence": 0.99,
                "calibration_mean": 1.01,
                "calibration_sd": 0.03883,
                "calibration_count": 100,
            },
            "fusion": {
                "num_sus": 3,
                "vote_threshold": 1,
                "prior_h0": 0.5,
                "report_error": 0.001,
            },
        },
    }
    for dotted, value in overrides.items():
        target = document
        parts = dotted.split(".")
        for key in parts[:-1]:
            target = target[key]
        if value is ...:
            del target[parts[-1]]
        else:
            target[parts[-1]] = value
    return document


# a JSON integer literal beyond the float range
BIG = "1" + "0" * 400


def with_leaf(document, dotted, token):
    """JSON text of ``document`` with the leaf at ``dotted`` (keys and list
    indices) replaced by the raw JSON ``token``, e.g. ``NaN`` or ``1e400``."""
    document = copy.deepcopy(document)
    target = document
    *parents, last = dotted
    for key in parents:
        target = target[key]
    target[last] = "__leaf__"
    return json.dumps(document).replace('"__leaf__"', token)


def dying_worker(*task):
    """Stands in for the block runner in a pool worker that is killed."""
    os._exit(1)


@pytest.fixture
def write_spec(tmp_path):
    def _write(document, name="spec.json"):
        path = tmp_path / name
        text = document if isinstance(document, str) else json.dumps(document)
        path.write_text(text, encoding="utf-8")
        return path

    return _write


class TestValidation:
    def test_valid_spec_passes(self, write_spec):
        assert validate_spec(write_spec(spec_document())) == []

    def test_bundled_specs_pass(self):
        for name in ["fig2", "fig3", "fig4"]:
            assert validate_spec(resolve_spec_path(name)) == []

    def test_missing_trials_names_field(self, write_spec):
        path = write_spec(spec_document(**{"scenario.trials": ...}))
        diagnostics = validate_spec(path)
        assert any("trials" in d for d in diagnostics)

    def test_overflowing_bracket_mean_is_one_diagnostic(self, write_spec):
        # 1e308 + 1.5e308 is past the largest double, so the mean the
        # enhanced schemes divide by would be inf; both ends lie past 1e100
        document = spec_document(**{
            "scenario.noise": {"nominal_variance": 1e308, "bracket": [1e308, 1.5e308]},
            "scenario.detector.sample_count": 1,
        })
        assert validate_spec(write_spec(document)) == [
            "scenario.noise: bracket requires 1e-100 <= low <= high <= 1e100, "
            "got [1e+308, 1.5e+308]"
        ]

    def test_zero_receivers_diagnosed(self, write_spec):
        path = write_spec(spec_document(**{"scenario.fusion.num_sus": 0}))
        diagnostics = validate_spec(path)
        assert any("num_sus" in d for d in diagnostics)

    def test_overflowing_denominator_is_one_diagnostic(self, write_spec):
        # sample_count * bracket.high = 4 * 1e308 is past the largest double;
        # the bracket's high end lies past 1e100
        document = spec_document(**{
            "scenario.detector.sample_count": 4,
            "scenario.noise": {"nominal_variance": 1e307, "bracket": [1.0, 1e308]},
            "scenario.fusion.num_sus": 1,
            "scenario.fusion.prior_h0": 1.0,
        })
        assert validate_spec(write_spec(document)) == [
            "scenario.noise: bracket requires 1e-100 <= low <= high <= 1e100, "
            "got [1.0, 1e+308]"
        ]

    # the exponential closed forms take sample_count * threshold, which
    # passed validation and then failed the run in nominal_rates; the
    # threshold lies past 1e100
    def test_overflowing_exponential_threshold_is_one_diagnostic(self, write_spec):
        reason = "threshold must lie in [0, 1e100], got 1e+300"
        given = {"scenario.detector.sample_count": 10**10,
                 "scenario.noise": {"nominal_variance": 1.0, "bracket": [1.0, 1.0]}}
        document = spec_document(**given, **{"scenario.detector.threshold": 1e300})
        assert validate_spec(write_spec(document)) == [f"scenario.detector: {reason}"]
        swept = spec_document(**given, **{
            "sweep": {"axis": "threshold", "values": [1.0, 1e300]},
            "scenario.detector.threshold": ...,
            "scenario.snr_db": 0.0,
        })
        assert validate_spec(write_spec(swept)) == [f"sweep.values: {reason}"]

    def test_vote_threshold_above_receivers_diagnosed(self, write_spec):
        path = write_spec(spec_document(**{"scenario.fusion.vote_threshold": 9}))
        diagnostics = validate_spec(path)
        assert any("vote_threshold" in d for d in diagnostics)

    def test_vote_threshold_checked_against_swept_receivers(self, write_spec):
        document = spec_document(
            **{
                "sweep.axis": "num_sus",
                "sweep.values": [1, 2, 4],
                "scenario.fusion.vote_threshold": 3,
                "scenario.snr_db": -10.0,
            }
        )
        diagnostics = validate_spec(write_spec(document))
        assert any("vote_threshold" in d for d in diagnostics)

    def test_complement_convention(self, write_spec):
        document = spec_document(
            **{"scenario.fusion.vote_threshold": ...}
        )
        document["scenario"]["fusion"]["vote_threshold_complement"] = 2
        spec = load_spec(write_spec(document))
        assert spec.base.fusion.vote_threshold == 1

    def test_complement_resolved_per_swept_receiver_count(self, write_spec):
        document = spec_document(
            **{
                "sweep.axis": "num_sus",
                "sweep.values": [6, 10, 20],
                "scenario.snr_db": -10.0,
                "scenario.fusion.num_sus": 6,
                "scenario.fusion.vote_threshold": ...,
            }
        )
        document["scenario"]["fusion"]["vote_threshold_complement"] = 5
        spec = load_spec(write_spec(document))
        votes = [cell.fusion.vote_threshold for cell in spec.cells]
        assert votes == [1, 5, 15]

    def test_complement_checked_against_swept_receivers(self, write_spec):
        document = spec_document(
            **{
                "sweep.axis": "num_sus",
                "sweep.values": [5, 6, 10],
                "scenario.snr_db": -10.0,
                "scenario.fusion.num_sus": 6,
                "scenario.fusion.vote_threshold": ...,
            }
        )
        document["scenario"]["fusion"]["vote_threshold_complement"] = 5
        diagnostics = validate_spec(write_spec(document))
        assert any(
            "vote_threshold_complement" in d and "[5]" in d for d in diagnostics
        )

    @pytest.mark.parametrize(
        "field, given, votes",
        [
            ("vote_threshold_complement", 5, [1, 5, 15]),
            ("vote_threshold", 5, [5, 5, 5]),
        ],
    )
    def test_swept_receivers_checked_at_swept_values(
        self, write_spec, field, given, votes
    ):
        # base num_sus 3 cannot hold the rule, but every swept K can
        document = json.loads(resolve_spec_path("fig3").read_text(encoding="utf-8"))
        document["sweep"] = {"axis": "num_sus", "values": [6, 10, 20]}
        document["scenario"]["snr_db"] = -10.0
        fusion = document["scenario"]["fusion"]
        del fusion["vote_threshold_complement"]
        fusion["num_sus"] = 3
        fusion[field] = given
        path = write_spec(document)
        assert validate_spec(path) == []
        spec = load_spec(path)
        assert [cell.fusion.vote_threshold for cell in spec.cells] == votes

    def test_both_vote_conventions_rejected(self, write_spec):
        document = spec_document()
        document["scenario"]["fusion"]["vote_threshold_complement"] = 2
        diagnostics = validate_spec(write_spec(document))
        assert any("vote_threshold" in d for d in diagnostics)

    def test_empty_sweep_rejected(self, write_spec):
        diagnostics = validate_spec(write_spec(spec_document(**{"sweep.values": []})))
        assert any("sweep.values" in d for d in diagnostics)

    def test_unknown_scheme_rejected(self, write_spec):
        diagnostics = validate_spec(
            write_spec(spec_document(schemes=["fixed", "wavelet"]))
        )
        assert any("wavelet" in d for d in diagnostics)

    def test_fixed_truth_rejected_for_experiments(self, write_spec):
        diagnostics = validate_spec(
            write_spec(spec_document(**{"scenario.truth": "h0"}))
        )
        assert diagnostics == ["scenario.truth: has no effect, remove it"]

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        diagnostics = validate_spec(path)
        assert any("JSON" in d for d in diagnostics)

    def test_missing_file(self, tmp_path):
        diagnostics = validate_spec(tmp_path / "absent.json")
        assert any("not found" in d for d in diagnostics)

    def test_explicit_bracket_accepted(self, write_spec):
        document = spec_document()
        document["scenario"]["noise"] = {
            "nominal_variance": 1.0,
            "bracket": [0.98, 1.04],
        }
        spec = load_spec(write_spec(document))
        assert spec.base.noise.bracket.low == 0.98

    @pytest.mark.parametrize(
        "field, value",
        [
            ("confidence", 0.99),
            ("calibration_mean", 1.01),
            ("calibration_sd", 0.03883),
            ("calibration_count", 100),
        ],
    )
    def test_calibration_field_beside_bracket_rejected(self, write_spec, field, value):
        document = spec_document()
        document["scenario"]["noise"] = {
            "nominal_variance": 1.0,
            "bracket": [0.98, 1.04],
            field: value,
        }
        diagnostics = validate_spec(write_spec(document))
        assert diagnostics == [
            f"scenario.noise.{field}: has no effect, remove it (an explicit "
            "bracket replaces the calibration)"
        ]

    @pytest.mark.parametrize(
        "axis, field", [("snr_db", "snr_db"), ("threshold", "detector.threshold")]
    )
    def test_field_replaced_by_its_sweep_rejected(self, write_spec, axis, field):
        document = spec_document(**{
            "sweep.axis": axis, "sweep.values": [1.0, 2.0], "scenario.snr_db": -10.0
        })
        *blocks, key = ("scenario", *field.split("."))
        target = document
        for block in blocks:
            target = target[block]
        del target[key]
        assert validate_spec(write_spec(document)) == []  # not required
        target[key] = 1.5
        assert validate_spec(write_spec(document)) == [
            f"scenario.{field}: has no effect, remove it (the {axis} sweep "
            "replaces it)"
        ]

    def test_each_block_reports_its_range_error(self, write_spec):
        document = spec_document(**{
            "scenario.trials": 0,
            "scenario.detector.sample_count": 0,
            "scenario.noise.confidence": 1.5,
            "scenario.fusion.prior_h0": 2.0,
        })
        assert validate_spec(write_spec(document)) == [
            "scenario.detector: sample_count must lie in [1, 2**53], got 0",
            "scenario.noise: confidence must lie in (0, 1), got 1.5",
            "scenario.fusion: prior_h0 must lie in [0, 1], got 2.0",
            "scenario: trials must be >= 1, got 0",
        ]

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("calibration_count", 1, "must be an integer >= 2, got 1"),
            ("calibration_sd", -0.1, "must be >= 0, got -0.1"),
        ],
    )
    def test_calibration_range_error_names_its_key(
        self, write_spec, capsys, field, value, reason
    ):
        path = write_spec(spec_document(**{f"scenario.noise.{field}": value}))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"scenario.noise: {field} {reason}\n"

    def test_bad_swept_receiver_count_named_with_its_value(self, write_spec):
        document = spec_document(**{
            "sweep.axis": "num_sus",
            "sweep.values": [3, 0],
            "scenario.snr_db": -10.0,
        })
        assert validate_spec(write_spec(document)) == [
            "sweep.values: num_sus must be >= 1, got 0"
        ]

    def test_scheme_options_rejected_as_without_effect(self, write_spec):
        document = spec_document()
        document["scenario"]["scheme_options"] = {"weights_ratio": 0.5}
        diagnostics = validate_spec(write_spec(document))
        assert len(diagnostics) == 1
        assert diagnostics[0].startswith("scenario.scheme_options: has no effect")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "1e400"])
    def test_nonfinite_threshold_sweep_rejected(self, write_spec, token):
        document = spec_document(**{
            "sweep.axis": "threshold",
            "sweep.values": [1.0, 1.12],
            "scenario.snr_db": -10.0,
            "scenario.detector.threshold": ...,
        })
        assert validate_spec(write_spec(document)) == []
        diagnostics = validate_spec(
            write_spec(with_leaf(document, ("sweep", "values", 1), token))
        )
        assert diagnostics == [
            f"sweep.values: threshold must lie in [0, 1e100], got {float(token)!r}"
        ]

    @pytest.mark.parametrize(
        "field, token",
        [
            ("threshold", "NaN"),
            ("threshold", "Infinity"),
        ],
    )
    def test_nonfinite_detector_fields_rejected(self, write_spec, field, token):
        leaf = ("scenario", "detector", field)
        document = spec_document(**{".".join(leaf): 1.0})
        diagnostics = validate_spec(write_spec(with_leaf(document, leaf, token)))
        assert diagnostics == [
            f"scenario.detector: {field} must lie in [0, 1e100], got {float(token)!r}"
        ]

    @pytest.mark.parametrize("name", ["fig2", "fig3"])
    def test_overflowing_snr_sweep_rejected(self, write_spec, name):
        # 10^(3100 / 10) is past the largest double, and 3100 dB past 1000 dB
        document = json.loads(resolve_spec_path(name).read_text(encoding="utf-8"))
        document["sweep"]["values"] = [-10, 3100]
        assert validate_spec(write_spec(document)) == [
            "sweep.values: snr_db must be finite and at most 1000 dB, got 3100.0"
        ]

    def test_overflowing_scenario_snr_rejected(self, write_spec):
        document = spec_document(**{"scenario.snr_db": 3100})
        document["sweep"] = {"axis": "num_sus", "values": [3, 5]}
        assert validate_spec(write_spec(document)) == [
            "scenario: snr_db must be finite and at most 1000 dB, got 3100.0"
        ]

    @pytest.mark.parametrize(
        "bracket",
        ["[true, 2]", "[1, false]", f"[1, {BIG}]"],
        ids=["true-low", "false-high", "big-high"],
    )
    def test_bracket_endpoint_must_be_a_float(self, write_spec, bracket):
        document = spec_document()
        document["scenario"]["noise"] = {"nominal_variance": 1.0, "bracket": [1, 2]}
        leaf = ("scenario", "noise", "bracket")
        diagnostics = validate_spec(write_spec(with_leaf(document, leaf, bracket)))
        assert diagnostics == [
            "scenario.noise.bracket: expected [low, high] numbers within the "
            "float range"
        ]

    def test_integer_too_long_to_parse_diagnosed(self, write_spec):
        leaf = ("scenario", "seed")
        text = with_leaf(spec_document(), leaf, "1" + "0" * 5000)
        (diagnostic,) = validate_spec(write_spec(text))
        assert diagnostic.startswith("spec: not valid JSON")

    def test_nominal_outside_bracket_diagnosed(self, write_spec):
        document = spec_document()
        document["scenario"]["noise"] = {
            "nominal_variance": 2.0,
            "bracket": [0.98, 1.04],
        }
        diagnostics = validate_spec(write_spec(document))
        assert any("noise" in d for d in diagnostics)


class TestRunExperiment:
    def test_csv_structure_and_content(self, write_spec, tmp_path):
        path = write_spec(spec_document())
        out = run_experiment(path, out_path=tmp_path / "out.csv", quiet=True)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 2  # sweep values x schemes
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(CSV_COLUMNS)
            row = dict(zip(CSV_COLUMNS, cells))
            assert row["scheme"] in {k.value for k in SchemeKind}
            for column in ["pd", "pf", "qf", "qm", "qe"]:
                value = float(row[column])
                assert 0.0 <= value <= 1.0
            assert float(row["pd_lo"]) <= float(row["pd"]) <= float(row["pd_hi"])
            assert float(row["pf_lo"]) <= float(row["pf"]) <= float(row["pf_hi"])
            assert int(row["trials"]) == 1500
            assert int(row["seed"]) == 4242

    def test_analytic_columns_match_recomputation(self, write_spec, tmp_path):
        path = write_spec(spec_document())
        spec = load_spec(path)
        out = run_experiment(path, out_path=tmp_path / "out.csv", quiet=True)
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        for line in lines:
            row = dict(zip(CSV_COLUMNS, line.split(",")))
            scenario = Scenario(
                detector=spec.base.detector,
                noise=spec.base.noise,
                fusion=spec.base.fusion,
                snr_db=float(row["sweep_value"]),
                trials=spec.base.trials,
                seed=spec.base.seed,
                family=AnalyticFamily.EXPONENTIAL,
            )
            reference = nominal_rates(scenario)
            assert float(row["pf_analytic"]) == reference.p_f
            assert float(row["pd_analytic"]) == reference.p_d
            assert float(row["qe_analytic"]) == reference.q_e

    def test_rerun_is_byte_identical(self, write_spec, tmp_path):
        path = write_spec(spec_document())
        first = run_experiment(path, out_path=tmp_path / "a.csv", quiet=True)
        second = run_experiment(path, out_path=tmp_path / "b.csv", quiet=True)
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_does_not_change_bytes(self, write_spec, tmp_path):
        path = write_spec(spec_document())
        serial = run_experiment(
            path, out_path=tmp_path / "w1.csv", workers=1, quiet=True
        )
        parallel = run_experiment(
            path, out_path=tmp_path / "w3.csv", workers=3, quiet=True
        )
        assert serial.read_bytes() == parallel.read_bytes()

    # the default pool has one worker per CPU of the affinity mask, which
    # taskset or a cpuset narrows, not one per CPU of the host
    @pytest.mark.parametrize("cpus, pools", [({1}, []), ({0, 2, 5}, [3])])
    def test_default_workers_are_the_usable_cpus(
        self, write_spec, tmp_path, monkeypatch, cpus, pools
    ):
        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        run_experiment(write_spec(spec_document()), out_path=tmp_path / "out.csv",
                       quiet=True)
        assert sizes == pools

    def test_unknown_cpu_count_runs_serially(self, write_spec, tmp_path, monkeypatch):
        # no affinity mask and no CPU count: one worker, so no pool
        def no_pool(max_workers):
            raise AssertionError("a pool was made")

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        path = write_spec(spec_document())
        out = run_experiment(path, out_path=tmp_path / "out.csv", quiet=True)
        serial = run_experiment(path, out_path=tmp_path / "w1.csv", workers=1, quiet=True)
        assert out.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("workers, message", [
        (2.0, "--workers: workers must be an integer, got 2.0"),
        (0, "--workers: workers must be >= 1, got 0"),
        (True, "--workers: workers must be an integer, got True"),
    ])
    def test_worker_count_checked_before_a_pool_is_made(
        self, write_spec, tmp_path, monkeypatch, workers, message
    ):
        def no_pool(max_workers):
            raise AssertionError("a pool was made")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(SpecValidationError) as excinfo:
            run_experiment(write_spec(spec_document()), out_path=tmp_path / "out.csv",
                           workers=workers, quiet=True)
        assert excinfo.value.diagnostics == [message]
        assert not (tmp_path / "out.csv").exists()

    def test_seed_override_changes_rows(self, write_spec, tmp_path):
        path = write_spec(spec_document())
        base = run_experiment(path, out_path=tmp_path / "a.csv", quiet=True)
        other = run_experiment(
            path, out_path=tmp_path / "b.csv", seed=99, quiet=True
        )
        assert base.read_bytes() != other.read_bytes()
        assert other.read_text(encoding="utf-8").splitlines()[1].endswith(",99")

    def test_output_dir_from_environment(self, write_spec, tmp_path, monkeypatch):
        out_dir = tmp_path / "results"
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(out_dir))
        path = write_spec(spec_document())
        out = run_experiment(path, quiet=True)
        assert out == out_dir / "unit_results.csv"
        assert out.exists()

    def test_out_of_range_seed_override_rejected(self, write_spec, tmp_path):
        path = write_spec(spec_document())
        with pytest.raises(SpecValidationError) as excinfo:
            run_experiment(path, out_path=tmp_path / "out.csv", seed=2**64, quiet=True)
        assert excinfo.value.diagnostics == [
            f"--seed: seed must be a 64-bit integer, got {2**64}"
        ]
        assert not (tmp_path / "out.csv").exists()

    def test_invalid_spec_raises_with_diagnostics(self, write_spec):
        path = write_spec(spec_document(**{"scenario.trials": ...}))
        with pytest.raises(SpecValidationError) as excinfo:
            run_experiment(path, quiet=True)
        assert any("trials" in d for d in excinfo.value.diagnostics)

    def test_each_sweep_value_drawn_once(self, write_spec, tmp_path, monkeypatch):
        # every block of a sweep value is simulated once for all four
        # schemes, and a second run reuses nothing from the first
        calls = []
        simulate = montecarlo._simulate_block

        def counting(scenario, rng, n):
            calls.append(n)
            return simulate(scenario, rng, n)

        monkeypatch.setattr(montecarlo, "_simulate_block", counting)
        path = write_spec(spec_document(
            schemes=["fixed", "two_step", "expectation", "convex"]
        ))
        for out in ["a.csv", "b.csv"]:
            calls.clear()
            run_experiment(path, out_path=tmp_path / out, workers=1, quiet=True)
            assert calls == [512, 512, 476] * 2  # sweep values x blocks
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_no_partial_file_on_bad_target(self, write_spec, tmp_path):
        path = write_spec(spec_document())
        target_dir = tmp_path / "somewhere"
        out = run_experiment(path, out_path=target_dir / "o.csv", quiet=True)
        # directory is created, write is atomic, no temp files remain
        leftovers = [p for p in target_dir.iterdir() if p != out]
        assert leftovers == []


class TestMainEntry:
    def test_validate_ok(self, write_spec, capsys):
        path = write_spec(spec_document())
        assert main(["validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_module_runs_as_a_script(self, monkeypatch, capsys):
        # `python -m coopsense.cli_experiments validate fig2`; the module is
        # run afresh, so the imported copy steps aside meanwhile
        monkeypatch.delitem(sys.modules, "coopsense.cli_experiments")
        monkeypatch.setattr(sys, "argv", ["coopsense", "validate", "fig2"])
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_module("coopsense.cli_experiments", run_name="__main__")
        assert excinfo.value.code == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_spec_exit_code(self, write_spec, capsys):
        path = write_spec(spec_document(**{"scenario.trials": ...}))
        assert main(["validate", str(path)]) == 2
        assert "trials" in capsys.readouterr().err

    def test_run_bad_spec_exit_code(self, write_spec, capsys):
        path = write_spec(spec_document(**{"scenario.fusion.num_sus": 0}))
        assert main(["run", str(path)]) == 2
        assert "num_sus" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unreadable_spec_exit_code(self, tmp_path, capsys, command):
        # a directory given as the spec is an input fault, not a traceback
        # or an output error
        assert main([command, str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("spec: cannot read") and str(tmp_path) in line

    @pytest.mark.parametrize(
        "text, diagnostic",
        [
            (json.dumps(spec_document(**{"scenario.fusion.vote_threshold": ...})),
             "scenario.fusion.vote_threshold: required field is missing"),
            ("[1, 2]", "spec: top level must be a JSON object"),
            (json.dumps(spec_document(schemes=[])),
             "schemes: must list at least one scheme"),
            (with_leaf(spec_document(**{"scenario.noise": {
                "nominal_variance": 1.0, "bracket": [1.0, 1.02]}}),
                ("scenario", "noise", "bracket", 0), "NaN"),
             "scenario.noise: bracket requires 1e-100 <= low <= high <= 1e100, "
             "got [nan, 1.02]"),
        ],
        ids=["no-vote-key", "top-level-list", "no-scheme", "nan-bracket"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_spec_diagnostic_is_the_one_stderr_line(
        self, write_spec, capsys, command, text, diagnostic
    ):
        assert main([command, str(write_spec(text))]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [diagnostic]
        assert captured.out == ""

    @pytest.mark.parametrize("flag, value, message", [
        ("--k", "0", "--k: num_sus must be >= 1, got 0"),
        ("--alpha", "1.5", "--alpha: prior_h0 must lie in [0, 1], got 1.5"),
    ])
    def test_optimize_n_names_the_flag(self, capsys, flag, value, message):
        # the diagnostic names the flag the user typed
        args = {"--k": "10", "--pf": "0.1", "--pd": "0.9", "--alpha": "0.5", flag: value}
        code = main(["optimize-n", *(part for pair in args.items() for part in pair)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [message]

    def test_output_error_leaves_no_temp_file(self, write_spec, tmp_path, capsys):
        path = write_spec(spec_document(**{"scenario.trials": 100}))
        out = tmp_path / "taken"
        out.mkdir()
        assert main(["run", str(path), "--out", str(out), "--workers", "1"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("output error:")
        assert sorted(tmp_path.iterdir()) == [path, out]
        assert list(out.iterdir()) == []

    def test_failing_cell_named_and_no_csv(
        self, write_spec, tmp_path, capsys, monkeypatch
    ):
        def failing_at_seven_db(scenario):
            if scenario.snr_db == 7.0:
                raise ConvergenceError("did not converge")
            return nominal_rates(scenario)

        monkeypatch.setattr(cli_experiments, "nominal_rates", failing_at_seven_db)
        document = json.loads(resolve_spec_path("fig3").read_text(encoding="utf-8"))
        document["sweep"]["values"] = [-10, 7]
        document["scenario"]["trials"] = 100
        path = write_spec(document)
        out = tmp_path / "fig3.csv"
        assert main(["run", str(path), "--out", str(out), "--workers", "1"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "cell snr_db=7 fixed: ConvergenceError: did not converge"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers see the patched block function only when forked",
    )
    def test_failing_pooled_value_named_and_queue_cancelled(
        self, write_spec, tmp_path, capsys, monkeypatch
    ):
        simulate = montecarlo._simulate_block
        # inherited by the forked workers; set once the pool has cancelled
        release = multiprocessing.Event()

        def failing_at_minus_ten_db(scenario, rng, n):
            if scenario.snr_db == -10.0:
                raise ValueError("block failed")
            # every value after the failing one holds its worker until the
            # pool has cancelled, so both workers and the call queue fill
            # up and the last share is still pending when the parent reads
            # the failure; the timeout only ends a run that never cancels
            if scenario.snr_db > -10.0 and not release.wait(10.0):
                release.set()
            return simulate(scenario, rng, n)

        futures = []

        def on_done(future):
            if future.cancelled():
                release.set()

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                futures[-1].add_done_callback(on_done)
                return futures[-1]

        monkeypatch.setattr(montecarlo, "_simulate_block", failing_at_minus_ten_db)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        values = [-12.0, -10.0, -8.0, -6.0, -4.0, -2.0, 0.0, 2.0]
        path = write_spec(spec_document(**{"sweep.values": values}))
        out = tmp_path / "pooled.csv"
        assert main(["run", str(path), "--out", str(out), "--workers", "2"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "cell snr_db=-10.0 fixed: ValueError: block failed"
        assert list(tmp_path.iterdir()) == [path]
        # four shares per worker queued up front, one sweep value each here
        assert len(futures) == 4 * 2
        assert all(future.done() for future in futures)
        assert any(future.cancelled() for future in futures)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers see the patched block runner only when forked",
    )
    def test_dead_pool_worker_named_and_no_csv(
        self, write_spec, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(montecarlo, "_run_blocks", dying_worker)
        document = json.loads(resolve_spec_path("fig3").read_text(encoding="utf-8"))
        document["scenario"]["trials"] = 100
        path = write_spec(document)
        out = tmp_path / "fig3.csv"
        assert main(["run", str(path), "--out", str(out), "--workers", "2"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert re.fullmatch(r"cell snr_db=\S+ fixed: BrokenProcessPool: .+", line)
        assert list(tmp_path.iterdir()) == [path]
        assert multiprocessing.active_children() == []

    def test_pooled_run_leaves_no_process(self, write_spec, tmp_path, capsys):
        path = write_spec(spec_document(**{"scenario.trials": 1100}))
        out = tmp_path / "pooled.csv"
        assert main(["run", str(path), "--out", str(out), "--workers", "2"]) == 0
        assert out.exists()
        assert multiprocessing.active_children() == []

    # 1000 dB is the largest SNR a scenario accepts
    @pytest.mark.parametrize("snr_db", [80, 400, 1000])
    def test_high_snr_cells_run_with_certain_detection(
        self, write_spec, tmp_path, capsys, snr_db
    ):
        document = json.loads(resolve_spec_path("fig3").read_text(encoding="utf-8"))
        document["sweep"]["values"] = [snr_db]
        document["scenario"]["trials"] = 100
        path = write_spec(document)
        out = tmp_path / "fig3.csv"
        assert main(["run", str(path), "--out", str(out), "--workers", "1"]) == 0
        rows = [dict(zip(CSV_COLUMNS, line.split(",")))
                for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert len(rows) == 4
        assert all(row["pd_analytic"] == "1.0" for row in rows)

    def test_run_writes_csv(self, write_spec, tmp_path, capsys):
        document = spec_document(**{"scenario.trials": 200})
        path = write_spec(document)
        out = tmp_path / "cli.csv"
        assert main(["run", str(path), "--out", str(out), "--workers", "1"]) == 0
        assert out.exists()

    def test_optimize_n_output(self, capsys):
        code = main(
            ["optimize-n", "--k", "10", "--pf", "0.1", "--pd", "0.9",
             "--alpha", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n_star=" in out and "q_e_star=" in out
        fields = dict(part.split("=") for part in out.split())
        assert 1 <= int(fields["n_star"]) <= 10
        assert int(fields["n_star_complement"]) == 10 - int(fields["n_star"])
        assert 0.0 <= float(fields["q_e_star"]) <= 1.0

    def test_optimize_n_invalid_probability(self, capsys):
        code = main(
            ["optimize-n", "--k", "5", "--pf", "1.5", "--pd", "0.9",
             "--alpha", "0.5"]
        )
        assert code == 2


class TestBundledSpecs:
    def test_resolution_by_name(self):
        path = resolve_spec_path("fig2")
        assert path.name == "fig2.json"
        assert path.exists()

    def test_directory_does_not_hide_the_bundled_name(self, tmp_path, monkeypatch):
        # only an explicit file is taken over the bundled spec of that name
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fig2").mkdir()
        assert resolve_spec_path("fig2").parent.name == "specs"
        (tmp_path / "fig3").write_text("{}", encoding="utf-8")
        assert resolve_spec_path("fig3") == Path("fig3")

    def test_fig3_uses_complement_convention(self):
        spec = load_spec(resolve_spec_path("fig3"))
        assert spec.base.fusion.num_sus == 6
        assert spec.base.fusion.vote_threshold == 1
        # K - 5 votes at the K = 6 of every cell
        assert {cell.fusion.vote_threshold for cell in spec.cells} == {1}

    def test_fig2_parameters(self):
        spec = load_spec(resolve_spec_path("fig2"))
        assert spec.sweep_axis == "snr_db"
        assert spec.sweep_values[0] == -20 and spec.sweep_values[-1] == 0
        assert spec.base.fusion.num_sus == 10
        assert spec.base.fusion.vote_threshold == 5
        assert spec.base.fusion.report_error == 0.001
        assert len(spec.schemes) == 4

    def test_fig4_parameters(self):
        spec = load_spec(resolve_spec_path("fig4"))
        assert spec.sweep_axis == "num_sus"
        assert min(spec.sweep_values) == 1 and max(spec.sweep_values) == 30
        assert spec.base.snr_db == -10.0
        assert spec.base.fusion.vote_threshold == 1
        assert math.isclose(spec.base.trials, 100000)


BUNDLED = {
    name: json.loads(resolve_spec_path(name).read_text(encoding="utf-8"))
    for name in ("fig2", "fig3", "fig4")
}


def leaf_paths(node, path=()):
    """Key/index path of every scalar in a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in children for leaf in leaf_paths(child, (*path, key))]


class TestMalformedSpecs:
    @settings(max_examples=300, deadline=None)
    @given(
        leaf=st.sampled_from(
            [(name, path) for name, doc in BUNDLED.items() for path in leaf_paths(doc)]
        ),
        token=st.sampled_from(
            ["NaN", "Infinity", "-Infinity", "1e400", BIG, "-1", "0", "1.5",
             "true", "null", '"x"', "[]", "{}"]
        ),
    )
    def test_one_bad_leaf_is_diagnosed_or_every_cell_builds(self, leaf, token):
        name, path = leaf
        with tempfile.TemporaryDirectory() as tmp:
            spec_path = Path(tmp) / f"{name}.json"
            spec_path.write_text(with_leaf(BUNDLED[name], path, token), encoding="utf-8")
            diagnostics = validate_spec(spec_path)
            assert len(diagnostics) <= 1, diagnostics
            if diagnostics:
                return
            spec = load_spec(spec_path)
        assert len(spec.cells) == len(spec.sweep_values)
        for cell in spec.cells:
            nominal_rates(cell)

    # the fields a known axis would replace are neither required nor
    # rejected beside an unknown one, so only the axis is diagnosed
    @pytest.mark.parametrize("axis", ['"bogus"', "3", "null"], ids=["bogus", "3", "null"])
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_unknown_sweep_axis_is_the_one_diagnostic(self, write_spec, name, axis):
        path = write_spec(with_leaf(BUNDLED[name], ("sweep", "axis"), axis))
        (found,) = validate_spec(path)
        assert found.startswith("sweep.axis: ")

    # nor beside a sweep that is missing or is no object with an axis
    @pytest.mark.parametrize(
        "sweep, expected",
        [("5", ["sweep: expected an object, got 5"]),
         ("null", ["sweep: expected an object, got None"]),
         ('"x"', ["sweep: expected an object, got 'x'"]),
         ("[]", ["sweep: expected an object, got []"]),
         ("{}", ["sweep.axis: required field is missing",
                 "sweep.values: required field is missing"]),
         ('{"values": [1]}', ["sweep.axis: required field is missing"]),
         (None, ["sweep: required field is missing"])],
        ids=["5", "null", "string", "list", "empty", "no_axis", "missing"],
    )
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_missing_or_malformed_sweep_is_its_own_diagnostic(
        self, write_spec, name, sweep, expected
    ):
        if sweep is None:
            document = {k: v for k, v in BUNDLED[name].items() if k != "sweep"}
        else:
            document = with_leaf(BUNDLED[name], ("sweep",), sweep)
        assert validate_spec(write_spec(document)) == expected

    # a repeated key would otherwise take its last value and pass as "ok"
    @pytest.mark.parametrize(
        "path, token",
        [(("scenario", "trials"), '100, "trials": 200'),
         (("scenario", "fusion", "vote_threshold"), '1, "vote_threshold": 2')],
        ids=["trials", "vote_threshold"],
    )
    def test_repeated_key_is_the_one_diagnostic(self, write_spec, capsys, path, token):
        spec_path = write_spec(with_leaf(BUNDLED["fig2"], path, token))
        assert main(["validate", str(spec_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        key = path[-1]
        assert line == f"spec: not valid JSON: key {key!r} is given twice in one object"

    # a repeat would otherwise write the same CSV rows twice
    def test_repeated_scheme_is_the_one_diagnostic(self, write_spec):
        path = write_spec(with_leaf(BUNDLED["fig2"], ("schemes",), '["fixed", "convex", "fixed"]'))
        assert validate_spec(path) == ["schemes: 'fixed' is listed more than once"]

    def test_repeated_sweep_value_is_the_one_diagnostic(self, write_spec):
        # equal numbers repeat whatever their JSON spelling
        path = write_spec(with_leaf(BUNDLED["fig2"], ("sweep", "values"), "[-10, -12, -10.0]"))
        assert validate_spec(path) == ["sweep.values: -10.0 is listed more than once"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_deep_nesting_is_the_one_diagnostic(
        self, write_spec, tmp_path, capsys, command
    ):
        nest = "[" * 100_000 + "]" * 100_000
        spec_path = write_spec(with_leaf(BUNDLED["fig2"], ("name",), nest))
        out = ["--out", str(tmp_path / "out.csv")] if command == "run" else []
        assert main([command, str(spec_path), *out]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("spec: not valid JSON: maximum recursion depth")
        assert list(tmp_path.iterdir()) == [spec_path]


class TestBigIntegers:
    """A JSON integer beyond the float range gets one diagnostic naming its
    field, not an ``OverflowError``."""

    @pytest.mark.parametrize(
        "path, diagnostic",
        [
            (("scenario", "snr_db"), "scenario.snr_db: integer beyond"),
            (("scenario", "detector", "threshold"),
             "scenario.detector.threshold: integer beyond"),
            (("scenario", "detector", "sample_count"),
             "scenario.detector.sample_count: integer beyond"),
            (("scenario", "noise", "nominal_variance"),
             "scenario.noise.nominal_variance: integer beyond"),
            (("scenario", "noise", "calibration_count"),
             "scenario.noise.calibration_count: integer beyond"),
            (("scenario", "fusion", "prior_h0"),
             "scenario.fusion.prior_h0: integer beyond"),
            (("sweep", "values", 1), "sweep.values: integer beyond"),
        ],
    )
    def test_one_diagnostic_names_the_field(self, write_spec, path, diagnostic):
        document = copy.deepcopy(BUNDLED["fig4"])
        if path[0] == "sweep":
            document["sweep"] = {"axis": "threshold", "values": [1.0, 1.062]}
            del document["scenario"]["detector"]["threshold"]
        assert validate_spec(write_spec(document)) == []
        (found,) = validate_spec(write_spec(with_leaf(document, path, BIG)))
        assert found.startswith(diagnostic)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block_keys():
    """The README's key table: the keys of each block, by block path."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = lines[lines.index("| block | keys |") + 2:]
    table = {}
    for row in itertools.takewhile(lambda row: row.startswith("|"), rows):
        block, keys = (cell.strip() for cell in row.strip("|").split("|"))
        path = () if block == "top level" else tuple(block.strip("`").split("."))
        table[path] = set(re.findall(r"`([^`]+)`", keys))
    return table


# the keys each block of a spec is read for, as the README lists them
BLOCK_KEYS = readme_block_keys()


class TestUnreadKeys:
    """A key that no run reads cannot be given and silently ignored."""

    def test_readme_lists_the_field_table(self):
        fields = {}
        for path in cli_experiments._FIELDS:
            *block, key = path.split(".")
            fields.setdefault(tuple(block), set()).add(key)
        assert BLOCK_KEYS == fields

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(BUNDLED)),
        block=st.sampled_from(sorted(BLOCK_KEYS)),
        value=st.sampled_from([1.0, 0, 5, "x", None, True, [], {}]),
        data=st.data(),
    )
    def test_one_diagnostic_names_the_key(self, name, block, value, data):
        key = data.draw(
            st.one_of(
                st.sampled_from(
                    ["time_bandwidth", "channel_gain", "signal_variance", "report_eror"]
                ),
                st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,15}", fullmatch=True),
            ).filter(lambda key: key not in BLOCK_KEYS[block]),
            label="key",
        )
        document = copy.deepcopy(BUNDLED[name])
        target = document
        for part in block:
            target = target[part]
        target[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            spec_path = Path(tmp) / f"{name}.json"
            spec_path.write_text(json.dumps(document), encoding="utf-8")
            diagnostics = validate_spec(spec_path)
        assert diagnostics == [f"{'.'.join((*block, key))}: has no effect, remove it"]


BRACKET_RANGE = "bracket requires 1e-100 <= low <= high <= 1e100"


def bracket_noise(low, high):
    return {"nominal_variance": 1.0, "bracket": [low, high]}


class TestRangeEdges:
    """Each scenario field has one range: its edge validates, and the next
    value past it is one diagnostic naming its block (or ``sweep.values``
    as a swept value)."""

    @pytest.mark.parametrize(
        "path, edge, past, diagnostic",
        [
            ("scenario.detector.sample_count", 1, 0,
             "scenario.detector: sample_count must lie in [1, 2**53], got 0"),
            ("scenario.detector.sample_count", 2**53, 2**53 + 1,
             "scenario.detector: sample_count must lie in [1, 2**53], "
             "got 9007199254740993"),
            ("scenario.detector.threshold", 0.0, -5e-324,
             "scenario.detector: threshold must lie in [0, 1e100], got -5e-324"),
            ("scenario.detector.threshold", 1e100, math.nextafter(1e100, math.inf),
             "scenario.detector: threshold must lie in [0, 1e100], "
             "got 1.0000000000000002e+100"),
            ("scenario.noise", bracket_noise(1e-100, 1.02),
             bracket_noise(math.nextafter(1e-100, 0.0), 1.02),
             f"scenario.noise: {BRACKET_RANGE}, got [{math.nextafter(1e-100, 0.0)!r}, 1.02]"),
            ("scenario.noise", bracket_noise(1.0, 1e100),
             bracket_noise(1.0, math.nextafter(1e100, math.inf)),
             f"scenario.noise: {BRACKET_RANGE}, got [1.0, 1.0000000000000002e+100]"),
            ("scenario.snr_db", 1000.0, math.nextafter(1000.0, math.inf),
             "scenario: snr_db must be finite and at most 1000 dB, "
             "got 1000.0000000000001"),
        ],
        ids=["count-low", "count-high", "threshold-low", "threshold-high",
             "bracket-low", "bracket-high", "snr-high"],
    )
    def test_edge_validates_and_past_it_is_one_diagnostic(
        self, write_spec, path, edge, past, diagnostic
    ):
        # a num_sus sweep leaves scenario.snr_db a field of its own
        sweep = {"axis": "num_sus", "values": [3, 5]}
        document = spec_document(**{"sweep": sweep, "scenario.snr_db": -10.0, path: edge})
        assert validate_spec(write_spec(document)) == []
        document = spec_document(**{"sweep": sweep, "scenario.snr_db": -10.0, path: past})
        assert validate_spec(write_spec(document)) == [diagnostic]

    @pytest.mark.parametrize(
        "axis, edge, past, reason",
        [
            ("threshold", 1e100, math.nextafter(1e100, math.inf),
             "threshold must lie in [0, 1e100], got 1.0000000000000002e+100"),
            ("threshold", 0.0, -5e-324, "threshold must lie in [0, 1e100], got -5e-324"),
            ("snr_db", 1000.0, math.nextafter(1000.0, math.inf),
             "snr_db must be finite and at most 1000 dB, got 1000.0000000000001"),
        ],
        ids=["threshold-high", "threshold-low", "snr-high"],
    )
    def test_swept_edge_validates_and_past_it_is_one_diagnostic(
        self, write_spec, axis, edge, past, reason
    ):
        document = spec_document(**{"sweep": {"axis": axis, "values": [1.0, edge]}})
        if axis == "threshold":  # the sweep replaces the field it names
            document["scenario"]["snr_db"] = -10.0
            del document["scenario"]["detector"]["threshold"]
        assert validate_spec(write_spec(document)) == []
        document["sweep"]["values"] = [1.0, past]
        assert validate_spec(write_spec(document)) == [f"sweep.values: {reason}"]

    # scenarios whose kernel decided on an overflowed value before the
    # ranges: an exponential signal past the largest double read p_d 1.0
    # against the exact 0.905, its chi-square twin 1.0 against 0.0, and a
    # chi-square 2 * sample_count of inf with 0.5 * variance of 0 drew NaN
    # energies; each field past its range is named
    @pytest.mark.parametrize(
        "family, sample_count, threshold, variance, snr_db, diagnostics",
        [
            ("exponential", 1, 1e307, 10.0, 3080.0, [
                "scenario.detector: threshold must lie in [0, 1e100], got 1e+307",
                "scenario: snr_db must be finite and at most 1000 dB, got 3080.0",
            ]),
            ("chi_square", 5, 1e300, 1e10, 2980.0, [
                "scenario.detector: threshold must lie in [0, 1e100], got 1e+300",
                "scenario: snr_db must be finite and at most 1000 dB, got 2980.0",
            ]),
            ("chi_square", int(1.26e308), 0.0, 5e-324, 0.0, [
                f"scenario.detector: sample_count must lie in [1, 2**53], "
                f"got {int(1.26e308)}",
                f"scenario.noise: {BRACKET_RANGE}, got [5e-324, 5e-324]",
            ]),
        ],
        ids=["exponential-signal", "chi-square-signal", "chi-square-degrees"],
    )
    def test_overflowing_kernel_reproductions_rejected_by_name(
        self, write_spec, family, sample_count, threshold, variance, snr_db,
        diagnostics,
    ):
        document = spec_document(**{
            "sweep": {"axis": "num_sus", "values": [1, 2]},
            "scenario.family": family,
            "scenario.snr_db": snr_db,
            "scenario.detector": {"sample_count": sample_count, "threshold": threshold},
            "scenario.noise": {"nominal_variance": variance,
                               "bracket": [variance, variance]},
            "scenario.fusion.prior_h0": 0.0,
        })
        assert validate_spec(write_spec(document)) == diagnostics


class TestNominalRange:
    @settings(max_examples=150, deadline=None)
    @given(
        snr_db=st.one_of(
            st.floats(-300.0, 300.0),
            st.floats(-4000.0, 4000.0),
            st.sampled_from([999.5, 1000.0, math.nextafter(1000.0, math.inf)]),
        ),
        threshold=st.one_of(
            st.floats(0.0, 100.0),
            st.floats(0.0, 1e308),
            st.sampled_from([1e100, math.nextafter(1e100, math.inf)]),
        ),
    )
    def test_every_validated_fig3_cell_evaluates(self, snr_db, threshold):
        """No SNR or threshold that validation admits takes the closed forms
        out of [0, 1] or into an error; it rejects exactly an SNR above
        1000 dB or a threshold above 1e100."""
        document = copy.deepcopy(BUNDLED["fig3"])
        document["sweep"]["values"] = [snr_db]
        document["scenario"]["detector"]["threshold"] = threshold
        with tempfile.TemporaryDirectory() as tmp:
            spec_path = Path(tmp) / "fig3.json"
            spec_path.write_text(json.dumps(document), encoding="utf-8")
            diagnostics = validate_spec(spec_path)
            # a failed block stops validation before the sweep's cells
            if threshold > 1e100:
                assert diagnostics == [
                    f"scenario.detector: threshold must lie in [0, 1e100], got {threshold!r}"
                ]
                return
            if snr_db > 1000.0:
                assert diagnostics == [
                    f"sweep.values: snr_db must be finite and at most 1000 dB, got {snr_db!r}"
                ]
                return
            assert diagnostics == []
            spec = load_spec(spec_path)
        (cell,) = spec.cells
        assert cell.snr_db == snr_db
        rates = nominal_rates(cell)
        for rate in (rates.p_f, rates.p_d, rates.q_f, rates.q_m, rates.q_e):
            assert 0.0 <= rate <= 1.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["chi_square", "exponential"]),
        sample_count=st.one_of(
            st.integers(1, 2**53),
            st.integers(1, 5000),
            st.sampled_from([1, 2, 99, 100, 101, 2**53 - 1, 2**53]),
        ),
        snr_db=st.one_of(st.floats(-4000.0, 1000.0), st.sampled_from([-4000.0, 1000.0])),
        threshold=st.one_of(
            st.floats(0.0, 100.0),
            st.floats(0.0, 1e100),
            st.sampled_from([0.0, 1e100]),
        ),
    )
    def test_every_validated_sample_count_evaluates(
        self, family, sample_count, snr_db, threshold
    ):
        """Both families at every sample_count validation admits, [1, 2**53]
        with both ends, and any admitted SNR and threshold: the closed forms
        take the cell's order and arguments, so no domain of theirs sits
        inside a scenario's ranges, and every rate lies in [0, 1]."""
        document = copy.deepcopy(BUNDLED["fig3"])
        document["scenario"]["family"] = family
        document["scenario"]["detector"] = {
            "sample_count": sample_count, "threshold": threshold}
        document["sweep"]["values"] = [snr_db]
        with tempfile.TemporaryDirectory() as tmp:
            spec_path = Path(tmp) / "fig3.json"
            spec_path.write_text(json.dumps(document), encoding="utf-8")
            assert validate_spec(spec_path) == []
            spec = load_spec(spec_path)
        (cell,) = spec.cells
        assert cell.detector.sample_count == sample_count
        rates = nominal_rates(cell)
        for rate in (rates.p_f, rates.p_d, rates.q_f, rates.q_m, rates.q_e):
            assert 0.0 <= rate <= 1.0


def load_document(document) -> ExperimentSpec:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        return load_spec(path)


class TestReceiverSweep:
    """A num_sus sweep validates exactly when every cell it names builds."""

    TEMPLATE = spec_document(**{
        "sweep.axis": "num_sus",
        "sweep.values": [1],
        "scenario.snr_db": -10.0,
    })

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(0, 12), min_size=1, max_size=5),
        complement=st.booleans(),
        given=st.integers(-2, 14),
    )
    def test_validates_iff_every_cell_builds(self, values, complement, given):
        document = copy.deepcopy(self.TEMPLATE)
        document["sweep"]["values"] = values
        fusion = document["scenario"]["fusion"]
        del fusion["vote_threshold"]
        fusion["vote_threshold_complement" if complement else "vote_threshold"] = given
        try:
            spec = load_document(document)
        except SpecValidationError:
            spec = None

        # the same cells built directly from the vote rule, bypassing validation
        base = load_document(self.TEMPLATE).base
        votes = [k - given if complement else given for k in values]
        try:
            cells = tuple(
                replace(base, fusion=replace(base.fusion, num_sus=k, vote_threshold=n))
                for k, n in zip(values, votes)
            )
        except ValueError:
            cells = None
        if len(set(values)) < len(values):
            cells = None  # a value listed twice is diagnosed
        assert (spec is not None) == (cells is not None)
        if spec is not None:
            assert spec.cells == cells
