"""Tests for the experiment spec loader, runner and CLI."""

import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsense.cli_experiments import (
    CSV_COLUMNS,
    ENV_OUTPUT_DIR,
    SpecValidationError,
    _scenario_for,
    load_spec,
    main,
    resolve_spec_path,
    run_experiment,
    validate_spec,
)
from coopsense.montecarlo import AnalyticFamily, Scenario, TruthMode, nominal_rates
from coopsense.threshold_schemes import SchemeKind


def spec_document(**overrides):
    document = {
        "name": "unit",
        "sweep": {"axis": "snr_db", "values": [-12.0, -10.0]},
        "schemes": ["fixed", "expectation"],
        "output": "unit_results.csv",
        "scenario": {
            "family": "exponential",
            "truth": "mixed",
            "trials": 1500,
            "seed": 4242,
            "detector": {
                "sample_count": 400,
                "time_bandwidth": 400.0,
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

    def test_zero_receivers_diagnosed(self, write_spec):
        path = write_spec(spec_document(**{"scenario.fusion.num_sus": 0}))
        diagnostics = validate_spec(path)
        assert any("num_sus" in d for d in diagnostics)

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
        votes = [
            _scenario_for(spec, value, spec.schemes[0]).fusion.vote_threshold
            for value in spec.sweep_values
        ]
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
        assert [
            _scenario_for(spec, value, spec.schemes[0]).fusion.vote_threshold
            for value in spec.sweep_values
        ] == votes

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
        assert any("truth" in d for d in diagnostics)

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
        })
        assert validate_spec(write_spec(document)) == []
        diagnostics = validate_spec(
            write_spec(with_leaf(document, ("sweep", "values", 1), token))
        )
        assert diagnostics == ["sweep.values: thresholds must be finite and >= 0"]

    @pytest.mark.parametrize(
        "field, token",
        [
            ("time_bandwidth", "NaN"),
            ("time_bandwidth", "Infinity"),
            ("signal_variance", "NaN"),
            ("signal_variance", "Infinity"),
        ],
    )
    def test_nonfinite_detector_fields_rejected(self, write_spec, field, token):
        leaf = ("scenario", "detector", field)
        document = spec_document(**{".".join(leaf): 1.0})
        diagnostics = validate_spec(write_spec(with_leaf(document, leaf, token)))
        assert len(diagnostics) == 1
        assert diagnostics[0].startswith(f"scenario.detector: {field} must be finite")

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
                scheme=spec.schemes[0],
                fusion=spec.base.fusion,
                snr_db=float(row["sweep_value"]),
                trials=spec.base.trials,
                seed=spec.base.seed,
                truth=TruthMode.MIXED,
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

    def test_invalid_spec_raises_with_diagnostics(self, write_spec):
        path = write_spec(spec_document(**{"scenario.trials": ...}))
        with pytest.raises(SpecValidationError) as excinfo:
            run_experiment(path, quiet=True)
        assert any("trials" in d for d in excinfo.value.diagnostics)

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

    def test_validate_bad_spec_exit_code(self, write_spec, capsys):
        path = write_spec(spec_document(**{"scenario.trials": ...}))
        assert main(["validate", str(path)]) == 2
        assert "trials" in capsys.readouterr().err

    def test_run_bad_spec_exit_code(self, write_spec, capsys):
        path = write_spec(spec_document(**{"scenario.fusion.num_sus": 0}))
        assert main(["run", str(path)]) == 2
        assert "num_sus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "snr_db, reason",
        [(80, "ConvergenceError: marcum_q"), (400, "OverflowError")],
    )
    def test_failing_cell_named_and_no_csv(
        self, write_spec, tmp_path, capsys, snr_db, reason
    ):
        document = json.loads(resolve_spec_path("fig3").read_text(encoding="utf-8"))
        document["sweep"]["values"] = [-10, snr_db]
        document["scenario"]["trials"] = 100
        path = write_spec(document)
        out = tmp_path / "fig3.csv"
        assert main(["run", str(path), "--out", str(out), "--workers", "1"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"cell snr_db={snr_db} fixed: {reason}")
        assert list(tmp_path.iterdir()) == [path]

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

    def test_fig3_uses_complement_convention(self):
        spec = load_spec(resolve_spec_path("fig3"))
        assert spec.base.fusion.num_sus == 6
        assert spec.base.fusion.vote_threshold == 1
        assert spec.base.fusion.vote_threshold_complement == 5

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
            ["NaN", "Infinity", "-Infinity", "1e400", "-1", "0", "1.5", "true",
             "null", '"x"', "[]", "{}"]
        ),
    )
    def test_one_bad_leaf_is_diagnosed_or_every_cell_builds(self, leaf, token):
        name, path = leaf
        with tempfile.TemporaryDirectory() as tmp:
            spec_path = Path(tmp) / f"{name}.json"
            spec_path.write_text(with_leaf(BUNDLED[name], path, token), encoding="utf-8")
            diagnostics = validate_spec(spec_path)
            if diagnostics:
                return
            spec = load_spec(spec_path)
        for value in spec.sweep_values:
            cells = [_scenario_for(spec, value, scheme) for scheme in spec.schemes]
            nominal_rates(cells[0])
