"""Command-line experiment runner.

Reads a JSON experiment spec, sweeps one axis (``snr_db``, ``num_sus`` or
``threshold``) across a list of values for each requested scheme, and
writes one CSV row per (sweep value, scheme). Output is written to a
temporary file and atomically renamed, so a crashed run never leaves a
partial table, and a cell that fails stops the run with a diagnostic
naming its sweep value and scheme. Results are byte-identical for a given
seed regardless of ``--workers``.

Usage:
    coopsense run SPEC [--out PATH] [--seed N] [--workers N]
    coopsense validate SPEC
    coopsense optimize-n --k K --pf PF --pd PD --alpha ALPHA

SPEC is a path to a spec file, or the name of a bundled spec (fig2, fig3,
fig4). dB-to-linear SNR conversion happens inside the scenario layer; spec
files always carry dB. The default output directory is taken from the
``COOPSENSE_OUTPUT_DIR`` environment variable when set.
"""

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .detector import DetectorConfig
from .fusion import FusionConfig, optimize_vote_count
from .montecarlo import (
    AnalyticFamily,
    AnalyticRates,
    Scenario,
    ScenarioEstimate,
    SweepDraws,
    estimate,
    nominal_rates,
)
from .noise_model import NoiseUncertaintyModel, VarianceBracket
from .specfun import ConvergenceError
from .threshold_schemes import SchemeKind

__all__ = [
    "CSV_COLUMNS",
    "ENV_OUTPUT_DIR",
    "ExperimentSpec",
    "SpecValidationError",
    "load_spec",
    "validate_spec",
    "run_experiment",
    "main",
]

ENV_OUTPUT_DIR = "COOPSENSE_OUTPUT_DIR"

CSV_COLUMNS = [
    "sweep_value",
    "scheme",
    "pd",
    "pd_lo",
    "pd_hi",
    "pf",
    "pf_lo",
    "pf_hi",
    "qf",
    "qm",
    "qe",
    "pd_analytic",
    "pf_analytic",
    "qe_analytic",
    "steps_mean",
    "trials",
    "seed",
]

_SWEEP_AXES = ("snr_db", "num_sus", "threshold")


class SpecValidationError(ValueError):
    """Invalid experiment spec; ``diagnostics`` lists every problem found."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    sweep_axis: str
    sweep_values: tuple
    schemes: tuple[SchemeKind, ...]
    base: Scenario
    output: str
    # set when the spec counts votes as K - n; resolved per swept K
    vote_complement: int | None = None


def resolve_spec_path(spec_arg: str) -> Path:
    """Resolve a CLI spec argument: explicit path first, bundled name next."""
    path = Path(spec_arg)
    if path.exists():
        return path
    name = spec_arg if spec_arg.endswith(".json") else f"{spec_arg}.json"
    bundled = resources.files("coopsense").joinpath("specs", name)
    if bundled.is_file():
        return Path(str(bundled))
    return path


def _beyond_float(value) -> bool:
    """True for a JSON integer too large to convert to a double."""
    return isinstance(value, int) and abs(value) > sys.float_info.max


def _get(mapping, key, kind, diagnostics, prefix, required=True, default=None):
    if key not in mapping:
        if required:
            diagnostics.append(f"{prefix}{key}: required field is missing")
        return default
    value = mapping[key]
    if kind in (float, int) and _beyond_float(value):
        diagnostics.append(f"{prefix}{key}: integer beyond the float range")
        return default
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            diagnostics.append(f"{prefix}{key}: expected a number, got {value!r}")
            return default
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            diagnostics.append(f"{prefix}{key}: expected an integer, got {value!r}")
            return default
        return value
    if kind is str:
        if not isinstance(value, str):
            diagnostics.append(f"{prefix}{key}: expected a string, got {value!r}")
            return default
        return value
    if kind is dict:
        if not isinstance(value, dict):
            diagnostics.append(f"{prefix}{key}: expected an object, got {value!r}")
            return default
        return value
    if kind is list:
        if not isinstance(value, list):
            diagnostics.append(f"{prefix}{key}: expected a list, got {value!r}")
            return default
        return value
    raise AssertionError(kind)


def _parse_detector(block, diagnostics):
    sample_count = _get(block, "sample_count", int, diagnostics, "scenario.detector.")
    time_bandwidth = _get(
        block, "time_bandwidth", float, diagnostics, "scenario.detector."
    )
    threshold = _get(block, "threshold", float, diagnostics, "scenario.detector.")
    channel_gain = _get(
        block, "channel_gain", float, diagnostics, "scenario.detector.",
        required=False, default=1.0,
    )
    signal_variance = _get(
        block, "signal_variance", float, diagnostics, "scenario.detector.",
        required=False,
    )
    if None in (sample_count, time_bandwidth, threshold):
        return None
    try:
        return DetectorConfig(
            sample_count=sample_count,
            time_bandwidth=time_bandwidth,
            threshold=threshold,
            channel_gain=channel_gain,
            signal_variance=signal_variance,
        )
    except ValueError as exc:
        diagnostics.append(f"scenario.detector: {exc}")
        return None


# calibration fields; beside an explicit bracket none of them has an effect
_CALIBRATION_FIELDS = (
    "confidence", "calibration_mean", "calibration_sd", "calibration_count"
)


def _parse_noise(block, diagnostics):
    nominal = _get(block, "nominal_variance", float, diagnostics, "scenario.noise.")
    if "bracket" in block:
        bracket = block["bracket"]
        if (
            not isinstance(bracket, list)
            or len(bracket) != 2
            or any(
                isinstance(v, bool)
                or not isinstance(v, (int, float))
                or _beyond_float(v)
                for v in bracket
            )
        ):
            diagnostics.append(
                "scenario.noise.bracket: expected [low, high] numbers within "
                "the float range"
            )
            return None
        unused = [field for field in _CALIBRATION_FIELDS if field in block]
        for field in unused:
            diagnostics.append(
                f"scenario.noise.{field}: has no effect, remove it (an explicit "
                "bracket replaces the calibration)"
            )
        if nominal is None or unused:
            return None
        try:
            return NoiseUncertaintyModel(
                nominal_variance=nominal,
                bracket=VarianceBracket(low=float(bracket[0]), high=float(bracket[1])),
            )
        except ValueError as exc:
            diagnostics.append(f"scenario.noise: {exc}")
            return None
    confidence = _get(
        block, "confidence", float, diagnostics, "scenario.noise.",
        required=False, default=0.99,
    )
    mean = _get(block, "calibration_mean", float, diagnostics, "scenario.noise.")
    sd = _get(block, "calibration_sd", float, diagnostics, "scenario.noise.")
    count = _get(block, "calibration_count", int, diagnostics, "scenario.noise.")
    if None in (nominal, confidence, mean, sd, count):
        return None
    try:
        return NoiseUncertaintyModel.from_calibration(
            nominal_variance=nominal,
            calibration_mean=mean,
            calibration_sd=sd,
            sample_count=count,
            confidence=confidence,
        )
    except ValueError as exc:
        diagnostics.append(f"scenario.noise: {exc}")
        return None


def _parse_fusion(block, diagnostics, sweep_axis, sweep_values):
    num_sus = _get(block, "num_sus", int, diagnostics, "scenario.fusion.")
    prior_h0 = _get(
        block, "prior_h0", float, diagnostics, "scenario.fusion.",
        required=False, default=0.5,
    )
    report_error = _get(
        block, "report_error", float, diagnostics, "scenario.fusion.",
        required=False, default=0.0,
    )
    has_direct = "vote_threshold" in block
    has_complement = "vote_threshold_complement" in block
    if has_direct and has_complement:
        diagnostics.append(
            "scenario.fusion: give either vote_threshold or "
            "vote_threshold_complement, not both"
        )
        return None
    if not has_direct and not has_complement:
        diagnostics.append("scenario.fusion.vote_threshold: required field is missing")
        return None
    if num_sus is None:
        return None
    field = "vote_threshold" if has_direct else "vote_threshold_complement"
    given = _get(block, field, int, diagnostics, "scenario.fusion.")
    if given is None:
        return None
    complement = None if has_direct else given
    # a num_sus sweep checks the rule, and builds the base, at the swept
    # receiver counts; the spec's own num_sus is then not used
    swept = sweep_axis == "num_sus"
    counts = list(sweep_values) if swept else [num_sus]
    if not counts:
        return None  # the sweep's own diagnostic is already recorded
    if counts[0] < 1:
        diagnostics.append(f"scenario.fusion.num_sus: must be >= 1, got {num_sus}")
        return None
    votes = [given if complement is None else k - given for k in counts]
    bad = [k for k, n in zip(counts, votes) if not 1 <= n <= k]
    if bad:
        rule = "[1, K]" if complement is None else "[0, K - 1]"
        where = (
            f"every swept num_sus value K (violated at {bad[:3]})"
            if swept
            else f"K = num_sus = {num_sus}"
        )
        diagnostics.append(
            f"scenario.fusion.{field}: must lie in {rule} for {where}, got {given}"
        )
        return None
    try:
        config = FusionConfig(
            num_sus=counts[0],
            vote_threshold=votes[0],
            prior_h0=prior_h0,
            report_error=report_error,
        )
    except ValueError as exc:
        diagnostics.append(f"scenario.fusion: {exc}")
        return None
    return config, complement


def _parse_schemes(raw, diagnostics):
    if raw is None:
        return None
    if not raw:
        diagnostics.append("schemes: must list at least one scheme")
        return None
    schemes = []
    for entry in raw:
        try:
            schemes.append(SchemeKind(entry))
        except ValueError:
            diagnostics.append(
                f"schemes: unknown scheme {entry!r} "
                f"(choose from {[k.value for k in SchemeKind]})"
            )
            return None
    return tuple(schemes)


def _linear_snr_finite(snr_db) -> bool:
    """True when snr_db and the linear SNR 10^(snr_db / 10) are finite."""
    try:
        return math.isfinite(snr_db) and math.isfinite(10.0 ** (snr_db / 10.0))
    except OverflowError:
        return False


def _parse_spec(document, spec_name, diagnostics):
    if not isinstance(document, dict):
        diagnostics.append("spec: top level must be a JSON object")
        return None

    name = _get(document, "name", str, diagnostics, "", required=False,
                default=spec_name)
    sweep = _get(document, "sweep", dict, diagnostics, "")
    schemes_raw = _get(document, "schemes", list, diagnostics, "")
    scenario_block = _get(document, "scenario", dict, diagnostics, "")
    output = _get(document, "output", str, diagnostics, "", required=False,
                  default=f"{name}_results.csv")

    sweep_axis = None
    sweep_values = ()
    if sweep is not None:
        sweep_axis = _get(sweep, "axis", str, diagnostics, "sweep.")
        values = _get(sweep, "values", list, diagnostics, "sweep.")
        if sweep_axis is not None and sweep_axis not in _SWEEP_AXES:
            diagnostics.append(
                f"sweep.axis: unknown axis {sweep_axis!r} (choose from {_SWEEP_AXES})"
            )
            sweep_axis = None
        if values is not None:
            if not values:
                diagnostics.append("sweep.values: must be nonempty")
            elif any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
                diagnostics.append("sweep.values: every value must be a number")
            elif sweep_axis == "num_sus" and any(
                not isinstance(v, int) or v < 1 for v in values
            ):
                diagnostics.append(
                    "sweep.values: num_sus values must be integers >= 1"
                )
            elif any(map(_beyond_float, values)):
                diagnostics.append("sweep.values: integer beyond the float range")
            elif sweep_axis == "threshold" and any(
                not math.isfinite(v) or v < 0 for v in values
            ):
                diagnostics.append("sweep.values: thresholds must be finite and >= 0")
            elif sweep_axis == "snr_db" and not all(map(_linear_snr_finite, values)):
                diagnostics.append(
                    "sweep.values: snr_db values must be finite, with a finite "
                    "linear SNR 10^(snr_db / 10)"
                )
            else:
                sweep_values = tuple(values)

    if scenario_block is None:
        return None

    trials = _get(scenario_block, "trials", int, diagnostics, "scenario.")
    seed = _get(scenario_block, "seed", int, diagnostics, "scenario.")
    snr_db = _get(
        scenario_block, "snr_db", float, diagnostics, "scenario.",
        required=(sweep_axis != "snr_db"), default=0.0,
    )
    family_raw = _get(
        scenario_block, "family", str, diagnostics, "scenario.",
        required=False, default=AnalyticFamily.EXPONENTIAL.value,
    )
    truth = _get(
        scenario_block, "truth", str, diagnostics, "scenario.",
        required=False, default="mixed",
    )

    family = None
    try:
        family = AnalyticFamily(family_raw)
    except ValueError:
        diagnostics.append(
            f"scenario.family: unknown family {family_raw!r} "
            f"(choose from {[f.value for f in AnalyticFamily]})"
        )
    if truth != "mixed":
        diagnostics.append(
            f"scenario.truth: must be 'mixed', got {truth!r} (every trial "
            "draws its hypothesis; scenario.fusion.prior_h0 = 1 runs H0 only "
            "and 0 runs H1 only)"
        )

    detector_block = _get(scenario_block, "detector", dict, diagnostics, "scenario.")
    noise_block = _get(scenario_block, "noise", dict, diagnostics, "scenario.")
    fusion_block = _get(scenario_block, "fusion", dict, diagnostics, "scenario.")
    if "scheme_options" in scenario_block:
        diagnostics.append(
            "scenario.scheme_options: has no effect, remove it (every noise "
            "component expects the bracket mean, so the convex normalizer is "
            "that mean whatever the weights or exponent)"
        )

    detector = _parse_detector(detector_block, diagnostics) if detector_block else None
    noise = _parse_noise(noise_block, diagnostics) if noise_block else None
    fusion, vote_complement = (
        _parse_fusion(fusion_block, diagnostics, sweep_axis, sweep_values)
        if fusion_block
        else None
    ) or (None, None)  # _parse_fusion returns None after a diagnostic
    schemes = _parse_schemes(schemes_raw, diagnostics)

    if trials is not None and trials < 1:
        diagnostics.append(f"scenario.trials: must be >= 1, got {trials}")
        trials = None
    if seed is not None and not 0 <= seed < 2**64:
        diagnostics.append(f"scenario.seed: must be a 64-bit integer, got {seed}")
        seed = None
    if snr_db is not None and not _linear_snr_finite(snr_db):
        diagnostics.append(
            "scenario.snr_db: must be finite, with a finite linear SNR "
            f"10^(snr_db / 10), got {snr_db}"
        )
        snr_db = None

    pieces = (detector, noise, fusion, schemes, trials, seed, snr_db, family,
              sweep_axis)
    if diagnostics or any(p is None for p in pieces) or not sweep_values:
        return None

    base = Scenario(
        detector=detector,
        noise=noise,
        scheme=schemes[0],
        fusion=fusion,
        snr_db=snr_db,
        trials=trials,
        seed=seed,
        family=family,
    )
    return ExperimentSpec(
        name=name,
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        schemes=schemes,
        base=base,
        output=output,
        vote_complement=vote_complement,
    )


def load_spec(path) -> ExperimentSpec:
    """Parse and validate a spec file; raises SpecValidationError if bad."""
    path = Path(path)
    diagnostics: list[str] = []
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SpecValidationError([f"spec: file not found: {path}"]) from None
    except ValueError as exc:  # malformed JSON, or an integer too long to parse
        raise SpecValidationError([f"spec: not valid JSON: {exc}"]) from None
    spec = _parse_spec(document, path.stem, diagnostics)
    if spec is None:
        if not diagnostics:
            diagnostics.append("spec: invalid (no further detail)")
        raise SpecValidationError(diagnostics)
    return spec


def validate_spec(path) -> list[str]:
    """Full structural validation without running anything; [] means ok."""
    try:
        load_spec(path)
    except SpecValidationError as exc:
        return exc.diagnostics
    return []


def _scenario_for(spec: ExperimentSpec, value, scheme: SchemeKind) -> Scenario:
    base = spec.base
    if spec.sweep_axis == "snr_db":
        return replace(base, scheme=scheme, snr_db=float(value))
    if spec.sweep_axis == "num_sus":
        num_sus = int(value)
        vote_threshold = (
            base.fusion.vote_threshold
            if spec.vote_complement is None
            else num_sus - spec.vote_complement
        )
        fusion = replace(base.fusion, num_sus=num_sus, vote_threshold=vote_threshold)
        return replace(base, scheme=scheme, fusion=fusion)
    detector = replace(base.detector, threshold=float(value))
    return replace(base, scheme=scheme, detector=detector)


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_row(
    value, scheme: SchemeKind, result: ScenarioEstimate, nominal: AnalyticRates
) -> str:
    cells = [
        _format_value(value),
        scheme.value,
        repr(float(result.p_d.value)),
        repr(float(result.p_d.lower)),
        repr(float(result.p_d.upper)),
        repr(float(result.p_f.value)),
        repr(float(result.p_f.lower)),
        repr(float(result.p_f.upper)),
        repr(float(result.q_f.value)),
        repr(float(result.q_m.value)),
        repr(float(result.q_e.value)),
        repr(float(nominal.p_d)),
        repr(float(nominal.p_f)),
        repr(float(nominal.q_e)),
        repr(float(result.steps_mean)),
        str(result.trials),
        str(result.seed),
    ]
    return ",".join(cells)


def _resolve_output(spec: ExperimentSpec, out_arg) -> Path:
    if out_arg is not None:
        return Path(out_arg)
    base_dir = Path(os.environ.get(ENV_OUTPUT_DIR, "."))
    return base_dir / spec.output


# a cell failing with one of these stops the run with a diagnostic naming it
_CELL_ERRORS = (ArithmeticError, ConvergenceError, ValueError)


def _cell_failure(
    spec: ExperimentSpec, value, scheme: SchemeKind, exc: Exception
) -> SpecValidationError:
    return SpecValidationError([
        f"cell {spec.sweep_axis}={_format_value(value)} "
        f"{scheme.value}: {type(exc).__name__}: {exc}"
    ])


def run_experiment(
    spec_path,
    out_path=None,
    seed: int | None = None,
    workers: int | None = None,
    quiet: bool = False,
) -> Path:
    """Run every (sweep value, scheme) cell and write the CSV atomically.

    A sweep value is drawn once: its cells share one ``SweepDraws`` handle,
    simulated in the value's first ``estimate`` call, or, with more than one
    worker, queued on the pool for every value before the first cell runs
    and waited for in each value's first ``estimate`` call. The nominal
    closed forms are evaluated once per sweep value, in its first cell. A
    cell that fails raises ``SpecValidationError`` naming the sweep value,
    the scheme and the reason; queued work is cancelled and no CSV is
    written.
    """
    spec = load_spec(spec_path)
    if seed is not None:
        if not 0 <= seed < 2**64:
            raise SpecValidationError(
                [f"seed: must be a 64-bit integer, got {seed}"]
            )
        spec = replace(spec, base=replace(spec.base, seed=seed))
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise SpecValidationError([f"workers: must be >= 1, got {workers}"])

    target = _resolve_output(spec, out_path)
    target.parent.mkdir(parents=True, exist_ok=True)

    rows = []
    executor = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=workers)
    try:
        # one handle per sweep value, shared by its schemes' cells; with a
        # pool, every value's block ranges are queued before any is read
        draws = []
        for value in spec.sweep_values:
            try:
                scenario = _scenario_for(spec, value, spec.schemes[0])
                draws.append(SweepDraws(scenario, workers, executor))
            except _CELL_ERRORS as exc:
                raise _cell_failure(spec, value, spec.schemes[0], exc) from exc
        for value, shared in zip(spec.sweep_values, draws):
            nominal = None
            for scheme in spec.schemes:
                try:
                    scenario = _scenario_for(spec, value, scheme)
                    if nominal is None:
                        nominal = nominal_rates(scenario)
                    result = estimate(scenario, draws=shared)
                except _CELL_ERRORS as exc:
                    raise _cell_failure(spec, value, scheme, exc) from exc
                rows.append(_csv_row(value, scheme, result, nominal))
                if not quiet:
                    print(
                        f"{spec.name} {spec.sweep_axis}={value} "
                        f"{scheme.value}: qe={result.q_e.value:.6f} "
                        f"pf={result.p_f.value:.6f} pd={result.p_d.value:.6f}"
                    )
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)

    payload = "\n".join([",".join(CSV_COLUMNS), *rows]) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(payload)
        os.replace(tmp_name, target)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    if not quiet:
        print(f"wrote {target} ({len(rows)} rows)")
    return target


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coopsense",
        description="Cooperative spectrum sensing experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run an experiment spec")
    run_parser.add_argument("spec", help="spec file path or bundled name")
    run_parser.add_argument("--out", help="output CSV path", default=None)
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the spec seed")
    run_parser.add_argument("--workers", type=int, default=None,
                            help="worker processes (default: all cores)")

    validate_parser = sub.add_parser("validate", help="validate a spec file")
    validate_parser.add_argument("spec", help="spec file path or bundled name")

    opt_parser = sub.add_parser(
        "optimize-n", help="optimal vote count for given per-receiver rates"
    )
    opt_parser.add_argument("--k", type=int, required=True, help="receiver count")
    opt_parser.add_argument("--pf", type=float, required=True,
                            help="per-receiver false-alarm probability")
    opt_parser.add_argument("--pd", type=float, required=True,
                            help="per-receiver detection probability")
    opt_parser.add_argument("--alpha", type=float, required=True,
                            help="prior probability of the idle channel")

    args = parser.parse_args(argv)

    if args.command == "validate":
        diagnostics = validate_spec(resolve_spec_path(args.spec))
        if diagnostics:
            for line in diagnostics:
                print(line, file=sys.stderr)
            return 2
        print("ok")
        return 0

    if args.command == "run":
        try:
            run_experiment(
                resolve_spec_path(args.spec),
                out_path=args.out,
                seed=args.seed,
                workers=args.workers,
            )
        except SpecValidationError as exc:
            for line in exc.diagnostics:
                print(line, file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return 2
        return 0

    try:
        n_star, q_e_star = optimize_vote_count(args.k, args.pf, args.pd, args.alpha)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"n_star={n_star} q_e_star={q_e_star!r} "
          f"n_star_complement={args.k - n_star}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
