"""Command-line experiment runner.

Reads a JSON experiment spec, sweeps one axis (``snr_db``, ``num_sus`` or
``threshold``) across a list of values for each requested scheme, and
writes one CSV row per (sweep value, scheme). Output is written to a
temporary file and atomically renamed, so a crashed run never leaves a
partial table, and a cell that fails stops the run with a diagnostic
naming its sweep value and scheme. Results are byte-identical for a given
seed regardless of ``--workers``. Validation reads a spec by one field
table, takes each range check from the model that owns it, and names every
problem it finds by its path.

Usage:
    coopsense run SPEC [--out PATH] [--seed N] [--workers N]
    coopsense validate SPEC
    coopsense optimize-n --k K --pf PF --pd PD --alpha ALPHA

SPEC is a path to a spec file, or the name of a bundled spec (fig2, fig3,
fig4); a directory of that name does not hide the bundled spec, and a spec
that cannot be read is a ``spec:`` diagnostic (exit 2). dB-to-linear SNR
conversion happens inside the scenario layer; spec files always carry dB.
The default output directory is taken from the ``COOPSENSE_OUTPUT_DIR``
environment variable when set.
"""

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .detector import DetectorConfig
from .fusion import CooperativeRates, FusionConfig, integer, optimize_vote_count
from .montecarlo import (
    Scenario,
    ScenarioEstimate,
    SchemeKind,
    SweepDraws,
    estimate,
    nominal_rates,
)
from .noise_model import NoiseUncertaintyModel, VarianceBracket, confidence_bracket
from .specfun import ConvergenceError

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
    cells: tuple[Scenario, ...]  # one per sweep value, built at load


def resolve_spec_path(spec_arg: str) -> Path:
    """Resolve a CLI spec argument: an explicit file first, bundled name next."""
    path = Path(spec_arg)
    if path.is_file():
        return path
    name = spec_arg if spec_arg.endswith(".json") else f"{spec_arg}.json"
    bundled = resources.files("coopsense").joinpath("specs", name)
    if bundled.is_file():
        return Path(str(bundled))
    return path


_BRACKET = (float, float)  # a JSON [low, high] pair of numbers

# every key a spec may hold, by path, parents before children: its JSON
# type and whether it is required; an optional key left out takes the
# default of the model that reads it
_FIELDS = {
    "name": (str, False),
    "sweep": (dict, True),
    "sweep.axis": (str, True),
    "sweep.values": (list, True),
    "schemes": (list, True),
    "output": (str, False),
    "scenario": (dict, True),
    "scenario.family": (str, False),
    "scenario.trials": (int, True),
    "scenario.seed": (int, True),
    "scenario.snr_db": (float, True),
    "scenario.detector": (dict, True),
    "scenario.detector.sample_count": (int, True),
    "scenario.detector.threshold": (float, True),
    "scenario.noise": (dict, True),
    "scenario.noise.nominal_variance": (float, True),
    "scenario.noise.bracket": (_BRACKET, False),
    "scenario.noise.confidence": (float, False),
    "scenario.noise.calibration_mean": (float, True),
    "scenario.noise.calibration_sd": (float, True),
    "scenario.noise.calibration_count": (int, True),
    "scenario.fusion": (dict, True),
    "scenario.fusion.num_sus": (int, True),
    "scenario.fusion.vote_threshold": (int, False),
    "scenario.fusion.vote_threshold_complement": (int, False),
    "scenario.fusion.prior_h0": (float, False),
    "scenario.fusion.report_error": (float, False),
}

# a key that another entry of the spec replaces has no effect beside it:
# path -> (that entry's path, the sweep axis it holds or None for any)
_REPLACED_BY = {
    "scenario.snr_db": ("sweep.axis", "snr_db"),
    "scenario.detector.threshold": ("sweep.axis", "threshold"),
    **dict.fromkeys(
        ("scenario.noise.confidence", "scenario.noise.calibration_mean",
         "scenario.noise.calibration_sd", "scenario.noise.calibration_count"),
        ("scenario.noise.bracket", None),
    ),
}

# the field whose value each sweep axis replaces in every cell
_SWEEP_FIELDS = {
    "snr_db": "scenario.snr_db",
    "num_sus": "scenario.fusion.num_sus",
    "threshold": "scenario.detector.threshold",
}

_EXPECTED = {int: "an integer", float: "a number", str: "a string",
             list: "a list", dict: "an object"}


def _typed(value, kind):
    """``value`` as a field of JSON type ``kind`` holds it (a float field
    takes an integer as a float); ValueError says why it cannot."""
    if kind is _BRACKET:
        if isinstance(value, list) and len(value) == 2:
            try:
                return [_typed(end, float) for end in value]
            except ValueError:
                pass
        raise ValueError("expected [low, high] numbers within the float range")
    if isinstance(value, bool) or not isinstance(
        value, (int, float) if kind is float else kind
    ):
        raise ValueError(f"expected {_EXPECTED[kind]}, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError("integer beyond the float range")
    return float(value) if kind is float else value


def _read(document, diagnostics):
    """Read a spec by ``_FIELDS``: ``{block path: {key: value}}`` for each
    block (top level ``""``) whose own keys all read.

    A key reads when the table holds it, it has its JSON type, and it is
    given when required and not where ``_REPLACED_BY`` says it has no
    effect; every other key gets one diagnostic by its path. A sub-block
    is a block of its own, not a field of its parent.
    """
    given = {"": document}  # the raw value of every key given, by path
    blocks, bad = {}, set()

    def diagnose(path, message):
        diagnostics.append(f"{path}: {message}")
        bad.add(path.rpartition(".")[0])

    def open_block(path, block):
        blocks[path] = {}
        prefix = f"{path}." if path else ""
        for key in block:
            if prefix + key not in _FIELDS:
                diagnose(prefix + key, "has no effect, remove it")

    open_block("", document)
    for path, (kind, required) in _FIELDS.items():
        parent, _, key = path.rpartition(".")
        if parent not in blocks:
            continue  # the block itself is missing or not an object
        entry, axis = _REPLACED_BY.get(path, (None, None))
        replaced = entry in given and axis in (None, given[entry])
        # a key that a sweep axis replaces is optional unless the axis is
        # known: a missing, malformed or unknown sweep is diagnosed on its own
        unsure = entry == "sweep.axis" and given.get(entry) not in tuple(_SWEEP_FIELDS)
        if key not in given[parent]:
            if required and not replaced and not unsure:
                diagnose(path, "required field is missing")
            continue
        given[path] = given[parent][key]
        if replaced:
            why = f"the {axis} sweep replaces it" if axis else (
                "an explicit bracket replaces the calibration"
            )
            diagnose(path, f"has no effect, remove it ({why})")
            continue
        try:
            value = _typed(given[path], kind)
        except ValueError as exc:
            diagnose(path, str(exc))
            continue
        if kind is dict:
            open_block(path, value)
        else:
            blocks[parent][key] = value
    return {path: fields for path, fields in blocks.items() if path not in bad}


def _build(path, make, fields, diagnostics, **base):
    """``make(**base, **fields)``, or None: after a diagnostic at ``path``
    with the constructor's reason, or at once when ``fields`` is None (the
    block's own keys were diagnosed)."""
    if fields is None:
        return None
    try:
        return make(**{**base, **fields})
    except ValueError as exc:
        diagnostics.append(f"{path}: {exc}")
        return None


def _noise(nominal_variance, bracket=None, **calibration):
    if bracket is not None:
        return NoiseUncertaintyModel(nominal_variance, VarianceBracket(*bracket))
    return NoiseUncertaintyModel(nominal_variance, confidence_bracket(**calibration))


def _diagnose_repeats(entries, path, diagnostics):
    """One diagnostic per entry listed more than once; equal numbers are
    one entry (-10 and -10.0 are one sweep value)."""
    seen, repeated = set(), set()
    for entry in entries:
        if entry in seen and entry not in repeated:
            repeated.add(entry)
            diagnostics.append(f"{path}: {entry!r} is listed more than once")
        seen.add(entry)


def _sweep(sweep, diagnostics):
    """The sweep's axis and values, each value of the JSON type of the field
    it replaces and listed once; no values after a diagnostic."""
    if sweep is None:
        return None, ()
    axis, values = sweep["axis"], sweep["values"]
    if axis not in _SWEEP_FIELDS:
        diagnostics.append(
            f"sweep.axis: unknown axis {axis!r} (choose from {tuple(_SWEEP_FIELDS)})"
        )
        return None, ()
    if not values:
        diagnostics.append("sweep.values: must be nonempty")
    before = len(diagnostics)
    kind, _ = _FIELDS[_SWEEP_FIELDS[axis]]
    for value in values:
        try:
            _typed(value, kind)
        except ValueError as exc:
            diagnostics.append(f"sweep.values: {exc}")
    if len(diagnostics) == before:
        _diagnose_repeats(values, "sweep.values", diagnostics)
    return axis, tuple(values) if len(diagnostics) == before else ()


def _fusion(fields, axis, sweep_values, diagnostics):
    """The base ``FusionConfig`` and the vote threshold n of every receiver
    count K the spec runs (its ``num_sus`` or each swept one), resolved from
    the spec's convention and checked, naming the spec's field, at every
    K >= 1. A ``num_sus`` sweep builds the base at its largest K, which
    every cell replaces (below 1, the reason names ``sweep.values``)."""
    if fields is None:
        return None, None
    swept = axis == "num_sus"
    counts = sweep_values if swept else (fields["num_sus"],)
    if not counts:
        return None, None  # the sweep's own diagnostic is recorded
    given = [key for key in ("vote_threshold", "vote_threshold_complement")
             if key in fields]
    if len(given) != 1:
        diagnostics.append(
            "scenario.fusion: give either vote_threshold or "
            "vote_threshold_complement, not both"
            if given
            else "scenario.fusion.vote_threshold: required field is missing"
        )
        return None, None
    (field,) = given
    n = fields.pop(field)
    direct = field == "vote_threshold"
    votes = {k: n if direct else k - n for k in counts}
    bad = [k for k in counts if k >= 1 and not 1 <= votes[k] <= k]
    if bad:
        rule = "[1, K]" if direct else "[0, K - 1]"
        diagnostics.append(
            f"scenario.fusion.{field}: must lie in {rule} at every receiver "
            f"count K the spec runs (violated at K = {bad[:3]}), got {n}"
        )
        return None, None
    k = max(counts)
    fields.update(num_sus=k, vote_threshold=votes[k])
    path = "sweep.values" if swept and k < 1 else "scenario.fusion"
    return _build(path, FusionConfig, fields, diagnostics), votes


def _scenario_for(base: Scenario, axis: str, votes, value) -> Scenario:
    """The cell of one sweep value; ``votes`` maps each receiver count the
    spec runs to its vote threshold."""
    if axis == "snr_db":
        return replace(base, snr_db=float(value))
    if axis == "threshold":
        return replace(base, detector=replace(base.detector, threshold=float(value)))
    fusion = replace(base.fusion, num_sus=value, vote_threshold=votes[value])
    return replace(base, fusion=fusion)


def _parse_spec(document, spec_name, diagnostics):
    if not isinstance(document, dict):
        diagnostics.append("spec: top level must be a JSON object")
        return None
    blocks = _read(document, diagnostics)
    top = blocks.get("", {})
    axis, sweep_values = _sweep(blocks.get("sweep"), diagnostics)

    schemes = []
    for entry in top.get("schemes", ()):
        try:
            schemes.append(SchemeKind(entry))
        except ValueError as exc:
            diagnostics.append(f"schemes: {exc}")
    _diagnose_repeats([scheme.value for scheme in schemes], "schemes", diagnostics)
    if top.get("schemes") == []:
        diagnostics.append("schemes: must list at least one scheme")

    # each block is built as soon as its own keys read, so every block's
    # range error shows; a swept field holds 0.0 in the base (a num_sus
    # sweep's is set in _fusion), and every cell replaces it
    detector = _build(
        "scenario.detector", DetectorConfig, blocks.get("scenario.detector"),
        diagnostics, threshold=0.0,
    )
    noise = _build("scenario.noise", _noise, blocks.get("scenario.noise"), diagnostics)
    fusion, votes = _fusion(
        blocks.get("scenario.fusion"), axis, sweep_values, diagnostics
    )
    # Scenario checks only its own fields, so a failed sub-block is None here
    base = _build(
        "scenario", Scenario, blocks.get("scenario"), diagnostics,
        snr_db=0.0, detector=detector, noise=noise, fusion=fusion,
    )
    if diagnostics:
        return None

    # a sweep value passes exactly the rule of the field it replaces
    cells = []
    for value in sweep_values:
        try:
            cells.append(_scenario_for(base, axis, votes, value))
        except ValueError as exc:
            diagnostics.append(f"sweep.values: {exc}")
    name = top.get("name", spec_name)
    return None if diagnostics else ExperimentSpec(
        name=name,
        sweep_axis=axis,
        sweep_values=sweep_values,
        schemes=tuple(schemes),
        base=base,
        output=top.get("output", f"{name}_results.csv"),
        cells=tuple(cells),
    )


def _unique_keys(pairs):
    """A JSON object as a dict; a key given twice is a ValueError, not
    silently its last value."""
    document = {}
    for key, value in pairs:
        if key in document:
            raise ValueError(f"key {key!r} is given twice in one object")
        document[key] = value
    return document


def load_spec(path) -> ExperimentSpec:
    """Parse and validate a spec file; raises SpecValidationError if bad."""
    path = Path(path)
    diagnostics: list[str] = []
    try:
        text = path.read_text(encoding="utf-8")
        document = json.loads(text, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise SpecValidationError([f"spec: file not found: {path}"]) from None
    except OSError as exc:  # a directory, no permission, a failing device
        raise SpecValidationError([f"spec: cannot read: {exc}"]) from None
    # malformed JSON, a repeated key, an integer too long or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise SpecValidationError([f"spec: not valid JSON: {exc}"]) from None
    spec = _parse_spec(document, path.stem, diagnostics)
    if diagnostics:
        raise SpecValidationError(diagnostics)
    return spec


def validate_spec(path) -> list[str]:
    """Full structural validation without running anything; [] means ok."""
    try:
        load_spec(path)
    except SpecValidationError as exc:
        return exc.diagnostics
    return []


def _csv_row(
    value, scheme: SchemeKind, result: ScenarioEstimate, nominal: CooperativeRates
) -> str:
    cells = [
        str(value),
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
        f"cell {spec.sweep_axis}={value} "
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

    A sweep value is drawn once: the run makes one ``SweepDraws``, and a
    value's cells share its tallies, simulated in the value's first
    ``estimate`` call, or, with more than one worker, queued before the
    first cell runs as shares of equal energy draws, at least four per
    worker, and waited for in each value's first ``estimate`` call. The
    nominal closed forms are evaluated once per sweep value, in its first
    cell. A cell that fails raises ``SpecValidationError`` naming the sweep
    value, the scheme and the reason; queued work is cancelled and no CSV
    is written. ``workers`` must be an integer >= 1, checked before any
    pool is made.
    """
    spec = load_spec(spec_path)
    cells = spec.cells
    if seed is not None:
        try:
            cells = [replace(cell, seed=seed) for cell in cells]
        except ValueError as exc:
            raise SpecValidationError([f"--seed: {exc}"]) from None
    if workers is None:
        # the CPUs this process may run on, which taskset or a cpuset
        # narrows; every CPU where the platform keeps no affinity mask
        if hasattr(os, "sched_getaffinity"):
            workers = len(os.sched_getaffinity(0))
        else:
            workers = os.cpu_count() or 1
    try:
        workers = integer(workers, "workers")
    except ValueError as exc:
        raise SpecValidationError([f"--workers: {exc}"]) from None
    if workers < 1:
        raise SpecValidationError([f"--workers: workers must be >= 1, got {workers}"])

    target = _resolve_output(spec, out_path)
    target.parent.mkdir(parents=True, exist_ok=True)

    rows = []
    executor = None
    errors = _CELL_ERRORS
    if workers > 1:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        # the engine's first draw imports numpy.random, a lazy submodule;
        # importing it here, before the pool forks, spares every worker it
        import numpy.random

        executor = ProcessPoolExecutor(max_workers=workers)
        errors = (*_CELL_ERRORS, BrokenExecutor)  # a worker died, say by OOM
    try:
        # one SweepDraws for the sweep, each value shared by its schemes'
        # cells; with a pool, the whole sweep is queued before any value is read
        draws = SweepDraws(cells, workers, executor)
        for value, cell in zip(spec.sweep_values, cells):
            nominal = None
            for scheme in spec.schemes:
                try:
                    if nominal is None:
                        nominal = nominal_rates(cell)
                    result = estimate(cell, scheme, draws=draws)
                except errors as exc:
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
                            help="worker processes (default: the CPUs this "
                                 "process may run on)")

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

    if args.command in ("validate", "run"):
        spec_path = resolve_spec_path(args.spec)
        try:
            if args.command == "validate":
                load_spec(spec_path)
                print("ok")
            else:
                run_experiment(
                    spec_path, out_path=args.out, seed=args.seed, workers=args.workers
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
        # each message starts with the parameter it names; show the flag
        flag = {"num_sus": "--k", "p_f": "--pf", "p_d": "--pd", "prior_h0": "--alpha"}
        print(f"{flag[str(exc).split()[0]]}: {exc}", file=sys.stderr)
        return 2
    print(f"n_star={n_star} q_e_star={q_e_star!r} "
          f"n_star_complement={args.k - n_star}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
