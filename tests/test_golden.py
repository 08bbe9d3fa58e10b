"""Golden CSVs: the bundled figures at 3000 trials, pinned byte for byte.

Each digest is the sha256 of the CSV that ``run_experiment`` writes for a
bundled spec cut to 3000 trials, with the spec's own seed. Numpy's Gamma
and noncentral chi-square samplers are part of the result, so the digests
hold for numpy 2.4 only; other versions skip. A change that alters any
CSV byte (a rate, a closed-form column, the formatting or the stream
contract) must update these digests on purpose.
"""

import hashlib
import json

import numpy as np
import pytest

from coopsense.cli_experiments import resolve_spec_path, run_experiment

GOLDEN_SHA256 = {
    "fig2": "76107fbe2abb52ef4611407e267a7cd51cdbf124b5f967129fd73906239ccca0",
    "fig3": "0d375378e764e2600b901163d5fecd6d8ac8106c59683430b420ee47ca3fe4a4",
    "fig4": "2068856b82abffc5c50a4b2dac13eeaf5efff59ffcb2ca3d3ac4d6f4cdace5bb",
}

pytestmark = pytest.mark.skipif(
    not np.__version__.startswith("2.4."),
    reason=f"digests recorded with numpy 2.4, found {np.__version__}",
)


@pytest.mark.parametrize(
    "name, workers", [("fig2", 1), ("fig3", 1), ("fig3", 2), ("fig4", 1)]
)
def test_bundled_csv_digest(tmp_path, name, workers):
    document = json.loads(resolve_spec_path(name).read_text(encoding="utf-8"))
    document["scenario"]["trials"] = 3000
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps(document), encoding="utf-8")
    out = run_experiment(
        spec, out_path=tmp_path / f"{name}.csv", workers=workers, quiet=True
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[name]
