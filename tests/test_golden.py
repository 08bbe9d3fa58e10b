"""Golden CSVs: the bundled figures at 3000 trials, pinned byte for byte.

Each digest is the sha256 of the CSV that ``run_experiment`` writes for a
bundled spec cut to 3000 trials, with the spec's own seed, at one, two and
three workers. Numpy's Gamma and noncentral chi-square samplers are part of
the result, so the digests hold for numpy 2.4 only; other versions skip.
A change that alters any CSV byte (a rate, a closed-form column, the
formatting or the stream contract) must update these digests on purpose.
"""

import hashlib
import json

import numpy as np
import pytest

from coopsense.cli_experiments import resolve_spec_path, run_experiment

GOLDEN_SHA256 = {
    "fig2": "991229da3223efd1bd8a9bd91e8c261edd4e054ec51611b190d10151f9150399",
    "fig3": "12a4c7fb65f7335582e6e686a43415ff24e436dc02e2e74a499912073aa89cab",
    "fig4": "2068856b82abffc5c50a4b2dac13eeaf5efff59ffcb2ca3d3ac4d6f4cdace5bb",
}

pytestmark = pytest.mark.skipif(
    not np.__version__.startswith("2.4."),
    reason=f"digests recorded with numpy 2.4, found {np.__version__}",
)


@pytest.mark.parametrize(
    "name, workers",
    [
        ("fig2", 1), ("fig2", 2),
        ("fig3", 1), ("fig3", 2), ("fig3", 3),
        ("fig4", 1), ("fig4", 2), ("fig4", 3),
    ],
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
