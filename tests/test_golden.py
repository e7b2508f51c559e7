"""Reports must match the committed goldens byte for byte.

The goldens in tests/golden/paper_suite/ were written by

    PYTHONPATH=src python -m tfu.cli run paper-suite \
        --out tests/golden/paper_suite --no-timestamp

and those in tests/golden/large_grid/ by

    PYTHONPATH=src python -m tfu.cli run tests/golden/large_grid/large_grid.ini \
        --out tests/golden/large_grid --no-timestamp

where large_grid.ini is the benchmark's large-grid config for its default
seed. EXPORT_DIGESTS are the sha256 of `tfu export-stft` CSVs at the default
layout (N = 256). All were made under numpy GOLDEN_NUMPY. FFT and
transcendental results may differ in the last bits between numpy builds, so
under another numpy version the tests skip rather than fail. A change that
alters numerics on purpose regenerates the goldens with the commands above
and updates GOLDEN_NUMPY.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from tfu import cli

GOLDEN_NUMPY = "2.4.6"
GOLDEN_DIR = Path(__file__).parent / "golden" / "paper_suite"
LARGE_GRID_DIR = Path(__file__).parent / "golden" / "large_grid"
LARGE_GRID_CONFIG = LARGE_GRID_DIR / "large_grid.ini"

#: (f spec, g spec) -> sha256 of the export-stft CSV
EXPORT_DIGESTS = {
    ("gaussian:a=1", "gaussian:a=1"): "40ec734f8601441f6fdc7adc03e71fb080e7ed7ec6ac9490c5c337274651e977",
    ("hermite:n=2:z=0.5:w=-0.25", "hermite:n=1"): "65c04c7b4dec23e20fc074c5984e818a649013eef9e328fae39f7e0436a359d2",
}

golden_numpy = pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"goldens were made with numpy {GOLDEN_NUMPY}, running numpy {np.__version__}",
)


def _changed_reports(config: str, golden: Path, out: Path) -> list[str]:
    assert cli.main(["run", config, "--out", str(out), "--no-timestamp"]) == 0
    expected = sorted(p.name for p in golden.iterdir() if p.suffix != ".ini")
    assert sorted(p.name for p in out.iterdir()) == expected
    return [n for n in expected if (out / n).read_bytes() != (golden / n).read_bytes()]


@golden_numpy
def test_paper_suite_reports_match_goldens(tmp_path):
    assert len(list(GOLDEN_DIR.iterdir())) == 34
    assert _changed_reports("paper-suite", GOLDEN_DIR, tmp_path / "out") == []


@golden_numpy
def test_large_grid_reports_match_goldens(tmp_path):
    assert len(list(LARGE_GRID_DIR.iterdir())) == 13  # the config and its 12 reports
    assert _changed_reports(str(LARGE_GRID_CONFIG), LARGE_GRID_DIR, tmp_path / "out") == []


@golden_numpy
@pytest.mark.parametrize("f, g", sorted(EXPORT_DIGESTS))
def test_export_stft_matches_digest(tmp_path, f, g):
    out = tmp_path / "export.csv"
    assert cli.main(["export-stft", "--f", f, "--g", g, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_DIGESTS[(f, g)]
