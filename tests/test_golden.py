"""The bundled suite's reports must match the committed goldens byte for byte.

The goldens in tests/golden/paper_suite/ were written by

    PYTHONPATH=src python -m tfu.cli run paper-suite \
        --out tests/golden/paper_suite --no-timestamp

under numpy GOLDEN_NUMPY. FFT and transcendental results may differ in the
last bits between numpy builds, so under another numpy version the test
skips rather than fail. A change that alters numerics on purpose
regenerates the goldens with the command above and updates GOLDEN_NUMPY.
"""

from pathlib import Path

import numpy as np
import pytest

from tfu import cli

GOLDEN_NUMPY = "2.4.6"
GOLDEN_DIR = Path(__file__).parent / "golden" / "paper_suite"


def test_paper_suite_reports_match_goldens(tmp_path):
    if np.__version__ != GOLDEN_NUMPY:
        pytest.skip(f"goldens were made with numpy {GOLDEN_NUMPY}, running numpy {np.__version__}")
    out = tmp_path / "out"
    assert cli.main(["run", "paper-suite", "--out", str(out), "--no-timestamp"]) == 0
    expected = sorted(p.name for p in GOLDEN_DIR.iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    assert len(expected) == 35
    changed = [n for n in expected if (out / n).read_bytes() != (GOLDEN_DIR / n).read_bytes()]
    assert changed == []
