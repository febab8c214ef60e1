"""Every narrative script under demos/ runs to completion and prints
exactly its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a change that alters a demo must say why
DEMO_STDOUT_SHA256 = {
    "01_enriques_lattice": "9a79a079a3147139dbe328dbf7e8eb56445998d4d9f3e5e9a01eeeccd1214640",
    "02_fiber_catalog": "f81528f684570421a415730dd346a60dbd9254c395df4a6885b8c21874e866a5",
    "03_fixed_point_bookkeeping": "85d97e46ec1a9389ed8f9756ccef05184c4d07954a1b5897870f1c05d0a9d5ab",
    "04_pencil_configurations": "d0072553dcf13426ae016110c505acc30692dc4b909496948e08fe3f8979f4b7",
    "05_shared_components": "26be065522a74f0071fbbbe6213746d8e8b9df3d74e226995c22b996263723e1",
    "06_curve_automorphisms": "4856502cb69881665051f3ab453637f7add77df01fde931900f6292241e07f0f",
    "07_delpezzo_symbolics": "61e2f0831805955c6c8e01b863e0067dc34d0e06792e5ae04d77a2d50bb863a4",
    "08_classification_tables": "972899688888c29b9a737750cdf31f3f46f4536799665c1c5ebc5877d0de4ebd",
}


def test_demos_found():
    assert len(DEMOS) >= 8
    assert sorted(DEMO_STDOUT_SHA256) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == DEMO_STDOUT_SHA256[demo.stem]
