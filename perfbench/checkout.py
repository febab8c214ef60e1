"""Locations inside the checkout the benchmark runs from.

The benchmark imports enrq from the checkout's own `src/`, never from an
installed copy, so that it always measures the code next to it.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"  # spans and temporary reports; ignored by git


def require_src():
    """Put the checkout's `src/` first on sys.path, or exit with status 2."""
    if not (SRC / "enrq" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no enrq sources under {SRC}\n")
        raise SystemExit(2)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
