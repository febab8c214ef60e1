"""The four benchmark workloads as fixed sets of checked operations.

An operation computes one result through enrq's public functions and
compares it with the value the seed commit produced (`expected.json`).
A pass runs every operation of a workload once; the seed only permutes
their order, so the work in a pass never depends on it.

The operations import enrq when they are built: call
`checkout.require_src()` first.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable

from checkout import HERE, OUT

# Light suites only: `lefschetz`, `fibers-2conn` and `lattice-selfcheck`
# dominate `all` and would hide the cost of field construction, catalog
# lookups and rendering that this workload exists to show.
QUICK_SUITES = (
    "fibers-euler",
    "configs-enumerate",
    "configs-shared8",
    "ecaut-tables",
    "delpezzo-verify",
    "tables-consistency",
)
FORMATS = ("markdown", "csv", "json")

# Extension degree per characteristic. GF(2^12) and GF(13^4) are the
# largest fields the Tier-1 stabilisation tests enumerate; GF(3^8) gives
# the char-3 row a field of similar size (6561 elements).
FIELD_DEGREES = {2: 12, 3: 8, 13: 4}

# Bounds <= 3 are left out: the search does not end there.
SEARCH_BOUNDS = (4, 5, 6)
SEARCH_CAP = 10


@dataclass(frozen=True)
class Operation:
    """One checked call: `compute()` must return `expected[label]`."""

    label: str
    compute: Callable[[str], object]  # takes a scratch directory


def _report_digest(suite, fmt):
    from enrq import cli

    def compute(scratch):
        path = os.path.join(scratch, f"{suite}.{fmt}")
        status, _ = cli.run(cli.RunConfig(suite=suite, fmt=fmt, out=path))
        if status != 0:
            return f"exit status {status}"
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    return Operation(f"report {suite} {fmt}", compute)


def _row_count(row):
    from enrq import ecaut

    p = row.curve.p
    deg = FIELD_DEGREES[p]

    def compute(scratch):
        return ecaut.brute_force_count(row.curve, row.aut, deg)

    return Operation(f"count char {row.cls.char} j {row.cls.j} order {row.order} over GF({p}^{deg})", compute)


def _search_digest(bound):
    from enrq import lattice

    def compute(scratch):
        found = lattice.search_sequences(10, bound, cap=SEARCH_CAP)
        vectors = [[list(v) for v in seq.vectors] for seq in found]
        return hashlib.sha256(json.dumps(vectors).encode()).hexdigest()

    return Operation(f"search n=10 bound {bound} cap {SEARCH_CAP}", compute)


# One classification row per characteristic, as (char, j, order).  Rows
# of one characteristic differ only in the map, not in the field work, and
# all nine rows would take about 15 s a pass, too long for several passes
# within one run.
FIELD_ROWS = ((2, "special", 3), (3, "special", 4), (0, "0", 6))


def _field_rows():
    from enrq import ecaut

    return [r for r in ecaut.TABLE_ROWS if (r.cls.char, r.cls.j, r.order) in FIELD_ROWS]


WORKLOADS = {
    "verify-all": lambda: [_report_digest("all", "markdown")],
    "field-growth": lambda: [_row_count(r) for r in _field_rows()],
    "lattice-search": lambda: [_search_digest(b) for b in SEARCH_BOUNDS],
    "quick-suites": lambda: [_report_digest(s, f) for s in QUICK_SUITES for f in FORMATS],
}


def load_expected():
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)["values"]


@dataclass
class Tally:
    """Operations attempted and failed; a failure is a wrong result or an exception."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)


def run_pass(operations, expected, rng, tally):
    """Run every operation once, in an order drawn from `rng`."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        for op in rng.sample(operations, len(operations)):
            tally.attempted += 1
            try:
                got = op.compute(scratch)
            except Exception as exc:  # a failing operation must not stop the others
                got = f"{type(exc).__name__}: {exc}"
            if got != expected[op.label]:
                tally.failed += 1
                tally.failures.append(f"{op.label}: got {got!r}")
