"""The lazy-import contract of the enrq package, as a plain script.

Run it in a fresh interpreter, with enrq importable:

    PYTHONPATH=src python tests/check_lazy_imports.py

It exits 0 when `import enrq.cli` loads no suite module and not
`dataclasses` (which, with its `inspect` import, took about a third of
the import time of `enrq.cli`), a suite run loads only the modules that
suite reaches (configs-shared8 and tables-consistency each in an
interpreter of its own, so that it finds nothing loaded), and the package
still offers every submodule as an attribute.  `tests/test_cli.py` runs
it in a subprocess, so that the test process's own imports do not count.
"""

import contextlib
import io
import subprocess
import sys

SUBMODULES = {"cli", "configs", "delpezzo", "ecaut", "fibers", "gf", "lattice", "report", "search", "tables"}


def loaded():
    return {name for name in sys.modules if name == "enrq" or name.startswith("enrq.")}


def fresh_footprint(suite):
    """The enrq modules beyond enrq.cli that one run of the suite loads in
    a new interpreter."""
    code = ("import contextlib, io, sys, enrq.cli\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status, _ = enrq.cli.run(enrq.cli.RunConfig(suite={suite!r}))\n"
            "assert status == 0, status\n"
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return {name for name in proc.stdout.split() if name.startswith("enrq.")}


# no enrq.ecaut and no enrq.gf: configs loads ecaut only for the odd-order case
footprint = fresh_footprint("configs-shared8")
assert footprint == {"enrq.configs", "enrq.fibers", "enrq.lattice"}, sorted(footprint)

# no enrq.configs: tables loads it only for a supersingular ct group with
# an element of order 3, which no shipped row has
footprint = fresh_footprint("tables-consistency")
assert footprint == {"enrq.data", "enrq.ecaut", "enrq.gf", "enrq.tables"}, sorted(footprint)


import enrq.cli  # noqa: E402

assert loaded() == {"enrq", "enrq.cli", "enrq.report"}, sorted(loaded())
assert "dataclasses" not in sys.modules

before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    status, _ = enrq.cli.run(enrq.cli.RunConfig(suite="fibers-euler"))
assert status == 0, status
assert loaded() - before == {"enrq.fibers", "enrq.lattice"}, sorted(loaded() - before)

before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    status, _ = enrq.cli.run(enrq.cli.RunConfig(suite="lattice-selfcheck"))
assert status == 0, status
assert loaded() - before == {"enrq.search"}, sorted(loaded() - before)

assert enrq.gf.GF(2, 3).q == 8
assert "enrq.gf" in sys.modules
assert SUBMODULES <= set(dir(enrq)), sorted(SUBMODULES - set(dir(enrq)))
try:
    enrq.no_such_module
except AttributeError:
    pass
else:
    raise AssertionError("enrq.no_such_module did not raise AttributeError")
print("lazy imports ok")
