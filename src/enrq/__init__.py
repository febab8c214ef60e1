"""Exact-arithmetic verification toolkit for the combinatorial, lattice and
symbolic claims behind the classification of numerically trivial
automorphisms of Enriques surfaces in characteristic 2.

Submodules, each loaded on first use (`import enrq` loads none of them;
`enrq.lattice` or `from enrq import lattice` loads that one and what it
imports):

* lattice  - the rank-10 lattice U + E8(-1): intersection form,
  reflections
* search   - isotropic-sequence search
* fibers   - Kodaira fiber types: incidence models, Euler numbers,
  2-connectedness, tame actions and fixed-locus Euler characteristics
* configs  - singular-fiber configurations of genus-one pencils: the
  Euler budget, extremality, bielliptic filters, shared-components
  overlay search
* gf       - table-driven finite fields GF(p^k)
* ecaut    - elliptic-curve automorphism groups and fixed-point counts
  (norm arithmetic plus finite-field brute force)
* delpezzo - symbolic verification over F2 of the quartic del Pezzo
  images of bielliptic maps, their automorphisms and pencil actions
* tables   - classification constants with consistency checks
* report   - deterministic report rendering (markdown, CSV, JSON)
* cli      - deterministic verification reports (the `enrq` command)
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("cli", "configs", "delpezzo", "ecaut", "fibers", "gf", "lattice", "report", "search", "tables")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
