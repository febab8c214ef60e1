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
  Euler budget, extremality, realizable pairs, shared-components
  overlay search
* gf       - table-driven finite fields GF(p^k)
* ecaut    - elliptic-curve automorphism groups and fixed-point counts
  (norm arithmetic plus finite-field brute force)
* delpezzo - symbolic verification over F2 of the quartic del Pezzo
  images of bielliptic maps, their automorphisms and pencil actions
* tables   - classification constants with consistency checks
* report   - deterministic report rendering (markdown, CSV, JSON)
* cli      - deterministic verification reports (the `enrq` command)

`check_ints` is the one integer rule of the public entry points,
`_check_type` their one rule for a value of a given class, and `_quoted`
the one way their ValueErrors quote a caller's value.
"""

__version__ = "0.1.0"

_SUBMODULES = ("cli", "configs", "delpezzo", "ecaut", "fibers", "gf", "lattice", "report", "search", "tables")


def check_ints(**values):
    """Raise a one-line ValueError unless every value is an int (a bool is not)."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, not {_quoted(value)}")


def _check_type(value, kind, name):
    """value, or a one-line ValueError unless it is a `kind`."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOUaeiou" else "a"
        raise ValueError(f"{name} must be {article} {kind.__name__}, not {_quoted(value)}")
    return value


def _quoted(value):
    """repr(value), cut after 40 characters so that a message stays short."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def __getattr__(name):
    if name in _SUBMODULES:
        # the import statement's machinery, so -X importtime lists the module
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
