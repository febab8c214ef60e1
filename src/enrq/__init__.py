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

Input is checked once, at the public boundary (README, "Input rule"), by
one helper per input shape: `check_ints`, `_check_int_tuple`,
`_check_pairs`, `_check_tag` and `_check_type`.  Every value type is a
named tuple; a checked one also inherits `_Checked`, so that its
`_make` and `_replace` build through the `__new__` that checks.  Code
inside the boundary trusts its caller; `_quoted` is the one way the
helpers' ValueErrors quote a value.  `BOUND_CAP` caps the bound of the
isotropic-sequence search for the search and `cli.RunConfig` alike.
"""

__version__ = "0.1.0"

# the largest coordinate bound of the isotropic-sequence search: a search
# lists the 2 bound + 1 coordinate values at every node it opens
BOUND_CAP = 1000

_SUBMODULES = ("cli", "configs", "delpezzo", "ecaut", "fibers", "gf", "lattice", "report", "search", "tables")


def _is_int(value):  # the int rule; a plain int is tested first
    return type(value) is int or isinstance(value, int) and not isinstance(value, bool)


def check_ints(**values):
    """Raise a one-line ValueError unless every value is an int (a bool is not)."""
    for name, value in values.items():
        if not _is_int(value):
            raise ValueError(f"{name} must be an int, not {_quoted(value)}")


def _check_int_tuple(value, name, kinds=(tuple,), length=None):
    """value, or a one-line ValueError unless it is one of `kinds` of ints.
    Given a length, any bad value is quoted whole ("r must be 10 ints");
    else a bad entry i is named "<name>[i]", only once it has failed."""
    if isinstance(value, kinds) and (length is None or len(value) == length):
        for i, c in enumerate(value):
            if type(c) is not int and not _is_int(c):
                if length is None:
                    check_ints(**{f"{name}[{i}]": c})
                break
        else:
            return value
    shape = f"{length} ints" if length else f"a {' or '.join(k.__name__ for k in kinds)} of ints"
    raise ValueError(f"{name} must be {shape}, not {_quoted(value)}")


def _check_pairs(value, name, kind):
    """value, or a one-line ValueError unless it is a tuple of (str id, `kind`) pairs."""
    for pair in _check_type(value, tuple, name):
        if not (isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], str)
                and (_is_int(pair[1]) if kind is int else isinstance(pair[1], kind))):
            raise ValueError(f"{name} must hold (str, {kind.__name__}) pairs, not {_quoted(pair)}")
    return value


# the str test comes first, so a list or dict never reaches a dict or cache lookup
def _check_tag(value, known, what, hint=""):
    """value, or a one-line ValueError "unknown <what> <value><hint>" unless it is a str in `known`."""
    if isinstance(value, str) and value in known:
        return value
    raise ValueError(f"unknown {what} {_quoted(value)}{hint}")


def _check_type(value, kind, name):
    """value, or a one-line ValueError unless it is a `kind`."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOUaeiou" else "a"
        raise ValueError(f"{name} must be {article} {kind.__name__}, not {_quoted(value)}")
    return value


class _Checked:
    """Base of every checked value type, listed before its namedtuple:
    `_make`, and so `_replace`, go through the type's checking `__new__`."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))
    __add__ = __mul__ = __rmul__ = None  # so c + c and 2 * c raise TypeError rather than build a tuple


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
