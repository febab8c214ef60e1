"""Exact symbolic verification of the quartic del Pezzo surfaces that arise
as images of bielliptic maps in characteristic 2, of their printed
automorphism families, and of the induced actions on the two pencils of
conics.

Everything is polynomial arithmetic over F2 in the projective coordinates
x0..x4, the pencil parameters a, b, and the group parameters.  The
invertible parameters lam, mu and their second-generation copies lam2,
mu2 are Laurent variables: the coefficient ring is
F2[lam^±1, mu^±1, lam2^±1, mu2^±1][alpha, beta, alpha2, beta2], and a
monomial stores one signed exponent per variable, negative only at these
four units.  So lam^-1 is exponent -1 at lam, and every monomial has
exactly one spelling.

How the kernel computes:
- Products.  Two monomials multiply by adding exponents; the sum is
  already canonical.
- Determinants.  A 5x5 map matrix is expanded by cofactors along its
  rows (no signs in characteristic 2).  Each minor on the lower rows is
  computed once per set of columns, and zero entries and zero minors are
  skipped, so a sparse matrix costs a few products, not 120 terms.
- Pullbacks.  Each power of a coordinate that a polynomial needs is
  computed once per pullback and shared by its monomials.

The three surfaces (D1 for classical, D2 for ordinary, D3 for
supersingular covers) are intersections of two quadrics g1, g2.  A
coordinate map preserves the surface iff the pullback of each g_i lands
back in the span of g1, g2: since a linear substitution keeps quadrics
quadric and the degree-2 part of the ideal is exactly <g1, g2>, this is
a finite linear-algebra check over the parameter ring (verify_preserves).
The induced action on a pencil of conics comes from pulling back the
generic member a*A_i + b*B_i and writing it in the basis A1, B1, A2, B2
(pencil_action).  Both certificates come from one elimination, `_solve`:
the basis forms are parameter-free, so Gauss-Jordan over F2 on the
x-monomials of the `_x_coefficients` splits gives the parameter
coefficients, with polynomial right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, wraps
from operator import add

from . import _quoted

NAMES = (
    "x0", "x1", "x2", "x3", "x4",
    "a", "b",
    "lam", "mu", "alpha", "beta",
    "lam2", "mu2", "alpha2", "beta2",
)
NVARS = len(NAMES)
_IDX = {n: i for i, n in enumerate(NAMES)}
X_VARS = tuple(range(5))
UNIT_VARS = tuple(_IDX[n] for n in ("lam", "mu", "lam2", "mu2"))

NOT_PRESERVED = "NOT_PRESERVED"


@dataclass(frozen=True)
class ParamPoly:
    """Laurent polynomial over F2 in the fixed variable list.

    Monomials are exponent tuples, negative only at UNIT_VARS; a monomial
    is present iff its coefficient is 1.
    """

    monomials: frozenset

    def __add__(self, other):
        return ParamPoly(self.monomials ^ other.monomials)

    def __mul__(self, other):
        acc = set()
        for m1 in self.monomials:
            for m2 in other.monomials:
                m = tuple(map(add, m1, m2))
                if m in acc:
                    acc.discard(m)
                else:
                    acc.add(m)
        return ParamPoly(frozenset(acc))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power: use unit_inverse")
        out = self if n else ONE
        for _ in range(n - 1):
            out = out * self
        return out

    def is_zero(self):
        return not self.monomials

    def x_degrees(self):
        return {sum(m[i] for i in X_VARS) for m in self.monomials}

    def is_param_free(self):
        return all(all(m[i] == 0 for i in range(5, NVARS)) for m in self.monomials)

    def is_unit(self):
        """A unit of the ring: a single monomial in the invertible
        parameters only."""
        if len(self.monomials) != 1:
            return False
        (m,) = self.monomials
        return all(e == 0 or i in UNIT_VARS for i, e in enumerate(m))

    def unit_inverse(self):
        if not self.is_unit():
            raise ValueError("not a unit")
        (m,) = self.monomials
        return ParamPoly(frozenset({tuple(-e for e in m)}))

    def coefficient_of(self, var_index):
        """Coefficient of the degree-1 part in one variable (the monomials
        with exponent exactly 1 there, with that variable removed)."""
        return ParamPoly(frozenset(
            m[:var_index] + (0,) + m[var_index + 1:] for m in self.monomials if m[var_index] == 1))

    def __str__(self):
        if not self.monomials:
            return "0"
        parts = []
        for m in sorted(self.monomials, key=lambda t: (sum(t), t), reverse=True):
            factors = [f"{NAMES[i]}" + (f"^{e}" if e != 1 else "") for i, e in enumerate(m) if e]
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)


ZERO = ParamPoly(frozenset())
ONE = ParamPoly(frozenset({(0,) * NVARS}))


def var(name):
    if not isinstance(name, str) or name not in _IDX:
        raise ValueError(f"unknown variable {_quoted(name)}: use one of {', '.join(NAMES)}")
    mon = [0] * NVARS
    mon[_IDX[name]] = 1
    return ParamPoly(frozenset({tuple(mon)}))


X0, X1, X2, X3, X4 = (var(f"x{i}") for i in range(5))
A, B = var("a"), var("b")
LAM, MU = var("lam"), var("mu")
ALPHA, BETA = var("alpha"), var("beta")
LAM2, MU2 = var("lam2"), var("mu2")
ALPHA2, BETA2 = var("alpha2"), var("beta2")


# ---------------------------------------------------------------------------
# surfaces, maps, pencils


@dataclass(frozen=True)
class QuadricPair:
    g1: ParamPoly
    g2: ParamPoly

    def __post_init__(self):
        for g in (self.g1, self.g2):
            if g.x_degrees() != {2} or not g.is_param_free():
                raise ValueError("defining quadrics must be parameter-free of degree 2")
        if self.g1 == self.g2:
            raise ValueError("quadrics must be linearly independent")


@dataclass(frozen=True)
class ProjMap:
    coords: tuple  # five ParamPoly, linear in x

    def __post_init__(self):
        if len(self.coords) != 5:
            raise ValueError("five coordinates required")
        for c in self.coords:
            if c.x_degrees() - {1}:
                raise ValueError("coordinates must be homogeneous linear in x")

    def matrix(self):
        return [_x_linear_parts(c) for c in self.coords]

    def det(self):
        """Cofactor expansion along the rows (char 2: no signs).  The minor
        on the last rows is fixed by its set of columns, so each one is
        computed once; zero entries and zero minors are skipped."""
        m = self.matrix()
        minors = {(): ONE}

        def minor(cols):
            if cols not in minors:
                row = m[5 - len(cols)]
                total = ZERO
                for k, c in enumerate(cols):
                    if row[c].is_zero():
                        continue
                    rest = minor(cols[:k] + cols[k + 1:])
                    if not rest.is_zero():
                        total = total + row[c] * rest
                minors[cols] = total
            return minors[cols]

        return minor(X_VARS)

    def is_invertible(self):
        return self.det().is_unit()


def identity_map():
    return ProjMap((X0, X1, X2, X3, X4))


def _proportional(e1, e2) -> bool:
    """Whether two nonzero vectors of ParamPoly entries are proportional,
    by cross-multiplication (the parameter ring is a domain).  A zero
    vector is proportional to nothing."""
    if all(e.is_zero() for e in e1) or all(e.is_zero() for e in e2):
        return False
    n = len(e1)
    return all(e1[i] * e2[j] == e1[j] * e2[i] for i in range(n) for j in range(i + 1, n))


def proj_equal(m1: ProjMap, m2: ProjMap) -> bool:
    """Equality of projective maps: coordinates proportional by a common
    factor."""
    return _proportional(m1.coords, m2.coords)


@dataclass(frozen=True)
class Pencil:
    """A pencil of conics cut by a * A_i + b * B_i = 0 (i = 1, 2), with
    constant-coefficient linear forms A_i, B_i."""

    forms: tuple  # ((A1, B1), (A2, B2))

    def __post_init__(self):
        for pair in self.forms:
            for f in pair:
                if f.x_degrees() - {1} or not f.is_param_free():
                    raise ValueError("pencil basis forms must be linear and parameter-free")

    def member(self, i):
        a_part, b_part = self.forms[i]
        return A * a_part + B * b_part

    @cached_property
    def basis(self):
        """The `_x_coefficients` splits of A1, B1, A2, B2, the basis that
        `pencil_action` solves in."""
        return tuple(_x_coefficients(f) for pair in self.forms for f in pair)


def _by_kind(build):
    """`functools.cache` on a surface kind D1, D2 or D3, checked before the
    lookup: a list or dict would fail in the cache's own hashing, and a
    tuple's membership test hashes nothing."""
    cached = cache(build)

    @wraps(build)
    def lookup(kind):
        if kind not in ("D1", "D2", "D3"):
            raise ValueError(f"unknown surface {_quoted(kind)}")
        return cached(kind)

    return lookup


@_by_kind
def surface(kind: str) -> QuadricPair:
    """Defining quadric pair: D1 (classical cover image), D2 (ordinary,
    e = 1), D3 (supersingular, e = 0)."""
    g1 = X0 * X0 + X1 * X2
    if kind == "D1":
        return QuadricPair(g1, X0 * X0 + X3 * X4)
    if kind == "D2":
        return QuadricPair(g1, X1 * X3 + X4 * (X0 + X2 + X4))
    return QuadricPair(g1, X1 * X3 + X4 * (X2 + X4))


@_by_kind
def pencils(kind: str):
    """The two pencils of conics on the surface."""
    if kind == "D1":
        return (
            Pencil(((X2, X3), (X4, X1))),
            Pencil(((X2, X4), (X3, X1))),
        )
    e0 = X0 if kind == "D2" else ZERO
    core = e0 + X2 + X4
    return (
        Pencil(((X3, core), (X4, X1))),
        Pencil(((core, X1), (X3, X4))),
    )


def aut_d1(lam=LAM, mu=MU):
    """Torus action on D1 (lam and mu must be units)."""
    return ProjMap((X0, lam * X1, lam.unit_inverse() * X2, mu * X3, mu.unit_inverse() * X4))


def aut_d2(alpha=ALPHA, beta=BETA):
    """Additive two-parameter family on D2."""
    a, b = alpha, beta
    return ProjMap(
        (
            X0 + a * X1,
            X1,
            a * a * X1 + X2,
            b * X0 + (a * b + a * a * b + b * b) * X1 + b * X2 + X3 + (a + a * a) * X4,
            b * X1 + X4,
        )
    )


def aut_d3_additive(alpha=ALPHA, beta=BETA):
    """Additive two-parameter family on D3."""
    a, b = alpha, beta
    return ProjMap(
        (
            X0 + a * X1,
            X1,
            a * a * X1 + X2,
            (a * a * b + b * b) * X1 + b * X2 + X3 + a * a * X4,
            b * X1 + X4,
        )
    )


def aut_d3_torus(lam=LAM):
    """One-parameter torus on D3 (lam must be a unit)."""
    il = lam.unit_inverse()
    return ProjMap((X0, il * X1, lam * X2, lam**3 * X3, lam * X4))


# ---------------------------------------------------------------------------
# verification


def pullback(poly, m: ProjMap):
    """Substitute the map's coordinates for x0..x4.  Each monomial's
    parameter part is kept as it is."""
    powers = {}
    out = ZERO
    for mon in poly.monomials:
        term = ParamPoly(frozenset({(0,) * 5 + mon[5:]}))
        for i in X_VARS:
            e = mon[i]
            if e:
                if (i, e) not in powers:
                    powers[i, e] = m.coords[i] ** e
                term = term * powers[i, e]
        out = out + term
    return out


def _x_coefficients(poly):
    """Split a polynomial by its x-monomial part: {x-exponent-tuple:
    parameter-polynomial coefficient}.  Distinct monomials never cancel."""
    out = {}
    for mon in poly.monomials:
        out.setdefault(mon[:5], set()).add((0,) * 5 + mon[5:])
    return {k: ParamPoly(frozenset(v)) for k, v in out.items()}


_X_UNITS = tuple(tuple(int(i == j) for i in X_VARS) for j in X_VARS)  # the x-parts of x0..x4


def _x_linear_parts(poly):
    """The coefficients of x0..x4 in a polynomial linear in x, read from
    its `_x_coefficients` split."""
    split = _x_coefficients(poly)
    return [split.get(unit, ZERO) for unit in _X_UNITS]


def verify_preserves(m: ProjMap, kind: str):
    """Check that the map carries the surface into itself.

    The pullback of each defining quadric is a quadric again, so it must
    be c1 * g1 + c2 * g2 for parameter-ring constants c_ij, solved in
    the basis (g1, g2) by `_solve`.
    Returns (True, ((c11, c12), (c21, c22))) or (False, None).
    """
    if not m.is_invertible():
        raise ValueError("map is not invertible")
    quad = surface(kind)
    basis = (_x_coefficients(quad.g1), _x_coefficients(quad.g2))
    certificate = []
    for g in (quad.g1, quad.g2):
        coeffs = _solve(basis, pullback(g, m))
        if coeffs is None:
            return (False, None)
        certificate.append(coeffs)
    return (True, tuple(certificate))


def pencil_action(m: ProjMap, pencil: Pencil):
    """Induced projective action on the pencil base.

    Pulls back the generic member a*A_i + b*B_i and solves for (a':b')
    such that the pulled-back pair spans the member at (a':b'); returns
    the 2x2 parameter matrix sending (a, b) to (a', b'), normalized, or
    NOT_PRESERVED when no consistent solution exists.
    """
    rows = []
    for i in range(2):
        sol = _solve(pencil.basis, pullback(pencil.member(i), m))
        if sol is None:
            return NOT_PRESERVED
        rows += [pair for pair in (sol[:2], sol[2:]) if not (pair[0].is_zero() and pair[1].is_zero())]
    # Each member's [w1 w2; w3 w4] must be (s, t)^T (a', b'): its nonzero
    # rows all proportional to one (a', b').  Over a domain two nonzero
    # rows proportional to one nonzero row are proportional to each other,
    # so this one test also gives each member's rank one.
    if not rows or not all(_proportional(rows[0], row) for row in rows[1:]):
        return NOT_PRESERVED
    mat = tuple((p.coefficient_of(_IDX["a"]), p.coefficient_of(_IDX["b"])) for p in rows[0])
    # the solution must be linear in (a, b): anything else is inconsistent
    if any(A * ca + B * cb != p for (ca, cb), p in zip(mat, rows[0])):
        return NOT_PRESERVED
    return normalize_action(mat)


def _solve(cols, poly):
    """The unique parameter coefficients (w_j) with sum_j w_j * cols[j] =
    poly, or None when the columns are dependent or poly is outside their
    span.  The columns are `_x_coefficients` splits of parameter-free
    forms, so every coefficient in them is 1; poly is split the same way.
    Gauss-Jordan over F2 runs on one row per x-monomial: the bitmask of
    the columns that hold it and poly's coefficient there."""
    target = _x_coefficients(poly)
    masks = {}
    for j, col in enumerate(cols):
        for key in col:
            masks[key] = masks.get(key, 0) | 1 << j
    if not target.keys() <= masks.keys():
        return None  # an x-monomial of poly that no column holds
    rows = [[mask, target.get(key, ZERO)] for key, mask in masks.items()]
    pivots = []
    for j in range(len(cols)):
        bit = 1 << j
        at = next((i for i, row in enumerate(rows) if row[0] & bit), None)
        if at is None:
            return None  # column j depends on the others
        pivot = rows.pop(at)
        for row in rows + pivots:
            if row[0] & bit:
                row[0] ^= pivot[0]
                row[1] = row[1] + pivot[1]
        pivots.append(pivot)
    if any(not rhs.is_zero() for _, rhs in rows):
        return None
    return tuple(rhs for _, rhs in pivots)


def normalize_action(mat):
    """Scale a projective 2x2 parameter matrix by a unit so that each
    invertible parameter occurs with minimal exponent 0."""
    monos = [m for row in mat for entry in row for m in entry.monomials]
    if not monos:
        return mat
    scale = [0] * NVARS
    for u in UNIT_VARS:
        scale[u] = -min(m[u] for m in monos)
    if not any(scale):
        return mat
    unit = ParamPoly(frozenset({tuple(scale)}))
    return tuple(tuple(entry * unit for entry in row) for row in mat)


def action_equal(m1, m2) -> bool:
    """Projective equality of 2x2 actions."""
    if m1 == NOT_PRESERVED or m2 == NOT_PRESERVED:
        return m1 == m2
    return _proportional((*m1[0], *m1[1]), (*m2[0], *m2[1]))


IDENTITY_ACTION = ((ONE, ZERO), (ZERO, ONE))


def compose(m1: ProjMap, m2: ProjMap) -> ProjMap:
    """The map applying m2 first, then m1 (coordinatewise substitution)."""
    coords = tuple(pullback(c, m2) for c in m1.coords)
    return ProjMap(coords)


# kind: (family, (row, col) of the normalizing coefficient,
#        {parameter: (row, col) of its coefficient})
_FAMILIES = {
    "D1": (aut_d1, (0, 0), {"lam": (1, 1), "mu": (3, 3)}),
    "D2": (aut_d2, (1, 1), {"alpha": (0, 1), "beta": (4, 1)}),
    "D3-additive": (aut_d3_additive, (1, 1), {"alpha": (0, 1), "beta": (4, 1)}),
    "D3-torus": (aut_d3_torus, (0, 0), {"lam": (2, 2)}),
}


def recover_params(m: ProjMap, kind: str):
    """Match a map against the printed family of the given kind and
    return its parameters, or None if it is not in the family."""
    if not isinstance(kind, str) or kind not in _FAMILIES:
        raise ValueError(f"unknown family {_quoted(kind)}")
    family, (row, col), where = _FAMILIES[kind]
    scale = m.coords[row].coefficient_of(col)
    if not scale.is_unit():
        return None
    inv = scale.unit_inverse()
    params = {name: inv * m.coords[r].coefficient_of(c) for name, (r, c) in where.items()}
    try:
        candidate = family(**params)
    except ValueError:  # a torus parameter that is not a unit
        return None
    return params if proj_equal(m, candidate) else None
