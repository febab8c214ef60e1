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
  computed once per pullback and shared by its x-monomials, and each
  x-monomial's coefficient (all its parameter terms at once) is
  multiplied by those powers.

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
x-monomials of their x-splits gives the parameter coefficients, with
polynomial right-hand sides.

Every coefficient is read through one split, `_split(poly, block)`: by
the exponents on x0..x4 (a map's matrix, a pullback, the elimination) or
on a, b (the entries of a pencil action).  A map's coordinates are
checked free of a and b when it is built, so each solved entry of a
pencil action is a*u + b*v and its (a, b) split is the action.  The four
printed families, with their surfaces, report labels and the cells that
`recover_params` reads, are listed once, in FAMILIES.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from operator import add

from . import _check_int_tuple, _check_tag, _check_type

NAMES = (
    "x0", "x1", "x2", "x3", "x4",
    "a", "b",
    "lam", "mu", "alpha", "beta",
    "lam2", "mu2", "alpha2", "beta2",
)
NVARS = len(NAMES)
_IDX = {n: i for i, n in enumerate(NAMES)}
X_VARS = tuple(range(5))
_X, _AB = slice(0, 5), slice(5, 7)  # the x block and the pencil block (a, b)
# the x-parts of a linear form's monomials; ProjMap.matrix reads the position of the 1
_X_UNITS = frozenset(tuple(int(i == j) for j in X_VARS) for i in X_VARS)
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
        return {sum(m[_X]) for m in self.monomials}

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
    mon = [0] * NVARS
    mon[_IDX[_check_tag(name, _IDX, "variable", f": use one of {', '.join(NAMES)}")]] = 1
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
            if _check_type(g, ParamPoly, "quadric").x_degrees() != {2} or not g.is_param_free():
                raise ValueError("defining quadrics must be parameter-free of degree 2")
        if self.g1 == self.g2:
            raise ValueError("quadrics must be linearly independent")


@dataclass(frozen=True)
class ProjMap:
    coords: tuple  # five ParamPoly, linear in x and free of a, b

    def __post_init__(self):
        if len(_check_type(self.coords, tuple, "map coordinates")) != 5:
            raise ValueError("five coordinates required")
        for c in self.coords:
            for mon in _check_type(c, ParamPoly, "map coordinate").monomials:
                x = _check_type(mon, tuple, "a monomial")[_X]
                if x not in _X_UNITS:
                    raise ValueError("coordinates must be homogeneous linear in x")
                if not type(x[0]) is type(x[1]) is type(x[2]) is type(x[3]) is type(x[4]) is int:  # 1.0 == 1
                    _check_int_tuple(x, "an x-part", length=5)
                if any(mon[_AB]):
                    raise ValueError("coordinates must be free of the pencil variables a, b")

    def matrix(self):
        """Entry (i, j): the coefficient of x_j in coordinate i, from the
        x-split of each coordinate (its keys are unit vectors)."""
        rows = []
        for c in self.coords:
            row = [ZERO] * 5
            for key, coeff in _split(c, _X).items():
                row[key.index(1)] = coeff
            rows.append(row)
        return rows

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
    return _proportional(_check_type(m1, ProjMap, "map").coords, _check_type(m2, ProjMap, "map").coords)


@dataclass(frozen=True)
class Pencil:
    """A pencil of conics cut by a * A_i + b * B_i = 0 (i = 1, 2), with
    constant-coefficient linear forms A_i, B_i."""

    forms: tuple  # ((A1, B1), (A2, B2))

    def __post_init__(self):
        forms = _check_type(self.forms, tuple, "pencil forms")
        if len(forms) != 2 or any(len(_check_type(pair, tuple, "pencil form pair")) != 2 for pair in forms):
            raise ValueError("a pencil needs two pairs of two forms")
        for pair in forms:
            for f in pair:
                if _check_type(f, ParamPoly, "pencil form").x_degrees() - {1} or not f.is_param_free():
                    raise ValueError("pencil basis forms must be linear and parameter-free")

    def member(self, i):
        a_part, b_part = self.forms[i]
        return A * a_part + B * b_part

    @cached_property
    def basis(self):
        """The x-splits of A1, B1, A2, B2, the basis that `pencil_action`
        solves in."""
        return tuple(_split(f, _X) for pair in self.forms for f in pair)


@cache
def _kinds():
    """Each surface kind -> (its defining quadric pair, its two pencils of
    conics): D1 (classical cover image), D2 (ordinary, e = 1), D3
    (supersingular, e = 0).  Built on first use."""
    g1 = X0 * X0 + X1 * X2
    table = {"D1": (QuadricPair(g1, X0 * X0 + X3 * X4),
                    (Pencil(((X2, X3), (X4, X1))), Pencil(((X2, X4), (X3, X1)))))}
    for kind, e0 in (("D2", X0), ("D3", ZERO)):
        core = e0 + X2 + X4
        table[kind] = (QuadricPair(g1, X1 * X3 + X4 * core),
                       (Pencil(((X3, core), (X4, X1))), Pencil(((core, X1), (X3, X4)))))
    return table


def surface(kind: str) -> QuadricPair:
    """The defining quadric pair of surface D1, D2 or D3 (see `_kinds`)."""
    table = _kinds()
    return table[_check_tag(kind, table, "surface")][0]


def pencils(kind: str):
    """The two pencils of conics on surface D1, D2 or D3."""
    table = _kinds()
    return table[_check_tag(kind, table, "surface")][1]


def aut_d1(lam=LAM, mu=MU):
    """Torus action on D1 (lam and mu must be units)."""
    lam, mu = _check_type(lam, ParamPoly, "lam"), _check_type(mu, ParamPoly, "mu")
    return ProjMap((X0, lam * X1, lam.unit_inverse() * X2, mu * X3, mu.unit_inverse() * X4))


def aut_d2(alpha=ALPHA, beta=BETA):
    """Additive two-parameter family on D2."""
    a, b = _check_type(alpha, ParamPoly, "alpha"), _check_type(beta, ParamPoly, "beta")
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
    a, b = _check_type(alpha, ParamPoly, "alpha"), _check_type(beta, ParamPoly, "beta")
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
    il = _check_type(lam, ParamPoly, "lam").unit_inverse()
    return ProjMap((X0, il * X1, lam * X2, lam**3 * X3, lam * X4))


# ---------------------------------------------------------------------------
# verification


def _split(poly, block):
    """Split a polynomial by its exponents on one block of variables (_X
    or _AB): {exponent tuple on the block: coefficient, the polynomial in
    the other variables}.  Distinct monomials never cancel."""
    out = {}
    zero = (0,) * (block.stop - block.start)
    for mon in poly.monomials:
        out.setdefault(mon[block], set()).add(mon[:block.start] + zero + mon[block.stop:])
    return {k: ParamPoly(frozenset(v)) for k, v in out.items()}


def pullback(poly, m: ProjMap):
    """Substitute the map's coordinates for x0..x4: each x-monomial's
    coefficient is multiplied by the powers of the coordinates it needs."""
    _check_type(m, ProjMap, "map")
    powers = {}
    out = ZERO
    for key, term in _split(_check_type(poly, ParamPoly, "poly"), _X).items():
        for i, e in enumerate(key):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = m.coords[i] ** e
                term = term * powers[i, e]
        out = out + term
    return out


def verify_preserves(m: ProjMap, kind: str):
    """Check that the map carries the surface into itself.

    The pullback of each defining quadric is a quadric again, so it must
    be c1 * g1 + c2 * g2 for parameter-ring constants c_ij, solved in
    the basis (g1, g2) by `_solve`.
    Returns (True, ((c11, c12), (c21, c22))) or (False, None).
    """
    if not _check_type(m, ProjMap, "map").is_invertible():
        raise ValueError("map is not invertible")
    quad = surface(kind)
    basis = (_split(quad.g1, _X), _split(quad.g2, _X))
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
    _check_type(m, ProjMap, "map")
    _check_type(pencil, Pencil, "pencil")
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
    # the map is free of a, b, so each entry is a*u + b*v: its (a, b) split is (u, v)
    splits = [_split(p, _AB) for p in rows[0]]
    return normalize_action(tuple((s.get((1, 0), ZERO), s.get((0, 1), ZERO)) for s in splits))


def _solve(cols, poly):
    """The unique parameter coefficients (w_j) with sum_j w_j * cols[j] =
    poly, or None when the columns are dependent or poly is outside their
    span.  The columns are x-splits of parameter-free forms, so every
    coefficient in them is 1; poly is split the same way.
    Gauss-Jordan over F2 runs on one row per x-monomial: the bitmask of
    the columns that hold it and poly's coefficient there."""
    target = _split(poly, _X)
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
    _check_type(m2, ProjMap, "map")
    coords = tuple(pullback(c, m2) for c in _check_type(m1, ProjMap, "map").coords)
    return ProjMap(coords)


# the printed families, in report order: name -> (surface, constructor,
# report label, (row, col) of the normalizing matrix entry,
# {parameter: (row, col) of its matrix entry})
FAMILIES = {
    "D1": ("D1", aut_d1, "torus (lam, mu)", (0, 0), {"lam": (1, 1), "mu": (3, 3)}),
    "D2": ("D2", aut_d2, "additive (alpha, beta)", (1, 1), {"alpha": (0, 1), "beta": (4, 1)}),
    "D3-additive": ("D3", aut_d3_additive, "additive (alpha, beta)", (1, 1), {"alpha": (0, 1), "beta": (4, 1)}),
    "D3-torus": ("D3", aut_d3_torus, "torus (lam)", (0, 0), {"lam": (2, 2)}),
}


def recover_params(m: ProjMap, kind: str):
    """Match a map against the printed family of the given name (a key
    of FAMILIES) and return its parameters, or None if it is not in the
    family."""
    _, family, _, (row, col), where = FAMILIES[_check_tag(kind, FAMILIES, "family")]
    mat = _check_type(m, ProjMap, "map").matrix()
    scale = mat[row][col]
    if not scale.is_unit():
        return None
    inv = scale.unit_inverse()
    params = {name: inv * mat[r][c] for name, (r, c) in where.items()}
    try:
        candidate = family(**params)
    except ValueError:  # a torus parameter that is not a unit
        return None
    return params if proj_equal(m, candidate) else None
