"""Automorphism groups of elliptic curves and their fixed-point counts.

The seven curve classes are written out once, in the table `_CLASSES`:
each class's quaternion algebra, unit-group generators and structure
tag.  A `CurveClass` is valid iff it is a key of that table.

Fixed points are counted two independent ways:

* norm arithmetic: an automorphism g of order coprime to the
  characteristic has exactly N(1 - g) fixed points, with the norm taken
  in the endomorphism order (Gaussian integers for j = 1728, Eisenstein
  integers for j = 0, a maximal quaternion order for the supersingular
  cases).  Unit groups are modeled inside a quaternion algebra (a, b | Q),
  which covers all four orders at once.  Every unit has integer or
  half-integer coordinates, so each is stored with doubled integer
  coordinates and the arithmetic stays in the integers.  Each class's
  unit group and element orders are built once per process and shared by
  `aut_group`, `element_orders` and `fixed_count`.

* brute force: explicit Weierstrass curves over small prime fields, with
  each automorphism given as a Weierstrass substitution (u, r, s, t).
  The fixed x solve one linear equation, (1 - u^2) x = r, over an
  extension field: one x, none, or every x when u^2 = 1 and r = 0.  Over
  each fixed x the fixed y solve another, and those on the curve are
  counted without solving the curve for y.  With the extension chosen
  large enough that ker(1 - g) is rational (`EXT_DEGREE` for every
  classification row), this is the geometric count.

When the characteristic divides the order of g the map 1 - g can be
inseparable and the fixed-point count is the separable degree; those
cases are resolved by a small rule table (validated by the brute-force
oracle) rather than computed from the norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce

from . import _check_int_tuple, _check_type, _quoted
from .gf import FIELD_CAP, GF, check_field, check_ints

# ---------------------------------------------------------------------------
# quaternion algebra (a, b | Q): i^2 = a, j^2 = b, ij = k = -ji, with
# doubled coordinates: the integer tuple X stands for the quaternion X/2


def quat_mul(x, y, a, b):
    """Product of two quaternions in doubled coordinates: the raw product
    of X and Y is 4 * (X/2)(Y/2), so halving it gives the doubled product."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    raw = (
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
        x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )
    assert all(c % 2 == 0 for c in raw), "product leaves the half-integers"
    return tuple(c // 2 for c in raw)


def quat_norm(x, a, b):
    """Reduced norm of the quaternion X/2 given in doubled coordinates X."""
    x0, x1, x2, x3 = x
    raw = x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3
    assert raw % 4 == 0, "norm of a unit-group element is an integer"
    return raw // 4


QUAT_ONE = (2, 0, 0, 0)
"""The quaternion 1 in doubled coordinates."""


def _closure(generators, a, b):
    """Multiplicative closure of a set of quaternions (a finite group)."""
    elems = {QUAT_ONE}
    frontier = [QUAT_ONE]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = quat_mul(x, g, a, b)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(elems)


def _element_order(x, a, b):
    n = 1
    y = x
    while y != QUAT_ONE:
        y = quat_mul(y, x, a, b)
        n += 1
        if n > 100:
            raise RuntimeError("element of unexpected order")
    return n


# ---------------------------------------------------------------------------
# curve classes

GENERIC = "generic"
J1728 = "1728"
J0 = "0"
SPECIAL = "special"


_CLASSES = {
    (0, GENERIC): ((-1, -1), ((-2, 0, 0, 0),), "Z/2"),
    (0, J1728): ((-1, -1), ((0, 2, 0, 0),), "Z/4"),
    # Eisenstein: w = (-1 + j)/2 of order 3; -w has order 6
    (0, J0): ((-1, -3), ((1, 0, -1, 0),), "Z/6"),
    (3, GENERIC): ((-1, -3), ((-2, 0, 0, 0),), "Z/2"),
    (3, SPECIAL): ((-1, -3), ((0, 2, 0, 0), (-1, 0, 1, 0)), "Z/3:Z/4"),
    (2, GENERIC): ((-1, -1), ((-2, 0, 0, 0),), "Z/2"),
    # Hurwitz units: Q8 extended by w = (-1 + i + j + k)/2
    (2, SPECIAL): ((-1, -1), ((0, 2, 0, 0), (0, 0, 2, 0), (-1, 1, 1, 1)), "Q8:Z/3"),
}
"""The curve classes: (char, j) -> ((a, b), unit-group generators in
doubled coordinates, structure tag of Aut(E)).  char 0 stands for any
characteristic > 3.  In characteristics 2 and 3 the special class
(j = 0) is exactly the supersingular one and the generic class is
ordinary."""


@dataclass(frozen=True)
class CurveClass:
    """Coarse class of an elliptic curve: (characteristic, j-class), one
    of the keys of `_CLASSES`."""

    char: int
    j: str

    def __post_init__(self):
        check_ints(char=self.char)
        if not isinstance(self.j, str) or (self.char, self.j) not in _CLASSES:
            raise ValueError(f"unknown curve class (char {self.char}, j {_quoted(self.j)})")


@cache
def _unit_group(c: CurveClass):
    """(elements, a, b, {element: order}) for the class, built once."""
    (a, b), gens, _ = _CLASSES[(c.char, c.j)]
    elems = tuple(_closure(gens, a, b))
    return elems, a, b, {x: _element_order(x, a, b) for x in elems}


def aut_group(c: CurveClass):
    """(order, structure tag) of Aut(E) for a curve of the given class."""
    return len(_unit_group(_check_type(c, CurveClass, "curve class"))[0]), _CLASSES[(c.char, c.j)][2]


def element_orders(c: CurveClass):
    return sorted(set(_unit_group(_check_type(c, CurveClass, "curve class"))[3].values()))


# separable degrees for the inseparable cases, cross-validated by the
# brute-force oracle (see tests): data, not a p-divisible-group computation.
_WILD_RULES = {
    (2, GENERIC, 2): 2,
    (2, SPECIAL, 2): 1,
    (2, SPECIAL, 4): 1,
    (3, SPECIAL, 3): 1,
}


def fixed_count(c: CurveClass, order: int) -> int:
    """Number of fixed points of an automorphism of the given order.

    Tame orders via N(1 - g) in the endomorphism order (the value is
    independent of which primitive element is chosen: conjugates have
    equal norms, and this is asserted).  Wild orders via the rule table;
    beyond it, if N(1 - g) is coprime to the characteristic then 1 - g
    is separable and the norm is still the count.
    """
    check_ints(order=order)
    elems, a, b, orders = _unit_group(_check_type(c, CurveClass, "curve class"))
    norms = {quat_norm(tuple(o - gi for o, gi in zip(QUAT_ONE, g)), a, b) for g in elems if orders[g] == order}
    if not norms:
        raise ValueError(f"no automorphism of order {order} in class {c}")
    assert len(norms) == 1, "norm must not depend on the primitive element"
    n = norms.pop()
    p = c.char
    if p == 0 or order % p != 0:
        return n
    if (p, c.j, order) in _WILD_RULES:
        return _WILD_RULES[(p, c.j, order)]
    if n % p != 0:
        # 1 - g has degree prime to p, hence is separable
        return n
    raise ValueError(f"inseparable case (char {p}, order {order}) not in the rule table")


# ---------------------------------------------------------------------------
# explicit curves and automorphism maps


@dataclass(frozen=True)
class Weierstrass:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over F_p, each a_i stored mod p."""

    p: int
    a1: int = 0
    a2: int = 0
    a3: int = 0
    a4: int = 0
    a6: int = 0

    def __post_init__(self):
        check_ints(a1=self.a1, a2=self.a2, a3=self.a3, a4=self.a4, a6=self.a6)
        check_field(self.p, 1)
        for name in ("a1", "a2", "a3", "a4", "a6"):  # once, so readers take them as they are
            object.__setattr__(self, name, getattr(self, name) % self.p)


@dataclass(frozen=True)
class AutMap:
    """The Weierstrass substitution (x, y) -> (u^2 x + r, u^3 y + s u^2 x + t).

    Every isomorphism of Weierstrass curves has this form (Silverman,
    AEC III.1); it fixes the point at infinity.  Each constant is a tuple
    of prime-field coefficients of a polynomial in an auxiliary algebraic
    constant w, low degree first: (1, 1) is 1 + w and () is 0.  w is a
    root of the prime-field polynomial `sym_poly` (coefficient list, low
    degree first, irreducible mod p), e.g. (1, 1, 1) for w^2 + w + 1 = 0.
    """

    u: tuple = (1,)
    r: tuple = ()
    s: tuple = ()
    t: tuple = ()
    sym_poly: tuple = ()

    def __post_init__(self):
        for name in ("u", "r", "s", "t", "sym_poly"):
            _check_int_tuple(getattr(self, name), f"AutMap {name}")
        if not any(self.u):
            raise ValueError("AutMap needs u != 0: with u = 0 the substitution is not invertible")
        if not self.sym_poly and any(any(c[1:]) for c in (self.u, self.r, self.s, self.t)):
            raise ValueError("AutMap constants with powers of w need sym_poly")


def _constants(aut: AutMap, fld: GF):
    """(w, u, r, s, t) as elements of fld, with w the first root of sym_poly
    (0 without a sym_poly)."""
    w = fld.find_root(aut.sym_poly) if aut.sym_poly else fld.zero
    if w is None:
        raise ValueError(f"AutMap sym_poly {_quoted(aut.sym_poly)} has no root in GF({fld.p}^{fld.k})")
    return w, *[fld._evaluate([c % fld.p for c in coeffs], w) for coeffs in (aut.u, aut.r, aut.s, aut.t)]


def _substitution_preserves(curve: Weierstrass, fld: GF, u, r, s, t) -> bool:
    """Whether the substitution with these constants of fld carries the
    curve to itself.

    Substituting gives W(u^2 x + r, u^3 y + s u^2 x + t) = u^6 W'(x, y),
    where the coefficients a_i' of W' satisfy Silverman's Table 3.1; the
    curve is preserved iff u != 0 and a_i' = a_i for i = 1, 2, 3, 4, 6.
    """
    mul, neg, p = fld.mul, fld.neg, fld.p
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    two, three = 2 % p, 3 % p
    u2 = mul(u, u)
    u3 = mul(u2, u)
    r2 = mul(r, r)

    def total(*terms):
        return reduce(fld.add, terms, fld.zero)

    lhs = (mul(u, a1), mul(u2, a2), mul(u3, a3), mul(mul(u2, u2), a4), mul(mul(u3, u3), a6))
    rhs = (
        total(a1, mul(two, s)),
        total(a2, neg(mul(s, a1)), mul(three, r), neg(mul(s, s))),
        total(a3, mul(r, a1), mul(two, t)),
        total(a4, neg(mul(s, a3)), mul(two, mul(r, a2)), neg(mul(total(t, mul(r, s)), a1)), mul(three, r2),
              neg(mul(two, mul(s, t)))),
        total(a6, mul(r, a4), mul(r2, a2), mul(r2, r), neg(mul(t, a3)), neg(mul(t, t)), neg(mul(mul(r, t), a1))),
    )
    return u != fld.zero and lhs == rhs


def check_preserves(curve: Weierstrass, aut: AutMap) -> bool:
    """Whether the map carries the curve to itself, by Table 3.1 over the
    smallest field that contains w (see `_substitution_preserves`): its
    degree d is that of sym_poly mod p, trailing zeros aside.  For d >= 2
    sym_poly must be irreducible mod p, so that w lies in no proper
    subfield GF(p^e), e < d, and every root of sym_poly gives a conjugate
    map; a reducible one raises ValueError."""
    p = _check_type(curve, Weierstrass, "curve").p
    _check_type(aut, AutMap, "map")
    degree = max((i for i, c in enumerate(aut.sym_poly) if c % p), default=0)
    fld = GF(p, max(1, degree))
    w, *constants = _constants(aut, fld)
    for e in range(1, degree):  # a root in GF(p^e) is a root of a factor of degree <= e
        if fld.pow(w, p**e) == w:
            raise ValueError(f"AutMap sym_poly {_quoted(aut.sym_poly)} is reducible mod {p}")
    return _substitution_preserves(curve, fld, *constants)


def _fixed_over(curve: Weierstrass, fld: GF, u3):
    """The function (x, shift) -> the number of points (x, y) on the curve
    with u^3 y + shift = y, over the given field.

    If u^3 != 1 only y = shift / (1 - u^3) can be fixed.  If u^3 = 1 no y
    is fixed unless shift = 0, and then every y over x is: the roots of
    y^2 + c y = rhs with c = a1 x + a3.  For odd p they are counted from
    the discriminant c^2 + 4 rhs by `GF.sqrt`.  For p = 2 and c != 0,
    y = c z with z^2 + z = rhs / c^2, which has two solutions if the
    absolute trace of rhs / c^2 is 0 and none if it is 1.
    """
    p, mul, add = curve.p, fld.mul, fld.add
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    one_minus_u3 = fld.sub(fld.one, u3)
    inv = fld.inv(one_minus_u3) if one_minus_u3 else None
    four = 4 % p

    def count(x, shift):
        rhs = add(mul(add(mul(add(x, a2), x), a4), x), a6)
        c = add(mul(a1, x), a3)
        if inv is not None:
            y = mul(shift, inv)
            return int(mul(add(y, c), y) == rhs)
        if shift:
            return 0
        if p != 2:
            disc = add(mul(c, c), mul(four, rhs))
            return 1 if not disc else 0 if fld.sqrt(disc) is None else 2
        if not c:
            return 1  # y^2 = rhs: Frobenius is bijective
        v = trace = mul(rhs, fld.inv(mul(c, c)))
        for _ in range(fld.k - 1):
            v = mul(v, v)
            trace = add(trace, v)
        return 2 - 2 * trace

    return count


def brute_force_count(curve: Weierstrass, aut: AutMap, ext_degree: int) -> int:
    """Count points fixed by the map over the degree-ext_degree extension
    (including the point at infinity).

    The map is first checked to preserve the curve.  X = u^2 x + r
    depends on x alone, so only the x with X = x, the solutions of
    (1 - u^2) x = r, can carry fixed points: x = r / (1 - u^2) if
    u^2 != 1, none if u^2 = 1 and r != 0, and every x of the field if
    u^2 = 1 and r = 0.  Over such an x the fixed y are the solutions of
    (1 - u^3) y = s u^2 x + t on the curve (see `_fixed_over`).  When
    ext_degree makes ker(1 - g) rational this is the geometric
    fixed-point count.  `GF` rejects an extension field above FIELD_CAP.
    """
    check_ints(ext_degree=ext_degree)
    if not check_preserves(curve, aut):
        raise ValueError("map does not preserve the curve")
    fld = GF(curve.p, ext_degree)
    _, u, r, s, t = _constants(aut, fld)
    u2 = fld.mul(u, u)
    fixed_over = _fixed_over(curve, fld, fld.mul(u2, u))
    d = fld.sub(fld.one, u2)
    if d:
        xs = (fld.mul(r, fld.inv(d)),)
    else:
        xs = () if r else fld.elements()
    count = 1  # point at infinity
    for x in xs:
        count += fixed_over(x, fld.add(fld.mul(s, fld.mul(u2, x)), t))
    return count


# ---------------------------------------------------------------------------
# the classification rows with representative curves


@dataclass(frozen=True)
class TableRow:
    cls: CurveClass
    order: int
    expected: int  # |E^g| from the classification
    curve: Weierstrass
    aut: AutMap


def _rows():
    rows = []
    # characteristic > 3, realized over F_13 (both i and a cube root of
    # unity exist: 5^2 = -1, 3^3 = 1).  The maps are (x, -y), (-x, 5y)
    # with u = 8, (3x, y) with u = 1/3 = 9 and (3x, -y) with u = 4.
    c = Weierstrass(13, a4=1, a6=1)
    neg = AutMap(u=(12,))
    rows.append(TableRow(CurveClass(0, GENERIC), 2, 4, c, neg))
    c = Weierstrass(13, a4=1)
    rows.append(TableRow(CurveClass(0, J1728), 2, 4, c, neg))
    rows.append(TableRow(CurveClass(0, J1728), 4, 2, c, AutMap(u=(8,))))
    c = Weierstrass(13, a6=1)
    rows.append(TableRow(CurveClass(0, J0), 2, 4, c, neg))
    rows.append(TableRow(CurveClass(0, J0), 3, 3, c, AutMap(u=(9,))))
    rows.append(TableRow(CurveClass(0, J0), 6, 1, c, AutMap(u=(4,))))
    # characteristic 3: ordinary rep y^2 = x^3 + x^2 + 1 (j = 2 != 0),
    # supersingular rep y^2 = x^3 - x; maps (x, -y), (x + 1, y) and
    # (-x, -w y) with w^2 = -1, u = w
    c = Weierstrass(3, a2=1, a6=1)
    neg3 = AutMap(u=(2,))
    rows.append(TableRow(CurveClass(3, GENERIC), 2, 4, c, neg3))
    c = Weierstrass(3, a4=2)
    rows.append(TableRow(CurveClass(3, SPECIAL), 2, 4, c, neg3))
    rows.append(TableRow(CurveClass(3, SPECIAL), 3, 1, c, AutMap(r=(1,))))
    rows.append(TableRow(CurveClass(3, SPECIAL), 4, 2, c, AutMap(u=(0, 1), sym_poly=(1, 0, 1))))
    # characteristic 2: ordinary rep y^2 + xy = x^3 + 1, supersingular
    # rep y^2 + y = x^3 (w is a cube root of unity, w^2 + w + 1 = 0); maps
    # (x, y + x), (x, y + 1), (w x, y) with u = w^2 = 1 + w, (x + 1, y + x + w)
    c = Weierstrass(2, a1=1, a6=1)
    rows.append(TableRow(CurveClass(2, GENERIC), 2, 2, c, AutMap(s=(1,))))
    c = Weierstrass(2, a3=1)
    w3 = (1, 1, 1)
    rows.append(TableRow(CurveClass(2, SPECIAL), 2, 1, c, AutMap(t=(1,))))
    rows.append(TableRow(CurveClass(2, SPECIAL), 3, 3, c, AutMap(u=(1, 1), sym_poly=w3)))
    rows.append(TableRow(CurveClass(2, SPECIAL), 4, 1, c, AutMap(r=(1,), s=(1,), t=(0, 1), sym_poly=w3)))
    return rows


TABLE_ROWS = tuple(_rows())
EXT_DEGREE = 2  # sufficient for every row: all of ker(1 - g) is rational over GF(p^2)
# the degrees that serve every row: multiples of EXT_DEGREE with each row's p^d within FIELD_CAP
TABLE_EXT_DEGREES = tuple(d for d in range(EXT_DEGREE, FIELD_CAP.bit_length(), EXT_DEGREE)
                          if all(row.curve.p**d <= FIELD_CAP for row in TABLE_ROWS))


def classification_report(ext_degree: int = 0):
    """All classification rows with the norm-engine and brute-force columns
    (over GF(p^ext_degree), 0: EXT_DEGREE) side by side; `match` flags exact agreement."""
    out = []
    for row in TABLE_ROWS:
        norm_val = fixed_count(row.cls, row.order)
        oracle = brute_force_count(row.curve, row.aut, ext_degree or EXT_DEGREE)
        out.append(
            {
                "char": "p>3" if row.cls.char == 0 else str(row.cls.char),
                "j": row.cls.j,
                "group": aut_group(row.cls)[1],
                "order": row.order,
                "expected": row.expected,
                "norm_engine": norm_val,
                "point_oracle": oracle,
                "match": norm_val == row.expected == oracle,
            }
        )
    return out
