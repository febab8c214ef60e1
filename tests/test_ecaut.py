import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from enrq import ecaut, gf
from enrq.ecaut import AutMap, CurveClass, Weierstrass
from enrq.gf import GF

GENERIC, J1728, J0, SPECIAL = ecaut.GENERIC, ecaut.J1728, ecaut.J0, ecaut.SPECIAL


def test_aut_group_orders_and_structures():
    assert ecaut.aut_group(CurveClass(0, GENERIC)) == (2, "Z/2")
    assert ecaut.aut_group(CurveClass(0, J1728)) == (4, "Z/4")
    assert ecaut.aut_group(CurveClass(0, J0)) == (6, "Z/6")
    assert ecaut.aut_group(CurveClass(3, GENERIC)) == (2, "Z/2")
    assert ecaut.aut_group(CurveClass(3, SPECIAL)) == (12, "Z/3:Z/4")
    assert ecaut.aut_group(CurveClass(2, GENERIC)) == (2, "Z/2")
    assert ecaut.aut_group(CurveClass(2, SPECIAL)) == (24, "Q8:Z/3")


def test_curve_class_validation():
    with pytest.raises(ValueError):
        CurveClass(0, SPECIAL)
    with pytest.raises(ValueError):
        CurveClass(2, J1728)
    with pytest.raises(ValueError):
        CurveClass(5, GENERIC)


def test_element_orders():
    assert ecaut.element_orders(CurveClass(2, SPECIAL)) == [1, 2, 3, 4, 6]
    assert ecaut.element_orders(CurveClass(3, SPECIAL)) == [1, 2, 3, 4, 6]
    assert ecaut.element_orders(CurveClass(0, J0)) == [1, 2, 3, 6]


FIXED_COUNTS = [
    (CurveClass(0, GENERIC), 2, 4),
    (CurveClass(0, J1728), 2, 4),
    (CurveClass(0, J1728), 4, 2),
    (CurveClass(0, J0), 2, 4),
    (CurveClass(0, J0), 3, 3),
    (CurveClass(0, J0), 6, 1),
    (CurveClass(3, GENERIC), 2, 4),
    (CurveClass(3, SPECIAL), 2, 4),
    (CurveClass(3, SPECIAL), 3, 1),
    (CurveClass(3, SPECIAL), 4, 2),
    (CurveClass(2, GENERIC), 2, 2),
    (CurveClass(2, SPECIAL), 2, 1),
    (CurveClass(2, SPECIAL), 3, 3),
    (CurveClass(2, SPECIAL), 4, 1),
]


@pytest.mark.parametrize("cls,order,expected", FIXED_COUNTS)
def test_fixed_count_table(cls, order, expected):
    assert ecaut.fixed_count(cls, order) == expected


def test_fixed_count_order_six_char_two():
    # not a printed row; the norm is odd, so 1 - g is separable
    assert ecaut.fixed_count(CurveClass(2, SPECIAL), 6) == 1


def test_fixed_count_rejects_unrealized_orders():
    with pytest.raises(ValueError):
        ecaut.fixed_count(CurveClass(0, J0), 4)
    with pytest.raises(ValueError):
        ecaut.fixed_count(CurveClass(0, GENERIC), 3)


def test_norm_independent_of_primitive_element():
    for cls in (CurveClass(0, J0), CurveClass(2, SPECIAL), CurveClass(3, SPECIAL)):
        elems, a, b, _ = ecaut._unit_group(cls)
        by_order = {}
        for g in elems:
            o = ecaut._element_order(g, a, b)
            n = ecaut.quat_norm(tuple(x - y for x, y in zip(ecaut.QUAT_ONE, g)), a, b)
            by_order.setdefault(o, set()).add(n)
        for o, norms in by_order.items():
            assert len(norms) == 1, (cls, o)


def test_accepted_orders_divide_group_order():
    for cls in (CurveClass(0, J0), CurveClass(2, SPECIAL), CurveClass(3, SPECIAL)):
        group_order = ecaut.aut_group(cls)[0]
        for o in ecaut.element_orders(cls):
            assert group_order % o == 0


def test_fields_above_the_cap_are_rejected_before_any_table(monkeypatch):
    # a degree-21 sym_poly asks for GF(2^21), and so does ext_degree 21;
    # both are refused before any table is built
    tables = gf._tables

    def checked(p, k):
        assert p**k <= gf.FIELD_CAP, f"built tables for GF({p}^{k})"
        return tables(p, k)

    monkeypatch.setattr(gf, "_tables", checked)
    curve = Weierstrass(2, a3=1)
    with pytest.raises(ValueError, match="FIELD_CAP"):
        ecaut.check_preserves(curve, AutMap(sym_poly=(1,) + (0,) * 20 + (1,)))
    with pytest.raises(ValueError, match="FIELD_CAP"):
        ecaut.brute_force_count(curve, AutMap(t=(1,)), 21)


def test_brute_force_cube_root_twist():
    # y^2 + y = x^3 over F2, (x, y) -> (w x, y) with w a cube root of 1:
    # fixed points are the origin column x = 0 plus infinity
    curve = Weierstrass(2, a3=1)
    aut = AutMap(u=(1, 1), sym_poly=(1, 1, 1))  # u = w^2 = 1 + w
    assert ecaut.brute_force_count(curve, aut, 2) == 3


def test_brute_force_translation_like_involution():
    curve = Weierstrass(2, a3=1)
    aut = AutMap(t=(1,))
    assert ecaut.brute_force_count(curve, aut, 2) == 1


def test_brute_force_order_four_char_thirteen():
    # y^2 = x^3 + x over F13, (x, y) -> (-x, 5y) with 5^2 = -1
    curve = Weierstrass(13, a4=1)
    aut = AutMap(u=(8,))  # u^2 = -1, u^3 = 5
    assert ecaut.brute_force_count(curve, aut, 2) == 2


def test_brute_force_rejects_non_preserving_map():
    curve = Weierstrass(2, a3=1)
    bad = AutMap(r=(1,))  # x -> x + 1 alone
    with pytest.raises(ValueError):
        ecaut.brute_force_count(curve, bad, 2)


def test_brute_force_rejects_huge_fields():
    curve = Weierstrass(13, a4=1)
    aut = AutMap(u=(8,))  # u^2 = -1, u^3 = 5
    with pytest.raises(ValueError):
        ecaut.brute_force_count(curve, aut, 12)


# each entry point rejects what is not an int (a bool is not), and a
# Weierstrass p that does not give a field, with a one-line ValueError
BAD_INPUTS = {
    "GF p float": (lambda: GF(2.0, 3), "p must be an int, not 2.0"),
    "GF p str": (lambda: GF("2", 3), "p must be an int, not '2'"),
    "GF k bool": (lambda: GF(2, True), "k must be an int, not True"),
    "GF k float": (lambda: GF(2, 2.0), "k must be an int, not 2.0"),
    # from_int used to return 1.5 and 1, and to raise a TypeError on a str
    "from_int float": (lambda: GF(2, 2).from_int(1.5), "n must be an int, not 1.5"),
    "from_int bool": (lambda: GF(2, 2).from_int(True), "n must be an int, not True"),
    "from_int str": (lambda: GF(2, 2).from_int("a"), "n must be an int, not 'a'"),
    "class char float": (lambda: CurveClass(2.0, SPECIAL), "char must be an int, not 2.0"),
    "class char bool": (lambda: CurveClass(False, J0), "char must be an int, not False"),
    "order float": (lambda: ecaut.fixed_count(CurveClass(2, SPECIAL), 3.0), "order must be an int, not 3.0"),
    "order bool": (lambda: ecaut.fixed_count(CurveClass(2, SPECIAL), True), "order must be an int, not True"),
    "curve p float": (lambda: Weierstrass(2.0, a3=1), "p must be an int, not 2.0"),
    "curve p composite": (lambda: Weierstrass(4, a3=1), "p must be prime"),
    "curve p one": (lambda: Weierstrass(1), "p must be prime"),
    "curve p above the cap": (lambda: Weierstrass(2**61 - 1), "FIELD_CAP"),
    "curve a3 float": (lambda: Weierstrass(2, a3=1.0), "a3 must be an int, not 1.0"),
    "ext_degree bool": (lambda: ecaut.brute_force_count(Weierstrass(2, a3=1), AutMap(t=(1,)), True),
                        "ext_degree must be an int, not True"),
    "ext_degree float": (lambda: ecaut.brute_force_count(Weierstrass(2, a3=1), AutMap(t=(1,)), 2.0),
                         "ext_degree must be an int, not 2.0"),
    "map u int": (lambda: AutMap(u=8), "AutMap u must be a tuple of ints, not 8"),
    "map u float": (lambda: AutMap(u=(1.0,)), r"AutMap u\[0\] must be an int, not 1.0"),
    "map sym_poly list": (lambda: AutMap(sym_poly=[1, 1, 1]), r"AutMap sym_poly must be a tuple of ints"),
    # a curve, map or class of the wrong type used to raise AttributeError
    "curve None": (lambda: ecaut.brute_force_count(None, None, 2), "curve must be a Weierstrass, not None"),
    "map None": (lambda: ecaut.check_preserves(Weierstrass(2, a3=1), None), "map must be an AutMap, not None"),
    "class None": (lambda: ecaut.fixed_count(None, 2), "curve class must be a CurveClass, not None"),
    "class tuple": (lambda: ecaut.aut_group((2, SPECIAL)), r"curve class must be a CurveClass, not \(2, "),
    "class str": (lambda: ecaut.element_orders(SPECIAL), "curve class must be a CurveClass, not '"),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_inputs_raise_one_line_value_errors(name):
    build, message = BAD_INPUTS[name]
    with pytest.raises(ValueError, match=message) as exc:
        build()
    assert "\n" not in str(exc.value)


def test_aut_map_rejects_u_zero_and_w_without_sym_poly():
    for u in ((), (0,), (0, 0)):
        with pytest.raises(ValueError, match="u != 0"):
            AutMap(u=u, sym_poly=(1, 1, 1))
    with pytest.raises(ValueError, match="sym_poly"):
        AutMap(u=(1, 1))  # 1 + w, with no w
    AutMap(u=(1, 0))  # a zero coefficient of w needs no sym_poly
    # u = 13 vanishes only in the field; on the cusp y^2 = x^3 every
    # Table 3.1 equation then reads 0 = 0, yet the map is no automorphism
    assert not ecaut.check_preserves(Weierstrass(13), AutMap(u=(13,)))


# ---------------------------------------------------------------------------
# oracles for the substitution form: plain evaluation at every point


def field_constants(aut, fld):
    """(u, r, s, t) in fld, each polynomial in w evaluated at the first root of sym_poly."""
    w = fld.find_root(aut.sym_poly) if aut.sym_poly else fld.zero
    out = []
    for coeffs in (aut.u, aut.r, aut.s, aut.t):
        out.append(sum_terms(fld, [fld.mul(fld.from_int(c), fld.pow(w, i)) for i, c in enumerate(coeffs)]))
    return tuple(out)


def sum_terms(fld, terms):
    acc = fld.zero
    for term in terms:
        acc = fld.add(acc, term)
    return acc


def weierstrass(curve, fld):
    """The function (x, y) -> W(x, y) = y^2 + a1 xy + a3 y - x^3 - a2 x^2 - a4 x - a6."""
    a1, a2, a3, a4, a6 = (fld.from_int(a) for a in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    mul, add = fld.mul, fld.add

    def value(x, y):
        x2 = mul(x, x)
        lhs = add(add(mul(y, y), mul(a1, mul(x, y))), mul(a3, y))
        return fld.sub(lhs, add(add(add(mul(x2, x), mul(a2, x2)), mul(a4, x)), a6))

    return value


def apply_map(fld, constants, x, y):
    u, r, s, t = constants
    u2x = fld.mul(fld.mul(u, u), x)
    return fld.add(u2x, r), sum_terms(fld, [fld.mul(fld.pow(u, 3), y), fld.mul(s, u2x), t])


def curve_points(curve, fld):
    """Every affine point, by scanning all of fld^2."""
    w = weierstrass(curve, fld)
    return [(x, y) for x in fld.elements() for y in fld.elements() if w(x, y) == fld.zero]


def every_point_fixed_count(curve, aut, ext_degree):
    fld = GF(curve.p, ext_degree)
    constants = field_constants(aut, fld)
    return 1 + sum(apply_map(fld, constants, x, y) == (x, y) for x, y in curve_points(curve, fld))


def preserves_by_evaluation(curve, aut, fld):
    """W(X, Y) = u^6 W(x, y) at every point of fld^2, with u != 0.

    For q >= 4 both sides have degree < q in x and in y, so agreement at
    every point is equality of polynomials.
    """
    assert fld.q >= 4
    constants = field_constants(aut, fld)
    u6 = fld.pow(constants[0], 6)
    if u6 == fld.zero:
        return False
    w = weierstrass(curve, fld)
    return all(
        w(*apply_map(fld, constants, x, y)) == fld.mul(u6, w(x, y)) for x in fld.elements() for y in fld.elements()
    )


ROW_IDS = {"ids": lambda r: f"p{r.curve.p}-{r.cls.j}-o{r.order}"}
TABLE_CURVES = sorted({row.curve for row in ecaut.TABLE_ROWS}, key=repr)


@pytest.mark.parametrize("row", ecaut.TABLE_ROWS, **ROW_IDS)
def test_filtered_count_matches_every_point_oracle(row):
    assert ecaut.brute_force_count(row.curve, row.aut, ecaut.EXT_DEGREE) == row.expected
    assert every_point_fixed_count(row.curve, row.aut, ecaut.EXT_DEGREE) == row.expected


@pytest.mark.parametrize("degree", (1, 2))
@pytest.mark.parametrize("curve", TABLE_CURVES, ids=repr)
def test_fixed_over_vs_pair_scan(curve, degree):
    # the brute-force count runs the helper only over fixed x, so check it
    # here at every x and every shift: u^3 = 1 (shift = 0 through GF.sqrt
    # or the p = 2 trace, shift != 0 with no fixed y) and u^3 = 0, q - 1
    # (one linear solution, where q - 1 != 1)
    fld = GF(curve.p, degree)
    ys = {x: [] for x in fld.elements()}
    for x, y in curve_points(curve, fld):
        ys[x].append(y)
    for u3 in {fld.one, fld.zero, fld.q - 1}:
        count = ecaut._fixed_over(curve, fld, u3)
        for x, shift in product(fld.elements(), repeat=2):
            assert count(x, shift) == sum(fld.add(fld.mul(u3, y), shift) == y for y in ys[x]), (u3, x, shift)


@pytest.mark.parametrize("k", range(1, 13))
def test_fixed_over_trace_matches_the_whole_field_table(k):
    # on y^2 + xy = x^3 + a2 x^2 with x != 0, c = x and rhs / c^2 = x + a2,
    # so a2 = 0 and a2 = 1 together reach every v; with u^3 = 1 and
    # shift = 0 the count is the number of z with z^2 + z = v, which the
    # table of z^2 + z over every z gives
    fld = GF(2, k)
    table = Counter(fld.add(fld.mul(z, z), z) for z in fld.elements())
    reached = set()
    for a2 in (0, 1):
        count = ecaut._fixed_over(Weierstrass(2, a1=1, a2=a2), fld, fld.one)
        for x in fld.elements():
            if x:
                v = fld.add(x, a2)
                assert count(x, 0) == table[v], (a2, x)
                reached.add(v)
    assert len(reached) == fld.q


@pytest.mark.parametrize("row", ecaut.TABLE_ROWS, **ROW_IDS)
def test_check_preserves_matches_evaluation_on_table_rows(row):
    fld = GF(row.curve.p, 1 if row.curve.p >= 4 and not row.aut.sym_poly else 2)
    assert ecaut.check_preserves(row.curve, row.aut)
    assert preserves_by_evaluation(row.curve, row.aut, fld)


# (p, evaluation degree, number of sampled curves over F_p)
PRIME_FIELD_SAMPLES = [(2, 2, 32), (3, 2, 80), (5, 1, 30)]


def sampled_curves(p, n_curves):
    """A fixed-seed sample of all curves over F_p (all of them for p = 2)."""
    return random.Random(p).sample([Weierstrass(p, *a) for a in product(range(p), repeat=5)], n_curves)


def prime_field_maps(p):
    return [AutMap((u,), (r,), (s,), (t,)) for u in range(1, p) for r, s, t in product(range(p), repeat=3)]


@pytest.mark.parametrize("p,k,n_curves", PRIME_FIELD_SAMPLES)
def test_check_preserves_matches_evaluation_on_prime_field_maps(p, k, n_curves):
    # every prime-field map on the sampled curves: unlike the table
    # curves, these have a1 and a3 != 0, and automorphisms with r, s and
    # t != 0, so every term of Table 3.1 takes part
    fld = GF(p, k)
    maps = prime_field_maps(p)
    preserving = 0
    for curve in sampled_curves(p, n_curves):
        for aut in maps:
            verdict = ecaut.check_preserves(curve, aut)
            assert verdict == preserves_by_evaluation(curve, aut, fld), (curve, aut)
            preserving += verdict
    assert preserving > n_curves  # more than the identities


@pytest.mark.parametrize("degree", (1, 2))
@pytest.mark.parametrize("p,n_curves", [(p, n) for p, _, n in PRIME_FIELD_SAMPLES])
def test_brute_force_matches_every_point_oracle_on_prime_field_maps(p, n_curves, degree):
    # no table row has a1, a3, r, s and t all nonzero; for odd p the
    # preserving prime-field maps on the sampled curves include such maps
    # (over F_2 the a2 equation of Table 3.1 reads r = s (a1 + s), so
    # s = a1 = 1 forces r = 0)
    checked, all_nonzero = 0, False
    for curve in sampled_curves(p, n_curves):
        for aut in prime_field_maps(p):
            if ecaut.check_preserves(curve, aut):
                assert ecaut.brute_force_count(curve, aut, degree) == every_point_fixed_count(curve, aut, degree), (
                    curve, aut)
                checked += 1
                all_nonzero |= all((curve.a1, curve.a3, *aut.r, *aut.s, *aut.t))
    assert checked > n_curves and (p == 2 or all_nonzero)


def scanned_count(curve, aut, ext_degree):
    """(count, branch) by the whole-field x scan: u^2 x + r == x is tested
    at every x, and the fixed y over each fixed x are counted by
    `ecaut._fixed_over`.  branch names the case of (1 - u^2) x = r that
    `brute_force_count` solves instead."""
    if not ecaut.check_preserves(curve, aut):
        raise ValueError("map does not preserve the curve")
    fld = GF(curve.p, ext_degree)
    _, u, r, s, t = ecaut._constants(aut, fld)
    u2 = fld.mul(u, u)
    fixed_over = ecaut._fixed_over(curve, fld, fld.mul(u2, u))
    count = 1
    for x in fld.elements():
        u2x = fld.mul(u2, x)
        if fld.add(u2x, r) == x:
            count += fixed_over(x, fld.add(fld.mul(s, u2x), t))
    branch = "one x" if u2 != fld.one else "no x" if r else "every x"
    return count, branch


def solved_and_scanned(curve, aut, degree):
    """(brute_force_count, scanned count, branch), or the two ValueError texts."""
    try:
        solved = ecaut.brute_force_count(curve, aut, degree)
    except ValueError as exc:
        with pytest.raises(ValueError) as scan_error:
            scanned_count(curve, aut, degree)
        return str(exc), str(scan_error.value), "error"
    return (solved, *scanned_count(curve, aut, degree))


def test_solved_x_matches_the_whole_field_scan_on_table_rows():
    # every degree with p^d <= 2^12, the odd degrees included, where a
    # row whose map needs a cube or fourth root of unity has none
    branches = Counter()
    for row in ecaut.TABLE_ROWS:
        for degree in range(1, 13):
            if row.curve.p**degree <= 1 << 12:
                solved, scanned, branch = solved_and_scanned(row.curve, row.aut, degree)
                assert solved == scanned, (row, degree)
                branches[branch] += 1
    assert set(branches) == {"one x", "no x", "every x", "error"}, branches


@pytest.fixture(scope="module")
def preserving_prime_field_maps():
    return {p: [(curve, aut) for curve in sampled_curves(p, n_curves) for aut in prime_field_maps(p)
                if ecaut.check_preserves(curve, aut)]
            for p, _, n_curves in PRIME_FIELD_SAMPLES}


@pytest.mark.parametrize("degree", (1, 2, 3))
def test_solved_x_matches_the_whole_field_scan_on_prime_field_maps(preserving_prime_field_maps, degree):
    branches = Counter()
    for p, pairs in preserving_prime_field_maps.items():
        for curve, aut in pairs:
            solved, scanned, branch = solved_and_scanned(curve, aut, degree)
            assert solved == scanned, (curve, aut, degree)
            branches[branch] += 1
    assert set(branches) == {"one x", "no x", "every x"}, branches


def test_counts_over_the_large_fields_enumerate_no_field(monkeypatch):
    # the rows with u^2 != 1 over GF(2^12), GF(3^8) and GF(13^4): the one
    # candidate x is solved for, so no element list is walked
    def refuse(self):
        raise AssertionError("GF.elements called")

    monkeypatch.setattr(GF, "elements", refuse)
    degrees = {2: 12, 3: 8, 13: 4}
    # the rows of orders 3, 4 and 6 other than the two translations u = 1
    rows = [r for r in ecaut.TABLE_ROWS if r.order in (3, 4, 6) and r.aut.u != (1,)]
    assert sorted(r.order for r in rows) == [3, 3, 4, 4, 6]
    for row in rows:
        assert ecaut.brute_force_count(row.curve, row.aut, degrees[row.curve.p]) == row.expected, row


# w^3 + 1 = (w + 1)(w^2 + w + 1) over F2: w = 1 in GF(8), w = t in GF(4),
# so the one map y -> y + w was checked as y -> y + 1 and counted as
# y -> y + t, and u = w was the identity in GF(8) and of order 3 in GF(4);
# (w^2 + w + 1)(w^3 + w + 1) has no root in GF(32)
@pytest.mark.parametrize("aut, message", [
    (AutMap(t=(0, 1), sym_poly=(1, 0, 0, 1)), r"sym_poly \(1, 0, 0, 1\) is reducible mod 2"),
    (AutMap(u=(0, 1), sym_poly=(1, 0, 0, 1)), r"sym_poly \(1, 0, 0, 1\) is reducible mod 2"),
    (AutMap(t=(1,), sym_poly=(1, 0, 0, 0, 1, 1)), r"sym_poly \(1, 0, 0, 0, 1, 1\) has no root in GF\(2\^5\)"),
    (AutMap(t=(1,), sym_poly=(1, 0, 1)), r"sym_poly \(1, 0, 1\) is reducible mod 2"),  # (w + 1)^2
    (AutMap(t=(1,), sym_poly=(0, 1, 1)), r"sym_poly \(0, 1, 1\) is reducible mod 2"),  # w (w + 1): w = 0
], ids=["t=w, w^3+1", "u=w, w^3+1", "quintic without a root", "square", "root zero"])
def test_a_reducible_sym_poly_is_rejected(aut, message):
    curve = Weierstrass(2, a3=1)
    for call in (lambda: ecaut.check_preserves(curve, aut), lambda: ecaut.brute_force_count(curve, aut, 2)):
        with pytest.raises(ValueError, match=message) as exc:
            call()
        assert "\n" not in str(exc.value)


def test_check_preserves_ignores_trailing_zeros_of_sym_poly():
    # w^2 + w + 1 spelled with a zero (mod p) leading coefficient still
    # asks for GF(2^2), which holds the cube roots of unity
    curve = Weierstrass(2, a3=1)
    for sym_poly in ((1, 1, 1), (1, 1, 1, 0), (1, 1, 1, 2)):
        aut = AutMap(u=(1, 1), sym_poly=sym_poly)
        assert ecaut.check_preserves(curve, aut), sym_poly
        assert ecaut.brute_force_count(curve, aut, 2) == 3, sym_poly


def substitution_automorphisms(curve):
    """Third route to |Aut(E)|: every (u, r, s, t) over F_{p^2} with u != 0
    that satisfies Table 3.1 for the curve.

    For p > 3, 2 and 3 are units: the a1 and a3 equations fix s and t and
    the a2 equation fixes r, so only u is enumerated.  For p = 2 and 3 all
    four constants are.
    """
    fld = GF(curve.p, 2)
    units = [e for e in fld.elements() if e]
    if curve.p > 3:
        a1, a2, a3 = (fld.from_int(a) for a in (curve.a1, curve.a2, curve.a3))
        half, third = fld.inv(fld.from_int(2)), fld.inv(fld.from_int(3))
        candidates = []
        for u in units:
            s = fld.mul(half, fld.sub(fld.mul(u, a1), a1))
            r = fld.mul(third, sum_terms(fld, [fld.mul(fld.mul(u, u), a2), fld.neg(a2), fld.mul(s, a1), fld.mul(s, s)]))
            t = fld.mul(half, sum_terms(fld, [fld.mul(fld.pow(u, 3), a3), fld.neg(a3), fld.neg(fld.mul(r, a1))]))
            candidates.append((u, r, s, t))
    else:
        candidates = product(units, fld.elements(), fld.elements(), fld.elements())
    return fld, [c for c in candidates if ecaut._substitution_preserves(curve, fld, *c)]


CLASS_CURVES = {}
for _row in ecaut.TABLE_ROWS:
    CLASS_CURVES.setdefault(_row.cls, _row.curve)


@pytest.mark.parametrize("cls", list(CLASS_CURVES), ids=lambda c: f"char{c.char}-{c.j}")
def test_aut_group_order_from_substitutions(cls):
    _, found = substitution_automorphisms(CLASS_CURVES[cls])
    assert len(found) == ecaut.aut_group(cls)[0]


@pytest.mark.parametrize("curve", TABLE_CURVES, ids=repr)
def test_check_preserves_matches_evaluation_on_random_maps(curve):
    # random (u, r, s, t) over GF(p, 2), w the first root of the field's
    # modulus, mostly not preserving the curve; plus every automorphism the
    # third route finds and the same map with t + 1
    p = curve.p
    fld, automorphisms = substitution_automorphisms(curve)
    sym_poly = tuple(fld.modulus)
    w = fld.find_root(sym_poly)
    coords = {fld.add(fld.from_int(a0), fld.mul(fld.from_int(a1), w)): (a0, a1) for a0 in range(p) for a1 in range(p)}
    rng = random.Random(repr(curve))
    maps = []
    for _ in range(60):
        u = (rng.randrange(p), rng.randrange(1, p))  # a nonzero w-coefficient, so u != 0
        maps.append(AutMap(u, *((rng.randrange(p), rng.randrange(p)) for _ in range(3)), sym_poly=sym_poly))
    for u, r, s, t in automorphisms:
        for shift in (0, 1):
            maps.append(AutMap(*(coords[c] for c in (u, r, s, fld.add(t, shift))), sym_poly=sym_poly))
    verdicts = [ecaut.check_preserves(curve, aut) for aut in maps]
    assert verdicts == [preserves_by_evaluation(curve, aut, fld) for aut in maps]
    assert sum(verdicts) >= len(automorphisms) and not all(verdicts)


def test_classification_report_all_match():
    rows = ecaut.classification_report()
    assert len(rows) == 14
    assert all(r["match"] for r in rows)
    assert all(r["norm_engine"] == r["point_oracle"] == r["expected"] for r in rows)


def test_classification_report_at_ext_degree_four():
    # the largest override the CLI accepts; its GF(13^4) counts dominate
    rows = ecaut.classification_report(4)
    assert len(rows) == 14
    assert all(r["match"] for r in rows)


@pytest.mark.parametrize("row", ecaut.TABLE_ROWS, **ROW_IDS)
def test_counts_stabilize_under_field_growth(row):
    # the sufficient degree and its double give the same count, evidence
    # that ker(1 - g) is already rational at the chosen degree
    k = ecaut.EXT_DEGREE
    small = ecaut.brute_force_count(row.curve, row.aut, k)
    big = ecaut.brute_force_count(row.curve, row.aut, 2 * k)
    assert small == big == row.expected


def test_counts_stabilize_degree_six_to_twelve_char_two():
    for row in ecaut.TABLE_ROWS:
        if row.curve.p != 2:
            continue
        assert ecaut.brute_force_count(row.curve, row.aut, 6) == row.expected
        assert ecaut.brute_force_count(row.curve, row.aut, 12) == row.expected


ALL_CLASSES = [CurveClass(0, GENERIC), CurveClass(0, J1728), CurveClass(0, J0), CurveClass(3, GENERIC),
               CurveClass(3, SPECIAL), CurveClass(2, GENERIC), CurveClass(2, SPECIAL)]


def uncached_fixed_count(cls, order):
    # the norm engine from scratch: closure, orders and N(1 - g), no cache
    (a, b), gens, _ = ecaut._CLASSES[(cls.char, cls.j)]
    elems = ecaut._closure(gens, a, b)
    norms = {ecaut.quat_norm(tuple(o - gi for o, gi in zip(ecaut.QUAT_ONE, g)), a, b)
             for g in elems if ecaut._element_order(g, a, b) == order}
    assert len(norms) == 1
    n = int(norms.pop())
    p = cls.char
    if p and order % p == 0:
        wild = ecaut._WILD_RULES.get((p, cls.j, order))
        if wild is not None:
            return wild
        assert n % p != 0
    return n


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: f"char{c.char}-{c.j}")
def test_fixed_count_equals_uncached_recomputation(cls):
    for order in ecaut.element_orders(cls):
        assert ecaut.fixed_count(cls, order) == uncached_fixed_count(cls, order), order


def test_unit_group_built_once_per_class(monkeypatch):
    from enrq import configs

    calls = []
    closure = ecaut._closure

    def counting(generators, a, b):
        calls.append((a, b))
        return closure(generators, a, b)

    monkeypatch.setattr(ecaut, "_closure", counting)
    ecaut._unit_group.cache_clear()
    try:
        ecaut.classification_report()
        configs.odd_order_smooth_case(3)
    finally:
        ecaut._unit_group.cache_clear()
    assert len(calls) == len(ALL_CLASSES)


# the unit groups in rational coordinates with Fraction: an independent
# route to the doubled integer coordinates
def _fraction_mul(x, y, a, b):
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
        x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


def _fraction_norm(x, a, b):
    x0, x1, x2, x3 = x
    return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


FRACTION_ONE = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def _fraction_algebra_and_generators(c):
    half = Fraction(1, 2)
    i = (0, 1, 0, 0)
    if c.char == 0:
        if c.j == GENERIC:
            return (-1, -1), [(-1, 0, 0, 0)]
        if c.j == J1728:
            return (-1, -1), [i]
        return (-1, -3), [(half, 0, -half, 0)]
    if c.char == 3:
        if c.j == GENERIC:
            return (-1, -3), [(-1, 0, 0, 0)]
        return (-1, -3), [i, (-half, 0, half, 0)]
    if c.j == GENERIC:
        return (-1, -1), [(-1, 0, 0, 0)]
    return (-1, -1), [i, (0, 0, 1, 0), (-half, half, half, half)]


def _fraction_closure(generators, a, b):
    elems = {FRACTION_ONE}
    frontier = [FRACTION_ONE]
    gens = [tuple(Fraction(c) for c in g) for g in generators]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _fraction_mul(x, g, a, b)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(elems)


def _fraction_order(x, a, b):
    n, y = 1, x
    while y != FRACTION_ONE:
        y = _fraction_mul(y, x, a, b)
        n += 1
        assert n <= 100
    return n


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: f"char{c.char}-{c.j}")
def test_doubled_units_match_fraction_oracle(cls):
    (a, b), gens = _fraction_algebra_and_generators(cls)
    oracle = _fraction_closure(gens, a, b)
    elems, a2, b2, _ = ecaut._unit_group(cls)
    assert (a2, b2) == (a, b)
    halved = [tuple(Fraction(c, 2) for c in x) for x in elems]
    assert halved == oracle
    for x, h in zip(elems, halved):
        assert ecaut._element_order(x, a, b) == _fraction_order(h, a, b)
        one_minus = tuple(o - c for o, c in zip(ecaut.QUAT_ONE, x))
        assert ecaut.quat_norm(one_minus, a, b) == _fraction_norm(
            tuple(o - c for o, c in zip(FRACTION_ONE, h)), a, b)
