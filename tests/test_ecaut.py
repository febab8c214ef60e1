import pytest

from enrq import ecaut
from enrq.ecaut import AutMap, CurveClass, Weierstrass

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
    assert CurveClass(2, SPECIAL).supersingular
    assert CurveClass(2, GENERIC).ordinary


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
        elems, a, b = ecaut.unit_elements(cls)
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


def test_brute_force_cube_root_twist():
    # y^2 + y = x^3 over F2, (x, y) -> (w x, y) with w a cube root of 1:
    # fixed points are the origin column x = 0 plus infinity
    curve = Weierstrass(2, a3=1)
    aut = AutMap.make({(1, 0, 1): 1}, {(0, 1, 0): 1}, sym_poly=(1, 1, 1))
    assert ecaut.brute_force_count(curve, aut, 2) == 3


def test_brute_force_translation_like_involution():
    curve = Weierstrass(2, a3=1)
    aut = AutMap.make({(1, 0, 0): 1}, {(0, 1, 0): 1, (0, 0, 0): 1})
    assert ecaut.brute_force_count(curve, aut, 2) == 1


def test_brute_force_order_four_char_thirteen():
    # y^2 = x^3 + x over F13, (x, y) -> (-x, 5y) with 5^2 = -1
    curve = Weierstrass(13, a4=1)
    aut = AutMap.make({(1, 0, 0): 12}, {(0, 1, 0): 5})
    assert ecaut.brute_force_count(curve, aut, 2) == 2


def test_brute_force_rejects_non_preserving_map():
    curve = Weierstrass(2, a3=1)
    bad = AutMap.make({(1, 0, 0): 1, (0, 0, 0): 1}, {(0, 1, 0): 1})  # x -> x + 1 alone
    with pytest.raises(ValueError):
        ecaut.brute_force_count(curve, bad, 2)


def test_brute_force_rejects_huge_fields():
    curve = Weierstrass(13, a4=1)
    aut = AutMap.make({(1, 0, 0): 12}, {(0, 1, 0): 5})
    with pytest.raises(ValueError):
        ecaut.brute_force_count(curve, aut, 12)


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


@pytest.mark.parametrize("row", ecaut.TABLE_ROWS, ids=lambda r: f"p{r.curve.p}-{r.cls.j}-o{r.order}")
def test_counts_stabilize_under_field_growth(row):
    # the sufficient degree and its double give the same count, evidence
    # that ker(1 - g) is already rational at the chosen degree
    k = row.ext_degree
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
    (a, b), gens = ecaut._group_data(cls)
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


def test_unit_elements_returns_a_fresh_list():
    cls = CurveClass(2, SPECIAL)
    elems, a, b = ecaut.unit_elements(cls)
    before = list(elems)
    elems.clear()
    assert ecaut.unit_elements(cls) == (before, a, b)
    assert ecaut.aut_group(cls) == (24, "Q8:Z/3")


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
