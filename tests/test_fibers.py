from itertools import product

import pytest

from enrq import fibers

# the classical Euler numbers, kept only as the test oracle
EULER_ORACLE = {
    **{f"I{n}": n for n in range(1, 10)},
    **{f"I{n}*": n + 6 for n in range(0, 10)},
    "II": 2,
    "III": 3,
    "IV": 4,
    "IV*": 8,
    "III*": 9,
    "II*": 10,
}


def test_euler_matches_oracle_table():
    for tag, expected in EULER_ORACLE.items():
        assert fibers.catalog(tag).euler_tame == expected, tag


def test_catalog_entries():
    d4 = fibers.catalog("I0*")
    assert d4.m == 5
    assert sorted(m for _, m in d4.model.components) == [1, 1, 1, 1, 2]
    assert d4.euler_tame == 6 and d4.kind == fibers.ADDITIVE
    e8 = fibers.catalog("II*")
    assert e8.m == 9 and e8.euler_tame == 10 and e8.kind == fibers.ADDITIVE
    assert sorted(m for _, m in e8.model.components) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    nodal = fibers.catalog("I1")
    assert nodal.m == 1 and nodal.euler_tame == 1 and nodal.kind == fibers.MULTIPLICATIVE


def test_dynkin_labels_round_trip():
    for tag in fibers.standard_tags(9):
        assert fibers.from_dynkin(fibers.dynkin_label(tag)) == tag
    assert fibers.dynkin_label("I1") == "A~0*"
    assert fibers.dynkin_label("I0*") == "D~4"
    assert fibers.dynkin_label("II*") == "E~8"


def test_catalog_rejects_bad_tags():
    with pytest.raises(ValueError):
        fibers.catalog("SMOOTH")
    with pytest.raises(ValueError):
        fibers.catalog("I0")
    with pytest.raises(ValueError):
        fibers.catalog("V")


def test_fiber_condition_enforced_at_construction():
    # two components meeting once cannot carry equal multiplicities
    with pytest.raises(ValueError):
        fibers.FiberModel(
            (("c0", 1), ("c1", 1)),
            (fibers.Point("p", (("c0", 1), ("c1", 1))),),
        )
    # F.C = 0 holds here, but a negative local intersection is not a fiber
    with pytest.raises(ValueError):
        fibers.FiberModel(
            (("c0", 1), ("c1", 1)),
            (
                fibers.Point("p", (("c0", 1), ("c1", 1)), local_mult=3),
                fibers.Point("q", (("c0", 1), ("c1", 1)), local_mult=-1),
            ),
        )


def two_connected_oracle(model):
    # independent route: enumerate sub-divisors and compute D1.D2 from
    # the incidence data directly
    mults = [m for _, m in model.components]
    ids = [c for c, _ in model.components]
    pair = model.pairwise_intersections()

    def dot(a, b):
        total = 0
        for i in range(len(ids)):
            for j in range(len(ids)):
                if i == j:
                    total += -2 * a[i] * b[i]
                else:
                    total += a[i] * b[j] * pair.get(frozenset((ids[i], ids[j])), 0)
        return total

    best = None
    for a in product(*[range(m + 1) for m in mults]):
        b = tuple(m - x for m, x in zip(mults, a))
        if not any(a) or not any(b):
            continue
        val = dot(a, b)
        best = val if best is None else min(best, val)
    return best


def _i2_parts(prefix, mult):
    comps = ((f"{prefix}0", mult), (f"{prefix}1", mult))
    pts = tuple(fibers.Point(f"{prefix}p{i}", ((f"{prefix}0", 1), (f"{prefix}1", 1))) for i in range(2))
    return comps, pts


# models with a proper D1, D1^2 = 0 (a multiple fiber, a disconnected one)
NON_CATALOG = {
    "2I2": fibers.FiberModel(*_i2_parts("c", 2)),
    "3III": fibers.FiberModel((("c0", 3), ("c1", 3)), (fibers.Point("tac", (("c0", 1), ("c1", 1)), local_mult=2),)),
    "I2+I2": fibers.FiberModel(*(a + b for a, b in zip(_i2_parts("a", 1), _i2_parts("b", 1)))),
}


@pytest.mark.parametrize("tag", ["I2", "I3", "I9", "III", "IV", "I0*", "I1*", "I4*", "IV*", "III*", *NON_CATALOG])
def test_two_connected_min_against_oracle(tag):
    model = NON_CATALOG[tag] if tag in NON_CATALOG else fibers.catalog(tag).model
    expected = two_connected_oracle(model)
    assert fibers.two_connected_min(model) == expected
    assert expected == (0 if tag in NON_CATALOG else 2)


def test_two_connected_min_examples():
    assert fibers.two_connected_min(fibers.catalog("I2").model) == 2
    assert fibers.two_connected_min(fibers.catalog("I0*").model) == 2
    assert fibers.two_connected_min(fibers.catalog("II*").model) == 2


def test_two_connected_d4_central_split():
    # splitting off the central component of I0*: (-2)*2*1 + 4 = 2... the
    # central has multiplicity 2; taking one copy gives D1.D2 = 2
    model = fibers.catalog("I0*").model
    ids = [c for c, _ in model.components]
    central = next(c for c, m in model.components if m == 2)
    a = [1 if c == central else 0 for c in ids]
    b = [m - x for (_, m), x in zip(model.components, a)]
    pair = model.pairwise_intersections()
    val = sum(
        (-2 if i == j else pair.get(frozenset((ids[i], ids[j])), 0)) * a[i] * b[j]
        for i in range(5)
        for j in range(5)
    )
    assert val == 2


def test_two_connected_rejects_irreducible():
    with pytest.raises(ValueError):
        fibers.two_connected_min(fibers.catalog("I1").model)


def test_all_reducible_catalog_models_are_two_connected():
    for tag in fibers.standard_tags(9):
        model = fibers.catalog(tag).model
        if model.reducible():
            assert fibers.two_connected_min(model) >= 2, tag


def test_admissible_actions_i2_orders():
    model = fibers.catalog("I2").model
    odd = fibers.admissible_actions(model, 3)
    assert all(dict(a.point_perm) == {"p0": "p0", "p1": "p1"} for a in odd)
    assert {fibers.fixed_euler(model, a) for a in odd} == {2}
    even = fibers.admissible_actions(model, 2)
    swaps = [a for a in even if dict(a.point_perm) != {"p0": "p0", "p1": "p1"}]
    assert swaps and all(fibers.fixed_euler(model, a) == 4 for a in swaps)


def test_admissible_actions_ii_order_two():
    model = fibers.catalog("II").model
    acts = fibers.admissible_actions(model, 2)
    kinds = {a.component_map()["c0"].kind for a in acts}
    assert kinds == {"identity", "tame"}
    for a in acts:
        ca = a.component_map()["c0"]
        if ca.kind == "tame":
            # the cusp is the only singular point and must be fixed
            assert dict(a.point_perm)["cusp"] == "cusp"
        assert fibers.fixed_euler(model, a) == 2


def test_fixed_euler_i2_examples():
    model = fibers.catalog("I2").model
    both_tame = fibers.FiberAction(
        2,
        (("p0", "p0"), ("p1", "p1")),
        (
            ("c0", fibers.ComponentAction("tame", (("p0", 1), ("p1", 1)), 0)),
            ("c1", fibers.ComponentAction("tame", (("p0", 1), ("p1", 1)), 0)),
        ),
    )
    assert fibers.fixed_euler(model, both_tame) == 2
    swap = fibers.FiberAction(
        2,
        (("p0", "p1"), ("p1", "p0")),
        (
            ("c0", fibers.ComponentAction("tame", (), 2)),
            ("c1", fibers.ComponentAction("tame", (), 2)),
        ),
    )
    assert fibers.fixed_euler(model, swap) == 4


def test_fixed_euler_rejects_inadmissible():
    model = fibers.catalog("I2").model
    bad = fibers.FiberAction(
        3,
        (("p0", "p1"), ("p1", "p0")),  # 2-cycle does not divide order 3
        (
            ("c0", fibers.ComponentAction("tame", (), 2)),
            ("c1", fibers.ComponentAction("tame", (), 2)),
        ),
    )
    with pytest.raises(ValueError):
        fibers.fixed_euler(model, bad)


def test_e8_actions_all_give_ten():
    entry = fibers.catalog("II*")
    for action in fibers.admissible_actions(entry.model, 2):
        assert fibers.fixed_euler(entry.model, action) == 10


def test_i1_value_sets():
    model = fibers.catalog("I1").model
    assert {fibers.fixed_euler(model, a) for a in fibers.admissible_actions(model, 2)} == {1, 3}
    assert {fibers.fixed_euler(model, a) for a in fibers.admissible_actions(model, 3)} == {1}


def test_fixed_euler_bounds():
    for tag in ["I1", "I2", "I5", "II", "III", "IV", "I0*", "I2*", "IV*", "II*"]:
        ent = fibers.catalog(tag)
        for order in (2, 3):
            for action in fibers.admissible_actions(ent.model, order):
                val = fibers.fixed_euler(ent.model, action)
                assert 0 <= val <= ent.euler_tame + 2, (tag, order)


def test_lefschetz_check_examples():
    assert fibers.lefschetz_check("III*", 2)["values"] == [9]
    assert fibers.lefschetz_check("III*", 2)["ok"]
    assert fibers.lefschetz_check("I2", 2)["values"] == [2, 4]
    assert fibers.lefschetz_check("I2", 3)["values"] == [2]


def test_lefschetz_check_all_orders():
    for order in (2, 3, 5, 7):
        for tag in fibers.standard_tags(6):
            assert fibers.lefschetz_check(tag, order)["ok"], (tag, order)


def test_lefschetz_check_large_prime_order_matches_small():
    # both orders are primes above every cycle a catalog fiber can hold, so
    # only the order key differs; the large one must not cost time in the order
    for tag in fibers.standard_tags():
        small = fibers.lefschetz_check(tag, 101)
        large = fibers.lefschetz_check(tag, 1_000_003)
        assert large.pop("order") == 1_000_003
        assert small.pop("order") == 101
        assert large == small, tag


def _can_split_into_cycles_oracle(count, order):
    # the definition with every divisor of the order up to the order itself
    divs = [d for d in range(2, order + 1) if order % d == 0]
    reachable = {0}
    for _ in range(count):
        reachable |= {r + d for r in reachable for d in divs if r + d <= count}
    return count in reachable


def test_can_split_into_cycles_matches_unbounded_definition():
    for count in range(9):
        for order in range(2, 61):
            assert fibers._can_split_into_cycles(count, order) == _can_split_into_cycles_oracle(count, order), (
                count, order)


def test_model_json_round_trip():
    model = fibers.catalog("I1*").model
    again = fibers.FiberModel.from_json(model.to_json())
    assert again == model
    data = fibers.catalog("III").model.to_json()
    assert data["points"][0]["local_mult"] == 2
