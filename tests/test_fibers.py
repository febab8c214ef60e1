import random
from itertools import permutations, product

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
    assert fibers.catalog("II*") is e8  # built once per tag


def test_dynkin_labels_round_trip():
    tags = fibers.standard_tags(9)
    assert len({fibers.catalog(tag).dynkin for tag in tags}) == len(tags)
    assert fibers.catalog("I1").dynkin == "A~0*"
    assert fibers.catalog("I0*").dynkin == "D~4"
    assert fibers.catalog("II*").dynkin == "E~8"


@pytest.mark.parametrize("tag", [5, None, True, ["II*"], ("II*",), b"II*"])
def test_catalog_rejects_a_tag_that_is_not_a_str(tag):
    with pytest.raises(ValueError, match="fiber tag must be a str") as exc:
        fibers.catalog(tag)
    assert "\n" not in str(exc.value)


def test_catalog_rejects_bad_tags():
    # leading zeros and a trailing newline would name a second entry for one type
    for tag in ("SMOOTH", "I0", "V", "I01", "I007", "I00*", "I1\n", "I", "I*", "II**"):
        with pytest.raises(ValueError):
            fibers.catalog(tag)


@pytest.mark.parametrize("tag, match", [
    (f"I{fibers.CATALOG_CAP + 1}", "above CATALOG_CAP"),
    (f"I{fibers.CATALOG_CAP + 1}*", "above CATALOG_CAP"),
    ("I10000", "above CATALOG_CAP"),  # built for 9 s, then cached, before the cap
    ("I" + "9" * 40, "above CATALOG_CAP"),
    # int() rejects so many digits with its own message
    pytest.param("I" + "9" * 5000, "above CATALOG_CAP", id="I_n of 5000 digits"),
    pytest.param("I" + "9" * 5000 + "*", "above CATALOG_CAP", id="I_n* of 5000 digits"),
])
def test_catalog_rejects_a_tag_above_the_cap(tag, match, time_limit):
    cached = fibers._entry.cache_info().currsize
    with time_limit(1):
        with pytest.raises(ValueError, match=match) as exc:
            fibers.catalog(tag)
    assert "\n" not in str(exc.value)
    assert fibers._entry.cache_info().currsize == cached


def test_catalog_builds_the_tags_at_the_cap():
    for tag, m in ((f"I{fibers.CATALOG_CAP}", fibers.CATALOG_CAP), (f"I{fibers.CATALOG_CAP}*", fibers.CATALOG_CAP + 5)):
        assert fibers.catalog(tag).m == m, tag


@pytest.mark.parametrize("max_n, match", [
    (-1, "max_n must be >= 0"),  # returned the six exceptional tags
    (2.0, "max_n must be an int"),
    (True, "max_n must be an int"),
    ("9", "max_n must be an int"),
    (None, "max_n must be an int"),
    (fibers.CATALOG_CAP + 1, "above CATALOG_CAP"),  # listed I1001, which catalog rejects
])
def test_standard_tags_rejects_a_bad_max_n(max_n, match):
    with pytest.raises(ValueError, match=match) as exc:
        fibers.standard_tags(max_n)
    assert "\n" not in str(exc.value)
    assert fibers.standard_tags(0) == ["II", "III", "IV", "I0*", "IV*", "III*", "II*"]


# every standard_tags(9) model as "id:multiplicity" in catalog order
COMPONENTS = {
    **{f"I{n}": " ".join(f"c{i}:1" for i in range(n)) for n in range(1, 10)},
    **{f"I{n}*": " ".join([f"z{i}:2" for i in range(n + 1)] + [f"t{i}:1" for i in range(4)]) for n in range(10)},
    "II": "c0:1",
    "III": "c0:1 c1:1",
    "IV": "c0:1 c1:1 c2:1",
    "IV*": "z:3 m0:2 o0:1 m1:2 o1:1 m2:2 o2:1",
    "III*": "o0:1 m0:2 n0:3 c:4 n1:3 m1:2 o1:1 b:2",
    "II*": "a0:1 a1:2 a2:3 a3:4 a4:5 c:6 d:4 e:2 b:3",
}


def test_catalog_component_ids_multiplicities_and_order():
    assert sorted(fibers.standard_tags(9)) == sorted(COMPONENTS)
    for tag in fibers.standard_tags(9):
        got = " ".join(f"{c}:{m}" for c, m in fibers.catalog(tag).model.components)
        assert got == COMPONENTS[tag], tag


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


def pair_counts(model):
    """{(a, b): C_a.C_b} for components a != b that meet, from the points:
    local_mult * b_a * b_b summed over the points they share."""
    pair = {}
    for p in model.points:
        for (c1, b1), (c2, b2) in permutations(p.branches, 2):
            if c1 != c2:
                pair[c1, c2] = pair.get((c1, c2), 0) + p.local_mult * b1 * b2
    return pair


def two_connected_oracle(model):
    # independent route: enumerate sub-divisors and compute D1.D2 from
    # the incidence data directly
    mults = [m for _, m in model.components]
    ids = [c for c, _ in model.components]
    pair = pair_counts(model)

    def dot(a, b):
        total = 0
        for i in range(len(ids)):
            for j in range(len(ids)):
                if i == j:
                    total += -2 * a[i] * b[i]
                else:
                    total += a[i] * b[j] * pair.get((ids[i], ids[j]), 0)
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
    pair = pair_counts(model)
    val = sum(
        (-2 if i == j else pair.get((ids[i], ids[j]), 0)) * a[i] * b[j]
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
    kinds = {dict(a.components)["c0"].kind for a in acts}
    assert kinds == {"identity", "tame"}
    for a in acts:
        ca = dict(a.components)["c0"]
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


def _tame(*fixed, free=0):
    return fibers.ComponentAction("tame", fixed, free)


I2_FIXED = (("p0", "p0"), ("p1", "p1"))
I2_SWAP = (("p0", "p1"), ("p1", "p0"))
I2_BOTH = _tame(("p0", 1), ("p1", 1))  # the only tame option at fixed nodes
I0STAR_FIXED = tuple((f"p{i}", f"p{i}") for i in range(4))  # p<i> joins tail t<i> to z0
I0STAR_TAILS = tuple((f"t{i}", _tame((f"p{i}", 1), free=1)) for i in range(4))


# one kind of inadmissible input per case; the other components are
# admissible.  Each case ends with its repair: the new order, or the new
# action of the one component at fault, which makes the action admissible
INADMISSIBLE = {
    "a 2-cycle of points at order 3": ("I2", 3, I2_SWAP, (("c0", _tame(free=2)), ("c1", _tame(free=2))),
                                       {"order": 2}),
    "a fixed slot at a moved point": ("I2", 2, I2_SWAP, (("c0", _tame(("p0", 1), free=1)), ("c1", _tame(free=2))),
                                      {"c0": _tame(free=2)}),
    # four fixed slots and free -2 still total 2 slots; no tame z0 is
    # admissible at order 3, so the repair makes it the identity
    "negative free slots": ("I0*", 3, I0STAR_FIXED,
                            (("z0", _tame(*((f"p{i}", 1) for i in range(4)), free=-2)), *I0STAR_TAILS),
                            {"z0": fibers.ComponentAction("identity")}),
    "an unknown kind": ("I2", 2, I2_FIXED, (("c0", fibers.ComponentAction("wild", I2_BOTH.fixed_branches)),
                                            ("c1", I2_BOTH)), {"c0": I2_BOTH}),
    "a missing component": ("I2", 2, I2_FIXED, (("c0", I2_BOTH),), {"c1": I2_BOTH}),
    "more than 2 slots": ("I2", 2, I2_FIXED, (("c0", _tame(("p0", 1), ("p1", 1), free=1)), ("c1", I2_BOTH)),
                          {"c0": I2_BOTH}),
    "an identity component with slots": ("I0*", 3, I0STAR_FIXED,
                                         (("z0", fibers.ComponentAction("identity", (), 2)), *I0STAR_TAILS),
                                         {"z0": fibers.ComponentAction("identity")}),
    # -2 branches and free 4 total 2 slots and leave the node's 4 other
    # branches, which order 2 can move in 2-cycles
    "a negative branch count": ("I1", 2, (("node", "node"),), (("c0", _tame(("node", -2), free=4)),),
                                {"c0": _tame(("node", 2))}),
}


def test_fixed_euler_rejects_inadmissible():
    for case, (tag, order, perm, components, repair) in INADMISSIBLE.items():
        model = fibers.catalog(tag).model
        action = fibers.FiberAction(order, perm, components)
        assert not admissible_oracle(model, action), case
        if case != "more than 2 slots":  # the other cases keep the slot total of 2
            assert all(sum(k for _, k in ca.fixed_branches) + ca.free_slots == 2
                       for _, ca in components if ca.kind == "tame"), case
        try:
            fibers.fixed_euler(model, action)
        except ValueError:
            pass
        else:
            pytest.fail(f"fixed_euler accepted {case}")
        # the case with its one defect repaired is admissible, so the case
        # is rejected for the reason it names and for no other
        assert len(repair) == 1, case
        repaired_components = {**dict(components), **repair}
        repaired = fibers.FiberAction(repair.get("order", order), perm,
                                      tuple((cid, repaired_components[cid]) for cid, _ in model.components))
        assert admissible_oracle(model, repaired), case
        fibers.fixed_euler(model, repaired)
        assert repaired in fibers.admissible_actions(model, repaired.order), case


@pytest.mark.parametrize("order", [0, -4])
def test_fiber_action_rejects_order_below_one(order):
    with pytest.raises(ValueError):
        fibers.FiberAction(order, I2_FIXED, (("c0", I2_BOTH), ("c1", I2_BOTH)))


def test_identity_action_of_order_one_is_admissible():
    model = fibers.catalog("I2").model
    identity = fibers.ComponentAction("identity")
    action = fibers.FiberAction(1, I2_FIXED, (("c0", identity), ("c1", identity)))
    assert admissible_oracle(model, action)
    assert fibers.fixed_euler(model, action) == fibers.euler(model)


@pytest.mark.parametrize("tag, perm, given, generated, euler", [
    ("I2", I2_FIXED, _tame(("p1", 1), ("p0", 1)), _tame(("p0", 1), ("p1", 1)), 2),  # reordered
    ("I1", (("node", "node"),), _tame(("node", 0), free=2), _tame(free=2), 3),  # zero count: the branches swap
])
def test_fixed_euler_accepts_reordered_and_zero_count_fixed_branches(tag, perm, given, generated, euler):
    model = fibers.catalog(tag).model
    assert given == generated
    action = fibers.FiberAction(2, perm, tuple((cid, given) for cid, _ in model.components))
    assert action in fibers.admissible_actions(model, 2)
    assert fibers.fixed_euler(model, action) == euler


def _cycle_length(perm, start):
    length, x = 1, perm[start]
    while x != start:
        length, x = length + 1, perm[x]
    return length


def admissible_oracle(model, action):
    """The admissibility rules checked one by one, an independent route to
    the generators behind admissible_actions and fixed_euler."""
    perm = dict(action.point_perm)
    ids = sorted(p.id for p in model.points)
    if sorted(perm) != ids or sorted(perm.values()) != ids:
        return False  # not a permutation of the singular points
    signature = {p.id: p.signature() for p in model.points}
    if any(signature[pid] != signature[img] for pid, img in perm.items()):
        return False  # does not preserve incidence
    if any(action.order % _cycle_length(perm, pid) for pid in perm):
        return False  # a point cycle length does not divide the order
    comp = dict(action.components)
    if sorted(comp) != sorted(c for c, _ in model.components):
        return False  # the component map does not cover the components
    for cid, ca in comp.items():
        branches = {p.id: sum(n for c, n in p.branches if c == cid) for p in model.points}
        on = [pid for pid, b in branches.items() if b]
        if ca.kind == "identity":
            if ca.fixed_branches or ca.free_slots or any(perm[pid] != pid for pid in on):
                return False  # an identity component fixes all of its points and has no slots
        elif ca.kind == "tame":
            fixed = dict(ca.fixed_branches)
            if len(fixed) < len(ca.fixed_branches) or ca.free_slots < 0:
                return False  # a point listed twice, or negative free slots
            if sum(fixed.values()) + ca.free_slots != 2:
                return False  # a tame component has exactly 2 fixed slots
            if any(k < 0 or pid not in on or perm[pid] != pid for pid, k in fixed.items()):
                return False  # a fixed slot at a moved point or off the component
            for pid in on:
                k = fixed.get(pid, 0)
                if perm[pid] == pid and (k > branches[pid] or not _can_split_into_cycles_oracle(
                        branches[pid] - k, action.order)):
                    return False  # the other branch slots at a fixed point cannot move this way
        else:
            return False  # unknown component action
    return True


def fixed_euler_oracle(model, action):
    """e(F^g) of an action known to be admissible, without fixed_euler's
    admissibility test: the identity components with their points (2 per
    component, minus b - 1 at a point of b identity branches), plus the
    other fixed points, the fixed singular points off them and the free
    slots of the tame components."""
    perm, comp = dict(action.point_perm), dict(action.components)
    identity = {cid for cid, ca in comp.items() if ca.kind == "identity"}
    value = 2 * len(identity) + sum(ca.free_slots for ca in comp.values() if ca.kind == "tame")
    for p in model.points:
        on = sum(n for cid, n in p.branches if cid in identity)
        value += 1 - on if on else int(perm[p.id] == p.id)
    return value


def _random_action(rng, model):
    # mostly inadmissible: moved points, bad slot counts, unknown kinds,
    # missing components, reordered, zero-count or repeated fixed_branches
    ids = [p.id for p in model.points]
    images = rng.sample(ids, len(ids)) if rng.random() < 0.5 else ids
    components = []
    for cid, _ in model.components:
        kind = rng.choice(["identity", "tame", "tame", "tame", "wild"])
        fixed = [(pid, rng.choice([-1, 0, 1, 1, 2])) for pid in rng.sample(ids, rng.randint(0, min(3, len(ids))))]
        if fixed and rng.random() < 0.05:
            fixed.append(fixed[0])
        free = 2 - sum(k for _, k in fixed) + rng.choice([0, 0, 0, -1, 1])
        if kind == "identity" and rng.random() < 0.8:
            fixed, free = [], 0
        components.append((cid, fibers.ComponentAction(kind, tuple(fixed), free)))
    if rng.random() < 0.05:
        del components[rng.randrange(len(components))]
    return fibers.FiberAction(rng.randint(1, 12), tuple(zip(ids, images)), tuple(components))


def test_fixed_euler_matches_admissible_oracle():
    rng = random.Random(4)
    models = [fibers.catalog(t).model for t in ("I1", "I2", "I3", "II", "III", "IV", "I0*", "I1*")]
    models.append(NON_CATALOG["2I2"])
    accepted = 0
    for _ in range(3000):
        model = rng.choice(models)
        action = _random_action(rng, model)
        want = admissible_oracle(model, action)
        try:
            value = fibers.fixed_euler(model, action)
            got = True
        except ValueError:
            got = False
        assert got == want, action
        if got:
            assert value == fixed_euler_oracle(model, action), action
        accepted += got
    assert accepted > 100


def test_admissible_actions_pass_the_oracle():
    for tag in ("I1", "I2", "I4", "III", "IV", "I0*", "I2*", "IV*"):
        model = fibers.catalog(tag).model
        for order in (2, 3, 4, 6):
            assert all(admissible_oracle(model, a) for a in fibers.admissible_actions(model, order)), (tag, order)


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


def test_lefschetz_check_builds_no_action(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the aggregate must not materialize actions")

    monkeypatch.setattr(fibers, "FiberAction", fail)
    monkeypatch.setattr(fibers, "fixed_euler", fail)
    for tag in ("I2", "I4*", "II*"):
        assert fibers.lefschetz_check(tag, 2)["ok"], tag


@pytest.mark.parametrize("order", [1, 0, -3])
def test_lefschetz_check_rejects_order_below_two(order):
    with pytest.raises(ValueError):
        fibers.lefschetz_check("I2", order)


@pytest.mark.parametrize("order", [2.5, 2.0, "2", True, None, [2]])
def test_order_must_be_an_int(order):
    # a float, str or bool order used to give a result, or a TypeError
    model = fibers.catalog("I2").model
    identity = fibers.ComponentAction("identity")
    calls = {
        "lefschetz_check": lambda: fibers.lefschetz_check("I2", order),
        "admissible_actions": lambda: fibers.admissible_actions(model, order),
        "FiberAction": lambda: fibers.FiberAction(order, I2_FIXED, (("c0", identity), ("c1", identity))),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="order must be an int") as exc:
            call()
        assert "\n" not in str(exc.value), name


I2_MODEL = fibers.catalog("I2").model
I2_IDENTITY = fibers.FiberAction(2, I2_FIXED, (("c0", fibers.ComponentAction("identity")),) * 2)

# a model or action of the wrong type used to raise AttributeError or
# TypeError from deep inside the call
WRONG_TYPES = {
    "admissible_actions model": (lambda: fibers.admissible_actions(None, 2), "model must be a FiberModel, not None"),
    "two_connected_min model": (lambda: fibers.two_connected_min(None), "model must be a FiberModel, not None"),
    "fixed_euler model": (lambda: fibers.fixed_euler("I2", I2_IDENTITY), "model must be a FiberModel, not 'I2'"),
    "fixed_euler action": (lambda: fibers.fixed_euler(I2_MODEL, None), "action must be a FiberAction, not None"),
    "FiberModel components": (lambda: fibers.FiberModel(None, None), "components must be a tuple, not None"),
    "FiberModel points": (lambda: fibers.FiberModel(I2_MODEL.components, list(I2_MODEL.points)),
                          "points must be a tuple, not [Point(id='p0', branches=(('c0', 1), ('c..."),
    "FiberModel point": (lambda: fibers.FiberModel(I2_MODEL.components, (None,)), "a point must be a Point, not None"),
    "FiberAction point_perm": (lambda: fibers.fixed_euler(I2_MODEL, fibers.FiberAction(2, None, None)),
                               "point_perm must be a tuple, not None"),
    "FiberAction components": (lambda: fibers.FiberAction(2, I2_FIXED, dict(I2_IDENTITY.components)),
                               "components must be a tuple, not {'c0': ComponentAction(kind='identity', ..."),
    # the contents of the containers too
    "FiberModel multiplicity": (lambda: fibers.FiberModel((("c0", None),), ()),
                                "components must hold (str, int) pairs, not ('c0', None)"),
    "FiberModel component id": (lambda: fibers.FiberModel(((["c0"], 1),), ()),
                                "components must hold (str, int) pairs, not (['c0'], 1)"),
    "Point branches": (lambda: fibers.FiberModel((("c0", 1),), (fibers.Point("p", None),)),
                       "branches must be a tuple, not None"),
    "Point branch count": (lambda: fibers.FiberModel((("c0", 1),), (fibers.Point("p", (("c0", True),)),)),
                           "branches must hold (str, int) pairs, not ('c0', True)"),
    "Point id": (lambda: fibers.FiberModel((("c0", 1),), (fibers.Point(["p"], (("c0", 2),)),)),
                 "a point id must be a str, not ['p']"),
    "Point local_mult": (lambda: fibers.FiberModel((("c0", 1),), (fibers.Point("p", (("c0", 2),), 1.0),)),
                         "local_mult must be an int, not 1.0"),
    "FiberAction point_perm entry": (lambda: fibers.fixed_euler(I2_MODEL, fibers.FiberAction(2, (None,), ())),
                                     "point_perm must hold (str, str) pairs, not None"),
    "FiberAction component action": (lambda: fibers.FiberAction(2, I2_FIXED, (("c0", "identity"),)),
                                     "components must hold (str, ComponentAction) pairs, not ('c0', 'identity')"),
    # ComponentAction used to raise TypeError on these, or to keep free_slots=None
    "ComponentAction kind": (lambda: fibers.ComponentAction(None), "kind must be a str, not None"),
    "ComponentAction fixed_branches": (lambda: fibers.ComponentAction("tame", None),
                                       "fixed_branches must be a tuple, not None"),
    "ComponentAction free_slots": (lambda: fibers.ComponentAction("tame", (("p0", 1),), None),
                                   "free_slots must be an int, not None"),
}


@pytest.mark.parametrize("name", WRONG_TYPES)
def test_a_value_of_the_wrong_type_raises_a_one_line_value_error(name):
    build, message = WRONG_TYPES[name]
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def uncached_point_perms(model, order):
    """The point permutations as generated before the cache, with each cycle
    length tested against the order itself: the oracle for the cache."""
    groups = {}
    for p in model.points:
        groups.setdefault(p.signature(), []).append(p.id)
    group_perms = []
    for ids in groups.values():
        ids = sorted(ids)
        group_perms.append([dict(zip(ids, img)) for img in permutations(ids)
                            if all(order % _cycle_length(dict(zip(ids, img)), pid) == 0 for pid in ids)])
    for combo in product(*group_perms):
        yield {pid: img for d in combo for pid, img in d.items()}


def point_perms(model, order):
    """The cached point permutations that the generators use at this order."""
    groups, _, room = model.layout
    return fibers._group_perms(groups, fibers._allowed_lengths(order, room))


@pytest.mark.parametrize("tag", fibers.standard_tags(9))
def test_point_perm_cache_matches_the_uncached_generator(tag):
    model = fibers.catalog(tag).model
    for order in (*range(2, 8), 101, 1_000_003):
        assert [dict(p) for p in point_perms(model, order)] == list(uncached_point_perms(model, order)), order
    # both orders have no divisor up to the model's room, so they share one entry
    assert point_perms(model, 101) is point_perms(model, 1_000_003)


def test_cached_point_perms_and_incidence_are_read_only():
    model = fibers.catalog("I2").model
    perms = point_perms(model, 2)
    assert len(perms) == 2 and isinstance(perms, tuple)
    layout = model.layout
    with pytest.raises(TypeError):
        perms[0]["p0"] = "p1"
    assert layout == ((("p0", "p1"),), ((("p0", 1), ("p1", 1)),) * 2, 2)
    groups, incidence, _ = layout
    assert all(type(x) is tuple for x in (layout, groups, *groups, incidence, *incidence, *incidence[0]))
    assert dict(perms[0]) == {"p0": "p0", "p1": "p1"}


def test_layout_room_is_the_longest_cycle_the_model_holds():
    # I1: two branches of one component at the node; I2: two points of one
    # signature; I3: every point and every branch on its own
    assert [fibers.catalog(t).model.layout[2] for t in ("I1", "I2", "I3", "II*")] == [2, 2, 1, 1]
    assert NON_CATALOG["2I2"].layout[2] == 2
    triple_node = fibers.FiberModel((("c0", 1),), (fibers.Point("t", (("c0", 3),)),))
    assert triple_node.layout[2] == 3
    assert fibers._allowed_lengths(12, 4) == (2, 3, 4)
    assert fibers._allowed_lengths(1_000_003, 4) == fibers._allowed_lengths(12, 1) == ()


def test_lefschetz_check_caches_stay_bounded_over_many_orders():
    # the caches are keyed by the allowed cycle lengths, never by the order
    # itself: 200 primes above every room add no entry to what orders 2, 3,
    # 5, 7 and 101 leave (about 1,000 tally entries when keyed by the order)
    caches = (fibers._component_tally, fibers._group_perms)
    for cached in caches:
        cached.cache_clear()
    tags = fibers.standard_tags(9)
    for order in (2, 3, 5, 7, 101):
        for tag in tags:
            fibers.lefschetz_check(tag, order)
    sizes = [cached.cache_info().currsize for cached in caches]
    primes = [n for n in range(1000, 4000) if all(n % d for d in range(2, 64))][:200]
    assert len(primes) == 200
    for order in primes:
        for tag in tags:
            fibers.lefschetz_check(tag, order)
    assert [cached.cache_info().currsize for cached in caches] == sizes
    assert fibers._component_tally.cache_info().currsize <= 8


def test_layout_is_no_field_of_the_model():
    # the layout is kept on the model but takes no part in its value
    model = fibers.catalog("I3*").model
    fresh, laid_out = (fibers.FiberModel(model.components, model.points) for _ in range(2))
    assert laid_out.layout == model.layout and "layout" in vars(laid_out) and "layout" not in vars(fresh)
    assert laid_out == fresh and hash(laid_out) == hash(fresh) and repr(laid_out) == repr(fresh)
    assert "layout" not in fibers.FiberModel._fields


def test_lefschetz_check_hashes_no_model(monkeypatch):
    model_hash = fibers.FiberModel.__hash__
    hashed = []

    def counting_hash(model):
        hashed.append(model)
        return model_hash(model)

    monkeypatch.setattr(fibers.FiberModel, "__hash__", counting_hash)
    for tag in ("I2", "I9*", "II*"):
        vars(fibers.catalog(tag).model).pop("layout", None)
        for _ in range(2):  # a cold and a warm call
            assert fibers.lefschetz_check(tag, 2)["ok"], tag
    assert hashed == []


def _materialized_by_perm(model, order):
    """{point permutation: (action count, fixed-locus values)} from the
    enumerated actions, the oracle for the aggregate."""
    by_perm = {}
    for action in fibers.admissible_actions(model, order):
        count, values = by_perm.get(action.point_perm, (0, set()))
        by_perm[action.point_perm] = (count + 1, values | {fixed_euler_oracle(model, action)})
    return by_perm


def _tallies_by_perm(model, order):
    return {tuple(sorted(perm.items())): (n, v) for perm, n, v in fibers._perm_tallies(model, order)}


@pytest.mark.parametrize("tag", fibers.standard_tags(9))
def test_lefschetz_check_matches_the_materialized_actions(tag):
    model = fibers.catalog(tag).model
    for order in range(2, 13):
        by_perm = _materialized_by_perm(model, order)
        res = fibers.lefschetz_check(tag, order)
        assert res["actions"] == sum(n for n, _ in by_perm.values()), order
        assert res["values"] == sorted(set().union(*(v for _, v in by_perm.values()))), order
        assert _tallies_by_perm(model, order) == by_perm, order
        if model.reducible():
            # the Lefschetz number is the one fixed-locus value of each point permutation
            assert all(v == {fibers._lefschetz_number(model, dict(p))} for p, (_, v) in by_perm.items()), order


@pytest.mark.parametrize("name", NON_CATALOG)
def test_perm_tallies_match_the_materialized_actions_off_the_catalog(name):
    model = NON_CATALOG[name]
    for order in range(2, 9):
        assert _tallies_by_perm(model, order) == _materialized_by_perm(model, order), order


def test_lefschetz_number_examples():
    for tag in fibers.standard_tags(9):
        model = fibers.catalog(tag).model
        if model.reducible():
            identity = {p.id: p.id for p in model.points}
            assert fibers._lefschetz_number(model, identity) == EULER_ORACLE[tag], tag
    i2 = fibers.catalog("I2").model
    assert fibers._lefschetz_number(i2, dict(I2_SWAP)) == 4


def test_lefschetz_check_fails_off_the_lefschetz_number(monkeypatch):
    # the I2 values stay {2, 4}, but a point permutation now disagrees with L(g)
    monkeypatch.setattr(fibers, "_lefschetz_number", lambda model, perm: 4)
    res = fibers.lefschetz_check("I2", 2)
    assert res["values"] == res["expected"] == [2, 4] and not res["ok"]
    assert fibers.lefschetz_check("I1", 2)["ok"]  # irreducible: no claim


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


def test_component_tally_matches_the_options_oracle():
    # every incidence list of 1-3 points with 1-4 branches each, each point fixed or moved
    for n in range(1, 4):
        for branches in product(range(1, 5), repeat=n):
            incidence = [(f"p{i}", b) for i, b in enumerate(branches)]
            for moved in product((False, True), repeat=n):
                perm = {pid: pid + "'" if m else pid for (pid, _), m in zip(incidence, moved)}
                fixed = tuple(sorted(b for b, m in zip(branches, moved) if not m))
                for order in (*range(2, 13), 101):
                    lengths = fibers._allowed_lengths(order, max(branches))
                    options = options_oracle(incidence, perm, order)
                    fixed_points = tuple((pid, b) for (pid, b), m in zip(incidence, moved) if not m)
                    got = fibers._component_options(fixed_points, not any(moved), lengths)
                    assert got == options, (branches, moved, order)
                    weights = {2 - sum(branches) if ca.kind == "identity" else ca.free_slots for ca in options}
                    got = fibers._component_tally(fixed, not any(moved), lengths)
                    assert got == (len(options), weights), (branches, moved, order)


def options_oracle(incidence, perm, order):
    """The ComponentActions the admissibility rules allow on one component,
    each rule tested against the order itself, in `_component_options`'s
    order: the identity first, then the tame ones by descending fixed
    slots at each point, earlier points first."""
    fixed = [(pid, b) for pid, b in incidence if perm[pid] == pid]
    options = [fibers.ComponentAction("identity")] if len(fixed) == len(incidence) else []
    choices = [[(pid, k) for k in range(b, -1, -1) if _can_split_into_cycles_oracle(b - k, order)] for pid, b in fixed]
    for combo in product(*choices):
        if sum(k for _, k in combo) <= 2:
            options.append(fibers.ComponentAction("tame", combo, 2 - sum(k for _, k in combo)))
    return options


def _can_split_into_cycles_oracle(count, order):
    # the definition with every divisor of the order up to the order itself
    divs = [d for d in range(2, order + 1) if order % d == 0]
    reachable = {0}
    for _ in range(count):
        reachable |= {r + d for r in reachable for d in divs if r + d <= count}
    return count in reachable


def test_can_split_into_cycles_matches_unbounded_definition():
    # room for a cycle as long as the count suffices; more room changes nothing
    for count in range(9):
        for order in range(2, 61):
            want = _can_split_into_cycles_oracle(count, order)
            for room in (count, count + 3):
                lengths = fibers._allowed_lengths(order, room)
                assert fibers._can_split_into_cycles(count, lengths) == want, (count, order, room)
