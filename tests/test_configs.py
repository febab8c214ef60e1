import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from operator import mul

import pytest

from enrq import configs, fibers
from enrq.lattice import exact_det


def test_enumerate_pairs_matches_independent_scan():
    # oracle: scan all additive tag pairs for m-sum 10 and e-sum 12
    tags = ["II", "III", "IV", "IV*", "III*", "II*"] + [f"I{n}*" for n in range(0, 5)]
    expected = set()
    for t1, t2 in combinations_with_replacement(sorted(tags), 2):
        e1, e2 = fibers.catalog(t1), fibers.catalog(t2)
        if e1.m + e2.m == 10 and e1.euler_tame + e2.euler_tame == 12:
            expected.add(tuple(sorted((t1, t2))))
    got = {c.sorted_tags() for c in configs.enumerate_pairs()}
    assert got == expected
    assert len(got) == 7
    assert ("I0*", "I0*") in got
    assert ("I1", "I9") not in got  # multiplicative types excluded


def test_enumerate_pairs_members_satisfy_constraints():
    pairs = configs.enumerate_pairs()
    assert len(pairs) == len({p.sorted_tags() for p in pairs})  # duplicate-free
    for p in pairs:
        assert sum(fibers.catalog(t).m for t in p.tags()) == 10
        assert p.euler_total() == 12


def test_realizable_filter_split():
    res = configs.realizable_filter(configs.enumerate_pairs())
    kept = {c.sorted_tags() for c in res["realizable"]}
    assert kept == {("I0*", "I0*"), ("I4*", "II"), ("II", "II*"), ("III", "III*"), ("IV", "IV*")}
    rejected = {c.sorted_tags() for c, _ in res["rejected"]}
    assert rejected == {("I3*", "III"), ("I2*", "IV")}
    for _, why in res["rejected"]:
        assert "numerically consistent" in why


def test_odd_order_smooth_case_three():
    got = {c.tags() for c in configs.odd_order_smooth_case(3)}
    assert got == {("I9", "I1", "I1", "I1"), ("I3*",), ("III*",)}
    wilds = {c.tags(): tuple(e.wild for e in c.entries) for c in configs.odd_order_smooth_case(3)}
    assert wilds[("I3*",)] == (3,)
    assert wilds[("III*",)] == (3,)
    assert wilds[("I9", "I1", "I1", "I1")] == (0, 0, 0, 0)


def test_odd_order_smooth_case_shioda_tate_sums():
    # the extremal sum is 8 only for the multiplicative case; the wild
    # singletons sit at 7
    sums = {c.tags(): c.shioda_tate_sum() for c in configs.odd_order_smooth_case(3)}
    assert sums[("I9", "I1", "I1", "I1")] == 8
    assert sums[("I3*",)] == 7
    assert sums[("III*",)] == 7


def test_odd_order_smooth_case_beyond_three_empty():
    assert configs.odd_order_smooth_case(5) == []
    assert configs.odd_order_smooth_case(7) == []


def test_odd_order_smooth_case_rejects_bad_orders():
    with pytest.raises(ValueError):
        configs.odd_order_smooth_case(1)
    with pytest.raises(ValueError):
        configs.odd_order_smooth_case(2)


def test_configuration_validation():
    with pytest.raises(ValueError):  # Shioda-Tate room exceeded
        configs.Configuration((configs.FiberEntry("II*"), configs.FiberEntry("I0*")))
    with pytest.raises(ValueError):  # multiplicative half-fiber
        configs.Configuration((configs.FiberEntry("I2", double=True),))
    with pytest.raises(ValueError):  # wild term on a multiplicative fiber
        configs.Configuration((configs.FiberEntry("I2", wild=1),))
    cfg = configs.Configuration((configs.FiberEntry("I0*", double=True), configs.FiberEntry("I0*")))
    assert cfg.shioda_tate_sum() == 8


# each entry point rejects a tag that is not a str and a number that is
# not an int (a bool is not), with a one-line ValueError
BAD_INPUTS = {
    "search tag int": (lambda: configs.shared_eight_search(5, "II*"), "fiber tag must be a str, not 5"),
    "search tag list": (lambda: configs.shared_eight_search("II*", ["II*"]), r"fiber tag must be a str, not \['II\*'\]"),
    "pair check tags str": (lambda: configs.bielliptic_pair_check("II*", 8, 1), "tags must be a tuple or list"),
    "pair check tag int": (lambda: configs.bielliptic_pair_check((9,), 8, 1), "fiber tag must be a str, not 9"),
    "pair check shared float": (lambda: configs.bielliptic_pair_check(["II*"], 8.0, 1),
                                "shared_components must be an int, not 8.0"),
    "pair check mult bool": (lambda: configs.bielliptic_pair_check(["II*"], 8, True),
                             "connector_mult must be an int, not True"),
    "pair check mult float": (lambda: configs.bielliptic_pair_check(["II*"], 8, (1.0,)),
                              "connector_mult must be an int, not 1.0"),
    "pair check mult str": (lambda: configs.bielliptic_pair_check(["II*"], 8, "1"), "one connector multiplicity per fiber"),
    "entry wild float": (lambda: configs.FiberEntry("II", wild=1.5), "wild must be an int, not 1.5"),
    "entry wild bool": (lambda: configs.FiberEntry("II", wild=True), "wild must be an int, not True"),
    "entry tag int": (lambda: configs.FiberEntry(2), "fiber tag must be a str, not 2"),
    "entry tag unknown": (lambda: configs.FiberEntry("V"), "unknown fiber tag 'V'"),
    "order str": (lambda: configs.odd_order_smooth_case("3"), "order must be an int, not '3'"),
    "order float": (lambda: configs.odd_order_smooth_case(3.0), "order must be an int, not 3.0"),
    "order bool": (lambda: configs.odd_order_smooth_case(True), "order must be an int, not True"),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_inputs_raise_one_line_value_errors(name):
    build, message = BAD_INPUTS[name]
    with pytest.raises(ValueError, match=message) as exc:
        build()
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("tag, message", [
    ("I" + "9" * 5000, f"fiber tag 'I{'9' * 38}...: n is above CATALOG_CAP = {fibers.CATALOG_CAP}"),
    ("X" * 5000, f"unknown fiber tag '{'X' * 39}..."),
    (["II*"] * 5000, "fiber tag must be a str, not ['II*', 'II*', 'II*', 'II*', 'II*', 'II*..."),
], ids=["I_n of 5000 digits", "5000 letters", "list of 5000 tags"])
@pytest.mark.parametrize("entry", [fibers.catalog, configs.FiberEntry, lambda t: configs.shared_eight_search("II*", t)],
                         ids=["catalog", "FiberEntry", "shared_eight_search"])
def test_an_over_long_tag_is_quoted_by_a_bounded_prefix(entry, tag, message):
    # the first 40 characters of the tag's repr, then "..."
    with pytest.raises(ValueError) as exc:
        entry(tag)
    assert str(exc.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: configs.FiberEntry("II", wild=[1] * 5000), f"wild must be an int, not [{'1, ' * 13}..."),
    (lambda: configs.bielliptic_pair_check("X" * 5000, 8, 1),
     f"tags must be a tuple or list of fiber tags, not '{'X' * 39}..."),
    (lambda: configs.odd_order_smooth_case("3" * 5000), f"order must be an int, not '{'3' * 39}..."),
], ids=["wild of 5000 ints", "tags of 5000 letters", "order of 5000 digits"])
def test_an_over_long_argument_is_quoted_by_a_bounded_prefix(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_bielliptic_pair_check():
    ok, reasons = configs.bielliptic_pair_check(("I0*", "I0*"), 8, 2)
    assert ok and not reasons
    ok, reasons = configs.bielliptic_pair_check(("I9",), 8, 1)
    assert not ok and any("multiplicative" in r for r in reasons)
    ok, reasons = configs.bielliptic_pair_check(("I0*", "I0*"), 7, 2)
    assert not ok and any("extremality deficit" in r for r in reasons)
    ok, reasons = configs.bielliptic_pair_check(("I0*", "I0*"), 8, (3, 1))
    assert not ok and any("connector multiplicity" in r for r in reasons)


def det_oracle(matrix):
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


def test_shared_eight_search_anchor_outcomes():
    assert not configs.shared_eight_search("I4*", "I4*")["satisfiable"]
    assert configs.shared_eight_search("I4*", "II*")["satisfiable"]
    assert configs.shared_eight_search("II*", "II*")["satisfiable"]


def test_shared_eight_rejects_wrong_component_count():
    with pytest.raises(ValueError):
        configs.shared_eight_search("IV*", "II*")
    with pytest.raises(ValueError):
        configs.shared_eight_search("I9", "II*")


def verify_witness(t1, t2, w):
    g = w["gram"]
    n = len(g)
    assert n == 10
    for i in range(n):
        assert g[i][i] == -2
        for j in range(n):
            assert g[i][j] == g[j][i]
            if i != j:
                assert 0 <= g[i][j] <= 4
    f1, f2 = w["fiber1_mult"], w["fiber2_mult"]
    gf1 = [sum(g[i][j] * f1[j] for j in range(n)) for i in range(n)]
    gf2 = [sum(g[i][j] * f2[j] for j in range(n)) for i in range(n)]
    # fiber conditions inside each fiber
    for k in range(n):
        if f1[k]:
            assert gf1[k] == 0
        if f2[k]:
            assert gf2[k] == 0
    # normalization: simple fibers meet in 4
    assert sum(gf1[k] * f2[k] for k in range(n)) == 4
    # closure discriminant, recomputed with an independent determinant
    det = det_oracle(g)
    assert det == w["overlay_det"]
    v1 = [x % 2 for x in f1]
    v2 = [x % 2 for x in f2]
    rank = len({tuple(v) for v in (v1, v2) if any(v)} - {()})
    if tuple(v1) == tuple(v2) and any(v1):
        rank = 1
    assert w["closure_disc"] == det / 4**rank
    assert abs(w["closure_disc"]) == 1


def test_shared_eight_witnesses_are_valid():
    for t1, t2 in (("I4*", "II*"), ("II*", "II*")):
        res = configs.shared_eight_search(t1, t2)
        assert res["satisfiable"]
        verify_witness(t1, t2, res["witness"])


def test_shared_eight_unsat_branch_reporting():
    res = configs.shared_eight_search("I4*", "I4*")
    hits = [h for br in res["branches"] for h in br["hits"]]
    assert hits, "the product constraint alone admits overlays"
    assert all(h["rejected"] for h in hits)
    reasons = {h["rejected"] for h in hits}
    assert any("discriminant" in r for r in reasons)
    assert any("disconnected" in r for r in reasons)


def test_shared_eight_deterministic():
    a = configs.shared_eight_search("I4*", "II*")
    b = configs.shared_eight_search("I4*", "II*")
    assert a == b
    assert shared_containers(a, b) == []  # nothing is reused from the first call


def shared_containers(a, b, path="result"):
    # paths at which a and b hold the same list or dict object
    out = []
    if isinstance(a, (list, dict)) and a is b:
        out.append(path)
    if isinstance(a, dict):
        for k in a:
            out += shared_containers(a[k], b[k], f"{path}[{k!r}]")
    elif isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            out += shared_containers(x, y, f"{path}[{i}]")
    return out


def dict_diagram(tag):
    # component ids, id -> multiplicity and (id, id) -> intersection weight
    ent = fibers.catalog(tag)
    ids = [c for c, _ in ent.model.components]
    weight = {}
    for p in ent.model.points:
        for (a, ba), (b, bb) in permutations(p.branches, 2):
            if a != b:
                weight[a, b] = weight.get((a, b), 0) + p.local_mult * ba * bb
    return ids, dict(ent.model.components), weight


def dict_connected(nodes, weight):
    seen, frontier = {nodes[0]}, [nodes[0]]
    while frontier:
        a = frontier.pop()
        for b in nodes:
            if b not in seen and weight.get((a, b), 0):
                seen.add(b)
                frontier.append(b)
    return len(seen) == len(nodes)


def unpruned_isomorphisms(nodes1, weight1, nodes2, weight2):
    # every isomorphism, from a backtrack over the sorted ids; no canonical forms
    nodes1, nodes2 = sorted(nodes1), sorted(nodes2)
    if len(nodes1) != len(nodes2):
        return []

    def profile(n, nodes, weight):
        return tuple(sorted(weight.get((n, o), 0) for o in nodes if o != n))

    prof1 = {n: profile(n, nodes1, weight1) for n in nodes1}
    prof2 = {n: profile(n, nodes2, weight2) for n in nodes2}
    out, assign = [], {}

    def rec(i):
        if i == len(nodes2):
            out.append(dict(assign))
            return
        n2 = nodes2[i]
        for n1 in nodes1:
            if n1 in assign.values() or prof1[n1] != prof2[n2]:
                continue
            if any(weight2.get((n2, m2), 0) != weight1.get((n1, assign[m2]), 0) for m2 in assign):
                continue
            assign[n2] = n1
            rec(i + 1)
            del assign[n2]

    rec(0)
    return out


def overlay_scan_oracle(t1, t2):
    # the overlay search that builds the Gram matrix for each u in 0..4
    # and takes the determinant of each that meets F.F' = 4 with exact_det
    ids1, mult1, w1 = dict_diagram(t1)
    ids2, mult2, w2 = dict_diagram(t2)
    branches, witness = [], None
    for c1 in ids1:
        r1 = [n for n in ids1 if n != c1]
        for c2 in ids2:
            r2 = [n for n in ids2 if n != c2]
            isos = unpruned_isomorphisms(r1, w1, r2, w2)
            branch = {"connector1": c1, "connector2": c2, "isomorphisms": len(isos), "hits": []}
            shared_conn = dict_connected(sorted(r1), w1)
            for iso in isos:
                shared = sorted(r1)
                inv = {v: k for k, v in iso.items()}
                for u in range(5):
                    gram = [[-2 if i == j else 0 for j in range(10)] for i in range(10)]
                    for a in range(8):
                        for b in range(8):
                            if a != b:
                                gram[a][b] = w1.get((shared[a], shared[b]), 0)
                        gram[a][8] = gram[8][a] = w1.get((shared[a], c1), 0)
                        gram[a][9] = gram[9][a] = w2.get((inv[shared[a]], c2), 0)
                    gram[8][9] = gram[9][8] = u
                    f1 = [mult1[s] for s in shared] + [mult1[c1], 0]
                    f2 = [mult2[inv[s]] for s in shared] + [0, mult2[c2]]
                    gf1 = [sum(g * f for g, f in zip(row, f1)) for row in gram]
                    gf2 = [sum(g * f for g, f in zip(row, f2)) for row in gram]
                    product = sum(x * y for x, y in zip(gf1, f2))
                    if product != 4 or gf1[9] % 2 or gf2[8] % 2:
                        continue
                    det = exact_det(gram)
                    rank = configs._mod2_rank(f1, f2)
                    closure = det // 4**rank
                    if closure * 4**rank != det:
                        continue
                    unimodular = abs(closure) == 1
                    if not unimodular:
                        reason = f"closure discriminant {closure} != +-1"
                    elif not shared_conn:
                        reason = "shared configuration disconnected"
                    else:
                        reason = None
                    branch["hits"].append({
                        "u": u, "product": product, "overlay_det": det, "closure_disc": closure,
                        "unimodular": unimodular, "shared_connected": shared_conn, "rejected": reason,
                    })
                    if reason is None and witness is None:
                        witness = {
                            "connector1": c1, "connector1_mult": mult1[c1],
                            "connector2": c2, "connector2_mult": mult2[c2],
                            "shared": shared, "iso": {k: iso[k] for k in sorted(iso)}, "u": u,
                            "gram": gram, "fiber1_mult": f1, "fiber2_mult": f2, "product": product,
                            "overlay_det": det, "closure_disc": closure,
                        }
            if branch["isomorphisms"]:
                branches.append(branch)
    return {"t1": t1, "t2": t2, "normalization": configs.OVERLAY_NORMALIZATION,
            "satisfiable": witness is not None, "witness": witness, "branches": branches}


OVERLAY_PAIRS = [("I4*", "I4*"), ("I4*", "II*"), ("II*", "I4*"), ("II*", "II*")]


@pytest.mark.parametrize("t1,t2", OVERLAY_PAIRS)
def test_shared_eight_search_equals_the_u_scan(t1, t2):
    assert configs.shared_eight_search(t1, t2) == overlay_scan_oracle(t1, t2)


# sha256 of json.dumps(shared_eight_search(t1, t2), sort_keys=True)
SHARED_EIGHT_SHA256 = {
    ("I4*", "I4*"): "9ce73c1f4da8a12280c14b68c98e841aeda808150f14f35507452d2dce179f73",
    ("I4*", "II*"): "455f9bde167fb71aaa92972aee3116efb2b45b23b6ccdc8491bd4c45e572523b",
    ("II*", "II*"): "5674e37411928316b6ecbe65fd71a8a1cc9a75ead40683b527648c606e55ec45",
}


@pytest.mark.parametrize("pair", SHARED_EIGHT_SHA256)
def test_shared_eight_search_output_pinned(pair):
    res = configs.shared_eight_search(*pair)
    digest = hashlib.sha256(json.dumps(res, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == SHARED_EIGHT_SHA256[pair]


@pytest.mark.parametrize("t1,t2", OVERLAY_PAIRS)
def test_isomorphism_pruning_keeps_every_isomorphism(t1, t2):
    # the table works on remainder nodes, indices into the nodes of each
    # Remainder; the oracle on the ids themselves
    ids1, _, _, rests1, _ = configs._model(t1)
    ids2, _, _, rests2, _ = configs._model(t2)
    table = configs._isomorphisms(t1, t2)
    _, _, dw1 = dict_diagram(t1)
    _, _, dw2 = dict_diagram(t2)
    for c1, s in enumerate(rests1):
        for c2, r in enumerate(rests2):
            got = [{ids2[r.nodes[a]]: ids1[s.nodes[b]] for a, b in enumerate(iso)} for iso in table[c1][c2]]
            expected = unpruned_isomorphisms([ids1[n] for n in s.nodes], dw1, [ids2[n] for n in r.nodes], dw2)
            assert got == expected, (ids1[c1], ids2[c2])


@pytest.mark.parametrize("tag", ["I4*", "II*"])
def test_cached_remainders_match_the_oracle(tag):
    ids, mult, gram, rests, _ = configs._model(tag)
    assert (ids, mult, gram) == configs._diagram(tag)
    _, _, dw = dict_diagram(tag)
    table = configs._isomorphisms(tag, tag)
    for c, r in enumerate(rests):
        nodes = [ids[n] for n in r.nodes]
        assert nodes == sorted(i for i in ids if i != ids[c])
        automorphisms = [{ids[r.nodes[a]]: ids[r.nodes[b]] for a, b in enumerate(aut)} for aut in table[c][c]]
        assert automorphisms == unpruned_isomorphisms(nodes, dw, nodes, dw), ids[c]
        assert r.connected == dict_connected(nodes, dw)
        # parent-first: a node that is not the first has a neighbour before it
        assert sorted(r.order) == list(range(8))
        parent_first = all(any(dw.get((nodes[b], nodes[a]), 0) for a in r.order[:k]) for k, b in enumerate(r.order) if k)
        assert parent_first == r.connected
        assert r.adj == tuple(tuple(b for b in range(8) if dw.get((nodes[a], nodes[b]), 0)) for a in range(8))
        # each node's parent is its one neighbour before it in the order
        before = [[a for a in r.order[:k] if a in r.adj[b]] for k, b in enumerate(r.order)]
        assert [r.parent[b] for b in r.order] == [a[0] if a else None for a in before]
        assert all(len(a) <= 1 for a in before)


def clear_caches():
    configs._model.cache_clear()
    configs._isomorphisms.cache_clear()


def test_fiber_condition_checked_once_per_diagram(monkeypatch):
    ids, mult, gram = configs._diagram("II*")
    monkeypatch.setattr(configs, "_diagram", lambda tag: (ids, mult[:-1] + [mult[-1] + 1], gram))
    clear_caches()
    try:
        with pytest.raises(AssertionError, match="fiber condition violated in II"):
            configs.shared_eight_search("II*", "II*")
    finally:
        clear_caches()


def test_cold_call_equals_warm_call():
    warm = {pair: configs.shared_eight_search(*pair) for pair in OVERLAY_PAIRS}
    clear_caches()
    cold = {pair: configs.shared_eight_search(*pair) for pair in OVERLAY_PAIRS}
    assert cold == warm
    # one cached model per fiber type, one isomorphism table per ordered
    # pair of types, and no other cache in the module
    assert configs._model.cache_info()[2:] == (None, 2)
    assert configs._isomorphisms.cache_info()[2:] == (None, 4)
    assert [name for name, f in vars(configs).items() if hasattr(f, "cache_info")] == ["_model", "_isomorphisms"]


def test_diagram_is_indexed_by_catalog_position():
    ids, mult, gram = configs._diagram("II*")
    ent = fibers.catalog("II*")
    assert ids == [c for c, _ in ent.model.components]
    assert mult == [m for _, m in ent.model.components]
    _, _, dw = dict_diagram("II*")
    assert gram == [[-2 if a == b else dw.get((a, b), 0) for b in ids] for a in ids]


def test_warm_call_runs_no_determinant_and_no_graph_search(monkeypatch):
    calls = []
    monkeypatch.setattr(configs, "exact_det", lambda gram: calls.append("exact_det") or exact_det(gram))
    search = configs._forest_isos
    monkeypatch.setattr(configs, "_forest_isos", lambda s, r: calls.append("_forest_isos") or search(s, r))
    clear_caches()
    try:
        cold = [configs.shared_eight_search(*pair) for pair in OVERLAY_PAIRS]
        # kappa: one determinant per connector; one table of 9 x 9 searches per ordered pair
        assert sorted(calls) == ["_forest_isos"] * 4 * 81 + ["exact_det"] * 18
        assert configs._isomorphisms.cache_info()[1:] == (4, None, 4)
        calls.clear()
        warm = [configs.shared_eight_search(*pair) for pair in OVERLAY_PAIRS]
        assert calls == []
    finally:
        clear_caches()
    assert warm == cold == [overlay_scan_oracle(*pair) for pair in OVERLAY_PAIRS]


@pytest.mark.parametrize("tag, kappa", [("I4*", 4), ("II*", 1)])
def test_kappa_is_each_connector_cofactor_over_its_multiplicity_squared(tag, kappa):
    ids, mult, gram, _, got = configs._model(tag)
    assert got == kappa  # det of the finite Cartan matrix: D8 has 4, E8 has 1
    _, dmult, dw = dict_diagram(tag)
    for c in ids:
        minor = [[-2 if a == b else dw.get((a, b), 0) for b in ids if b != c] for a in ids if a != c]
        assert det_oracle(minor) == kappa * dmult[c] ** 2, c
    # the bordered determinant identity behind overlay_det, on columns b
    # that are not overlay columns too
    for b in ([0] * 9, [1] + [0] * 8, list(range(9)), [4, 0, 3, 1, 0, 2, 0, 1, 4]):
        bordered = [row + [x] for row, x in zip(gram, b)] + [b + [-2]]
        assert det_oracle(bordered) == -kappa * sum(map(mul, mult, b)) ** 2, b


def relabelled(r, p):
    # the remainder r with node p[a] renamed a, its parent-first order and
    # parents carried along
    new = {old: a for a, old in enumerate(p)}
    adj = tuple(tuple(sorted(new[b] for b in r.adj[old])) for old in p)
    parent = tuple(None if r.parent[old] is None else new[r.parent[old]] for old in p)
    return r._replace(nodes=None, block=None, order=[new[i] for i in r.order], adj=adj, parent=parent)


@pytest.mark.parametrize("tag", ["I4*", "II*"])
def test_forest_isos_equal_the_oracle_on_relabelled_remainders(tag):
    rng = random.Random(25)

    def oracle(s, r):
        weight = [{(a, b): 1 for a in range(8) for b in x.adj[a]} for x in (s, r)]
        return [tuple(iso[a] for a in range(8)) for iso in unpruned_isomorphisms(range(8), weight[0], range(8), weight[1])]

    for r in configs._model(tag)[3]:
        for _ in range(20):
            x = relabelled(r, rng.sample(range(8), 8))
            for s, t in ((r, x), (x, r), (x, x)):
                assert list(configs._forest_isos(s, t)) == oracle(s, t)
