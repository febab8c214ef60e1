"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one pass/fail line.  Run with `pytest -s tests/test_acceptance.py`
to see the lines."""

import random
import time

from enrq import configs, delpezzo as dp, ecaut, fibers, lattice
from enrq import tables
from enrq.cli import RunConfig, run


def _report(num, ok, desc):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_1_fixed_point_tables():
    t0 = time.perf_counter()
    rows = ecaut.classification_report()
    elapsed = time.perf_counter() - t0
    ok = len(rows) == 14 and all(r["norm_engine"] == r["point_oracle"] == r["expected"] for r in rows)
    ok = ok and elapsed < 10
    _report(1, ok, f"automorphism fixed-point tables, both engines exact ({elapsed:.2f}s < 10s)")


def test_criterion_2_configuration_lists():
    t0 = time.perf_counter()
    pairs = configs.enumerate_pairs()
    res = configs.realizable_filter(pairs)
    odd3 = configs.odd_order_smooth_case(3)
    elapsed = time.perf_counter() - t0
    ok = len(pairs) == 7
    ok = ok and {c.sorted_tags() for c in res["realizable"]} == {
        ("I0*", "I0*"), ("I4*", "II"), ("II", "II*"), ("III", "III*"), ("IV", "IV*")
    }
    ok = ok and {c.tags() for c in odd3} == {("I9", "I1", "I1", "I1"), ("I3*",), ("III*",)}
    ok = ok and elapsed < 1
    _report(2, ok, f"7 consistent pairs, 5 realizable, order-3 smooth-case set ({elapsed:.2f}s < 1s)")


def test_criterion_3_fixed_locus_constancy():
    t0 = time.perf_counter()
    ok = True
    for order in (2, 3, 5, 7):
        for tag in fibers.standard_tags(9):
            res = fibers.lefschetz_check(tag, order)
            if not fibers.catalog(tag).model.reducible():
                continue
            if tag == "I2":
                want = [2] if order % 2 else [2, 4]
                ok = ok and res["values"] == want
            else:
                ok = ok and res["values"] == [res["euler"]]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30
    _report(3, ok, f"e(F^g) = e(F) for all reducible types except the I2 cases ({elapsed:.1f}s < 30s)")


def test_criterion_4_euler_table():
    oracle = {**{f"I{n}": n for n in range(1, 10)}, **{f"I{n}*": n + 6 for n in range(0, 10)},
              "II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}
    ok = all(fibers.catalog(t).euler_tame == e for t, e in oracle.items())
    _report(4, ok, "Euler numbers derived from incidence models match the Kodaira table")


def test_criterion_5_two_connectedness():
    t0 = time.perf_counter()
    ok = True
    for tag in fibers.standard_tags(9):
        model = fibers.catalog(tag).model
        if model.reducible():
            ok = ok and fibers.two_connected_min(model) >= 2
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    _report(5, ok, f"two-connectedness >= 2 over all decompositions, largest case II* ({elapsed:.1f}s < 60s)")


def test_criterion_6_shared_eight_overlays():
    res_dd = configs.shared_eight_search("I4*", "I4*")
    res_de = configs.shared_eight_search("I4*", "II*")
    res_ee = configs.shared_eight_search("II*", "II*")
    ok = not res_dd["satisfiable"] and res_de["satisfiable"] and res_ee["satisfiable"]
    for res in (res_de, res_ee):
        w = res["witness"]
        ok = ok and w is not None
        print(f"    witness {res['t1']}+{res['t2']}: connectors {w['connector1']}/{w['connector2']}, "
              f"C9.C10 = {w['u']}, closure disc {w['closure_disc']}")
    _report(6, ok, "D~8+D~8 unsatisfiable, D~8+E~8 and E~8+E~8 satisfiable with witnesses")


def test_criterion_7_surface_symbolics():
    t0 = time.perf_counter()
    ok = True
    for kind, m in [("D1", dp.aut_d1()), ("D2", dp.aut_d2()), ("D3", dp.aut_d3_additive()), ("D3", dp.aut_d3_torus())]:
        ok = ok and dp.verify_preserves(m, kind)[0]
    ok = ok and not dp.verify_preserves(dp.aut_d2(), "D3")[0]
    comp = dp.compose(dp.aut_d1(dp.LAM, dp.MU), dp.aut_d1(dp.LAM2, dp.MU2))
    ok = ok and dp.proj_equal(comp, dp.aut_d1(dp.LAM * dp.LAM2, dp.MU * dp.MU2))
    ok = ok and dp.proj_equal(dp.compose(dp.aut_d2(), dp.aut_d2()), dp.identity_map())
    torus_action = dp.pencil_action(dp.aut_d3_torus(), dp.pencils("D3")[0])
    ok = ok and not dp.action_equal(torus_action, dp.IDENTITY_ACTION)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5
    _report(7, ok, f"generator verification, group laws, nontrivial pencil action ({elapsed:.2f}s < 5s)")


def test_criterion_8_lattice_selfcheck(time_limit):
    ok = lattice.exact_det(lattice.GRAM) in (1, -1)
    ok = ok and lattice.signature(lattice.GRAM) == (1, 9, 0)
    rng = random.Random(8)
    base = [lattice.BASIS[i] for i in range(2, 10)]
    for _ in range(1000):
        r = base[rng.randrange(8)]
        for _ in range(rng.randrange(4)):
            r = lattice.reflect(base[rng.randrange(8)], r)
        u = tuple(rng.randint(-5, 5) for _ in range(10))
        v = tuple(rng.randint(-5, 5) for _ in range(10))
        ok = ok and lattice.reflect(r, lattice.reflect(r, u)) == u
        ok = ok and lattice.inner(lattice.reflect(r, u), lattice.reflect(r, v)) == lattice.inner(u, v)
    with time_limit():
        found = lattice.search_sequences(10, 6, cap=1)
    ok = ok and bool(found) and lattice.validate_sequence(found[0].vectors)
    _report(8, ok, "unimodular (1,9) Gram, isometric involutions x1000, isotropic 10-sequence at bound 6")


def test_criterion_9_tables_consistency():
    entries = tables.consistency_check()
    ok = bool(entries) and all(okk for _, okk, _ in entries)
    data = tables._load()
    ok = ok and set(data["supersingular_ct_candidates"]) == {"1", "Z/2", "Z/3", "Z/5", "Z/7", "Z/11", "Q8"}
    ok = ok and data["char_not_2"]["max_nt_order"] <= 4 and data["char_not_2"]["nt_cyclic"]
    _report(9, ok, "2-elementary quotients, admissible supersingular groups, char != 2 cyclic bound")


def test_criterion_10_deterministic_reports(tmp_path, time_limit):
    out1, out2 = tmp_path / "r1.md", tmp_path / "r2.md"
    with time_limit():
        status1, _ = run(RunConfig(suite="all", out=str(out1)))
        status2, _ = run(RunConfig(suite="all", out=str(out2)))
    ok = status1 == 0 and status2 == 0 and out1.read_bytes() == out2.read_bytes()
    _report(10, ok, "run(all) twice yields byte-identical report bodies")
