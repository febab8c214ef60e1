import itertools
import random

import pytest

from enrq import delpezzo as dp
from enrq.delpezzo import (
    ALPHA, ALPHA2, BETA, BETA2, LAM, LAM2, MU, MU2,
    X0, X1, X2, X3, X4, ZERO,
)


def test_surfaces_match_printed_equations():
    d1 = dp.surface("D1")
    assert d1.g1 == X0 * X0 + X1 * X2
    assert d1.g2 == X0 * X0 + X3 * X4
    d2 = dp.surface("D2")
    assert d2.g2 == X1 * X3 + X0 * X4 + X2 * X4 + X4 * X4
    d3 = dp.surface("D3")
    assert d3.g2 == X1 * X3 + X2 * X4 + X4 * X4
    # e = 0 removes exactly the x0*x4 term
    assert d2.g2 + d3.g2 == X0 * X4


def _coeff_of_x1(poly):
    return poly.coefficient_of(1)


def test_printed_generator_terms():
    d2_map = dp.aut_d2()
    x3_coeff = _coeff_of_x1(d2_map.coords[3])
    assert x3_coeff == ALPHA * BETA + ALPHA * ALPHA * BETA + BETA * BETA
    d3_map = dp.aut_d3_additive()
    x3_coeff = _coeff_of_x1(d3_map.coords[3])
    assert x3_coeff == ALPHA * ALPHA * BETA + BETA * BETA
    assert x3_coeff != ALPHA * BETA  # no alpha*beta term


def test_identity_special_cases():
    ident = dp.aut_d1(dp.ONE, dp.ONE)
    assert dp.proj_equal(ident, dp.identity_map())
    assert dp.proj_equal(dp.aut_d2(ZERO, ZERO), dp.identity_map())


def test_verify_preserves_families():
    for kind, m in [
        ("D1", dp.aut_d1()),
        ("D2", dp.aut_d2()),
        ("D3", dp.aut_d3_additive()),
        ("D3", dp.aut_d3_torus()),
    ]:
        ok, cert = dp.verify_preserves(m, kind)
        assert ok, kind
        assert cert is not None
    ok, cert = dp.verify_preserves(dp.aut_d1(), "D1")
    assert cert == ((dp.ONE, ZERO), (ZERO, dp.ONE))
    ok, cert = dp.verify_preserves(dp.aut_d3_torus(), "D3")
    assert cert[1] == (ZERO, LAM * LAM)


def test_negative_control_d2_formula_on_d3():
    ok, cert = dp.verify_preserves(dp.aut_d2(), "D3")
    assert not ok and cert is None


def test_verify_preserves_needs_invertible_map():
    degenerate = dp.ProjMap((X0, X0, X2, X3, X4))
    with pytest.raises(ValueError):
        dp.verify_preserves(degenerate, "D1")


def test_map_determinants():
    assert dp.aut_d1().det().is_unit()
    assert dp.aut_d2().det() == dp.ONE
    assert dp.aut_d3_torus().det() == LAM**4


def test_pencil_actions_printed_examples():
    p1_d1 = dp.pencils("D1")[0]
    act = dp.pencil_action(dp.aut_d1(), p1_d1)
    assert dp.action_equal(act, ((dp.ONE, ZERO), (ZERO, LAM * MU)))  # (a : b) -> (a : lam*mu*b)
    p1_d3 = dp.pencils("D3")[0]
    act = dp.pencil_action(dp.aut_d3_torus(), p1_d3)
    assert dp.action_equal(act, ((LAM * LAM, ZERO), (ZERO, dp.ONE)))  # (a : b) -> (lam^2 a : b)
    act_id = dp.pencil_action(dp.identity_map(), p1_d1)
    assert dp.action_equal(act_id, dp.IDENTITY_ACTION)


def test_d3_torus_nontrivial_on_both_pencils():
    for pencil in dp.pencils("D3"):
        act = dp.pencil_action(dp.aut_d3_torus(), pencil)
        assert not dp.action_equal(act, dp.IDENTITY_ACTION)
        # trivial exactly when lam^2 = 1, i.e. lam = 1 in characteristic 2
        act1 = dp.pencil_action(dp.aut_d3_torus(dp.ONE), pencil)
        assert dp.action_equal(act1, dp.IDENTITY_ACTION)


def test_pencil_stabilizer_conditions():
    # D3 additive: actions are (a : b) -> (a : beta a + b) and
    # (a : b) -> (a : (alpha^2 + beta) a + b): both trivial iff alpha = beta = 0
    acts = [dp.pencil_action(dp.aut_d3_additive(), p) for p in dp.pencils("D3")]
    assert acts[0] == ((dp.ONE, ZERO), (BETA, dp.ONE))
    assert acts[1] == ((dp.ONE, ZERO), (ALPHA * ALPHA + BETA, dp.ONE))
    # D2 additive: (a : b) -> (a : beta a + b) and (alpha^2 + alpha + beta)
    acts = [dp.pencil_action(dp.aut_d2(), p) for p in dp.pencils("D2")]
    assert acts[0] == ((dp.ONE, ZERO), (BETA, dp.ONE))
    assert acts[1] == ((dp.ONE, ZERO), (ALPHA * ALPHA + ALPHA + BETA, dp.ONE))


def test_pencil_action_not_preserved():
    act = dp.pencil_action(dp.aut_d1(), dp.pencils("D3")[0])
    assert act == dp.NOT_PRESERVED


def test_compose_torus_multiplicative():
    comp = dp.compose(dp.aut_d1(LAM, MU), dp.aut_d1(LAM2, MU2))
    assert dp.proj_equal(comp, dp.aut_d1(LAM * LAM2, MU * MU2))
    rec = dp.recover_params(comp, "D1")
    assert rec == {"lam": LAM * LAM2, "mu": MU * MU2}
    comp = dp.compose(dp.aut_d3_torus(LAM), dp.aut_d3_torus(LAM2))
    assert dp.recover_params(comp, "D3-torus") == {"lam": LAM * LAM2}


def test_compose_d2_two_torsion():
    assert dp.proj_equal(dp.compose(dp.aut_d2(), dp.aut_d2()), dp.identity_map())
    comp = dp.compose(dp.aut_d2(ALPHA, BETA), dp.aut_d2(ALPHA2, BETA2))
    rec = dp.recover_params(comp, "D2")
    assert rec == {"alpha": ALPHA + ALPHA2, "beta": BETA + BETA2}
    comp = dp.compose(dp.aut_d3_additive(ALPHA, BETA), dp.aut_d3_additive(ALPHA2, BETA2))
    assert dp.recover_params(comp, "D3-additive") == {"alpha": ALPHA + ALPHA2, "beta": BETA + BETA2}


def test_compose_identity_unit():
    m = dp.aut_d3_additive()
    assert dp.proj_equal(dp.compose(m, dp.identity_map()), m)
    assert dp.proj_equal(dp.compose(dp.identity_map(), m), m)


def _matmul(m, n):
    return tuple(
        tuple(sum((m[i][k] * n[k][j] for k in range(2)), ZERO) for j in range(2)) for i in range(2)
    )


def test_pencil_action_functorial():
    # pullback convention: the action of m1 after m2 is action(m2) . action(m1)
    p = dp.pencils("D3")[0]
    cases = [
        (dp.aut_d3_torus(LAM), dp.aut_d3_torus(LAM2)),
        (dp.aut_d3_additive(ALPHA, BETA), dp.aut_d3_additive(ALPHA2, BETA2)),
        (dp.aut_d3_torus(LAM), dp.aut_d3_additive(ALPHA, BETA)),
    ]
    for m1, m2 in cases:
        a1 = dp.pencil_action(m1, p)
        a2 = dp.pencil_action(m2, p)
        a12 = dp.pencil_action(dp.compose(m1, m2), p)
        assert dp.action_equal(a12, _matmul(a2, a1))


def test_units_and_inverses():
    assert LAM * LAM.unit_inverse() == dp.ONE
    assert MU * MU.unit_inverse() == dp.ONE
    u = LAM * LAM * MU
    assert u.is_unit()
    assert u * u.unit_inverse() == dp.ONE
    assert not (LAM + dp.ONE).is_unit()
    with pytest.raises(ValueError):
        (LAM + dp.ONE).unit_inverse()


def test_poly_string_is_deterministic():
    p = LAM * X1 + X0 + ALPHA * ALPHA * X4
    assert str(p) == str(LAM * X1 + X0 + ALPHA * ALPHA * X4)
    assert str(ZERO) == "0"


# The oracles work in their own representation: a monomial is a
# frozenset of (name, exponent) pairs with nonzero exponents, negative
# only at the units lam, mu, lam2, mu2, and a polynomial is a set of
# monomials.  The kernel's exponent tuples are read and written only by
# to_monomials and from_monomials.

UNIT_NAMES = ("lam", "mu", "lam2", "mu2")
GROUP_PARAMS = ("lam", "mu", "alpha", "beta", "lam2", "mu2", "alpha2", "beta2")


def monomial(exponents):
    return frozenset((n, e) for n, e in exponents.items() if e)


def to_monomials(poly):
    return {monomial(dict(zip(dp.NAMES, m))) for m in poly.monomials}


def from_monomials(monomials):
    return dp.ParamPoly(frozenset(tuple(dict(m).get(n, 0) for n in dp.NAMES) for m in monomials))


def _monomials_product(ps, qs):
    acc = set()
    for m1 in ps:
        for m2 in qs:
            exponents = dict(m1)
            for n, e in m2:
                exponents[n] = exponents.get(n, 0) + e
            acc ^= {monomial(exponents)}
    return acc


def mul_oracle(p, q):
    return from_monomials(_monomials_product(to_monomials(p), to_monomials(q)))


def substitute_oracle(poly, mapping):
    # substitution by variable name, one variable factor at a time: an
    # independent route to `pullback`
    images = {n: to_monomials(v) for n, v in mapping.items()}
    out = set()
    for mon in to_monomials(poly):
        term = {monomial({})}
        for n, e in mon:
            if n in images:
                assert e > 0
                for _ in range(e):
                    term = _monomials_product(term, images[n])
            else:
                term = _monomials_product(term, {monomial({n: e})})
        out ^= term
    return from_monomials(out)


def _oracle_pullback(poly, m):
    return substitute_oracle(poly, {f"x{i}": m.coords[i] for i in range(5)})


FAMILY_MAPS = [dp.aut_d1(), dp.aut_d2(), dp.aut_d3_additive(), dp.aut_d3_torus()]
SECOND_GENERATION = [dp.aut_d1(LAM2, MU2), dp.aut_d2(ALPHA2, BETA2), dp.aut_d3_additive(ALPHA2, BETA2),
                     dp.aut_d3_torus(LAM2)]


def test_pullback_matches_substitution_oracle():
    polys = []
    for kind in ("D1", "D2", "D3"):
        quad = dp.surface(kind)
        polys += [quad.g1, quad.g2]
        polys += [p.member(i) for p in dp.pencils(kind) for i in range(2)]
    maps = FAMILY_MAPS + [dp.compose(m1, m2) for m1 in FAMILY_MAPS for m2 in SECOND_GENERATION]
    for m in maps:
        for poly in polys:
            assert dp.pullback(poly, m) == _oracle_pullback(poly, m), (str(poly), m)


def _random_exponent(rng, name):
    return rng.randrange(-2, 3) if name in UNIT_NAMES else rng.randrange(3)


def _random_x_part(rng, x_degree):
    exponents = {}
    for _ in range(rng.randrange(x_degree + 1)):
        x = f"x{rng.randrange(5)}"
        exponents[x] = exponents.get(x, 0) + 1
    return exponents


def _random_poly(rng):
    # x-degree up to 3, parameter parts in lam^±1, mu^±1 and alpha
    monomials = set()
    for _ in range(rng.randrange(1, 7)):
        exponents = _random_x_part(rng, 3)
        exponents.update((n, _random_exponent(rng, n)) for n in ("lam", "mu", "alpha"))
        monomials ^= {monomial(exponents)}
    return from_monomials(monomials)


def test_pullback_matches_oracle_on_random_polynomials():
    rng = random.Random(20171)
    maps = FAMILY_MAPS + [dp.compose(dp.aut_d1(), dp.aut_d3_torus(MU)), dp.identity_map()]
    for _ in range(60):
        poly = _random_poly(rng)
        for m in maps:
            assert dp.pullback(poly, m) == _oracle_pullback(poly, m), (str(poly), m)


def test_zero_map_and_zero_action_equal_nothing():
    zero_map = dp.ProjMap((ZERO,) * 5)
    for m in (dp.identity_map(), dp.aut_d1(), zero_map):
        assert not dp.proj_equal(zero_map, m)
        assert not dp.proj_equal(m, zero_map)
    zero_action = ((ZERO, ZERO), (ZERO, ZERO))
    for act in (dp.IDENTITY_ACTION, ((dp.ONE, ZERO), (BETA, dp.ONE)), zero_action):
        assert not dp.action_equal(zero_action, act)
        assert not dp.action_equal(act, zero_action)


def test_negative_powers_are_rejected():
    with pytest.raises(ValueError):
        LAM ** -1
    with pytest.raises(ValueError):
        X0 ** -2
    assert LAM ** 0 == dp.ONE
    assert LAM.unit_inverse() == from_monomials({monomial({"lam": -1})})


def _random_unit(rng):
    # a Laurent monomial in the four units, at least one exponent negative
    exponents = {n: rng.randrange(-3, 4) for n in UNIT_NAMES}
    exponents[rng.choice(UNIT_NAMES)] = -rng.randrange(1, 4)
    return from_monomials({monomial(exponents)})


def test_unit_times_its_inverse_is_one():
    rng = random.Random(20260901)
    for _ in range(100):
        u = _random_unit(rng)
        assert u.is_unit(), str(u)
        inv = u.unit_inverse()
        assert inv == from_monomials({monomial({n: -e for n, e in mon}) for mon in to_monomials(u)})
        assert u * inv == inv * u == dp.ONE
        assert mul_oracle(u, inv) == dp.ONE


def test_inverse_prints_a_negative_exponent():
    assert str(LAM.unit_inverse()) == "lam^-1"
    assert str(LAM.unit_inverse() ** 2 * MU) == "lam^-2*mu"
    assert str(MU2.unit_inverse() * X0) == "x0*mu2^-1"


@pytest.mark.parametrize("name", ["nope", "x5", "X0", "", None, 0])
def test_var_rejects_an_unknown_name(name):
    # "nope" raised KeyError
    with pytest.raises(ValueError, match="unknown variable") as exc:
        dp.var(name)
    assert "\n" not in str(exc.value)


def test_is_unit_fails_on_any_non_unit_variable():
    rng = random.Random(20260902)
    others = [n for n in dp.NAMES if n not in UNIT_NAMES]
    assert others == ["x0", "x1", "x2", "x3", "x4", "a", "b", "alpha", "beta", "alpha2", "beta2"]
    for _ in range(20):
        u = _random_unit(rng)
        for n in others:
            p = u * dp.var(n)
            assert not p.is_unit(), str(p)
            with pytest.raises(ValueError):
                p.unit_inverse()
        assert not (u + dp.ONE).is_unit()
        assert not ZERO.is_unit()


def test_normalize_action_shifts_each_unit_to_minimal_exponent_zero():
    rng = random.Random(20260903)
    for _ in range(60):
        mat = tuple(tuple(_random_param_poly(rng, x_degree=0) for _ in range(2)) for _ in range(2))
        monomials = [dict(m) for row in mat for e in row for m in to_monomials(e)]
        if not monomials:
            continue
        shift = {n: -min(m.get(n, 0) for m in monomials) for n in UNIT_NAMES}
        want = tuple(tuple(from_monomials(_monomials_product(to_monomials(e), {monomial(shift)})) for e in row)
                     for row in mat)
        assert dp.normalize_action(mat) == want, [[str(e) for e in row] for row in mat]
    assert dp.normalize_action(((ZERO, ZERO), (ZERO, ZERO))) == ((ZERO, ZERO), (ZERO, ZERO))


# Oracles for the determinant kernel: the 120-permutation expansion it
# replaced, on the oracle product.


def det_oracle(m):
    mat = [[c.coefficient_of(j) for j in dp.X_VARS] for c in m.coords]
    total = ZERO
    for perm in itertools.permutations(range(5)):  # char 2: no signs
        term = dp.ONE
        for i in range(5):
            term = mul_oracle(term, mat[i][perm[i]])
        total = total + term
    return total


def _random_param_poly(rng, x_degree=2):
    # x-degree up to x_degree, exponents in up to four group parameters:
    # -2..2 at the units, so that products cancel them, 0..2 elsewhere
    monomials = set()
    for _ in range(rng.randrange(1, 6)):
        exponents = _random_x_part(rng, x_degree)
        exponents.update((n, _random_exponent(rng, n)) for n in rng.sample(GROUP_PARAMS, rng.randrange(1, 5)))
        monomials ^= {monomial(exponents)}
    return from_monomials(monomials)


def _random_linear_map(rng):
    # sparse random coordinates, some of them zero, so singular maps occur
    coords = []
    for _ in range(5):
        c = ZERO
        for j in rng.sample(range(5), rng.randrange(4)):
            c = c + _random_param_poly(rng, x_degree=0) * dp.var(f"x{j}")
        coords.append(c)
    return dp.ProjMap(tuple(coords))


COMPOSED_MAPS = [dp.compose(m1, m2) for m1 in FAMILY_MAPS for m2 in SECOND_GENERATION]


def test_det_matches_permutation_oracle_on_family_maps():
    for m in FAMILY_MAPS + COMPOSED_MAPS + [dp.identity_map(), dp.ProjMap((X0, X0, X2, X3, X4))]:
        assert m.det() == det_oracle(m), m


def test_det_matches_permutation_oracle_on_random_maps():
    rng = random.Random(20260814)
    dets = []
    for _ in range(40):
        m = _random_linear_map(rng)
        dets.append(m.det())
        assert dets[-1] == det_oracle(m), m
    assert any(d.is_zero() for d in dets) and not all(d.is_zero() for d in dets)


def test_mul_matches_oracle_on_map_entries():
    entries = {e for m in FAMILY_MAPS + COMPOSED_MAPS for row in m.matrix() for e in row}
    entries |= {c for m in FAMILY_MAPS + COMPOSED_MAPS for c in m.coords}
    for p in entries:
        for q in entries:
            assert p * q == mul_oracle(p, q), (str(p), str(q))


def test_mul_matches_oracle_on_random_polynomials():
    rng = random.Random(20260815)
    for _ in range(300):
        p, q = _random_param_poly(rng), _random_param_poly(rng)
        assert p * q == mul_oracle(p, q), (str(p), str(q))


def test_x_linear_parts_match_coefficient_of():
    # _x_linear_parts takes input linear in x, as its caller ProjMap.matrix passes
    rng = random.Random(20260817)
    polys = [_random_param_poly(rng) for _ in range(100)]
    polys += [c for m in FAMILY_MAPS + COMPOSED_MAPS for c in m.coords]
    linear = [poly for poly in polys if not poly.x_degrees() - {1}]
    assert len(linear) >= len(FAMILY_MAPS + COMPOSED_MAPS) * 5
    for poly in linear:
        assert dp._x_linear_parts(poly) == [poly.coefficient_of(j) for j in dp.X_VARS], str(poly)


def test_pencil_basis_is_the_split_of_each_form():
    # A1, B1, A2, B2 are parameter-free and linear: each split maps the
    # x-part of every x_j in the form to 1
    for kind in ("D1", "D2", "D3"):
        for pencil in dp.pencils(kind):
            (a1, b1), (a2, b2) = pencil.forms
            want = tuple({tuple(int(i == j) for i in dp.X_VARS): dp.ONE for j in dp.X_VARS
                          if not f.coefficient_of(j).is_zero()} for f in (a1, b1, a2, b2))
            assert pencil.basis == want
            assert pencil.basis is pencil.basis  # built once per pencil


def test_powers_match_repeated_oracle_products():
    rng = random.Random(20260818)
    for _ in range(40):
        p = _random_param_poly(rng)
        want = dp.ONE
        for n in range(5):
            assert p ** n == want, (str(p), n)
            want = mul_oracle(want, p)


def solve_oracle(forms, poly):
    # brute force over F2 in the oracle representation: write the x-part
    # of each parameter monomial of poly as a sum of the forms by trying
    # all 2^n subsets; the forms are dependent when two subsets agree
    sums = {}
    for w in itertools.product((0, 1), repeat=len(forms)):
        total = set()
        for wj, f in zip(w, forms):
            if wj:
                total ^= to_monomials(f)
        sums.setdefault(frozenset(total), w)
    if len(sums) < 2 ** len(forms):
        return None
    by_param = {}
    for mon in to_monomials(poly):
        x_part = frozenset((n, e) for n, e in mon if n[0] == "x")
        by_param.setdefault(mon - x_part, set()).add(x_part)
    coeffs = [set() for _ in forms]
    for param, x_parts in by_param.items():
        w = sums.get(frozenset(x_parts))
        if w is None:
            return None
        for j, wj in enumerate(w):
            if wj:
                coeffs[j].add(param)
    return tuple(from_monomials(c) for c in coeffs)


LINEAR = [X0, X1, X2, X3, X4]
QUADRATIC = [p * q for i, p in enumerate(LINEAR) for q in LINEAR[i:]]


def test_solve_matches_brute_force():
    # random parameter-free bases of linear or quadratic forms over a few
    # x-monomials, so that dependent bases occur, and targets in their
    # span with parameter-polynomial coefficients, half of them plus one
    # more term, which mostly leaves the span
    rng = random.Random(20260819)
    outcomes = {"solved": 0, "dependent": 0, "outside": 0}
    for _ in range(300):
        x_monomials = rng.choice((LINEAR, QUADRATIC))
        pool = rng.sample(x_monomials, rng.randrange(2, 6))
        forms = [sum(rng.sample(pool, rng.randrange(1, len(pool) + 1)), ZERO) for _ in range(rng.randrange(1, 5))]
        poly = sum((_random_param_poly(rng, x_degree=0) * f for f in forms), ZERO)
        if rng.randrange(2):
            poly = poly + _random_param_poly(rng, x_degree=0) * rng.choice(x_monomials)
        want = solve_oracle(forms, poly)
        assert dp._solve(tuple(dp._x_coefficients(f) for f in forms), poly) == want, ([str(f) for f in forms], str(poly))
        if want is not None:
            outcomes["solved"] += 1
            assert sum((w * f for w, f in zip(want, forms)), ZERO) == poly
        elif solve_oracle(forms, ZERO) is None:
            outcomes["dependent"] += 1
        else:
            outcomes["outside"] += 1
    assert min(outcomes.values()) >= 30, outcomes


def test_pencil_action_rejects_members_moved_by_different_actions():
    # swapping x1 and x4 fixes the first member a*x2 + b*x3 of D1's first
    # pencil and sends the second, a*x4 + b*x1, to b*x4 + a*x1: each
    # member alone is mapped by a rank-one matrix, only the two together
    # show that no single (a' : b') exists
    swap = dp.ProjMap((X0, X4, X2, X3, X1))
    assert dp.pencil_action(swap, dp.pencils("D1")[0]) == dp.NOT_PRESERVED


def test_pencil_action_rejects_a_solution_nonlinear_in_a_b():
    # coordinates scaled by 1 + a: the pulled-back members are (1 + a)
    # times the originals, so the solved (a' : b') = (a + a^2 : b + a*b)
    # is consistent but not linear in (a, b)
    scaled = dp.ProjMap(tuple((dp.ONE + dp.A) * x for x in (X0, X1, X2, X3, X4)))
    for pencil in dp.pencils("D1"):
        assert dp.pencil_action(scaled, pencil) == dp.NOT_PRESERVED


def test_recover_params_rejects_maps_outside_the_families():
    # a non-unit torus parameter: the family builder's unit_inverse refuses it
    d1_like = dp.ProjMap((X0, (dp.ONE + ALPHA) * X1, X2, MU * X3, MU.unit_inverse() * X4))
    assert dp.recover_params(d1_like, "D1") is None
    d3_like = dp.ProjMap((X0, X1, BETA * X2, X3, X4))
    assert dp.recover_params(d3_like, "D3-torus") is None
    # a non-unit normalizing coefficient
    assert dp.recover_params(dp.ProjMap((ALPHA * X0, X1, X2, X3, X4)), "D1") is None
    assert dp.recover_params(dp.ProjMap((X0, ALPHA * X1, X2, X3, X4)), "D2") is None
    # in the wrong family
    assert dp.recover_params(dp.aut_d2(), "D3-additive") is None
    assert dp.recover_params(dp.aut_d1(LAM.unit_inverse(), MU), "D1") == {"lam": LAM.unit_inverse(), "mu": MU}
    with pytest.raises(ValueError):
        dp.recover_params(dp.identity_map(), "D4")
