import random

import pytest
from hypothesis import given, settings, strategies as st

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


exponents = st.lists(st.integers(min_value=0, max_value=3), min_size=dp.NVARS, max_size=dp.NVARS)


def _reduce_by_random_single_steps(mon, rng):
    mon = list(mon)
    while True:
        applicable = [(i, j) for i, j in dp.INV_PAIRS if mon[i] > 0 and mon[j] > 0]
        if not applicable:
            return tuple(mon)
        i, j = applicable[rng.randrange(len(applicable))]
        mon[i] -= 1
        mon[j] -= 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(exponents, st.integers(min_value=0, max_value=2**31))
def test_rewriting_is_confluent(mon, seed):
    mon = tuple(mon)
    rng = random.Random(seed)
    assert _reduce_by_random_single_steps(mon, rng) == dp.reduce_monomial(mon)


def test_units_and_inverses():
    assert (LAM * dp.var("ilam")) == dp.ONE
    assert (MU * dp.var("imu")) == dp.ONE
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


def substitute_oracle(poly, mapping):
    # substitution by variable name, one variable factor at a time: an
    # independent route to `pullback`
    idx_map = {dp._IDX[k]: v for k, v in mapping.items()}
    out = ZERO
    for m in poly.monomials:
        term = dp.ONE
        for i, e in enumerate(m):
            if not e:
                continue
            base = idx_map.get(i)
            if base is None:
                mon = [0] * dp.NVARS
                mon[i] = e
                base_p = dp.ParamPoly(frozenset({dp.reduce_monomial(tuple(mon))}))
                term = term * base_p
            else:
                term = term * base**e
        out = out + term
    return out


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


def _random_poly(rng):
    # x-degree up to 3, parameter parts drawn from lam/ilam, mu/imu and alpha
    params = [dp._IDX[n] for n in ("lam", "ilam", "mu", "imu", "alpha")]
    monomials = set()
    for _ in range(rng.randrange(1, 7)):
        mon = [0] * dp.NVARS
        for _ in range(rng.randrange(4)):
            mon[rng.randrange(5)] += 1
        for i in params:
            mon[i] = rng.randrange(3)
        monomials ^= {dp.reduce_monomial(tuple(mon))}
    return dp.ParamPoly(frozenset(monomials))


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
    assert LAM.unit_inverse() == dp.var("ilam")
