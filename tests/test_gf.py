"""GF(p^k) lookup arithmetic against the polynomial route on coefficient lists."""

import os
import random
import subprocess
import sys
from itertools import product

import pytest

from enrq import gf
from enrq.gf import GF, _poly_mulmod, _poly_powmod

SMALL_FIELDS = [
    (p, k)
    for p in range(2, 170)
    if all(p % d for d in range(2, p))
    for k in range(1, 8)
    if p**k <= 169
]
LARGE_FIELDS = [(2, 12), (3, 8), (13, 4)]
EXPONENTS = (-7, -2, -1, 0, 1, 2, 3, 10)


def digits(fld, a):
    out = []
    for _ in range(fld.k):
        a, d = divmod(a, fld.p)
        out.append(d)
    return out


def encode(fld, coeffs):
    return sum(c * fld.p**i for i, c in enumerate(coeffs))


class Oracle:
    """The field operations through polynomials reduced by the field's modulus."""

    def __init__(self, fld):
        self.fld = fld

    def mul(self, a, b):
        f = self.fld
        return encode(f, _poly_mulmod(digits(f, a), digits(f, b), f.modulus, f.p))

    def add(self, a, b):
        f = self.fld
        return encode(f, [(x + y) % f.p for x, y in zip(digits(f, a), digits(f, b))])

    def sub(self, a, b):
        f = self.fld
        return encode(f, [(x - y) % f.p for x, y in zip(digits(f, a), digits(f, b))])

    def neg(self, a):
        f = self.fld
        return encode(f, [-x % f.p for x in digits(f, a)])

    def pow(self, a, e):
        f = self.fld
        if e < 0:
            a, e = self.pow(a, f.q - 2), -e
        return encode(f, _poly_powmod(digits(f, a), e, f.modulus, f.p))


def check_unary(fld, oracle, a):
    assert fld.neg(a) == oracle.neg(a)
    if a:
        inv = fld.inv(a)
        assert inv == oracle.pow(a, fld.q - 2)
        assert oracle.mul(a, inv) == fld.one
    for e in EXPONENTS:
        if a or e >= 0:
            assert fld.pow(a, e) == oracle.pow(a, e), (a, e)


def check_binary(fld, oracle, a, b):
    assert fld.mul(a, b) == oracle.mul(a, b), (a, b)
    assert fld.add(a, b) == oracle.add(a, b), (a, b)
    assert fld.sub(a, b) == oracle.sub(a, b), (a, b)


@pytest.mark.parametrize("p,k", SMALL_FIELDS, ids=lambda v: str(v))
def test_operations_exhaustive_on_small_fields(p, k):
    fld = GF(p, k)
    oracle = Oracle(fld)
    els = list(fld.elements())
    for a in els:
        check_unary(fld, oracle, a)
        for b in els:
            check_binary(fld, oracle, a, b)


@pytest.mark.parametrize("p,k", LARGE_FIELDS, ids=lambda v: str(v))
def test_operations_on_random_pairs_of_large_fields(p, k):
    fld = GF(p, k)
    oracle = Oracle(fld)
    rng = random.Random(p * 100 + k)
    for _ in range(2000):
        a, b = rng.randrange(fld.q), rng.randrange(fld.q)
        check_binary(fld, oracle, a, b)
    for _ in range(200):
        check_unary(fld, oracle, rng.randrange(fld.q))


@pytest.mark.parametrize("p,k", SMALL_FIELDS + LARGE_FIELDS, ids=lambda v: str(v))
def test_sqrt_against_the_squares(p, k):
    fld = GF(p, k)
    oracle = Oracle(fld)
    squares = {oracle.mul(a, a) for a in fld.elements()}
    for a in fld.elements():
        root = fld.sqrt(a)
        if a in squares:
            assert oracle.mul(root, root) == a, a
        else:
            assert root is None, a


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 3), (5, 2), (2, 12), (13, 4)], ids=lambda v: str(v))
def test_elements_follow_coefficient_tuple_order(p, k):
    fld = GF(p, k)
    els = list(fld.elements())
    assert [tuple(digits(fld, a)) for a in els] == list(product(range(p), repeat=k))
    assert sorted(els) == list(range(fld.q))


# first roots of the two defining polynomials the classification rows use,
# as coefficient tuples (a0, ..., a_{k-1}), pinned from the tuple-based field
SEED_ROOTS = {
    (2, 2): ((0, 1), (1, 0)),
    (2, 4): ((0, 1, 0, 1), (1, 0, 0, 0)),
    (2, 6): ((0, 0, 0, 1, 1, 1), (1, 0, 0, 0, 0, 0)),
    (2, 12): ((0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0), (1,) + (0,) * 11),
    (3, 2): ((1, 0), (0, 1)),
    (3, 4): ((1, 0, 0, 0), (0, 1, 2, 0)),
    (3, 8): ((1,) + (0,) * 7, (1, 1, 0, 1, 2, 0, 2, 2)),
}


@pytest.mark.parametrize("p,k", SEED_ROOTS, ids=lambda v: str(v))
def test_find_root_returns_seed_root(p, k):
    fld = GF(p, k)
    cube_root, fourth_root = SEED_ROOTS[p, k]
    assert fld.find_root((1, 1, 1)) == encode(fld, cube_root)
    assert fld.find_root((1, 0, 1)) == encode(fld, fourth_root)


def test_find_root_none_when_absent():
    assert GF(2, 1).find_root((1, 1, 1)) is None
    assert GF(3, 1).find_root((1, 0, 1)) is None


def full_scan_root(fld, poly):
    """The first root in element order by evaluating at every element."""
    coeffs = [c % fld.p for c in poly]
    for x in fld.elements():
        acc = 0
        for c in reversed(coeffs):
            acc = fld.add(fld.mul(acc, x), c)
        if acc == 0:
            return x
    return None


# coefficients low to high; reduced mod p, so (.., p) drops the lead term
ROOT_POLYS = (
    (1, 1, 1),  # w^2 + w + 1
    (1, 0, 1),  # w^2 + 1
    (1, 1, 2, 1, 1),  # (w^2 + 1)(w^2 + w + 1): reducible
    (0, 6, 11, 6, 1),  # w(w + 1)(w + 2)(w + 3): reducible, roots in GF(p)
    (1, 1, 0, 1),  # w^3 + w + 1
    (2, 2, 0, 1),  # w^3 + 2w + 2: irreducible over GF(3), no root in GF(3^8)
    (11, 0, 0, 1),  # w^3 - 2: 2 is no cube mod 13, no root in GF(13^4)
    (1, 0, 1, 0, 0, 1),  # w^5 + w^2 + 1: irreducible over GF(2), no root in GF(2^12)
    (1, 0, 1, 2, 3, 5, 7),  # degree 6
    (1, 0, 1, 13),  # w^2 + 1 over GF(13^k)
    (5,),
    (0, 0),
)


@pytest.mark.parametrize("p,k", LARGE_FIELDS, ids=lambda v: str(v))
def test_find_root_matches_the_full_scan_on_large_fields(p, k):
    fld = GF(p, k)
    found = {poly: fld.find_root(poly) for poly in ROOT_POLYS}
    for poly, root in found.items():
        assert root == full_scan_root(fld, poly), poly
    assert None in found.values()  # some polynomial has no root here


def test_find_root_matches_the_full_scan_on_small_fields():
    for p, k in SMALL_FIELDS:
        if p > 5:
            continue
        fld = GF(p, k)
        for poly in product(range(p), repeat=4):
            assert fld.find_root(poly) == full_scan_root(fld, poly), (p, k, poly)


def test_zero_and_exponent_edge_cases():
    for p, k in ((2, 3), (3, 2), (13, 1)):
        fld = GF(p, k)
        with pytest.raises(ZeroDivisionError):
            fld.inv(fld.zero)
        with pytest.raises(ZeroDivisionError):
            fld.pow(fld.zero, -1)
        assert fld.pow(fld.zero, 0) == fld.one
        assert fld.pow(fld.zero, 5) == fld.zero
        for a in fld.elements():
            if a:
                assert fld.pow(a, -1) == fld.inv(a)
                assert fld.mul(fld.pow(a, -3), fld.pow(a, 3)) == fld.one


def test_modulus_and_construction():
    assert GF(2, 2).modulus == (1, 1, 1)
    assert GF(3, 8).modulus == (1, 0, 0, 0, 0, 1, 1, 0, 1)
    assert GF(2, 3).from_int(5) == 1
    assert GF(13, 2).from_int(-1) == 12
    for p, k in ((2, 0), (4, 1), (9, 2), (1, 3), (0, 1)):
        with pytest.raises(ValueError):
            GF(p, k)


def test_modulus_is_not_shared_mutable_state():
    # every GF(2, 4) reads the one cached modulus, so no caller may change it
    with pytest.raises(AttributeError):
        GF(2, 4).modulus.append(7)
    assert GF(2, 4).modulus == (1, 0, 0, 1, 1)


def test_fields_above_the_cap_are_rejected_before_any_work(monkeypatch):
    # neither factoring p nor building a table may start
    def refuse(*args):
        raise AssertionError("work started on a field above the cap")

    monkeypatch.setattr(gf, "_prime_factors", refuse)
    monkeypatch.setattr(gf, "_tables", refuse)
    assert gf.FIELD_CAP == 1 << 20
    for p, k in ((2, 21), (2**61 - 1, 1), (3, 13), (2, 10**9)):
        with pytest.raises(ValueError, match="FIELD_CAP"):
            GF(p, k)


def test_tables_are_built_on_first_use_and_shared():
    assert GF(5, 3)._exp is GF(5, 3)._exp
    code = "import enrq.cli; from enrq import gf; print(gf._tables.cache_info().currsize)"
    src = os.path.dirname(os.path.dirname(gf.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "0"  # importing builds no field


@pytest.mark.parametrize("poly", ["ab", [1.5], None, (1, True), {1: 1}])
def test_find_root_rejects_a_poly_that_is_not_ints(poly):
    # a one-line ValueError, not the TypeError of `%` or of iterating None
    with pytest.raises(ValueError, match="poly") as exc:
        GF(2, 2).find_root(poly)
    assert "\n" not in str(exc.value)


def test_check_ints_is_the_package_rule():
    # one definition at the package root; gf.check_ints still names it
    import enrq

    assert gf.check_ints is enrq.check_ints
    enrq.check_ints(a=0, b=-3)
    for bad in (True, 2.0, "2", None):
        with pytest.raises(ValueError, match="b must be an int") as exc:
            enrq.check_ints(a=1, b=bad)
        assert "\n" not in str(exc.value)
