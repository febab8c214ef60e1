"""Small finite fields GF(p^k), table-driven, with deterministic construction.

An element is a plain int whose base-p digits a0, ..., a_{k-1} (a0 least
significant) are the coefficients of a0 + a1 t + ... + a_{k-1} t^{k-1}
modulo a fixed monic irreducible polynomial, chosen as the first
irreducible in lexicographic order of its lower coefficients.  For p = 2
the int is a bitmask.

Arithmetic is by lookup in tables built once per (p, k), on the first
`GF(p, k)` call, and cached for the life of the process:

* g is the first element, in element order, of multiplicative order q - 1;
* exp[i] = g^i for 0 <= i < 2(q - 1), twice the period, so a product
  exp[log a + log b] needs no reduction;
* log[a] for a != 0 (log[0] is None);
* for odd p, the Zech logarithms zech[d] = log(1 + g^d), None where
  1 + g^d = 0, so a + b = g^(log a) (1 + g^(log b - log a)) is two
  lookups.  For p = 2 addition is XOR and -a = a.

The tables hold a few ints per element, so `GF` rejects a field of more
than FIELD_CAP = 2^20 elements before it factors p or builds anything.

All arithmetic is exact.  Iteration order over the field is that of the
coefficient tuples (a0, ..., a_{k-1}) in lexicographic order, so searches
(e.g. for a root of a defining polynomial) are reproducible.
"""

from __future__ import annotations

import math
import operator
from functools import cache
from itertools import product

from . import _check_int_tuple, check_ints

FIELD_CAP = 1 << 20  # the largest p^k that GF accepts


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a, b, mod, p):
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    res[i + j] = (res[i + j] + ai * bj) % p
    return _poly_modpoly(res, mod, p)


def _poly_modpoly(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            inv = pow(mod[-1], -1, p)
            factor = lead * inv % p
            for i in range(dm + 1):
                a[shift + i] = (a[shift + i] - factor * mod[i]) % p
        a.pop()
    return _poly_trim(a)


def _poly_powmod(a, e, mod, p):
    result = [1]
    base = _poly_modpoly(list(a), mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a = _poly_modpoly(a, b, p)
        a, b = b, a
    return a


def _prime_factors(n):
    fs = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            fs.add(d)
            n //= d
        d += 1
    if n > 1:
        fs.add(n)
    return fs


def _is_irreducible(f, p):
    k = len(f) - 1
    x = [0, 1]
    if _poly_powmod(x, p**k, f, p) != _poly_modpoly(x, f, p):
        return False
    for r in _prime_factors(k):
        h = _poly_powmod(x, p ** (k // r), f, p)
        diff = list(h) + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd(f, diff, p)) != 1:
            return False
    return True


def _find_irreducible(p, k):
    if k == 1:
        return (0, 1)
    for lower in product(range(p), repeat=k):
        f = (*lower, 1)
        if f[0] == 0:
            continue
        if _is_irreducible(f, p):
            return f
    raise RuntimeError("no irreducible polynomial found")  # unreachable


@cache
def _tables(p, k):
    """(modulus, exp, log, zech, order) for GF(p^k); see the module docstring.

    The modulus is a tuple, so no caller can change the one all GF(p, k)
    share.  `order` lists the elements in iteration order.  zech is None
    for p = 2.
    """
    modulus = _find_irreducible(p, k)
    q = p**k
    n = q - 1
    weights = [p**i for i in range(k)]
    order = [sum(map(operator.mul, digits, weights)) for digits in product(range(p), repeat=k)]
    # g has order n iff g^(n/r) != 1 for every prime r dividing n
    cofactors = [n // r for r in _prime_factors(n)]
    g = next(
        list(digits)
        for digits in product(range(p), repeat=k)
        if any(digits) and all(_poly_powmod(list(digits), e, modulus, p) != [1] for e in cofactors)
    )
    # multiplication by g as a k x k matrix over GF(p): rows[j][i] is the
    # t^j coefficient of t^i g
    columns = [_poly_mulmod([0] * i + [1], g, modulus, p) for i in range(k)]
    rows = [[c[j] if j < len(c) else 0 for c in columns] for j in range(k)]
    # every table entry is an int below q; all of them refer to the int
    # objects of `order`, so the tables hold q ints, not 3q
    shared = [None] * q
    for a in order:
        shared[a] = a
    exp = []
    x = [1] + [0] * (k - 1)
    for _ in range(n):
        exp.append(shared[sum(map(operator.mul, x, weights))])
        x = [sum(map(operator.mul, x, row)) % p for row in rows]
    log = [None] * q
    for i, a in enumerate(exp):
        log[a] = shared[i]
    exp += exp
    zech = None
    if p != 2:
        # adding 1 changes only the lowest digit, a % p
        zech = [log[a - a % p + (a + 1) % p] for a in exp[:n]]
    return modulus, exp, log, zech, order


def check_field(p, k):
    """Raise a one-line ValueError unless `GF(p, k)` can be built: int p
    and k, k >= 1, p^k within FIELD_CAP and p prime."""
    check_ints(p=p, k=k)
    if k < 1:
        raise ValueError("k must be >= 1")
    # before p is factored or a table is built; p^21 already exceeds
    # the cap for p >= 2, so a larger k need not be raised to
    if p ** min(k, FIELD_CAP.bit_length()) > FIELD_CAP:
        raise ValueError(f"GF({p}^{k}) is larger than FIELD_CAP = {FIELD_CAP} elements")
    if _prime_factors(p) != {p}:
        raise ValueError("p must be prime")


class GF:
    """The field with p^k elements; elements are ints (see the module docstring)."""

    def __init__(self, p, k):
        check_field(p, k)
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus, self._exp, self._log, self._zech, self._order = _tables(p, k)
        self._log_minus_one = (self.q - 1) // 2  # g^((q-1)/2) = -1 for odd p
        self.zero = 0
        self.one = 1

    def from_int(self, n):
        """n mod p, for an int n (a bool is not)."""
        check_ints(n=n)
        return n % self.p

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        z = self._zech[log[b] - la]  # a negative index wraps: g^-d = g^(q-1-d)
        return 0 if z is None else self._exp[la + z]

    def neg(self, a):
        if self.p == 2 or not a:
            return a
        return self._exp[self._log[a] + self._log_minus_one]

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b]]
        return 0

    def pow(self, a, e):
        if e == 0:
            return 1
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0
        return self._exp[self._log[a] * e % (self.q - 1)]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self.q - 1 - self._log[a]]

    def sqrt(self, a):
        """A square root of a, or None if a is not a square.

        For odd p a nonzero a is a square iff log a is even, and then its
        roots are +-g^(log a / 2).  For p = 2 squaring is bijective and
        a^(q/2) is the root.
        """
        if not a:
            return 0
        la = self._log[a]
        if self.p == 2:
            return self._exp[la * (self.q // 2) % (self.q - 1)]
        return None if la % 2 else self._exp[la // 2]

    def elements(self):
        """All field elements, in a fixed deterministic order."""
        yield from self._order

    def find_root(self, poly):
        """First root (in element order) of a polynomial with prime-field
        coefficients, a list or tuple of ints from low to high, or None.

        A root of a degree-d polynomial over GF(p) has a minimal polynomial
        of degree e <= d with e | k, so every root lies in GF(p^m) for
        m = lcm{e : e | k, e <= d}: the elements 0 and g^(i (q-1)/(p^m-1)).
        Only that subfield is scanned (the zero polynomial gets d = 0: its
        first root, 0, is in every subfield); for m = k it is the whole
        field, with step 1.
        """
        coeffs = [c % self.p for c in _check_int_tuple(poly, "poly", (list, tuple))]
        d = max((i for i, c in enumerate(coeffs) if c), default=0)
        m = math.lcm(*(e for e in range(1, d + 1) if self.k % e == 0))
        step = (self.q - 1) // (self.p**m - 1)
        roots = [x for x in (0, *self._exp[: self.q - 1 : step]) if self._evaluate(coeffs, x) == self.zero]
        return min(roots, key=self._digits, default=None)

    def _evaluate(self, coeffs, x):
        """The polynomial with coefficients coeffs (low to high) at x."""
        acc = self.zero
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def _digits(self, a):
        """The coefficient tuple (a0, ..., a_{k-1}) of a, whose
        lexicographic order is element order."""
        return tuple(a // self.p**i % self.p for i in range(self.k))
