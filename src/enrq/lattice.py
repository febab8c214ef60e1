"""Exact arithmetic in the Enriques lattice U + E8(-1).

The lattice Num(S) of an Enriques surface is the unique even unimodular
lattice of signature (1, 9).  We fix the basis

    (e, f, v1, ..., v8)

where (e, f) spans a hyperbolic plane (e^2 = f^2 = 0, e.f = 1) and
v1..v8 span E8 negative definite, ordered as in Bourbaki (node 2 is the
short branch attached to node 4):

        v2
        |
    v1--v3--v4--v5--v6--v7--v8

Vectors are plain tuples of 10 integers.  Everything here is exact:
determinants are computed by fraction-free elimination and the signature
by congruence reduction over the rationals, never by floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

RANK = 10

# Bourbaki E8 diagram edges on nodes 1..8.
_E8_EDGES = ((1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8))


def _build_gram():
    g = [[0] * RANK for _ in range(RANK)]
    g[0][1] = g[1][0] = 1
    for i in range(8):
        g[2 + i][2 + i] = -2
    for a, b in _E8_EDGES:
        g[1 + a][1 + b] = g[1 + b][1 + a] = 1
    return tuple(tuple(row) for row in g)


GRAM = _build_gram()

E = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
F = (0, 1, 0, 0, 0, 0, 0, 0, 0, 0)
BASIS = tuple(tuple(1 if j == i else 0 for j in range(RANK)) for i in range(RANK))


def inner(u, v) -> int:
    """Intersection product u.v in the fixed Gram basis."""
    total = 0
    for i in range(RANK):
        ui = u[i]
        if ui:
            row = GRAM[i]
            total += ui * sum(row[j] * v[j] for j in range(RANK) if v[j])
    return total


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def neg(v):
    return tuple(-a for a in v)


def scale(k, v):
    return tuple(k * a for a in v)


def reflect(r, x):
    """Reflection of x in the hyperplane orthogonal to the root r.

    Requires r.r = -2; the map x -> x + (x.r) r is then an isometry of
    the lattice and an involution.
    """
    if inner(r, r) != -2:
        raise ValueError("reflection vector must have self-intersection -2")
    return add(x, scale(inner(x, r), r))


def validate_sequence(seq) -> bool:
    """True iff all vectors are isotropic and distinct pairs have product 1.

    The empty sequence is vacuously valid.  Note that a sequence of
    length >= 2 can never repeat a vector (a repeated vector would pair
    to 0 with itself).
    """
    vecs = list(seq)
    for v in vecs:
        if inner(v, v) != 0:
            return False
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if inner(vecs[i], vecs[j]) != 1:
                return False
    return True


@dataclass(frozen=True)
class IsotropicSequence:
    """An ordered tuple of isotropic vectors with pairwise product 1."""

    vectors: tuple

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(tuple(v) for v in self.vectors))
        if not validate_sequence(self.vectors):
            raise ValueError("not an isotropic sequence with pairwise product 1")

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def to_json(self):
        return [list(v) for v in self.vectors]

    @classmethod
    def from_json(cls, data):
        return cls(tuple(tuple(int(c) for c in v) for v in data))


# ---------------------------------------------------------------------------
# exact determinant and signature


def exact_det(matrix) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [[int(x) for x in row] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def signature(matrix):
    """Inertia (n_plus, n_minus, n_zero) of a symmetric matrix.

    Uses exact symmetric congruence reduction over the rationals
    (simultaneous row and column operations), so the result is not
    subject to floating-point error.
    """
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    pos = neg_ = zero = 0
    for k in range(n):
        if m[k][k] == 0:
            pivot = None
            for j in range(k + 1, n):
                if m[j][j] != 0:
                    pivot = j
                    break
            if pivot is not None:
                for r in range(n):
                    m[r][k], m[r][pivot] = m[r][pivot], m[r][k]
                m[k], m[pivot] = m[pivot], m[k]
            else:
                off = None
                for j in range(k + 1, n):
                    if m[k][j] != 0:
                        off = j
                        break
                if off is None:
                    zero += 1
                    continue
                # congruence: add row/col `off` into slot k to create a pivot
                for r in range(n):
                    m[r][k] += m[r][off]
                for c in range(n):
                    m[k][c] += m[off][c]
        d = m[k][k]
        if d > 0:
            pos += 1
        else:
            neg_ += 1
        for i in range(k + 1, n):
            factor = m[i][k] / d
            if factor:
                for c in range(n):
                    m[i][c] -= factor * m[k][c]
                for r in range(n):
                    m[r][i] -= factor * m[r][k]
    return (pos, neg_, zero)


def gram_determinant() -> int:
    return exact_det(GRAM)


def gram_signature():
    return signature(GRAM)


# ---------------------------------------------------------------------------
# isotropic sequence search

# LDL^T data for the positive definite form q(x) = -x'.(E8 block).x',
# used for branch-and-bound pruning: q(x) = sum_i d_i (x_i + sum_{j>i} L_ji x_j)^2.


def _ldl_e8():
    c = [[Fraction(-GRAM[2 + i][2 + j]) for j in range(8)] for i in range(8)]
    d = [Fraction(0)] * 8
    lo = [[Fraction(0)] * 8 for _ in range(8)]
    for j in range(8):
        d[j] = c[j][j] - sum(lo[j][k] ** 2 * d[k] for k in range(j))
        lo[j][j] = Fraction(1)
        for i in range(j + 1, 8):
            lo[i][j] = (c[i][j] - sum(lo[i][k] * lo[j][k] * d[k] for k in range(j))) / d[j]
    return d, lo


_E8_D, _E8_L = _ldl_e8()


def _value_order(bound):
    vals = [0]
    for v in range(1, bound + 1):
        vals.extend((v, -v))
    return vals


def _candidates(prefix_duals, bound):
    """Yield isotropic vectors v with |v_i| <= bound and v.f = 1 for each
    previous sequence member f (prefix_duals holds the rows G.f).

    Coordinates are chosen in the order (a, b, x8, ..., x1) so that the
    LDL partial sums of the E8 block give monotone lower bounds on
    q(x) = 2ab (branch-and-bound).  Enumeration order is deterministic.
    """
    vals = _value_order(bound)
    order = [0, 1] + [9 - i for i in range(8)]  # a, b, x8..x1
    ncon = len(prefix_duals)
    reach = []
    for dual in prefix_duals:
        r = [0] * (RANK + 1)
        for step in range(RANK - 1, -1, -1):
            r[step] = r[step + 1] + abs(dual[order[step]]) * bound
        reach.append(r)

    coords = [0] * RANK

    def rec(step, partial, qpart, target):
        if step == RANK:
            if qpart == target and any(coords):
                yield tuple(coords)
            return
        idx = order[step]
        for val in vals:
            coords[idx] = val
            ok = True
            newpartial = []
            for c in range(ncon):
                p = partial[c] + val * prefix_duals[c][idx]
                if abs(p - 1) > reach[c][step + 1]:
                    ok = False
                    break
                newpartial.append(p)
            if not ok:
                coords[idx] = 0
                continue
            if step == 1:
                # a, b fixed: the E8 part must satisfy q(x) = 2ab >= 0
                t = 2 * coords[0] * coords[1]
                if t < 0:
                    coords[idx] = 0
                    continue
                yield from rec(2, newpartial, Fraction(0), t)
            elif step >= 2:
                # running LDL sum over already-fixed coordinates x_k..x8
                k = idx - 2
                term = Fraction(coords[idx])
                for j in range(k + 1, 8):
                    term += _E8_L[j][k] * coords[2 + j]
                q = qpart + _E8_D[k] * term * term
                if q <= target:
                    yield from rec(step + 1, newpartial, q, target)
            else:
                yield from rec(step + 1, newpartial, qpart, target)
        coords[idx] = 0

    yield from rec(0, [0] * ncon, Fraction(0), None)


def search_sequences(n: int, bound: int, cap: int | None = 100):
    """Depth-first search for isotropic sequences of length n with all
    coordinates bounded by `bound` in absolute value.

    Returns a list of IsotropicSequence (ordered, so permutations of the
    same vector set count as distinct sequences).  At most `cap` results
    are returned (pass cap=None for the full enumeration).  The search
    order is fixed, so results are deterministic.
    """
    if not 1 <= n <= 10:
        # Eleven isotropic vectors with pairwise product 1 would have a
        # Gram matrix of signature (1, 10): impossible in a rank-10 lattice.
        raise ValueError("sequence length must be between 1 and 10")
    if bound < 1:
        raise ValueError("coordinate bound must be >= 1")
    results = []
    chosen = []
    duals = []

    def extend():
        if len(chosen) == n:
            results.append(IsotropicSequence(tuple(chosen)))
            return len(results) != cap
        for v in _candidates(duals, bound):
            chosen.append(v)
            duals.append(tuple(sum(GRAM[i][j] * v[j] for j in range(RANK)) for i in range(RANK)))
            go_on = extend()
            chosen.pop()
            duals.pop()
            if not go_on:
                return False
        return True

    extend()
    return results


def vector_to_json(v):
    return list(v)


def vector_from_json(data):
    v = tuple(int(c) for c in data)
    if len(v) != RANK:
        raise ValueError("expected 10 coordinates")
    return v
