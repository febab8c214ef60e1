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

Vectors are plain tuples of 10 integers.  Everything here is exact: one
fraction-free congruence elimination, over the integers, gives the
determinant, the inertia and the bound of the isotropic sequence search.
The search keeps the constraints v.f = 1 of the sequence so far in
integer reduced echelon form with late pivots: a pivot coordinate is
computed from the coordinates chosen before it, not branched on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

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
    """Intersection product u.v in the fixed Gram basis: the hyperbolic
    pair, -2 on the E8 diagonal and the seven E8 edges of _E8_EDGES."""
    ue, uf, u1, u2, u3, u4, u5, u6, u7, u8 = u
    ve, vf, v1, v2, v3, v4, v5, v6, v7, v8 = v
    return (
        ue * vf + uf * ve
        - 2 * (u1 * v1 + u2 * v2 + u3 * v3 + u4 * v4 + u5 * v5 + u6 * v6 + u7 * v7 + u8 * v8)
        + u1 * v3 + u3 * v1 + u3 * v4 + u4 * v3 + u2 * v4 + u4 * v2 + u4 * v5 + u5 * v4
        + u5 * v6 + u6 * v5 + u6 * v7 + u7 * v6 + u7 * v8 + u8 * v7
    )


def neg(v):
    return tuple(-a for a in v)


def reflection(r):
    """The reflection in the hyperplane orthogonal to the root r, as a map.

    Checks r.r = -2 once, when the map is built; the map x -> x + (x.r) r
    is then an isometry of the lattice and an involution.
    """
    if inner(r, r) != -2:
        raise ValueError("reflection vector must have self-intersection -2")
    support = [(i, c) for i, c in enumerate(r) if c]

    def apply(x):
        k = inner(x, r)
        if not k:
            return x
        y = list(x)
        for i, c in support:
            y[i] += k * c
        return tuple(y)

    return apply


def reflect(r, x):
    """Reflection of x in the hyperplane orthogonal to the root r (r.r = -2)."""
    return reflection(r)(x)


def validate_sequence(seq) -> bool:
    """True iff all vectors are isotropic and distinct pairs have product 1.

    The empty sequence is vacuously valid.  A sequence of length >= 2
    can never repeat a vector (a repeated vector would pair to 0 with
    itself).
    """
    vecs = list(seq)
    return all(inner(v, v) == 0 for v in vecs) and all(inner(u, v) == 1 for u, v in combinations(vecs, 2))


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


# ---------------------------------------------------------------------------
# exact determinant, signature and search bound


def _reduce(gram):
    """Fraction-free symmetric elimination of an integer Gram matrix.

    Returns (rows, minors, nullity).  Step k (from 0) is the Bareiss update
    m[i][j] = (m[i][j] m[k][k] - m[i][k] m[k][j]) // D_k, so every entry
    stays an integer and the pivots are the leading minors: minors is
    [D_0 = 1, D_1, D_2, ...].  A zero pivot is mended by a congruence move,
    in this order: swap in a later nonzero diagonal entry (row and column);
    else add a row and column j with m[k][j] != 0 (the new pivot is
    2 m[k][j]); else the pivot row is null, so it is swapped last, dropped
    and counted as nullity.  Moves keep the determinant and the inertia.
    rows[k] is the pivot row U_k, meaningful from column k on; when no move
    was needed, x.G.x is the sum over k of (U_k.x)^2 / (D_k D_{k+1})
    (Bareiss 1968).
    """
    m = [list(row) for row in gram]
    n = len(m)
    if any(len(row) != n for row in m) or any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
        raise ValueError("Gram matrix must be square and symmetric")
    if not all(isinstance(x, int) for row in m for x in row):
        raise ValueError("Gram matrix entries must be integers")

    def swap(a, b):
        m[a], m[b] = m[b], m[a]
        for row in m:
            row[a], row[b] = row[b], row[a]

    rows, minors = [], [1]
    k = 0
    while k < n:
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[j][j]), None)
            if j is not None:
                swap(k, j)
            else:
                j = next((j for j in range(k + 1, n) if m[k][j]), None)
                if j is None:
                    n -= 1
                    swap(k, n)
                    continue
                for c in range(k, n):
                    m[k][c] += m[j][c]
                for row in m:
                    row[k] += row[j]
        pivot, prev = m[k][k], minors[-1]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        rows.append(m[k])
        minors.append(pivot)
        k += 1
    return rows, minors, len(m) - n


def exact_det(matrix) -> int:
    """Determinant of a symmetric integer matrix (1 for the empty matrix)."""
    _, minors, nullity = _reduce(matrix)
    return 0 if nullity else minors[-1]


def signature(matrix):
    """Inertia (n_plus, n_minus, n_zero) of a symmetric integer matrix.

    A pivot D_{k+1} counts as positive when it has the sign of D_k; each
    dropped null row counts as zero.  Exact, never floating point.
    """
    _, minors, nullity = _reduce(matrix)
    pos = sum((a > 0) == (b > 0) for a, b in zip(minors, minors[1:]))
    return (pos, len(minors) - 1 - pos, nullity)


def gram_determinant() -> int:
    return exact_det(GRAM)


def gram_signature():
    return signature(GRAM)


# ---------------------------------------------------------------------------
# isotropic sequence search


def _e8_bound():
    """Integer data for branch and bound on q(x) = -x'.x' over the E8 block.

    From the pivot rows U_k and leading minors of -E8 (see _reduce),
    SCALE q(x) = sum_k W_k (U_k.x)^2 with SCALE the lcm of the D_k D_{k+1}
    and integer weights W_k.  Term k reads only x_{k+1}..x8; U_k is kept
    as (lattice index, coefficient) pairs.
    """
    rows, minors, _ = _reduce([[-GRAM[2 + i][2 + j] for j in range(8)] for i in range(8)])
    denominators = [a * b for a, b in zip(minors, minors[1:])]
    scale = math.lcm(*denominators)
    pivots = tuple(tuple((2 + j, row[j]) for j in range(k, 8) if row[j]) for k, row in enumerate(rows))
    return scale, tuple(scale // d for d in denominators), pivots


_E8_SCALE, _E8_WEIGHTS, _E8_ROWS = _e8_bound()


_ORDER = (0, 1, 9, 8, 7, 6, 5, 4, 3, 2)  # search positions: a, b, x8, ..., x1


def _value_order(bound):
    return [0] + [s * v for v in range(1, bound + 1) for s in (1, -1)]


def _echelon(prefix_duals):
    """Reduced integer echelon form of the constraints v.f = 1, with every
    pivot as late as possible in the search order.

    A row is [c_0, ..., c_9, rhs] over search positions (see _ORDER).
    Positions are eliminated from the last to the first: a remaining row
    with a nonzero c_p becomes the pivot row s of position p, and p is
    cleared from every other row by r <- s_p r - r_p s, each row then
    divided by the gcd of its entries.  Returns {position: row}, or None
    when a row with no coefficient left keeps a nonzero right-hand side.
    A pivot row is zero at every other pivot position and at every
    position after its own, so its pivot coordinate is fixed by the
    coordinates the search has already chosen.
    """
    rest = [[dual[i] for i in _ORDER] + [1] for dual in prefix_duals]
    pivots = {}
    for p in range(RANK - 1, -1, -1):
        s = next((r for r in rest if r[p]), None)
        if s is None:
            continue
        rest = [r for r in rest if r is not s]
        for r in rest + list(pivots.values()):
            c = r[p]
            if c:
                r[:] = [s[p] * x - c * y for x, y in zip(r, s)]
                g = math.gcd(*r)
                if g > 1:
                    r[:] = [x // g for x in r]
        pivots[p] = s
    if any(r[RANK] for r in rest):
        return None
    return pivots


def _candidates(prefix_duals, bound):
    """Yield isotropic vectors v with |v_i| <= bound and v.f = 1 for each
    previous sequence member f (prefix_duals holds the rows G.f).

    Coordinates are chosen in the order (a, b, x8, ..., x1) so that the
    partial sums of SCALE q(x) give monotone integer lower bounds on
    SCALE 2ab (branch-and-bound).  The constraints are kept in reduced
    echelon form with late pivots (see _echelon): a pivot coordinate is
    computed from the coordinates before it, never branched on, and a
    free coordinate runs through 0, 1, -1, 2, -2, ... while each row can
    still reach its right-hand side within the box.  So the vectors come
    in the lexicographic order of that value order, deterministically.
    """
    pivots = _echelon(prefix_duals)
    if pivots is None:
        return
    rows = list(pivots.values())
    rhs = [r[RANK] for r in rows]
    # reach[c][step]: the most the positions from step on can add to row c
    reach = [[bound * sum(abs(x) for x in r[step:RANK]) for step in range(RANK + 1)] for r in rows]
    # per position: the (row, pivot) that fixes it, if any, and the (row, coefficient) pairs it moves
    solve = [None] * RANK
    for c, (pos, r) in enumerate(pivots.items()):
        solve[pos] = (c, r[pos])
    moves = [tuple((c, r[step]) for c, r in enumerate(rows) if r[step]) for step in range(RANK)]
    vals = _value_order(bound)
    coords = [0] * RANK

    def rec(step, partial, qpart, target):
        if step == RANK:
            if qpart == target and any(coords):
                yield tuple(coords)
            return
        idx = _ORDER[step]
        values = vals
        if solve[step] is not None:
            c, d = solve[step]
            val, rem = divmod(rhs[c] - partial[c], d)
            if rem or abs(val) > bound:
                return
            values = (val,)
        for val in values:
            coords[idx] = val
            ok = True
            newpartial = list(partial)
            for c, coef in moves[step]:
                p = partial[c] + val * coef
                if abs(rhs[c] - p) > reach[c][step + 1]:
                    ok = False
                    break
                newpartial[c] = p
            if not ok:
                coords[idx] = 0
                continue
            if step == 1:
                # a, b fixed: the E8 part must satisfy q(x) = 2ab >= 0
                t = 2 * coords[0] * coords[1]
                if t < 0:
                    coords[idx] = 0
                    continue
                yield from rec(2, newpartial, 0, _E8_SCALE * t)
            elif step >= 2:
                # the E8 term of this coordinate reads only coordinates already fixed
                k = idx - 2
                term = 0
                for i, c in _E8_ROWS[k]:
                    term += c * coords[i]
                q = qpart + _E8_WEIGHTS[k] * term * term
                if q <= target:
                    yield from rec(step + 1, newpartial, q, target)
            else:
                yield from rec(step + 1, newpartial, qpart, target)
        coords[idx] = 0

    yield from rec(0, [0] * len(rows), 0, None)


def search_sequences(n: int, bound: int, cap: int | None = 100):
    """Depth-first search for isotropic sequences of length n with all
    coordinates bounded by `bound` in absolute value.

    Returns a list of IsotropicSequence (ordered, so permutations of the
    same vector set count as distinct sequences).  At most `cap` results
    are returned, cap >= 1 (pass cap=None for the full enumeration).  The
    search order is fixed, so results are deterministic.
    """
    if not 1 <= n <= 10:
        # Eleven isotropic vectors with pairwise product 1 would have a
        # Gram matrix of signature (1, 10): impossible in a rank-10 lattice.
        raise ValueError("sequence length must be between 1 and 10")
    if bound < 1:
        raise ValueError("coordinate bound must be >= 1")
    if cap is not None and cap < 1:
        raise ValueError("cap must be >= 1, or None for the full enumeration")
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
