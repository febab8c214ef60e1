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
The search itself is in `enrq.search`.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from . import _check_int_tuple, _Checked, _quoted

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
    pair, -2 on the E8 diagonal and the seven E8 edges of _E8_EDGES.

    On the E8 tree, -2 sum u_i v_i + sum over edges (u_a v_b + u_b v_a)
    = -sum over edges (u_a - u_b)(v_a - v_b) + sum (deg i - 2) u_i v_i,
    and only nodes 1, 2, 8 (degree 1) and 4 (degree 3) have deg i != 2.
    """
    ue, uf, u1, u2, u3, u4, u5, u6, u7, u8 = u
    ve, vf, v1, v2, v3, v4, v5, v6, v7, v8 = v
    return (
        ue * vf + uf * ve + u4 * v4 - u1 * v1 - u2 * v2 - u8 * v8
        - (u1 - u3) * (v1 - v3) - (u3 - u4) * (v3 - v4) - (u2 - u4) * (v2 - v4) - (u4 - u5) * (v4 - v5)
        - (u5 - u6) * (v5 - v6) - (u6 - u7) * (v6 - v7) - (u7 - u8) * (v7 - v8)
    )


def dual(v):
    """The row G v, whose entry i is v.BASIS[i], from the nonzero entries
    of each Gram row (one to four per row)."""
    ve, vf, v1, v2, v3, v4, v5, v6, v7, v8 = v
    return (vf, ve, v3 - 2 * v1, v4 - 2 * v2, v1 + v4 - 2 * v3, v2 + v3 + v5 - 2 * v4,
            v4 + v6 - 2 * v5, v5 + v7 - 2 * v6, v6 + v8 - 2 * v7, v7 - 2 * v8)


def reflection(r):
    """The reflection in the hyperplane orthogonal to the root r, as a map.

    Checks once, when the map is built, that r is 10 ints with r.r = -2;
    anything else raises ValueError.  The map x -> x + (x.r) r is then an
    isometry of the lattice and an involution.  It takes x.r from the
    nonzero entries of the dual row `dual(r)` (2 to 5 for a root near a
    simple one), not from the full product of `inner`.
    """
    if inner(_check_int_tuple(r, "a root", (tuple, list), RANK), r) != -2:
        raise ValueError("reflection vector must have self-intersection -2")
    row = [(i, d) for i, d in enumerate(dual(r)) if d]
    support = [(i, c) for i, c in enumerate(r) if c]

    def apply(x):
        if len(x) != RANK:
            raise ValueError(f"a lattice vector has {RANK} coordinates, not {len(x)}")
        k = 0
        for i, d in row:
            k += d * x[i]
        if not k:
            return x
        y = list(x)
        for i, c in support:
            y[i] += k * c
        return tuple(y)

    return apply


def reflect(r, x):
    """Reflection of x in the hyperplane orthogonal to the root r (r.r = -2);
    x, like r, must be 10 ints."""
    return reflection(r)(_check_int_tuple(x, "x", (tuple, list), RANK))


def validate_sequence(seq) -> bool:
    """True iff all vectors are isotropic and distinct pairs have product 1.

    The empty sequence is vacuously valid.  A sequence of length >= 2
    can never repeat a vector (a repeated vector would pair to 0 with
    itself).
    """
    vecs = list(seq)
    return all(inner(v, v) == 0 for v in vecs) and all(inner(u, v) == 1 for u, v in combinations(vecs, 2))


class IsotropicSequence(_Checked, namedtuple("IsotropicSequence", "vectors")):
    """An ordered tuple of isotropic vectors of ints with pairwise product 1."""

    __slots__ = ()
    __len__ = None  # callers read seq.vectors
    __bool__ = lambda self: True  # as at any object; with no __len__, bool() would raise

    def __new__(cls, vectors):
        try:
            vectors = tuple(map(tuple, vectors))
        except TypeError:  # no iterable of iterables: _sequence refuses None
            vectors = None
        else:
            for i, v in enumerate(vectors):
                _check_int_tuple(v, f"vectors[{i}]")
        return _sequence(vectors)


def _sequence(vectors):
    """The IsotropicSequence of `vectors`, a tuple of tuples of ints as
    the search makes them: the products are checked, not the types."""
    try:  # a vector of the wrong length fails in here; the try costs nothing otherwise
        if validate_sequence(vectors):
            return tuple.__new__(IsotropicSequence, (vectors,))
    except (TypeError, ValueError):
        pass
    raise ValueError("not an isotropic sequence with pairwise product 1")


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
    if not (isinstance(gram, (list, tuple)) and all(isinstance(row, (list, tuple)) for row in gram)):
        raise ValueError(f"Gram matrix must be a list or tuple of list or tuple rows, not {_quoted(gram)}")
    m = [list(row) for row in gram]
    n = len(m)
    if any(len(row) != n for row in m) or any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
        raise ValueError("Gram matrix must be square and symmetric")
    _check_int_tuple([x for row in m for x in row], "Gram matrix entries", (list,))

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


# ---------------------------------------------------------------------------
# isotropic sequence search


def search_sequences(n: int, bound: int, cap: int | None = 100):
    """Depth-first search for isotropic sequences of length n with all
    coordinates bounded by `bound` in absolute value.

    Returns a list of IsotropicSequence (ordered, so permutations of the
    same vector set count as distinct sequences).  At most `cap` results
    are returned, cap >= 1 (pass cap=None for the full enumeration).  n,
    bound and cap must be ints, and 1 <= bound <= `enrq.BOUND_CAP`.  The
    search order is fixed, so results are deterministic.  The search
    itself is in `enrq.search`, loaded on the first call.
    """
    from . import search

    return search.search_sequences(n, bound, cap)
