"""Depth-first search for isotropic sequences in U + E8(-1).

An isotropic sequence is an ordered tuple of isotropic vectors f_i with
pairwise products f_i.f_j = 1 (see `lattice.IsotropicSequence`).  The
search picks members one at a time; each new member v must satisfy
v.f = 1 for every member f so far.  Those linear constraints are kept in
integer reduced echelon form with late pivots, one elimination step per
new member (`_echelon`): a pivot coordinate is solved from the fixed
coordinates of its row, not branched on, and a branch ends where that
solution is not an integer or leaves the box.  The isotropy q(v) = 0 is
pruned by branch and bound on the E8 block (`_e8_bound`): one generator
frame solves a run of pivot positions in place and recurses only at a
free position, where the bound cuts the coordinate to an interval.

`lattice.search_sequences` is the entry point; it loads this module on
its first call.  The row G v of each new member comes from `lattice.dual`,
and the results are checked with `lattice.inner` (by `lattice._sequence`,
which skips the public constructor's type pass); both are called as
module attributes, so that a wrapper put on them sees these calls too.
"""

from __future__ import annotations

import math

from . import BOUND_CAP, check_ints, lattice
from .lattice import GRAM, RANK, _reduce, _sequence


def _e8_bound():
    """Integer data for branch and bound on q(x) = -x'.x' over the E8 block.

    From the pivot rows U_k and leading minors of -E8 (see
    `lattice._reduce`), SCALE q(x) = sum_k W_k (U_k.x)^2 with SCALE the lcm
    of the D_k D_{k+1} and integer weights W_k.  Term k reads only
    x_{k+1}..x8; U_k is kept as (lattice index, coefficient) pairs.
    """
    rows, minors, _ = _reduce([[-GRAM[2 + i][2 + j] for j in range(8)] for i in range(8)])
    denominators = [a * b for a, b in zip(minors, minors[1:])]
    scale = math.lcm(*denominators)
    pivots = tuple(tuple((2 + j, row[j]) for j in range(k, 8) if row[j]) for k, row in enumerate(rows))
    return scale, tuple(scale // d for d in denominators), pivots


_E8_SCALE, _E8_WEIGHTS, _E8_ROWS = _e8_bound()
# per E8 position k: (W_k, the pivot c0 of U_k, U_k's other (lattice index, coefficient) pairs)
_E8_TERMS = tuple((w, row[0][1], row[1:]) for w, row in zip(_E8_WEIGHTS, _E8_ROWS))


_ORDER = (0, 1, 9, 8, 7, 6, 5, 4, 3, 2)  # search positions: a, b, x8, ..., x1


def _value_order(bound):
    return [0] + [s * v for v in range(1, bound + 1) for s in (1, -1)]


def _eliminate(r, s, p):
    """r <- s_p r - r_p s, divided by the gcd of its entries: zero at p.
    An all-zero result (gcd 0) is returned as it is."""
    c = r[p]
    r = [s[p] * x - c * y for x, y in zip(r, s)]
    g = math.gcd(*r)
    return [x // g for x in r] if g > 1 else r


def _echelon(pivots, dual):
    """Add the constraint v.f = 1 (dual holds the row G.f) to a reduced
    integer echelon form with late pivots.

    A form is {search position: row}, a row [c_0, ..., c_9, rhs] over
    search positions (see _ORDER); the empty form is {}.  The new row is
    cleared at each pivot position of the form; its last nonzero
    position q becomes its pivot, and q is cleared from the other rows by
    r <- s_q r - r_q s, each row divided by its gcd.  So a pivot row is
    zero at every other pivot position and at every position after its
    own, and its pivot coordinate is fixed by the coordinates the search
    has already chosen.  Returns a new form (the given one is not
    changed), or None when the new row keeps only a nonzero right-hand
    side: the constraints are inconsistent.
    """
    s = [dual[i] for i in _ORDER] + [1]
    for p, r in pivots.items():
        if s[p]:
            s = _eliminate(s, r, p)
    q = next((p for p in range(RANK - 1, -1, -1) if s[p]), None)
    if q is None:
        return None if s[RANK] else pivots
    form = {p: _eliminate(r, s, q) if r[q] else r for p, r in pivots.items()}
    form[q] = s
    return form


def _candidates(pivots, bound):
    """Yield isotropic vectors v with |v_i| <= bound that satisfy the
    constraints of the echelon form `pivots` (see _echelon).

    Coordinates are chosen in the order (a, b, x8, ..., x1) so that the
    partial sums of SCALE q(x) give monotone integer lower bounds on
    SCALE 2ab (branch-and-bound).  A free coordinate runs through 0, 1,
    -1, 2, -2, ...; a pivot coordinate is never branched on but solved
    from the coordinates of its row that are already fixed, and a
    remainder or a value outside the box ends the branch.  So the vectors
    come in the lexicographic order of that value order,
    deterministically.

    One frame solves a run of pivot positions in a loop and recurses only
    at a free position.  The E8 term of position k is c0 x + rest, with
    c0 > 0 the pivot of U_k (a leading minor of -E8) and rest read from
    the coordinates already fixed.  The slack SCALE 2ab minus the terms so
    far is >= 0 on entry, so a free x keeps W_k term^2 <= slack iff
    |term| <= isqrt(slack // W_k): its values are the value order cut to
    an interval, not tested one by one.
    """
    # per position: (pivot, right-hand side, (lattice index, coefficient) at earlier positions) of its row
    solve = [None] * RANK
    for pos, r in pivots.items():
        solve[pos] = (r[pos], r[RANK], tuple((_ORDER[j], r[j]) for j in range(pos) if r[j]))
    vals = _value_order(bound)
    coords = [0] * RANK  # a path sets each coordinate before it reads it, so none is reset

    def rec(step, slack):
        # slack = SCALE 2ab minus the E8 terms so far, from step 2 on
        while step < RANK and solve[step] is not None:
            d, rest, fixed = solve[step]
            for i, c in fixed:
                rest -= c * coords[i]
            val, rem = divmod(rest, d)
            if rem or abs(val) > bound:
                return
            idx = _ORDER[step]
            coords[idx] = val
            if step >= 2:
                weight, c0, row = _E8_TERMS[idx - 2]
                term = c0 * val
                for i, c in row:
                    term += c * coords[i]
                slack -= weight * term * term
            elif step:
                slack = 2 * _E8_SCALE * coords[0] * val
            if slack < 0:
                return
            step += 1
        if step == RANK:
            if not slack and any(coords):
                yield tuple(coords)
            return
        idx = _ORDER[step]
        if step >= 2:
            weight, c0, row = _E8_TERMS[idx - 2]
            rest = 0
            for i, c in row:
                rest += c * coords[i]
            room = math.isqrt(slack // weight)
            # -room <= c0 val + rest <= room
            lo, hi = -((room + rest) // c0), (room - rest) // c0
            for val in vals[:2 * max(hi, -lo) + 1]:
                if lo <= val <= hi:
                    coords[idx] = val
                    term = c0 * val + rest
                    yield from rec(step + 1, slack - weight * term * term)
        elif step:
            a = coords[0]
            for val in vals:
                # a, b fixed: the E8 part must satisfy q(x) = 2ab >= 0
                if a * val >= 0:
                    coords[1] = val
                    yield from rec(2, 2 * _E8_SCALE * a * val)
        else:
            for val in vals:
                coords[0] = val
                yield from rec(1, 0)

    yield from rec(0, 0)


def search_sequences(n, bound, cap):
    """The search behind `lattice.search_sequences`, with the same
    arguments and result."""
    check_ints(n=n, bound=bound)
    if cap is not None:
        check_ints(cap=cap)
    if not 1 <= n <= 10:
        # Eleven isotropic vectors with pairwise product 1 would have a
        # Gram matrix of signature (1, 10): impossible in a rank-10 lattice.
        raise ValueError("sequence length must be between 1 and 10")
    if not 1 <= bound <= BOUND_CAP:
        raise ValueError(f"coordinate bound must be between 1 and {BOUND_CAP}")
    if cap is not None and cap < 1:
        raise ValueError("cap must be >= 1, or None for the full enumeration")
    results = []
    chosen = []

    def extend(pivots):
        # a member that completes the sequence needs no form of its own
        last = len(chosen) == n - 1
        for v in _candidates(pivots, bound):
            chosen.append(v)
            if last:
                results.append(_sequence(tuple(chosen)))
                go_on = len(results) != cap
            else:
                form = _echelon(pivots, lattice.dual(v))
                go_on = form is None or extend(form)
            chosen.pop()
            if not go_on:
                return False
        return True

    extend({})
    return results
