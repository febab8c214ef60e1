import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import islice, product

import pytest

import enrq
from enrq import cli, fibers, lattice, search


def det_by_fraction_elimination(matrix):
    # independent oracle: plain Gaussian elimination over Q
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


def test_gram_determinant_unimodular():
    det = lattice.exact_det(lattice.GRAM)
    assert det == det_by_fraction_elimination(lattice.GRAM)
    assert det in (1, -1)


def charpoly_by_faddeev_leverrier(matrix):
    # independent oracle: coefficients of det(xI - A) over Q, leading first
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(a[i][t] * m[t][j] for t in range(n)) + (coeffs[-1] if i == j else 0) for j in range(n)]
             for i in range(n)]
        coeffs.append(-sum(a[i][t] * m[t][i] for i in range(n) for t in range(n)) / k)
    return coeffs


def sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def test_gram_signature_hyperbolic():
    assert lattice.signature(lattice.GRAM) == (1, 9, 0)
    # a symmetric matrix has a real-rooted characteristic polynomial, so
    # Descartes' rule of signs counts its positive and negative roots exactly
    coeffs = charpoly_by_faddeev_leverrier(lattice.GRAM)
    assert coeffs[-1] != 0
    assert sign_changes(coeffs) == 1
    assert sign_changes([c * (-1) ** i for i, c in enumerate(coeffs)]) == 9


def inertia_by_descartes(matrix):
    coeffs = charpoly_by_faddeev_leverrier(matrix)
    # the trailing zero coefficients count the root 0, which is the nullity
    nullity = next(i for i, c in enumerate(reversed(coeffs)) if c != 0)
    return (sign_changes(coeffs), sign_changes([c * (-1) ** i for i, c in enumerate(coeffs)]), nullity)


def random_symmetric(rng, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.choice([0, 0, rng.randint(-3, 3)])
    if rng.random() < 0.3:
        for i in range(n):
            m[i][i] = 0
    if n >= 2 and rng.random() < 0.3:
        # row and column b become c times row and column a: singular
        a, b = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for i in range(n):
            m[i][b] = m[i][a] * c
        m[b] = [x * c for x in m[a]]
    return m


def test_det_and_inertia_match_exact_oracles():
    rng = random.Random(20)
    matrices = [random_symmetric(rng, rng.randint(1, 7)) for _ in range(300)]
    matrices += [fibers.catalog(t).model.component_gram() for t in fibers.standard_tags()
                 if fibers.catalog(t).model.reducible()]
    singular = zero_diagonal = 0
    for m in matrices:
        det = lattice.exact_det(m)
        assert det == det_by_fraction_elimination(m), m
        assert lattice.signature(m) == inertia_by_descartes(m), m
        singular += det == 0
        zero_diagonal += not any(m[i][i] for i in range(len(m)))
    assert singular >= 50 and zero_diagonal >= 50


@pytest.mark.parametrize("matrix", [
    [[0, 1], [2, 0]],
    [[1, 2, 3], [2, 1, 0]],
    [[Fraction(1, 2)]],
    [[2, 1.0], [1.0, 2]],
    [[True]],  # a bool is not an integer entry
    [[-2, False], [False, -2]],
    None,  # not a list of rows: a ValueError too, not a TypeError
    5,
    [5],
])
def test_det_and_signature_reject_non_symmetric_or_non_integer(matrix):
    for call in (lattice.exact_det, lattice.signature):
        with pytest.raises(ValueError) as exc:
            call(matrix)
        assert "\n" not in str(exc.value)


def test_inner_matches_the_gram_double_sum():
    rng = random.Random(49)
    for _ in range(300):
        u = tuple(rng.randint(-6, 6) for _ in range(lattice.RANK))
        v = tuple(rng.randint(-6, 6) for _ in range(lattice.RANK))
        want = sum(u[i] * lattice.GRAM[i][j] * v[j] for i in range(lattice.RANK) for j in range(lattice.RANK))
        assert lattice.inner(u, v) == want, (u, v)


def test_dual_is_the_dense_gram_product():
    rng = random.Random(53)
    vectors = list(lattice.BASIS) + [tuple(rng.randint(-9, 9) for _ in range(lattice.RANK)) for _ in range(300)]
    for v in vectors:
        assert lattice.dual(v) == tuple(sum(g * c for g, c in zip(row, v)) for row in lattice.GRAM), v


def test_inner_normalizations():
    assert lattice.inner(lattice.E, lattice.F) == 1
    assert lattice.inner(lattice.E, lattice.E) == 0
    assert lattice.inner(lattice.F, lattice.F) == 0
    for i in range(2, 10):
        assert lattice.inner(lattice.BASIS[i], lattice.BASIS[i]) == -2


def test_e8_block_is_negated_cartan():
    # two blocks orthogonal, E8 block negative definite of determinant 1
    for i in range(2):
        for j in range(2, 10):
            assert lattice.GRAM[i][j] == 0
    block = [row[2:] for row in lattice.GRAM[2:]]
    assert lattice.exact_det(block) == 1
    assert lattice.signature(block) == (0, 8, 0)


def test_reflect_negates_root():
    r = lattice.BASIS[2]
    assert lattice.reflect(r, r) == tuple(-c for c in r)


def test_reflect_fixes_orthogonal_vectors():
    r = lattice.BASIS[2]
    x = lattice.E
    assert lattice.inner(x, r) == 0
    assert lattice.reflect(r, x) == x


def test_reflect_rejects_non_root():
    with pytest.raises(ValueError):
        lattice.reflect(lattice.E, lattice.F)


def reflection_matrix(r):
    # S = I + r (G r)^T, so that S x = x + (x.r) r
    gr = [sum(g * c for g, c in zip(row, r)) for row in lattice.GRAM]
    return [[(i == j) + r[i] * gr[j] for j in range(10)] for i in range(10)]


def test_reflection_is_the_matrix_on_the_selfcheck_roots():
    roots = cli._selfcheck_draw(lattice.GRAM)[0]
    assert len(roots) == 39
    for r in roots:
        # the images of the basis vectors are the columns of S
        columns = [lattice.reflection(r)(b) for b in lattice.BASIS]
        assert [list(row) for row in zip(*columns)] == reflection_matrix(r), r


def test_reflection_rejects_non_root_when_built():
    for v in (lattice.E, (1, 1, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0, 0, 0, 0, 0)):
        with pytest.raises(ValueError):
            lattice.reflection(v)


def test_reflection_rejects_vectors_of_the_wrong_length():
    root = lattice.BASIS[2]
    for bad in (root[:9], root + (0,)):
        with pytest.raises(ValueError):
            lattice.reflection(bad)
        with pytest.raises(ValueError):
            lattice.reflection(root)(bad)


@pytest.mark.parametrize("root", [
    (0, 0, 1.0, 0, 0, 0, 0, 0, 0, 0),  # a float entry used to make the map return floats
    (0, 0, True, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, "1", 0, 0, 0, 0, 0, 0, 0),
    [0, 0, 1.5, 0, 0, 0, 0, 0, 0, 0],
    None,
    5,
    "0010000000",
    {2: 1},
])
def test_reflection_rejects_a_root_that_is_not_ten_ints(root):
    with pytest.raises(ValueError, match="a root must be 10 ints") as exc:
        lattice.reflection(root)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("x", [None, "0100000000", (0, 1.0, 0, 0, 0, 0, 0, 0, 0, 0), lattice.F[:9]])
def test_reflect_rejects_an_x_that_is_not_ten_ints(x):
    # None used to raise TypeError from len()
    with pytest.raises(ValueError) as exc:
        lattice.reflect(lattice.BASIS[2], x)
    assert str(exc.value).startswith("x must be 10 ints, not ")


def test_reflection_accepts_a_root_given_as_a_list():
    root = lattice.BASIS[2]
    assert lattice.reflection(list(root))(lattice.F) == lattice.reflection(root)(lattice.F)
    assert lattice.reflection(list(root))(root) == tuple(-c for c in root)


def test_validate_sequence_basics():
    assert lattice.validate_sequence([])
    assert lattice.validate_sequence([lattice.E, lattice.F])
    assert not lattice.validate_sequence([lattice.E, lattice.E])
    assert not lattice.validate_sequence([lattice.BASIS[2]])
    # isotropic, but the pair products are 2 and -1
    assert not lattice.validate_sequence([lattice.E, tuple(2 * a for a in lattice.F)])
    assert not lattice.validate_sequence([lattice.E, lattice.F, tuple(-c for c in lattice.F)])


def test_search_small_bounds(time_limit):
    with time_limit():
        found = lattice.search_sequences(1, 1, cap=None)
        found2 = lattice.search_sequences(2, 1, cap=None)
    assert any(s.vectors == (lattice.E,) for s in found)
    assert any(s.vectors == (lattice.E, lattice.F) for s in found2)
    for s in found2:
        assert lattice.validate_sequence(s.vectors)


def test_search_sequences_rejects_bad_lengths(time_limit):
    with time_limit():
        with pytest.raises(ValueError):
            lattice.search_sequences(11, 2)
        with pytest.raises(ValueError):
            lattice.search_sequences(0, 2)
        with pytest.raises(ValueError):
            lattice.search_sequences(2, 0)


def test_search_finds_full_ten_sequence_within_bound_six(time_limit):
    with time_limit():
        found = lattice.search_sequences(10, 6, cap=1)
    assert len(found) == 1
    seq = found[0]
    assert len(seq.vectors) == 10
    assert lattice.validate_sequence(seq.vectors)
    assert all(abs(c) <= 6 for v in seq.vectors for c in v)
    # the detail of the lattice-selfcheck row at the default bound 6
    assert "; ".join(str(v) for v in seq.vectors) == (
        "(0, 1, 0, 0, 0, 0, 0, 0, 0, 0); (1, 0, 0, 0, 0, 0, 0, 0, 0, 0); (1, 1, 1, 0, 0, 0, 0, 0, 0, 0); "
        "(1, 1, 1, 0, 1, 0, 0, 0, 0, 0); (1, 1, 1, 0, 1, 1, 0, 0, 0, 0); (1, 1, 1, 1, 1, 1, 0, 0, 0, 0); "
        "(1, 1, 0, -1, -1, -2, -2, -1, 0, 0); (1, 1, 0, -1, -1, -2, -2, -1, -1, 0); "
        "(1, 1, 2, 2, 3, 4, 3, 3, 2, 1); (1, 1, 0, -1, -1, -2, -2, -1, -1, -1)")


def test_search_rejects_a_cap_below_one(time_limit):
    # a cap of 0 or less is an error, not a silent full enumeration
    with time_limit(1):
        for n, bound, cap in ((2, 1, 0), (2, 1, -1), (10, 4, 0)):
            with pytest.raises(ValueError):
                lattice.search_sequences(n, bound, cap=cap)
    with time_limit():
        found = lattice.search_sequences(2, 1, cap=None)
    assert len(found) == 4452


@pytest.mark.parametrize("n, bound, cap", [
    (2.5, 1, 5), (2.0, 1, 5), (True, 1, 5),
    (2, 1.5, 5), (2, 1.0, 5), (2, True, 5),
    (2, 1, 5.0), (2, 1, 2.5), (2, 1, True),
])
def test_search_rejects_non_int_arguments(time_limit, n, bound, cap):
    # a float n never equals the sequence length and would search forever;
    # a float cap would never be reached
    with time_limit(1):
        with pytest.raises(ValueError):
            lattice.search_sequences(n, bound, cap=cap)


def test_search_is_deterministic(time_limit):
    with time_limit():
        a = lattice.search_sequences(3, 2, cap=20)
        b = lattice.search_sequences(3, 2, cap=20)
    assert [s.vectors for s in a] == [s.vectors for s in b]


def test_sequence_holds_its_vectors_as_tuples():
    # the lattice-selfcheck row prints each vector's str, so a list given in
    # must print as a tuple
    seq = lattice.IsotropicSequence([list(lattice.E), list(lattice.F)])
    assert seq.vectors == (lattice.E, lattice.F)


def test_isotropic_sequence_validates_on_construction():
    with pytest.raises(ValueError):
        lattice.IsotropicSequence((lattice.E, lattice.E))


def test_search_rejects_a_bound_above_the_cap(monkeypatch):
    # the search lists 2 bound + 1 values at every node, so a huge bound
    # costs memory before the first result; it is refused before any is built
    monkeypatch.setattr(search, "_candidates", lambda *args: pytest.fail("the search started"))
    with pytest.raises(ValueError) as exc:
        lattice.search_sequences(1, enrq.BOUND_CAP + 1, cap=1)
    assert str(exc.value) == f"coordinate bound must be between 1 and {enrq.BOUND_CAP}"
    assert cli.BOUND_CAP is enrq.BOUND_CAP == 1000


def test_e8_bound_is_the_scaled_form():
    # the search bound: SCALE * (-x.x) as a weighted sum of integer squares
    assert search._E8_SCALE == 120
    assert search._E8_WEIGHTS == (60, 15, 5, 4, 6, 10, 20, 60)
    rng = random.Random(8)
    for _ in range(500):
        x = (0, 0) + tuple(rng.randint(-6, 6) for _ in range(8))
        terms = [sum(c * x[i] for i, c in row) for row in search._E8_ROWS]
        assert sum(w * t * t for w, t in zip(search._E8_WEIGHTS, terms)) == 120 * -lattice.inner(x, x)


def test_e8_terms_split_off_a_positive_pivot():
    # the interval bound of a free E8 coordinate divides by the pivot c0
    for k, (weight, c0, rest) in enumerate(search._E8_TERMS):
        assert c0 > 0 and weight > 0
        assert ((2 + k, c0),) + rest == search._E8_ROWS[k]
        assert all(i > 2 + k for i, _ in rest)


def form_of(duals):
    # the echelon form of the constraints v.f = 1, one search._echelon step per row
    form = {}
    for dual in duals:
        form = search._echelon(form, dual)
        if form is None:
            break
    return form


def candidates(duals, bound):
    form = form_of(duals)
    return iter(()) if form is None else search._candidates(form, bound)


def test_candidates_match_the_full_box_at_bound_one():
    # the search's coordinate order (a, b, x8, ..., x1) and value order 0, 1, -1
    order = [0, 1] + [9 - i for i in range(8)]
    box = []
    for values in product((0, 1, -1), repeat=lattice.RANK):
        v = [0] * lattice.RANK
        for idx, val in zip(order, values):
            v[idx] = val
        box.append(tuple(v))
    isotropic = [v for v in box if any(v) and lattice.inner(v, v) == 0]
    sizes = []
    for prefix in ((), (lattice.F,), (lattice.F, lattice.E), ((1, 1, 1, 0, 0, 0, 0, 0, 0, 0),)):
        want = [v for v in isotropic if all(lattice.inner(v, f) == 1 for f in prefix)]
        duals = [tuple(lattice.inner(b, f) for b in lattice.BASIS) for f in prefix]
        assert list(candidates(duals, 1)) == want, prefix
        sizes.append(len(want))
    assert sizes == [180, 89, 88, 24]


def sequences_digest(found):
    return hashlib.sha256(json.dumps([s.vectors for s in found]).encode()).hexdigest()


# the first ten 10-sequences are the same at bounds 4, 5 and 6 (perfbench/expected.json)
TEN_SEQUENCES_DIGEST = "eef29dd028866adc49307d89f1e85c762c8c483d472880909d89b413c9fda603"


def test_search_output_pinned_and_fano_polarized(time_limit):
    with time_limit():
        found = lattice.search_sequences(10, 4, cap=10)
    assert sequences_digest(found) == TEN_SEQUENCES_DIGEST
    for seq in found:
        # Fano polarization: sum f_i = 3 Delta with Delta^2 = 10 and Delta.f_i = 3
        total = [sum(c) for c in zip(*seq.vectors)]
        assert all(c % 3 == 0 for c in total)
        delta = tuple(c // 3 for c in total)
        assert lattice.inner(delta, delta) == 10
        assert all(lattice.inner(delta, f) == 3 for f in seq.vectors)


@pytest.mark.parametrize("bound", [5, 6])
def test_search_output_pinned_at_bounds_five_and_six(time_limit, bound):
    with time_limit():
        found = lattice.search_sequences(10, bound, cap=10)
    assert sequences_digest(found) == TEN_SEQUENCES_DIGEST


# (n, bound, cap): (count, sha256 of the sequences in order) of search_sequences
SEARCH_PINS = {
    (2, 1, None): (4452, "4c5c0dc80a974f3025a6d20b54a59624a35345210c679c42c8f770b820f4a49d"),
    (4, 2, 2000): (2000, "2a572e789b370358fae1fc5cbe3604fddde83ec5e619d41a6e384704380221ec"),
    (10, 6, 300): (300, "1039a94cb7d796369c8474a0068a482f700293ab309e9081e5390e3db6a6db07"),
    (5, 8, 500): (500, "034cf2a118c758224984a02619856ee28641db12ecb5c0d88bba051391d02257"),
}


@pytest.mark.parametrize("n, bound, cap", SEARCH_PINS)
def test_search_output_pinned_on_longer_runs(time_limit, n, bound, cap):
    with time_limit():
        found = lattice.search_sequences(n, bound, cap=cap)
    assert (len(found), sequences_digest(found)) == SEARCH_PINS[n, bound, cap]


def candidates_dfs_oracle(prefix_duals, bound):
    # the search before echelon form: branch on every coordinate, in the
    # order (a, b, x8, ..., x1), and prune a value only when some raw row
    # G.f can no longer reach 1 within the box
    vals = search._value_order(bound)
    order = [0, 1] + [9 - i for i in range(8)]
    ncon = len(prefix_duals)
    reach = []
    for dual in prefix_duals:
        r = [0] * (lattice.RANK + 1)
        for step in range(lattice.RANK - 1, -1, -1):
            r[step] = r[step + 1] + abs(dual[order[step]]) * bound
        reach.append(r)
    coords = [0] * lattice.RANK

    def rec(step, partial, qpart, target):
        if step == lattice.RANK:
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
                continue
            if step == 1:
                t = 2 * coords[0] * coords[1]
                if t >= 0:
                    yield from rec(2, newpartial, 0, search._E8_SCALE * t)
            elif step >= 2:
                k = idx - 2
                term = 0
                for i, c in search._E8_ROWS[k]:
                    term += c * coords[i]
                q = qpart + search._E8_WEIGHTS[k] * term * term
                if q <= target:
                    yield from rec(step + 1, newpartial, q, target)
            else:
                yield from rec(step + 1, newpartial, qpart, target)
        coords[idx] = 0

    yield from rec(0, [0] * ncon, 0, None)


def duals_of(prefix):
    return [tuple(lattice.inner(b, f) for b in lattice.BASIS) for f in prefix]


# the empty prefix has 1,535,436 candidates at bound 4: compare its head only
EMPTY_PREFIX_HEAD = 20000


def assert_candidates_match_oracle(prefix, bound):
    duals = duals_of(prefix)
    limit = None if prefix else EMPTY_PREFIX_HEAD
    got = list(islice(candidates(duals, bound), limit))
    assert got == list(islice(candidates_dfs_oracle(duals, bound), limit)), (prefix, bound)
    return len(got)


def test_candidates_match_the_dfs_oracle_on_ten_sequence_prefixes(time_limit):
    with time_limit():
        found = lattice.search_sequences(10, 4, cap=10)
    prefixes = sorted({s.vectors[:k] for s in found for k in range(10)})
    assert len(prefixes) == 23
    for prefix in prefixes:
        # the oracle keeps a reach test that the search does not have; at
        # bound 12 the one-member prefix alone takes over a minute
        for bound in (4, 6, 25) if len(prefix) >= 2 else (4, 6):
            assert assert_candidates_match_oracle(prefix, bound) >= 1


def test_candidates_match_the_dfs_oracle_on_short_prefixes(time_limit):
    with time_limit():
        found = lattice.search_sequences(4, 2, cap=2000)
    prefixes = sorted({s.vectors[:k] for s in found for k in range(4)})
    assert len(prefixes) == 58
    for prefix in prefixes:
        for bound in (1, 2, 3):
            # a permuted prefix puts the pivots in other places
            assert_candidates_match_oracle(prefix, bound)
            assert_candidates_match_oracle(prefix[::-1], bound)


def test_candidates_edge_cases_of_the_echelon_form():
    f_dual = duals_of((lattice.F,))[0]
    # v.F = a: the pivot is the first search position, with no free one before it
    assert form_of([f_dual]) == {0: [1] + [0] * 9 + [1]}
    for bound in (1, 2, 4):
        assert assert_candidates_match_oracle((lattice.F,), bound) > 0
    # dependent rows: the same row twice is consistent, G.F and 2 G.F are not
    double = tuple(2 * x for x in f_dual)
    assert form_of([f_dual, double]) is None
    assert list(candidates([f_dual, double], 2)) == []
    assert list(candidates_dfs_oracle([f_dual, double], 2)) == []
    assert list(candidates([f_dual, f_dual], 1)) == list(candidates_dfs_oracle([f_dual, f_dual], 1))
    # rows a + x1 = 1 and -x1 = 1 reduce to x1 = -1 and a = 2: a pivot
    # with no fixed coordinate in its row, so only the box check of its
    # solution keeps a = 2 out at bound 1
    rows = [(1, 0, 1, 0, 0, 0, 0, 0, 0, 0), (0, 0, -1, 0, 0, 0, 0, 0, 0, 0)]
    assert form_of(rows) == {9: [0] * 9 + [1, -1], 0: [1] + [0] * 9 + [2]}
    assert list(candidates(rows, 1)) == list(candidates_dfs_oracle(rows, 1)) == []
    got = list(candidates(rows, 2))
    assert got == list(candidates_dfs_oracle(rows, 2)) and len(got) == 1330


def echelon_batch_oracle(prefix_duals):
    # the batch elimination the search used before its one-row step: the
    # reduced echelon form of all rows at once, late pivots first
    rank = lattice.RANK
    rest = [[dual[i] for i in search._ORDER] + [1] for dual in prefix_duals]
    pivots = {}
    for p in range(rank - 1, -1, -1):
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
    if any(r[rank] for r in rest):
        return None
    return pivots


def random_constraints(rng):
    # sparse random rows G.f, then dependent rows: a r1 + (1 - a) r2 keeps
    # the right-hand side 1 (consistent), a r1 + b r2 with a + b != 1 does not
    rows = []
    for _ in range(rng.randint(1, 7)):
        rows.append(tuple(rng.choice([0, 0, 0, rng.randint(-4, 4)]) for _ in range(lattice.RANK)))
    if len(rows) >= 2 and rng.random() < 0.5:
        r1, r2 = rng.sample(rows, 2)
        a = rng.randint(-2, 3)
        b = 1 - a if rng.random() < 0.5 else rng.choice([x for x in range(-2, 3) if x != 1 - a])
        rows.insert(rng.randrange(len(rows) + 1), tuple(a * x + b * y for x, y in zip(r1, r2)))
    return rows


def test_echelon_step_folds_to_the_batch_form():
    rng = random.Random(2024)
    inconsistent = dependent = 0
    for _ in range(2000):
        rows = random_constraints(rng)
        want = echelon_batch_oracle(rows)
        got = form_of(rows)
        if want is None:
            assert got is None, rows
            inconsistent += 1
            continue
        assert got is not None and set(got) == set(want), rows
        for p, row in want.items():
            assert got[p] in (row, [-x for x in row]), (rows, p)
        dependent += len(want) < len(rows)
    assert inconsistent >= 100 and dependent >= 100


def test_echelon_step_leaves_the_given_form_unchanged():
    f_dual, e_dual = duals_of((lattice.F, lattice.E))
    form = form_of([f_dual])
    copy = {p: list(r) for p, r in form.items()}
    assert search._echelon(form, e_dual) is not form
    assert search._echelon(form, tuple(2 * x for x in f_dual)) is None
    assert form == copy
