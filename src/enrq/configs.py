"""Enumeration and filtering of singular-fiber configurations of genus-one
pencils on Enriques surfaces: the Euler budget e(S) = 12, the Shioda-Tate
room sum(m_D - 1) <= 8, extremality, the numerically-trivial bielliptic
filters, and the shared-eight-components overlay arithmetic.

Overlay search normalization.  `shared_eight_search` looks for two
additive nine-component fibers F, F' (one per pencil) sharing eight
components C1..C8, with one extra curve each (C9 in F, C10 in F').
Realizing the two affine diagrams pins every pairwise intersection
except u = C9.C10, which ranges over {0, ..., 4}.  F.F' is affine in u
with slope m(C9) * m(C10) >= 1 (C9 is not in F', C10 not in F), so the
search solves F.F' = 4 for the one admissible u instead of trying each.
A branch counts as satisfiable when

  * F.F' = 4  (simple fibers are numerically twice the half-fibers,
    so F.F' = 2F1 . 2F2 = 4 with F1.F2 = 1);
  * the lattice spanned by the ten curves together with both half-fiber
    classes F/2 and F'/2 is unimodular, i.e. these classes account for
    the whole rank-10 lattice of the surface (the integral sharpening
    of the fact that the half-fibers and the eight shared curves span
    the lattice rationally); and
  * the eight shared curves form a connected configuration (they are
    the locus contracted by a single bielliptic map, and a reducible
    fiber stays connected after removing its one non-shared component
    exactly when that connector is an end component).

The last two conditions are the normalization pinned by the anchor
requirement that the D~8 + D~8 case come out unsatisfiable: the product
constraint alone admits a D~8 + D~8 overlay through two extra tail
curves meeting twice (which fails unimodular closure, discriminant -4)
and another through middle-component connectors (unimodular, but with
the shared curves falling apart into two 4-star pieces, and forcing a
primitive multiplicative cycle class, i.e. a forbidden multiplicative
half-fiber in characteristic 2).  The branch summaries report every
product-4 overlay together with which condition rejected it.

Cost.  The diagrams are the catalog Gram matrices, indexed by catalog
position.  What depends on one fiber type alone is built once per tag
and cached (`_model`): the check F.C = 0, the constant kappa below, and
per connector the other eight curves, their Gram block with the
connector, their neighbour lists, a parent-first node order with each
node's parent, and connectivity.  Every such remainder of D~8 and E~8 is
a forest.  The isomorphisms between remainders are cached per ordered
pair of types (`_isomorphisms`) as a 9 x 9 table of sorted lists, each
from one parent-first DFS (`_forest_isos`); only I4* and II* have nine
components, so at most four tables exist.  The check F'.C = 0 needs no
repeat, since an isomorphism carries the rows of the second diagram onto
the block.  Per isomorphism only the column of C10 against the shared
curves, f2, the u-solve and the parity test are computed.  No
determinant is taken per call: the first nine rows and columns of an
overlay Gram matrix are the Gram matrix A of F, which has corank 1 and
kernel m(F), so adj(A) = kappa * m m^T, and bordering A with C10 gives
det = -kappa * (F.C10)^2.  kappa is the cofactor of each diagonal entry
of A over m(C)^2, taken with exact_det for every component C of the
type, once per tag (4 for D~8, 1 for E~8).  The caches hold nothing
about a result, and every list and dict a call returns is new.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement
from operator import mul

from . import _quoted, check_ints, fibers
from .lattice import exact_det


@dataclass(frozen=True)
class FiberEntry:
    """One singular fiber of a pencil: type, simple/double marker
    (None when unspecified), and a wild ramification term."""

    tag: str
    double: bool | None = None
    wild: int = 0

    def __post_init__(self):
        fibers.catalog(self.tag)
        check_ints(wild=self.wild)


@dataclass(frozen=True)
class Configuration:
    """Multiset of singular fibers of one genus-one pencil on a
    supersingular Enriques surface in characteristic 2: half-fibers are
    additive, and only additive fibers carry a wild term."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        for e in entries:
            ent = fibers.catalog(e.tag)
            if e.wild < 0:
                raise ValueError("wild term must be >= 0")
            if e.wild > 0 and ent.kind != fibers.ADDITIVE:
                raise ValueError("only additive fibers carry a wild term")
            if e.double and ent.kind != fibers.ADDITIVE:
                raise ValueError("half-fibers must be additive")
        if self.shioda_tate_sum() > 8:
            raise ValueError("sum(m_D - 1) exceeds the Shioda-Tate room 8")

    def shioda_tate_sum(self):
        return sum(fibers.catalog(e.tag).m - 1 for e in self.entries)

    def euler_total(self):
        return sum(fibers.catalog(e.tag).euler_tame + e.wild for e in self.entries)

    def tags(self):
        return tuple(e.tag for e in self.entries)

    def sorted_tags(self):
        return tuple(sorted(self.tags()))

    def label(self):
        return " + ".join(fibers.dynkin_label(e.tag) + (f" (wild {e.wild})" if e.wild else "") for e in self.entries)


def enumerate_pairs():
    """All unordered pairs of additive types with m1 + m2 = 10 and tame
    Euler numbers summing to the budget e(S) = 12 (no wild term)."""
    out = []
    # the additive types that fit in the Shioda-Tate room; m(I_n*) = n + 5
    # keeps every fitting I_n* within standard_tags()
    entries = [fibers.catalog(t) for t in sorted(fibers.standard_tags())]
    additive = [e for e in entries if e.kind == fibers.ADDITIVE and e.m - 1 <= 8]
    for e1, e2 in combinations_with_replacement(additive, 2):
        if e1.m + e2.m == 10 and e1.euler_tame + e2.euler_tame == 12:
            out.append(Configuration((FiberEntry(e1.tag), FiberEntry(e2.tag))))
    return out


# the pairs realizable as singular fibers of an extremal rational
# genus-one fibration in characteristic 2 (classification constants;
# numerically consistent pairs outside this list are reported as such)
REALIZABLE_PAIRS = (
    ("I0*", "I0*"),
    ("I4*", "II"),
    ("IV*", "IV"),
    ("III*", "III"),
    ("II*", "II"),
)


def realizable_filter(pairs):
    """Split numerically consistent pairs into the realizable ones and the
    rejects (consistent arithmetic, no extremal rational model)."""
    allow = {tuple(sorted(p)) for p in REALIZABLE_PAIRS}
    realizable, rejected = [], []
    for cfg in pairs:
        if cfg.sorted_tags() in allow:
            realizable.append(cfg)
        else:
            rejected.append((cfg, "numerically consistent, not realizable on an extremal rational fibration"))
    return {"realizable": realizable, "rejected": rejected}


def odd_order_smooth_case(order: int):
    """Pencil configurations when an odd-order automorphism fixes a smooth
    (supersingular) member and one further fiber.

    The smooth member carries fixed_count(char 2 supersingular, order)
    fixed points, so the other fixed fiber needs fixed-locus Euler number
    12 minus that; only order 3 admits solutions, since the automorphism
    group of a supersingular curve in characteristic 2 has no elements of
    odd order > 3.
    """
    from . import ecaut

    check_ints(order=order)
    if order % 2 == 0 or order < 3:
        raise ValueError("order must be odd and >= 3")
    ss = ecaut.CurveClass(2, ecaut.SPECIAL)
    if order not in ecaut.element_orders(ss):
        return []
    target = 12 - ecaut.fixed_count(ss, order)
    configs = []
    for tag in fibers.standard_tags(9):
        ent = fibers.catalog(tag)
        if ent.euler_tame != target or ent.m - 1 > 8:
            continue
        if ent.kind == fibers.MULTIPLICATIVE:
            # no wild term on multiplicative fibers: the leftover Euler
            # budget is carried by one moved orbit of `order` fibers
            leftover = 12 - ent.euler_tame
            if leftover % order:
                continue
            each = leftover // order
            movers = [t for t in fibers.standard_tags(9) if fibers.catalog(t).euler_tame == each and fibers.catalog(t).m == 1]
            if not movers:
                continue
            entries = (FiberEntry(tag, double=False),) + tuple(FiberEntry(movers[0], double=False) for _ in range(order))
            configs.append(Configuration(entries))
        else:
            configs.append(Configuration((FiberEntry(tag, double=False, wild=12 - ent.euler_tame),)))
    return configs


def bielliptic_pair_check(tags, shared_components: int, connector_mults):
    """Necessary conditions for the bielliptic involution of a pair of
    pencils to be numerically trivial.

    `tags` lists the reducible fiber types carrying the shared
    components, `shared_components` the declared number of common
    (-2)-curves, `connector_mults` the multiplicity of the one
    non-shared component per fiber.  The connector C satisfies
    m * (C.F2) = 2 against the other half-fiber, so m must be 1 or 2;
    multiplicative fibers with more than two components are excluded.
    """
    if not isinstance(tags, (tuple, list)):
        raise ValueError(f"tags must be a tuple or list of fiber tags, not {_quoted(tags)}")
    tags = tuple(tags)
    if not tags:
        raise ValueError("need at least one fiber type")
    if isinstance(connector_mults, int):
        connector_mults = (connector_mults,) * len(tags)
    if not isinstance(connector_mults, (tuple, list)) or len(connector_mults) != len(tags):
        raise ValueError("one connector multiplicity per fiber")
    check_ints(shared_components=shared_components)
    for m in connector_mults:
        check_ints(connector_mult=m)
    reasons = []
    total = sum(fibers.catalog(t).m - 1 for t in tags)
    if total != 8:
        reasons.append(f"extremality deficit: sum(m-1) = {total} != 8")
    if shared_components != 8:
        reasons.append(f"extremality deficit: {shared_components} shared components != 8")
    for t, m in zip(tags, connector_mults):
        if m not in (1, 2):
            reasons.append(f"connector multiplicity {m} on {t}: m*(C.F2) = 2 forces m in {{1, 2}}")
        if fibers.catalog(t).kind == fibers.MULTIPLICATIVE and fibers.catalog(t).m > 2:
            reasons.append(f"{t}: multiplicative with more than two components")
    return (not reasons, reasons)


# ---------------------------------------------------------------------------
# shared-eight-components overlay search


def _diagram(tag):
    """(ids, mult, gram) of a fiber type: the component ids in catalog
    order, and the multiplicities and the component Gram matrix, both
    indexed by catalog position."""
    ent = fibers.catalog(tag)
    return [c for c, _ in ent.model.components], [m for _, m in ent.model.components], ent.model.component_gram()


# a fiber diagram minus one connector c: `nodes` are the other components
# (catalog positions) in sorted id order, and node i of the remainder is
# nodes[i]; `block` is the Gram matrix of nodes + [c], `order` a
# parent-first (BFS) order of the nodes, `adj` their neighbour lists and
# `parent[i]` the neighbour of node i before it in `order` (None at a root)
_Remainder = namedtuple("_Remainder", "nodes block order connected adj parent")


@cache  # facts about one fiber type
def _model(tag):
    """(ids, mult, gram, rests, kappa) of a fiber type: _diagram(tag), the
    _Remainder of each connector, by catalog position, and the kappa with
    adj(gram) = kappa * mult * mult^T."""
    ids, mult, gram = _diagram(tag)
    assert all(sum(map(mul, row, mult)) == 0 for row in gram), f"fiber condition violated in {tag}"
    # gram has corank 1 and kernel mult, so the cofactor of entry (c, c) is kappa * mult[c]^2
    kappas = {divmod(exact_det([r[:c] + r[c + 1:] for r in gram[:c] + gram[c + 1:]]), m * m) for c, m in enumerate(mult)}
    kappa = min(kappas)[0]
    assert kappas == {(kappa, 0)} and kappa, f"diagonal cofactors of {tag} are not kappa * m^2 for one kappa != 0"
    n = len(ids) - 1
    rests = []
    for c in range(len(ids)):
        nodes = sorted((i for i in range(len(ids)) if i != c), key=ids.__getitem__)
        cols = nodes + [c]
        block = tuple(tuple(gram[a][b] for b in cols) for a in cols)
        adj = tuple(tuple(b for b in range(n) if block[a][b] > 0) for a in range(n))
        order, parent = [], [None] * n
        for root in range(n):
            if root not in order:
                order.append(root)
                for a in order:  # visits the nodes appended below too
                    for b in adj[a]:
                        if b not in order:
                            order.append(b)
                            parent[b] = a
        roots = parent.count(None)
        # _forest_isos needs a forest.  Once F.C = 0 and kappa hold this
        # cannot fail: a connected affine ADE diagram minus one node is a
        # finite ADE diagram, which is a forest
        edges = [block[a][b] for a in range(n) for b in range(a)]
        assert set(edges) <= {0, 1} and sum(edges) == n - roots, f"{tag} minus {ids[c]} is not a forest"
        rests.append(_Remainder(nodes, block, order, roots == 1, adj, tuple(parent)))
    return ids, mult, gram, rests, kappa


def _forest_isos(s, r):
    """The isomorphisms of the forest _Remainder r onto s, sorted, each a
    tuple whose entry i is the image of node i: none when the sorted
    degrees differ.  The nodes of r are assigned in its parent-first order,
    each to an unused node of s of equal degree next to its parent's image.
    Such a bijection keeps every parent edge, which is every edge of the
    forest r, and s has as many edges, so it is an isomorphism."""
    deg = [len(a) for a in s.adj]
    if sorted(deg) != sorted(map(len, r.adj)):
        return ()
    image, out = [None] * len(deg), []

    def rec(k):
        if k == len(deg):
            out.append(tuple(image))
            return
        i = r.order[k]
        p = r.parent[i]
        for j in range(len(deg)) if p is None else s.adj[image[p]]:
            if deg[j] == len(r.adj[i]) and j not in image:
                image[i] = j
                rec(k + 1)
        image[i] = None

    rec(0)
    return tuple(sorted(out))


@cache  # facts about an ordered pair of fiber types: at most 4, as only I4* and II* have nine components
def _isomorphisms(t1, t2):
    """iso[c1][c2]: _forest_isos of the remainder of t2 at connector c2
    onto the remainder of t1 at connector c1, by catalog position."""
    rests1, rests2 = _model(t1)[3], _model(t2)[3]
    return tuple(tuple(_forest_isos(s, r) for r in rests2) for s in rests1)


def _mod2_rank(v1, v2):
    a = tuple(x % 2 for x in v1)
    b = tuple(x % 2 for x in v2)
    nz = [v for v in (a, b) if any(v)]
    if not nz:
        return 0
    if len(nz) == 2 and nz[0] != nz[1]:
        return 2
    return 1


OVERLAY_NORMALIZATION = "F.F' = 4, unimodular closure of <curves, F/2, F'/2>, connected shared configuration"


def shared_eight_search(t1: str, t2: str):
    """Exhaustive overlay search for two nine-component additive fibers
    sharing eight components (see the module docstring for the pinned
    normalization).  Returns satisfiability plus the first witness in a
    fixed search order, and a per-branch summary."""
    for t in (t1, t2):
        ent = fibers.catalog(t)
        if ent.kind != fibers.ADDITIVE or ent.m != 9:
            raise ValueError(f"{t}: need an additive fiber with nine components")
    ids1, mult1, _, model1, kappa1 = _model(t1)
    ids2, mult2, w2, model2, _ = _model(t2)
    iso_table = _isomorphisms(t1, t2)
    branches = []
    witness = None
    for c1, s in enumerate(model1):
        shared, block = s.nodes, s.block  # rows and columns 0..8 of the Gram matrix
        f1 = [mult1[n] for n in shared] + [mult1[c1], 0]  # 0 on C10, which lies outside F
        for c2, r in enumerate(model2):
            r2 = r.nodes
            isos = iso_table[c1][c2]
            branch = {"connector1": ids1[c1], "connector2": ids2[c2], "isomorphisms": len(isos), "hits": []}
            m2 = mult2[c2]
            for iso in isos:
                images = [n for _, n in sorted(zip(iso, r2))]  # diagram-2 node on each shared curve
                col9 = [w2[n][c2] for n in images]  # C10 against the shared curves
                f2 = [mult2[n] for n in images] + [0, m2]
                # F.F' = F.C10 * m(C10) is affine in u with slope m(C9) * m(C10) >= 1
                gf1_9 = sum(map(mul, col9, f1))
                u, rem = divmod(4 - gf1_9 * m2, f1[8] * m2)
                if rem or not 0 <= u <= 4:
                    continue
                gf1_9 += u * f1[8]
                product = gf1_9 * m2
                # half-fiber classes F/2, F'/2 must pair integrally (F.C10, F'.C9)
                if gf1_9 % 2 or (sum(map(mul, block[8], f2)) + u * m2) % 2:
                    continue
                # the Gram matrix borders block, whose adjugate is kappa1 * f1 * f1^T
                # (f1 cut to its nine entries), with C10: det = -2 * 0 - b . adj . b
                # for C10's column b = col9 + [u], and f1 . b = gf1_9
                det = -kappa1 * gf1_9 * gf1_9
                rank = _mod2_rank(f1, f2)
                closure = det // 4**rank
                if closure * 4**rank != det:
                    continue
                unimodular = abs(closure) == 1
                if not unimodular:
                    reason = f"closure discriminant {closure} != +-1"
                elif not s.connected:
                    reason = "shared configuration disconnected"
                else:
                    reason = None
                hit = {
                    "u": u,
                    "product": product,
                    "overlay_det": det,
                    "closure_disc": closure,
                    "unimodular": unimodular,
                    "shared_connected": s.connected,
                    "rejected": reason,
                }
                branch["hits"].append(hit)
                if reason is None and witness is None:
                    gram = [[*row, c] for row, c in zip(block, col9)]
                    gram.append([*block[8], u])
                    gram.append(col9 + [u, -2])
                    witness = {
                        "connector1": ids1[c1],
                        "connector1_mult": mult1[c1],
                        "connector2": ids2[c2],
                        "connector2_mult": m2,
                        "shared": [ids1[n] for n in shared],
                        "iso": {ids2[n]: ids1[shared[i]] for n, i in zip(r2, iso)},
                        "u": u,
                        "gram": gram,
                        "fiber1_mult": f1,
                        "fiber2_mult": f2,
                        "product": product,
                        "overlay_det": det,
                        "closure_disc": closure,
                    }
            if branch["isomorphisms"]:
                branches.append(branch)
    return {
        "t1": t1,
        "t2": t2,
        "normalization": OVERLAY_NORMALIZATION,
        "satisfiable": witness is not None,
        "witness": witness,
        "branches": branches,
    }
