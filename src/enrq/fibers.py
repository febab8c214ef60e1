"""Genus-one fiber types: incidence models, Euler numbers, 2-connectedness,
and tame automorphism actions with their fixed-locus Euler characteristics.

Fiber types are named by Kodaira symbols ("I1", "I5", "II", "III", "IV",
"I0*", "IV*", "III*", "II*"); each `catalog` entry also carries the affine
Dynkin name (A~0*, A~4, D~4, E~8, ...).  A fiber is modeled by its
rational components with multiplicities plus its singular points, each
point carrying the incident branches per component and a local
intersection multiplicity (2 for the tangency of type III).  `catalog`
is the one parser: the table `_FIXED` gives the Dynkin label and model
of I1, II, III, IV, IV*, III* and II*, and one full-match pattern reads
I_n (n >= 1) and I_n* (n >= 0) up to n = CATALOG_CAP, written without
leading zeros.  Apart
from I1, II, III and IV, every type meets only in transversal points,
so `_transversal` builds it from its components and paths of component
ids.  `FiberModel.component_gram` is the one intersection matrix.

The Euler characteristic of such a configuration is

    e = 2 * (#components) - sum over points p of (branches(p) - 1),

since every component normalizes to P1 (e = 2) and gluing b branches at
a point drops the count by b - 1.  This reproduces the classical values
e(I_n) = n, e(II) = 2, ..., e(II*) = 10 from the incidence data alone.

A tame automorphism of finite order that fixes every component acts on
each component either as the identity or with exactly two fixed points
("slots").  Enumerating the admissible combinations mechanizes the
fixed-point bookkeeping for fibers: e(F^g) always equals e(F) for
reducible fibers, except for the two-component cycle I2 where swapping
the two nodes (possible only for even order) gives e(F^g) = 4.

The value splits per component: for a given permutation of the singular
points,

    e(F^g) = #fixed points + sum over components c of w_c,

with w_c = 2 - deg(c) for an identity component (deg(c) its branches at
singular points) and w_c = free slots for a tame one.  So
`lefschetz_check` aggregates per point permutation, counting the actions
as a product and the values as a Minkowski sum of per-component sets.
A component's count and set depend only on its shape (the branch counts
at its fixed points, whether all its points are fixed, the allowed cycle
lengths), so each shape is tallied once, from the options of the one
enumerator `_component_options`.  Each permutation's value is checked
against the Lefschetz number
L(g) = 2 * #components - sum over fixed points p of (branches(p) - 1).
`admissible_actions` and `fixed_euler` materialize the actions one by
one and are the oracle for the aggregate.

The order enters each of these three calls once: `FiberModel.layout`
(the point groups, incidence lists and room, the longest cycle the model
can hold; built on first use and kept on the model) is read, and the
order is reduced to the allowed cycle lengths, its divisors d >= 2 up to
the room.  The cached helpers are keyed by those lengths, never by the
order, so orders such as 101 and 1,000,003 share every entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import permutations, product
from math import gcd
from types import MappingProxyType

from . import _check_pairs, _check_type, _quoted, check_ints, lattice

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"


@dataclass(frozen=True)
class Point:
    id: str
    branches: tuple  # ((component_id, count), ...)
    local_mult: int = 1

    def total_branches(self):
        return sum(c for _, c in self.branches)

    def signature(self):
        return (tuple(sorted(self.branches)), self.local_mult)


@dataclass(frozen=True)
class FiberModel:
    """Components with multiplicities plus singular-point incidences."""

    components: tuple  # ((id, multiplicity), ...)
    points: tuple  # (Point, ...)

    def __post_init__(self):
        ids = [c for c, _ in _check_pairs(self.components, "components", int)]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate component id")
        if any(m < 1 for _, m in self.components):
            raise ValueError("multiplicities must be positive")
        idset = set(ids)
        for p in _check_type(self.points, tuple, "points"):
            _check_pairs(_check_type(p, Point, "a point").branches, "branches", int)
            _check_type(p.id, str, "a point id")
            check_ints(local_mult=p.local_mult)
            if p.local_mult < 1 or any(cid not in idset or cnt < 1 for cid, cnt in p.branches):
                raise ValueError(f"bad incidence data at point {p.id}")
        if self.reducible():
            mults = [m for _, m in self.components]
            for (ci, _), row in zip(self.components, self.component_gram()):
                if sum(g * m for g, m in zip(row, mults)) != 0:
                    raise ValueError(f"fiber condition F.C = 0 fails on component {ci}")

    def reducible(self):
        return len(self.components) > 1

    def component_gram(self):
        """Component intersection matrix: C_i^2 = -2 on the diagonal, and
        C_i.C_j (i != j) sums local_mult * b_i * b_j over shared points."""
        pos = {c: i for i, (c, _) in enumerate(self.components)}
        gram = [[-2 if i == j else 0 for j in pos.values()] for i in pos.values()]
        for p in self.points:
            for (c1, b1), (c2, b2) in permutations(p.branches, 2):
                if c1 != c2:
                    gram[pos[c1]][pos[c2]] += p.local_mult * b1 * b2
        return gram

    @cached_property  # on the instance, so no lookup hashes the model
    def layout(self):
        """(groups, incidence, room): the point ids grouped by signature,
        each group sorted; for each component, in model order, its
        incidence list ((point id, branches of the component there), ...)
        with the points in model order; and the longest cycle the model has
        room for, its largest group or the most branches one component has
        at one point."""
        groups, counts = {}, {cid: {} for cid, _ in self.components}
        for p in self.points:
            groups.setdefault(p.signature(), []).append(p.id)
            for cid, cnt in p.branches:
                counts[cid][p.id] = counts[cid].get(p.id, 0) + cnt
        groups = _shared(tuple(_shared(tuple(sorted(ids))) for ids in groups.values()))
        incidence = tuple(tuple(map(_shared, pts.items())) for pts in counts.values())
        room = max([*map(len, groups), *(b for inc in incidence for _, b in inc)], default=0)
        return groups, incidence, room


def euler(model: FiberModel) -> int:
    """Euler characteristic from the incidence model (see module docstring)."""
    return 2 * len(model.components) - sum(p.total_branches() - 1 for p in model.points)


# ---------------------------------------------------------------------------
# catalog


_SHARED = {}


def _shared(value):
    """The first value equal to `value` that was passed here, so that equal
    ids and tuples in the catalog models and the per-model caches are
    stored once, whichever model they belong to."""
    return _SHARED.setdefault(value, value)


def _transversal(components, paths):
    """The model whose singular points are transversal crossings: along
    each path (a, b, c, ...) of component ids, a meets b, b meets c, ...,
    and the i-th crossing is the point p<i>."""
    edges = [e for path in paths for e in zip(path, path[1:])]
    points = (Point(_shared(f"p{i}"), (_shared((a, 1)), _shared((b, 1)))) for i, (a, b) in enumerate(edges))
    return FiberModel(tuple(map(_shared, components)), tuple(points))


# Dynkin label and model of each type outside the I_n (n >= 2) and I_n* families
_FIXED = {
    "I1": ("A~0*", FiberModel((("c0", 1),), (Point("node", (("c0", 2),)),))),
    "II": ("A~0**", FiberModel((("c0", 1),), (Point("cusp", (("c0", 1),)),))),
    "III": ("A~1*", FiberModel((("c0", 1), ("c1", 1)), (Point("tac", (("c0", 1), ("c1", 1)), local_mult=2),))),
    "IV": ("A~2*", FiberModel((("c0", 1), ("c1", 1), ("c2", 1)), (Point("triple", (("c0", 1), ("c1", 1), ("c2", 1))),))),
    "IV*": ("E~6", _transversal(
        (("z", 3), ("m0", 2), ("o0", 1), ("m1", 2), ("o1", 1), ("m2", 2), ("o2", 1)),
        (("z", "m0", "o0"), ("z", "m1", "o1"), ("z", "m2", "o2")))),
    "III*": ("E~7", _transversal(
        (("o0", 1), ("m0", 2), ("n0", 3), ("c", 4), ("n1", 3), ("m1", 2), ("o1", 1), ("b", 2)),
        (("o0", "m0", "n0", "c", "n1", "m1", "o1"), ("c", "b")))),
    "II*": ("E~8", _transversal(
        (("a0", 1), ("a1", 2), ("a2", 3), ("a3", 4), ("a4", 5), ("c", 6), ("d", 4), ("e", 2), ("b", 3)),
        (("a0", "a1", "a2", "a3", "a4", "c", "d", "e"), ("c", "b")))),
}

# I_n (group 2 empty) and I_n* (group 2 "*"): n >= 1 resp. n >= 0, no leading zero
_FAMILY = re.compile(r"I([1-9][0-9]*|0(?=\*))(\*?)")
# the largest n of an I_n or I_n* tag that `catalog` builds: the build
# time grows with n^2, about 0.1 s at the cap, and each entry stays cached
CATALOG_CAP = 1000


@dataclass(frozen=True)
class CatalogEntry:
    tag: str
    dynkin: str  # affine Dynkin label
    model: FiberModel
    m: int  # number of components
    euler_tame: int
    kind: str  # multiplicative | additive


def catalog(tag: str) -> CatalogEntry:
    """Canonical incidence model and invariants for a singular fiber type:
    one of `_FIXED`, an I_n cycle or an I_n* chain with two tails per end."""
    return _entry(_check_type(tag, str, "fiber tag"))


@cache  # entries are frozen, so one instance per tag can be shared
def _entry(tag):
    family = _FAMILY.fullmatch(tag)
    n = None
    if family:  # no leading zeros, so more digits than the cap's is above it; int() rejects over 4,300
        n = int(family[1]) if len(family[1]) <= len(str(CATALOG_CAP)) else CATALOG_CAP + 1
    if tag in _FIXED:
        dynkin, model = _FIXED[tag]
    elif n is None:
        raise ValueError(f"unknown fiber tag {_quoted(tag)}")
    elif n > CATALOG_CAP:
        raise ValueError(f"fiber tag {_quoted(tag)}: n is above CATALOG_CAP = {CATALOG_CAP}")
    elif family[2]:
        chain = [f"z{i}" for i in range(n + 1)]
        comps = [(c, 2) for c in chain] + [(f"t{i}", 1) for i in range(4)]
        ends = [("t0", "z0"), ("t1", "z0"), ("t2", chain[-1]), ("t3", chain[-1])]
        dynkin, model = f"D~{n + 4}", _transversal(comps, [chain, *ends])
    else:
        cycle = [f"c{i % n}" for i in range(n + 1)]
        dynkin, model = f"A~{n - 1}", _transversal([(c, 1) for c in cycle[:n]], [cycle])
    kind = MULTIPLICATIVE if family and not family[2] else ADDITIVE
    return CatalogEntry(tag, dynkin, model, len(model.components), euler(model), kind)


def standard_tags(max_n: int = 9):
    """All singular fiber tags with I_n / I_n* parameters up to max_n, an
    int from 0 to CATALOG_CAP."""
    check_ints(max_n=max_n)
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if max_n > CATALOG_CAP:
        raise ValueError(f"max_n {max_n} is above CATALOG_CAP = {CATALOG_CAP}")
    tags = [f"I{n}" for n in range(1, max_n + 1)]
    tags += ["II", "III", "IV"]
    tags += [f"I{n}*" for n in range(0, max_n + 1)]
    tags += ["IV*", "III*", "II*"]
    return tags


# ---------------------------------------------------------------------------
# two-connectedness


def two_connected_min(model: FiberModel) -> int:
    """Minimum of D1.D2 over decompositions F = D1 + D2 into nonzero
    effective subdivisors, certified from the component Gram inertia.

    FiberModel ensures C_i.C_j >= 0 (i != j) and F.C = 0, so by Zariski's
    lemma the form is negative semi-definite with one kernel dimension
    per connected part, and D1.D2 = D1.(F - D1) = -D1^2.  The form is
    even: if the kernel is Q.F and F is primitive (gcd of multiplicities
    1), every proper D1 has -D1^2 >= 2, attained by one component.
    Otherwise a connected part, or F/gcd, is a proper D1 with D1^2 = 0.
    """
    if not _check_type(model, FiberModel, "model").reducible():
        raise ValueError("2-connectedness split needs a reducible model")
    n_plus, _, n_zero = lattice.signature(model.component_gram())
    assert n_plus == 0, "F.C = 0 forces a negative semi-definite form"
    primitive = gcd(*(m for _, m in model.components)) == 1
    return 2 if n_zero == 1 and primitive else 0


# ---------------------------------------------------------------------------
# tame actions fixing the components


@dataclass(frozen=True)
class ComponentAction:
    """IDENTITY, or TAME with exactly two fixed slots on the component.

    For a tame action, `fixed_branches` lists (point_id, k) for each
    fixed singular point of which k incident branch slots are fixed, and
    `free_slots` counts fixed points at smooth anonymous positions;
    slots total exactly 2.  Branches not fixed at a fixed point are
    permuted in cycles of length > 1 (which forces even order when two
    branches at a node are swapped).
    """

    kind: str  # "identity" | "tame"
    fixed_branches: tuple = ()
    free_slots: int = 0

    def __post_init__(self):
        _check_type(self.kind, str, "kind")
        check_ints(free_slots=self.free_slots)
        pairs = _check_pairs(self.fixed_branches, "fixed_branches", int)
        # one form per action, so equal actions compare equal
        object.__setattr__(self, "fixed_branches", tuple(sorted((pid, k) for pid, k in pairs if k)))


@dataclass(frozen=True)
class FiberAction:
    """A tame automorphism germ on a fiber: no component is permuted.
    `admissible_actions` lists `components` in model order; `fixed_euler`
    reads it as a mapping, so any order is accepted."""

    order: int
    point_perm: tuple  # sorted ((point_id, image_id), ...)
    components: tuple  # ((component_id, ComponentAction), ...)

    def __post_init__(self):
        _check_order(self.order, 1)
        _check_pairs(self.point_perm, "point_perm", str)
        _check_pairs(self.components, "components", ComponentAction)


def _check_order(order, least):
    """One-line ValueError unless the order is an int (a bool is not) >= least."""
    check_ints(order=order)
    if order < least:
        raise ValueError(f"order must be >= {least}")


def _cycle_lengths(perm):
    seen = set()
    for start in perm:
        ln, x = 0, start
        while x not in seen:  # a start already seen adds no cycle
            seen.add(x)
            x, ln = perm[x], ln + 1
        if ln:
            yield ln


def _allowed_lengths(order, room):
    """The cycle lengths above 1 that an automorphism of this order allows
    where no cycle is longer than `room`: the divisors d >= 2 of the order
    up to room.  Orders such as 101 and 1,000,003 both give ()."""
    return tuple(d for d in range(2, room + 1) if order % d == 0)


def _can_split_into_cycles(count, lengths):
    """Can `count` slots be permuted with no fixed slot, in cycles whose
    lengths are among `lengths`?"""
    reachable = {0}
    for _ in range(count):
        reachable |= {r + d for r in reachable for d in lengths if r + d <= count}
    return count in reachable


@cache  # read-only values, so every caller can share them
def _group_perms(groups, lengths):
    """The incidence-preserving permutations of the singular points, as
    read-only mappings: a cycle stays inside one group of the layout and
    its length is 1 or in `lengths`.  Models with the same groups, and
    orders with the same allowed lengths, share one cached entry."""
    per_group = []
    for ids in groups:
        perms = (dict(zip(ids, img)) for img in permutations(ids))
        per_group.append([p for p in perms if all(ln == 1 or ln in lengths for ln in _cycle_lengths(p))])
    return tuple(MappingProxyType({k: v for p in combo for k, v in p.items()}) for combo in product(*per_group))


def _fixed_part(incidence, perm):
    """A component's fixed points ((point id, branches), ...) and whether all its points are."""
    fixed = tuple((pid, b) for pid, b in incidence if perm[pid] == pid)
    return fixed, len(fixed) == len(incidence)


def _component_options(fixed, all_fixed, lengths):
    """The admissible ComponentActions on one component with these fixed
    points ((point id, branches), ...) under the allowed cycle lengths: a
    tame one fixes k of the b slots at each fixed point and lets the other
    b - k cycle, the k summing to at most 2; the identity only when every
    point of the component is fixed (`all_fixed`)."""
    options = [ComponentAction("identity")] if all_fixed else []
    per_point = [[(pid, k) for k in range(b, -1, -1) if _can_split_into_cycles(b - k, lengths)] for pid, b in fixed]
    for combo in product(*per_point):
        k_total = sum(k for _, k in combo)
        if k_total <= 2:
            options.append(ComponentAction("tame", combo, 2 - k_total))
    return options


def admissible_actions(model: FiberModel, order: int):
    """All admissible tame actions of the given order on the fiber.

    The automorphism fixes every component; each component acts as the
    identity or with exactly two fixed slots; singular-point permutations
    preserve incidence, and any cycle (of points, or of branches at a
    fixed node) must have length dividing the order.
    """
    _check_order(order, 2)
    actions = []
    groups, incidence, room = _check_type(model, FiberModel, "model").layout
    lengths = _allowed_lengths(order, room)
    cids = [cid for cid, _ in model.components]
    for perm in _group_perms(groups, lengths):
        opts = [_component_options(*_fixed_part(inc, perm), lengths) for inc in incidence]
        perm_t = tuple(sorted(perm.items()))
        actions += (FiberAction(order, perm_t, tuple(zip(cids, combo))) for combo in product(*opts))
    return actions


def fixed_euler(model: FiberModel, action: FiberAction) -> int:
    """Euler characteristic of the fixed locus of an admissible action.

    euler() of the union of identity components (with their retained
    singular points) plus the isolated fixed points: fixed singular
    points off that subcurve, and the tame components' free slots.
    Raises ValueError unless the action is one that the generators of
    `admissible_actions` yield for its order: the point permutation from
    `_group_perms`, each component action from `_component_options`.
    """
    _check_type(action, FiberAction, "action")
    perm, order, comp = dict(action.point_perm), action.order, dict(action.components)
    groups, incidence, room = _check_type(model, FiberModel, "model").layout
    lengths = _allowed_lengths(order, room)
    cids = [cid for cid, _ in model.components]
    if (perm not in _group_perms(groups, lengths) or comp.keys() != set(cids)
            or any(comp[cid] not in _component_options(*_fixed_part(inc, perm), lengths)
                   for cid, inc in zip(cids, incidence))):
        raise ValueError(f"action of order {order} is not admissible on the model")
    id_comps = {c for c, ca in comp.items() if ca.kind == "identity"}
    e = 2 * len(id_comps) + sum(ca.free_slots for ca in comp.values() if ca.kind == "tame")
    for p in model.points:
        b_id = sum(cnt for c, cnt in p.branches if c in id_comps)
        if b_id:
            e -= b_id - 1
        elif perm[p.id] == p.id:
            e += 1
    return e


def _lefschetz_number(model, perm):
    """L(g) = 2 * #components - sum over fixed singular points p of
    (branches(p) - 1): every component is a fixed P1 of trace 2, and the
    points g moves drop out."""
    return 2 * len(model.components) - sum(p.total_branches() - 1 for p in model.points if perm[p.id] == p.id)


@cache
def _component_tally(fixed_branches, all_fixed, lengths):
    """(number, weight set) of the options `_component_options` gives a
    component whose fixed points carry `fixed_branches` (sorted branch
    counts), with every point fixed or not, under the allowed cycle
    lengths: a tame option weighs its free slots, the identity 2 - deg."""
    options = _component_options(tuple((str(i), b) for i, b in enumerate(fixed_branches)), all_fixed, lengths)
    deg = sum(fixed_branches)
    return len(options), frozenset(2 - deg if ca.kind == "identity" else ca.free_slots for ca in options)


def _perm_tallies(model: FiberModel, order: int):
    """For each point permutation that admits actions: (perm, number of
    admissible actions, their fixed-locus Euler numbers), from the
    per-component split of the module docstring, without building the
    actions.  A fixed point p adds 1 - (identity branches at p) to
    fixed_euler and a moved point adds nothing, hence the split.  Each
    component shape is tallied once, by `_component_tally`.
    """
    groups, incidence, room = model.layout
    lengths = _allowed_lengths(order, room)
    for perm in _group_perms(groups, lengths):
        count, values = 1, {sum(perm[p.id] == p.id for p in model.points)}
        for inc in incidence:
            fixed = sorted(b for pid, b in inc if perm[pid] == pid)
            n, weights = _component_tally(tuple(fixed), len(fixed) == len(inc), lengths)
            if not n:
                break
            count *= n
            values = {v + w for v in values for w in weights}
        else:
            yield perm, count, values


def lefschetz_check(tag: str, order: int):
    """Fixed-locus Euler numbers over all admissible actions of one order.

    For a reducible type other than I2 the value set must be {e(F)}; for
    I2 it is {2} at odd order and {2, 4} at even order.  A reducible type
    must also give, for each point permutation, the single value L(g) of
    the Lefschetz fixed-point formula.  Irreducible singular types (I1,
    II) are reported without a claim: at even order the I1 branch swap
    acts by -1 on the loop class, so L(g) does not count its fixed locus.
    """
    _check_order(order, 2)
    entry = catalog(tag)
    actions, values, trace_ok = 0, set(), True
    for perm, count, perm_values in _perm_tallies(entry.model, order):
        actions += count
        values |= perm_values
        trace_ok = trace_ok and perm_values == {_lefschetz_number(entry.model, perm)}
    values = sorted(values)
    if not entry.model.reducible():
        expected = None
    elif tag == "I2":
        expected = [2] if order % 2 else [2, 4]
    else:
        expected = [entry.euler_tame]
    return {
        "tag": tag,
        "dynkin": entry.dynkin,
        "order": order,
        "euler": entry.euler_tame,
        "values": values,
        "expected": expected,
        "ok": expected is None or (values == expected and trace_ok),
        "actions": actions,
    }
