"""Machine-readable classification constants for the groups of numerically
and cohomologically trivial automorphisms of the exceptional Enriques
surfaces in characteristic 2, with arithmetic consistency checks.

The constants live in data/tables.json so their provenance can be audited
line by line; this module only parses them and checks them against the
structural facts: the quotient Aut_nt / Aut_ct is 2-elementary, every
supersingular Aut_ct lies in the admissible list {1, Z/2, Z/3, Z/5, Z/7,
Z/11, Q8}, classical Aut_nt is 2-elementary of rank at most 2, and away
from characteristic 2 the group is cyclic of order at most 4.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources

from . import _quoted, configs, ecaut

# structure: (order, element orders)
GROUPS = {
    "1": (1, (1,)),
    "Z/2": (2, (1, 2)),
    "Z/3": (3, (1, 3)),
    "Z/4": (4, (1, 2, 4)),
    "Z/5": (5, (1, 5)),
    "Z/7": (7, (1, 7)),
    "Z/11": (11, (1, 11)),
    "Q8": (8, (1, 2, 4)),
    "Z/2xZ/2": (4, (1, 2)),
}


@dataclass(frozen=True)
class GroupTag:
    structure: str

    def __post_init__(self):
        if not isinstance(self.structure, str) or self.structure not in GROUPS:
            raise ValueError(f"unknown group tag {_quoted(self.structure)}")

    @property
    def order(self):
        return GROUPS[self.structure][0]


@dataclass(frozen=True)
class SurfaceRow:
    kind: str  # classical | supersingular
    type_tag: str
    aut_ct: tuple  # disjunction of GroupTag alternatives
    aut_nt: tuple  # paired by position with aut_ct


@cache
def _load():
    """The parsed data/tables.json, read once per process (do not mutate)."""
    with resources.files("enrq.data").joinpath("tables.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def table_rows():
    """The shipped classification rows, exactly as printed (disjunctions
    kept as alternatives)."""
    data = _load()
    rows = []
    for r in data["surface_rows"]:
        ct = tuple(GroupTag(s) for s in r["aut_ct"])
        nt = tuple(GroupTag(s) for s in r["aut_nt"])
        if len(ct) != len(nt):
            raise ValueError("ct/nt alternatives must pair up")
        rows.append(SurfaceRow(r["kind"], r["type"], ct, nt))
    return rows


def _power_of_two(n):
    return n > 0 and (n & (n - 1)) == 0


def consistency_check():
    """Structural checks on the shipped rows; returns report entries
    (label, ok, detail) and passes on the shipped data."""
    data = _load()
    rows = table_rows()
    out = []
    for row in rows:
        for ct, nt in zip(row.aut_ct, row.aut_nt):
            q, rem = divmod(nt.order, ct.order)
            ok = rem == 0 and _power_of_two(q) and q <= 4
            out.append(
                (
                    f"{row.kind} {row.type_tag}: |nt|/|ct| = {nt.order}/{ct.order}",
                    ok,
                    f"quotient {q} is a 2-power of order <= 4" if ok else f"quotient {q} violates 2-elementary bound",
                )
            )
        if row.kind == "supersingular":
            allowed = set(data["supersingular_ct_candidates"])
            for ct in row.aut_ct:
                out.append(
                    (
                        f"supersingular {row.type_tag}: ct {ct.structure} admissible",
                        ct.structure in allowed,
                        f"candidates {sorted(allowed)}",
                    )
                )
            for ct, nt in zip(row.aut_ct, row.aut_nt):
                out.append(
                    (
                        f"supersingular {row.type_tag}: nt = ct",
                        ct.structure == nt.structure,
                        "K_S = 0 forces Aut_nt = Aut_ct",
                    )
                )
        if row.kind == "classical":
            for nt in row.aut_nt:
                # 2-elementary: every element has order 1 or 2; its rank is log2 of the order
                ok = set(GROUPS[nt.structure][1]) <= {1, 2} and nt.order.bit_length() - 1 <= 2
                out.append(
                    (
                        f"classical {row.type_tag}: nt {nt.structure} 2-elementary of rank <= 2",
                        ok,
                        "",
                    )
                )
    cn2 = data["char_not_2"]
    out.append(
        (
            "char != 2 bound: cyclic of order <= 4",
            bool(cn2["nt_cyclic"]) and cn2["max_nt_order"] <= 4 and cn2["max_ct_order"] <= 2,
            cn2["aut_nt_shape"],
        )
    )
    # cross-module: element orders of supersingular groups against the
    # char-2 supersingular fixed-point machinery
    realizable = set(ecaut.element_orders(ecaut.CurveClass(2, ecaut.SPECIAL)))
    beyond = set(data["odd_order_beyond_fixed_point_tables"])
    for row in rows:
        if row.kind != "supersingular":
            continue
        for ct in row.aut_ct:
            if ct.structure in beyond:
                out.append(
                    (
                        f"supersingular {row.type_tag}: ct {ct.structure}",
                        True,
                        "classification-sourced; order not derivable from the fixed-point tables",
                    )
                )
            else:
                orders = set(GROUPS[ct.structure][1])
                ok = orders <= realizable
                detail = f"element orders {sorted(orders)} within realizable {sorted(realizable)}"
                if 3 in orders:
                    ok = ok and bool(configs.odd_order_smooth_case(3))
                    detail += "; order-3 smooth-fiber configurations exist"
                out.append((f"supersingular {row.type_tag}: ct {ct.structure} element orders", ok, detail))
    return out


def figures_unavailable():
    return [(f["name"], f["flag"]) for f in _load()["figures_unavailable"]]
