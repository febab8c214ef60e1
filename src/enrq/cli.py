"""Batch driver: every verification suite as a subcommand, deterministic
reports in markdown, CSV or JSON, from one `RunConfig` (the only
defaults, checked once and fixed; `main` passes it the flags given).

Exit status is 0 when every assertion in the selected suite passes, 1 on
an assertion failure (a partial report is still written), 2 on usage
errors, an unwritable --out among them.  Report bodies contain no
timestamps; when writing to a file, a sidecar <out>.meta.json records the
invocation, the time and each suite's wall time in seconds ("suite_s").
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from collections import namedtuple
from functools import cache
from itertools import chain, islice

from . import BOUND_CAP, _check_tag, _Checked, check_ints
from .report import Report


class OutputError(OSError):
    """The report or its sidecar could not be written."""


# below 4 the sequence search does not finish (every ordering of a dead prefix
# is explored again); its cost grows with the bound, and 6 already finds the
# sequence that BOUND_CAP finds
BOUND_MIN = 4
FORMATS = ("markdown", "csv", "json")
LEFSCHETZ_ORDERS = (2, 3, 5, 7)  # the lefschetz suite's orders when none is given


class RunConfig(_Checked, namedtuple("RunConfig", "suite fmt out bound ext_degree order",
                                     defaults=("all", "markdown", None, 6, 0, 0))):
    """One run's settings, checked when built (ValueError on a bad one) and
    fixed from then on: bound, ext_degree and order are ints.  ext_degree 0
    means `ecaut.EXT_DEGREE`, order 0 the LEFSCHETZ_ORDERS."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_tag(self.suite, SUITES, "suite")
        _check_tag(self.fmt, FORMATS, "format")
        check_ints(bound=self.bound, ext_degree=self.ext_degree, order=self.order)
        if not BOUND_MIN <= self.bound <= BOUND_CAP:
            raise ValueError(f"bound {self.bound}: use {BOUND_MIN} to {BOUND_CAP} "
                             f"(the sequence search does not finish below {BOUND_MIN})")
        if self.order and self.order < 2:
            raise ValueError(f"order {self.order}: use 0 (orders {', '.join(map(str, LEFSCHETZ_ORDERS))}) "
                             "or an order >= 2")
        if self.ext_degree:
            from . import ecaut

            if self.ext_degree not in ecaut.TABLE_EXT_DEGREES:
                raise ValueError(f"ext degree {self.ext_degree}: use 0 (degree {ecaut.EXT_DEGREE}) "
                                 f"or one of {ecaut.TABLE_EXT_DEGREES}")
        return self


def _selfcheck_samples(lattice):
    """The 1000 samples (i, x, y) of the randomized reflection rows, from
    the fixed seed: root i of `_selfcheck_draw(lattice.GRAM)[0]` is a uniform
    simple root of E8(-1) moved by 0 to 3 uniform simple reflections, x and
    y have coordinates uniform in [-5, 5].  The draw is made once per
    process; each call yields the same samples afresh."""
    from struct import iter_unpack

    _, picks, coords = _selfcheck_draw(lattice.GRAM)
    vectors = chain.from_iterable(iter_unpack("10b", chunk) for chunk in coords)
    return zip(picks, vectors, vectors)


@cache
def _selfcheck_draw(gram):
    """(roots, picks, coords) behind `_selfcheck_samples`, a fact about
    the seed and the Gram matrix alone: the distinct roots in order of
    first draw, each sample's index into them (bytes), and the 20
    coordinates of each sample's x and y (signed bytes, 20 samples to a
    chunk).  The roots are walked with an exact step of their own, not
    with the maps under test: reflecting r in the simple root e_a moves
    coordinate a alone, by r.e_a = (G r)_a.  The floats inside choices
    only pick indices."""
    n, rank = 1000, len(gram)
    rng = random.Random(20260809)
    starts = rng.choices(range(2, rank), k=n)
    lengths = rng.choices(range(4), k=n)
    steps = iter(rng.choices(range(2, rank), k=sum(lengths)))
    # 20 samples per call: the same random() sequence as one call for all
    # 20,000 coordinates, without that call's 160 KB list; each 400-byte
    # chunk is a small object, so the cache leaves the malloc heap alone
    signed = bytes(c & 0xFF for c in range(-5, 6))
    coords = tuple(bytes(rng.choices(signed, k=20 * 20)) for _ in range(n // 20))
    rows = [[(j, g) for j, g in enumerate(row) if g] for row in gram]
    index, picks = {}, []
    for start, length in zip(starts, lengths):
        r = [0] * rank
        r[start] = 1
        for a in islice(steps, length):
            k = 0
            for j, g in rows[a]:
                k += g * r[j]
            r[a] += k
        picks.append(index.setdefault(tuple(r), len(index)))
    return tuple(index), bytes(picks), coords


def suite_lattice_selfcheck(s, cfg):
    from . import lattice

    det = lattice.exact_det(lattice.GRAM)
    s.add("Gram determinant", det in (1, -1), f"det = {det}")
    sig = lattice.signature(lattice.GRAM)
    s.add("signature by congruence reduction", sig == (1, 9, 0), f"inertia = {sig}")
    inner = lattice.inner
    ok_inv = ok_iso = True
    # one reflection per distinct sampled root: r.r = -2 is checked once per root
    reflections = [lattice.reflection(r) for r in _selfcheck_draw(lattice.GRAM)[0]]
    for i, x, y in _selfcheck_samples(lattice):
        refl = reflections[i]
        rx = refl(x)
        if refl(rx) != x:
            ok_inv = False
        if inner(rx, refl(y)) != inner(x, y):
            ok_iso = False
    s.add("reflections are involutions (1000 randomized)", ok_inv)
    s.add("reflections are isometries (1000 randomized)", ok_iso)
    found = lattice.search_sequences(10, cfg.bound, cap=1)
    s.add(f"isotropic 10-sequence within bound {cfg.bound}", bool(found),
          "; ".join(str(v) for v in found[0].vectors) if found else "none found")


def suite_fibers_euler(s, cfg):
    from . import fibers

    oracle = {f"I{n}": n for n in range(1, 10)}
    oracle.update({f"I{n}*": n + 6 for n in range(0, 10)})
    oracle.update({"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10})
    for tag in fibers.standard_tags():
        ent = fibers.catalog(tag)
        s.add(
            f"e({tag}) [{ent.dynkin}]",
            ent.euler_tame == oracle[tag],
            f"derived {ent.euler_tame}, table {oracle[tag]}, m = {ent.m}, {ent.kind}",
        )


def suite_fibers_2conn(s, cfg):
    from . import fibers

    for tag in fibers.standard_tags():
        ent = fibers.catalog(tag)
        if not ent.model.reducible():
            continue
        val = fibers.two_connected_min(ent.model)
        s.add(f"2-connectedness of {tag}", val >= 2, f"min D1.D2 = {val}")


def suite_lefschetz(s, cfg):
    from . import fibers

    orders = (cfg.order,) if cfg.order else LEFSCHETZ_ORDERS
    for order in orders:
        for tag in fibers.standard_tags():
            res = fibers.lefschetz_check(tag, order)
            if res["expected"] is None:
                ok, detail = None, f"irreducible singular fiber, e(F) = {res['euler']}"
            else:
                ok, detail = res["ok"], f"e(F) = {res['euler']}, {res['actions']} admissible actions"
            s.add(f"{tag} order {order}: fixed-locus values {res['values']}", ok, detail)


def suite_configs_enumerate(s, cfg):
    from . import configs, fibers

    pairs = configs.enumerate_pairs()
    s.add("numerically consistent additive pairs", len(pairs) == 7, f"{len(pairs)} pairs")
    res = configs.realizable_filter(pairs)
    s.add("realizable pairs", len(res["realizable"]) == 5,
          "; ".join(c.label() for c in res["realizable"]))
    s.add("rejected pairs", len(res["rejected"]) == 2,
          "; ".join(f"{c.label()} ({why})" for c, why in res["rejected"]))
    for c in pairs:
        msum = sum(fibers.catalog(t).m for t in c.tags())
        flag = "realizable" if c in res["realizable"] else "numerically consistent only"
        s.add(f"pair {c.label()}", c.euler_total() == configs.EULER_BUDGET
              and c.shioda_tate_sum() == configs.SHIODA_TATE_ROOM,
              f"m-sum {msum}, e-sum {c.euler_total()}, {flag}")
    odd3 = configs.odd_order_smooth_case(3)
    s.add("order-3 smooth-member configurations", len(odd3) == 3,
          "; ".join(c.label() for c in odd3))
    s.add("wild singletons: alternative reading", None,
          "the wild term 3 may instead be carried by three moved nodal fibers; both satisfy the Euler budget")
    s.add("order-5 smooth-member configurations", configs.odd_order_smooth_case(5) == [],
          "no odd order > 3 in the supersingular automorphism group")


def suite_configs_shared8(s, cfg):
    from . import configs

    expected = {("I4*", "I4*"): False, ("I4*", "II*"): True, ("II*", "II*"): True}
    for (t1, t2), want in expected.items():
        res = configs.shared_eight_search(t1, t2)
        hits = sum(len(br["hits"]) for br in res["branches"])
        detail = f"{hits} product-4 overlays"
        if res["witness"]:
            w = res["witness"]
            detail += (
                f"; witness: connectors {w['connector1']} (mult {w['connector1_mult']})"
                f" / {w['connector2']} (mult {w['connector2_mult']}), C9.C10 = {w['u']},"
                f" closure disc {w['closure_disc']}"
            )
        else:
            reasons = sorted({h["rejected"] for br in res["branches"] for h in br["hits"]})
            detail += f"; all rejected: {reasons}"
        s.add(f"{t1} + {t2} overlay", res["satisfiable"] == want, detail)
    s.add("normalization", None, configs.OVERLAY_NORMALIZATION)


def suite_ecaut_tables(s, cfg):
    from . import ecaut

    rows = ecaut.classification_report(cfg.ext_degree)
    for r in rows:
        s.add(
            f"char {r['char']}, j {r['j']}, {r['group']}, order {r['order']}",
            r["match"],
            f"expected {r['expected']}, norm engine {r['norm_engine']}, point oracle {r['point_oracle']}",
        )


def suite_delpezzo_verify(s, cfg):
    from . import delpezzo

    families = [(kind, family(), label) for kind, family, label, *_ in delpezzo.FAMILIES.values()]
    for kind, m, label in families:
        ok, cert = delpezzo.verify_preserves(m, kind)
        detail = ""
        if cert:
            detail = "certificate rows " + "; ".join(f"({c1}, {c2})" for c1, c2 in cert)
        s.add(f"{kind} {label} preserves the quadric pair", ok, detail)
    ok, _ = delpezzo.verify_preserves(delpezzo.aut_d2(), "D3")
    s.add("negative control: D2 family on D3 fails", not ok)
    for kind, m, label in families:
        for i, pencil in enumerate(delpezzo.pencils(kind), start=1):
            act = delpezzo.pencil_action(m, pencil)
            if act == delpezzo.NOT_PRESERVED:
                s.add(f"{kind} {label} on pencil {i}", False, "not preserved")
            else:
                (a1, b1), (a2, b2) = act
                s.add(f"{kind} {label} on pencil {i}", True, f"(a : b) -> ({a1}a + {b1}b : {a2}a + {b2}b)")
    tor = delpezzo.pencil_action(delpezzo.aut_d3_torus(), delpezzo.pencils("D3")[0])
    nontrivial = not delpezzo.action_equal(tor, delpezzo.IDENTITY_ACTION)
    s.add("D3 torus acts nontrivially on the pencil base for lam != 1", nontrivial,
          "action is (a : b) -> (lam^2 a : b), trivial exactly at lam = 1")
    comp = delpezzo.compose(delpezzo.aut_d1(delpezzo.LAM, delpezzo.MU), delpezzo.aut_d1(delpezzo.LAM2, delpezzo.MU2))
    rec = delpezzo.recover_params(comp, "D1")
    s.add("D1 torus multiplicativity", rec is not None and str(rec["lam"]) == "lam*lam2" and str(rec["mu"]) == "mu*mu2",
          f"recovered ({rec['lam']}, {rec['mu']})" if rec else "no family match")
    sq = delpezzo.compose(delpezzo.aut_d2(), delpezzo.aut_d2())
    s.add("D2 additive family is 2-torsion", delpezzo.proj_equal(sq, delpezzo.identity_map()))


def suite_tables_consistency(s, cfg):
    from . import tables

    for label, ok, detail in tables.consistency_check():
        s.add(label, ok, detail)
    for name, flag in tables.figures_unavailable():
        s.add(name, None, flag)


# each function fills the report suite that `run` names by its key
_SUITE_FUNCS = {
    "lattice-selfcheck": suite_lattice_selfcheck,
    "fibers-euler": suite_fibers_euler,
    "fibers-2conn": suite_fibers_2conn,
    "lefschetz": suite_lefschetz,
    "configs-enumerate": suite_configs_enumerate,
    "configs-shared8": suite_configs_shared8,
    "ecaut-tables": suite_ecaut_tables,
    "delpezzo-verify": suite_delpezzo_verify,
    "tables-consistency": suite_tables_consistency,
}
SUITES = (*_SUITE_FUNCS, "all")


def run(cfg: RunConfig):
    """Execute the configured suite(s); returns (exit_status, report)."""
    report = Report()
    names = list(_SUITE_FUNCS) if cfg.suite == "all" else [cfg.suite]
    suite_s = {}
    for name in names:
        start = time.perf_counter()
        _SUITE_FUNCS[name](report.new_suite(name), cfg)
        suite_s[name] = time.perf_counter() - start
    body = report.render(cfg.fmt)
    if cfg.out:
        meta = {"argv": {"suite": cfg.suite, "format": cfg.fmt, "bound": cfg.bound,
                         "ext_degree": cfg.ext_degree, "order": cfg.order},
                "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "suite_s": suite_s}
        path = cfg.out
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body)
            path = cfg.out + ".meta.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(meta, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            # a failed write or close leaves exc.filename unset, so name the path here
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(body)
    return (0 if report.passed() else 1), report


def main(argv=None):
    # a flag left out is left out of args, so RunConfig's default applies
    parser = argparse.ArgumentParser(prog="enrq", description="verification suites for the Enriques char-2 toolkit",
                                     argument_default=argparse.SUPPRESS)
    parser.add_argument("--suite", choices=SUITES)
    parser.add_argument("--format", dest="fmt", choices=FORMATS)
    parser.add_argument("--out", help="write the report body to this path")
    parser.add_argument("--bound", type=int, help="coordinate bound for the lattice search")
    parser.add_argument("--ext-degree", type=int,
                        help="override extension degree for point counting: 0 (the table rows' degree) or a "
                             "degree that serves every table row; a bad value is rejected with the list")
    parser.add_argument("--order", type=int, help="restrict the lefschetz suite to one order >= 2 "
                                                  f"(0: {','.join(map(str, LEFSCHETZ_ORDERS))})")
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
    except ValueError as exc:
        parser.error(str(exc))
    try:
        status, _ = run(cfg)
    except OutputError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
