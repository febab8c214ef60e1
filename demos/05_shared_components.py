"""Two nine-component fibers sharing eight curves.

When two genus-one pencils on the same surface have reducible simple
fibers F, F' sharing eight components, the types must be D~8 or E~8.
The overlay search enumerates connectors, gluing isomorphisms and the
one free intersection number u = C9.C10, then demands F.F' = 4, a
unimodular closure of <curves, F/2, F'/2>, and a connected shared
configuration.  The D~8 + D~8 case dies; the other two produce explicit
witnesses.
"""

from enrq import configs

for t1, t2 in [("I4*", "I4*"), ("I4*", "II*"), ("II*", "II*")]:
    res = configs.shared_eight_search(t1, t2)
    hits = [h for br in res["branches"] for h in br["hits"]]
    print(f"{t1} + {t2}: satisfiable = {res['satisfiable']} ({len(hits)} overlays meet F.F' = 4)")
    if res["witness"]:
        w = res["witness"]
        print(f"  witness: connector {w['connector1']} (mult {w['connector1_mult']}) vs "
              f"{w['connector2']} (mult {w['connector2_mult']}), C9.C10 = {w['u']}")
        print(f"  overlay determinant {w['overlay_det']}, closure discriminant {w['closure_disc']}")
        print("  intersection matrix rows:")
        names = w["shared"] + [f"C9={w['connector1']}", f"C10={w['connector2']}"]
        for name, row in zip(names, w["gram"]):
            print(f"    {name:>9}: {row}")
    else:
        reasons = {}
        for h in hits:
            reasons[h["rejected"]] = reasons.get(h["rejected"], 0) + 1
        for reason, count in sorted(reasons.items()):
            print(f"  rejected {count} overlays: {reason}")
    print()

print("normalization:", configs.OVERLAY_NORMALIZATION)
