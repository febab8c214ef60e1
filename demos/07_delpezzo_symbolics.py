"""Quartic del Pezzo surfaces of bielliptic maps, verified symbolically.

The images of bielliptic maps in characteristic 2 are intersections of
two quadrics in P^4: D1 (classical), D2 (ordinary), D3 (supersingular).
All computation is exact polynomial algebra over F2, with formal
inverses for the torus parameters.  We verify the printed automorphism
families preserve their surfaces, compose them, and compute the induced
actions on the two pencils of conics.
"""

from enrq import delpezzo as dp

for kind in ("D1", "D2", "D3"):
    quad = dp.surface(kind)
    print(f"{kind}: g1 = {quad.g1}")
    print(f"{' ' * len(kind)}  g2 = {quad.g2}")
print()

families = [(kind, family(), label) for kind, family, label, *_ in dp.FAMILIES.values()]
for kind, m, label in families:
    ok, cert = dp.verify_preserves(m, kind)
    rows = "; ".join(f"({c1}, {c2})" for c1, c2 in (tuple(map(str, r)) for r in cert))
    print(f"{kind} {label}: preserves the surface = {ok}, certificate {rows}")
ok, _ = dp.verify_preserves(dp.aut_d2(), "D3")
print("negative control, D2 family against D3:", ok)
print()

print("induced actions on the pencils of conics, as (a : b) maps:")
for kind, m, label in families:
    for i, pencil in enumerate(dp.pencils(kind), start=1):
        act = dp.pencil_action(m, pencil)
        mat = [[str(e) for e in row] for row in act]
        print(f"  {kind} {label}, pencil {i}: (a : b) -> "
              f"(({mat[0][0]})a + ({mat[0][1]})b : ({mat[1][0]})a + ({mat[1][1]})b)")
print("  (the D3 torus is trivial on the base exactly at lam = 1)")
print()

print("group laws, symbolically:")
comp = dp.compose(dp.aut_d1(dp.LAM, dp.MU), dp.aut_d1(dp.LAM2, dp.MU2))
rec = dp.recover_params(comp, "D1")
print("  D1 torus . torus -> lam =", rec["lam"], ", mu =", rec["mu"])
comp2 = dp.compose(dp.aut_d2(dp.ALPHA, dp.BETA), dp.aut_d2(dp.ALPHA2, dp.BETA2))
rec2 = dp.recover_params(comp2, "D2")
print("  D2 additive . additive -> alpha =", rec2["alpha"], ", beta =", rec2["beta"])
print("  D2 generator squared = identity:", dp.proj_equal(dp.compose(dp.aut_d2(), dp.aut_d2()), dp.identity_map()))
