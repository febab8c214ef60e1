"""Elliptic-curve automorphisms and their fixed points, two ways.

The automorphism group of an elliptic curve depends only on the
characteristic and the j-class.  Fixed-point counts come from norm
arithmetic in the endomorphism order (N(1 - g)) for tame orders, a
small separable-degree rule table otherwise -- and everything is
cross-checked by brute-force point enumeration on explicit Weierstrass
curves over extension fields.
"""

from enrq import ecaut

print("automorphism groups:")
for char, j in [(0, "generic"), (0, "1728"), (0, "0"), (3, "generic"), (3, "special"), (2, "generic"), (2, "special")]:
    cls = ecaut.CurveClass(char, j)
    order, structure = ecaut.aut_group(cls)
    label = "p>3" if char == 0 else f"p={char}"
    print(f"  {label:>4}, j {j:>7}: order {order:>2}, {structure}, element orders {ecaut.element_orders(cls)}")
print()

print("fixed-point counts, norm engine vs point-counting oracle:")
print(f"  {'char':>4} {'j':>8} {'ord':>3} {'expected':>8} {'norm':>5} {'oracle':>6}")
for row in ecaut.classification_report():
    print(f"  {row['char']:>4} {row['j']:>8} {row['order']:>3} {row['expected']:>8} "
          f"{row['norm_engine']:>5} {row['point_oracle']:>6}   {'ok' if row['match'] else 'MISMATCH'}")
print()

print("one computation in slow motion: order 3 on the supersingular curve")
print("  y^2 + y = x^3 over F2, map (x, y) -> (w x, y) with w^2 + w + 1 = 0")
curve = ecaut.Weierstrass(2, a3=1)
aut = ecaut.AutMap(u=(1, 1), sym_poly=(1, 1, 1))  # u = w^2 = 1 + w, so u^2 x = w x
for k in (2, 4, 6):
    print(f"  fixed points over F_(2^{k}):", ecaut.brute_force_count(curve, aut, k))
print("  norm engine: N(1 - w) =", ecaut.fixed_count(ecaut.CurveClass(2, "special"), 3))
