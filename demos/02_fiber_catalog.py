"""Kodaira fiber types as incidence models.

Each singular fiber of a genus-one fibration is a configuration of
rational components; the catalog rebuilds every type from its incidence
data and re-derives the classical Euler numbers from

    e = 2 * #components - sum over points (branches - 1),

then checks numerical 2-connectedness (min D1.D2 >= 2 over all
decompositions F = D1 + D2) exhaustively.
"""

from enrq import fibers

print(f"{'tag':>5} {'Dynkin':>6} {'m':>3} {'e':>3} {'kind':>15}  multiplicities")
for tag in fibers.standard_tags(4):
    ent = fibers.catalog(tag)
    mults = sorted(m for _, m in ent.model.components)
    print(f"{tag:>5} {ent.dynkin:>6} {ent.m:>3} {ent.euler_tame:>3} {ent.kind:>15}  {mults}")

print()
big = fibers.catalog("II*")
print("the largest case, II* (E~8): multiplicity vector", sorted(m for _, m in big.model.components))
total = 1
for _, m in big.model.components:
    total *= m + 1
print("  decompositions to scan: prod(mult_i + 1) - 2 =", total - 2)
print("  min D1.D2 =", fibers.two_connected_min(big.model))

print()
print("2-connectedness across the reducible catalog:")
for tag in fibers.standard_tags(9):
    model = fibers.catalog(tag).model
    if model.reducible():
        print(f"  {tag:>5}: {fibers.two_connected_min(model)}")
