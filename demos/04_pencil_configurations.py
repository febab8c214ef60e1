"""Singular-fiber configurations of one genus-one pencil.

An automorphism of odd order fixing two members of a pencil forces the
Euler budget e(S) = 12 = e(F1^g) + e(F2^g).  With both fixed fibers
singular this pins additive pairs with m1 + m2 = 10 and Euler sum 12;
intersecting with the types realizable on extremal rational fibrations
leaves five pairs.  With one fixed member smooth (supersingular), only
order 3 survives and the partner fiber needs fixed-locus Euler number 9.

Last, the necessary conditions for the bielliptic involution of a pair of
pencils to be numerically trivial, read off the catalog: the fibers that
carry the eight shared components fill the Shioda-Tate room,
sum(m - 1) = 8; the one non-shared component C of each has multiplicity
m with m (C.F2) = 2, so m is 1 or 2; and no multiplicative fiber has more
than two components.
"""

from enrq import configs, fibers

pairs = configs.enumerate_pairs()
print(f"numerically consistent additive pairs ({len(pairs)}):")
for c in pairs:
    msum = sum(fibers.catalog(t).m for t in c.tags())
    print(f"  {c.label():<16} m-sum {msum}, Euler sum {c.euler_total()}")
print()

res = configs.realizable_filter(pairs)
print("realizable on an extremal rational fibration:")
for c in res["realizable"]:
    print("  ", c.label())
print("rejected (numerically consistent only):")
for c, why in res["rejected"]:
    print(f"   {c.label()}: {why}")
print()

print("odd order with a smooth fixed member:")
for c in configs.odd_order_smooth_case(3):
    wilds = [wild for _, wild in c.entries]
    print(f"  {c.label():<22} Shioda-Tate sum {c.shioda_tate_sum()}, wild terms {wilds}")
print("order 5:", configs.odd_order_smooth_case(5), "(no odd order > 3 on a supersingular curve)")
print()

print("necessary conditions for a numerically trivial bielliptic involution:")
for tags, shared, mult in [(("I0*", "I0*"), 8, 2), (("I9",), 8, 1), (("I0*", "I0*"), 7, 2)]:
    entries = [fibers.catalog(t) for t in tags]
    reasons = []
    if sum(e.m - 1 for e in entries) != configs.SHIODA_TATE_ROOM:
        reasons.append("extremality deficit: sum(m-1) != 8")
    if shared != 8:
        reasons.append(f"extremality deficit: {shared} shared components != 8")
    if mult not in (1, 2):
        reasons.append(f"connector multiplicity {mult}: m*(C.F2) = 2 forces m in {{1, 2}}")
    reasons += [f"{e.tag}: multiplicative with more than two components"
                for e in entries if e.kind == fibers.MULTIPLICATIVE and e.m > 2]
    print(f"  {tags} shared={shared} connector mult={mult}: {reasons or 'pass'}")
