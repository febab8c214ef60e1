"""The Enriques lattice U + E8(-1): exact form, reflections, isotropic
sequences.

The numerical lattice of an Enriques surface is the even unimodular
lattice of signature (1, 9).  We fix the basis (e, f, v1..v8) and verify
its headline invariants, then hunt for isotropic sequences
(f_1, ..., f_n) with f_i . f_j = 1 - delta_ij, the numerical shadow of
sequences of half-fibers.
"""

from enrq import lattice

print("Gram matrix (e, f, v1..v8):")
for row in lattice.GRAM:
    print("   ", row)
print("determinant:", lattice.exact_det(lattice.GRAM))
print("inertia (exact congruence reduction):", lattice.signature(lattice.GRAM))
print()

r = lattice.BASIS[2]  # v1, a root
x = (3, -1, 2, 0, 1, 0, 0, 4, 0, -2)
print("a root r = v1 and a test vector x:", r, x)
print("reflect(r, r) = -r:", lattice.reflect(r, r) == tuple(-c for c in r))
print("reflect twice returns x:", lattice.reflect(r, lattice.reflect(r, x)) == x)
print()

print("searching isotropic sequences with pairwise product 1 ...")
for n in (1, 2, 3):
    seqs = lattice.search_sequences(n, bound=1, cap=5)
    print(f"  length {n}, bound 1: first hits {[[list(v) for v in s.vectors] for s in seqs[:2]]}")

print()
print("a full length-10 sequence within coordinate bound 6:")
seq = lattice.search_sequences(10, 6, cap=1)[0]
for v in seq.vectors:
    print("   ", v)
print("validates:", lattice.validate_sequence(seq.vectors))
