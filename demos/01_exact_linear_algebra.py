#!/usr/bin/env python3
"""Exact integer linear algebra: the substrate for every computation here.

Everything runs over Python's unbounded integers; Smith normal forms come
with the unimodular transforms and their inverses, so kernels, cokernels,
and the homology groups of chain complexes are exact.
"""

from eqhom.intlinalg import (IntMatrix, PairHomology, chain_homology,
                             cokernel_invariants, invariant_factors,
                             kernel_basis, matmul, smith_normal_form)

print("Smith normal form of diag(2, 3):")
a = IntMatrix.from_rows([[2, 0], [0, 3]])
sf = smith_normal_form(a)
print("  invariant factors:", sf.invariant_factors)
print("  U.A.V == S:", matmul(matmul(sf.U, a), sf.V) == sf.S)
print("  so Z^2 / (2x, 3y) is", cokernel_invariants(a))

print()
print("A rank-deficient matrix [[4, 6], [6, 9]]:")
print("  factors:", invariant_factors(IntMatrix.from_rows([[4, 6], [6, 9]])))
print("  (gcd of entries is 1; all 2x2 minors vanish)")

print()
print("Kernel lattices are saturated:")
k = kernel_basis(IntMatrix.from_rows([[2, 4]]))
print("  kernel of (2 4) is spanned by", tuple(k.col(0)))

print()
print("Homology of a chain complex d_0, d_1, d_2 (a triangle-shaped circle):")
d1 = IntMatrix.from_rows([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
d2 = IntMatrix.zeros(3, 0)
h0, h1 = chain_homology([IntMatrix.zeros(0, 3), d1, d2])
print("  H_1 =", h1)
print("  H_0 =", h0)

print()
print("Classes come with Smith coordinates:")
pair = PairHomology(d1, d2)
cycle = [1, -1, 1]  # the loop around the triangle
print("  the loop's coordinates in H_1 =", pair.invariants, "are",
      pair.coordinates(cycle))
