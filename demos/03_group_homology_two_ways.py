#!/usr/bin/env python3
"""Group homology of finite groups, computed by two unrelated algorithms.

Route one: the normalized bar resolution, tensored down to coefficients.
Route two: H_n(pi) as the kernel of the map on coinvariants

    I^n (x)_pi Z  ->  (I^{n-1} (x) Zpi) (x)_pi Z

where I is the augmentation ideal and tensor powers carry the diagonal
action.  The target is free (a (x) h -> h^-1 a identifies it with
I^{n-1}), so route two is the homology of I^n -> I^{n-1},
a (x) (g - 1) -> g^-1 a - a, modulo the source coinvariant relations.
The two routes share no code beyond integer matrices and homology, so
their agreement on every group and degree is a strong correctness check.
"""

from eqhom.group_homology import (bar_homology, coinvariants,
                                  projective_vanishing_check,
                                  shift_chain_check, shift_homology)
from eqhom.groups import (GroupPresentation, augmentation_ideal_rep,
                          tensor_power, todd_coxeter)

groups = {
    "Z/2": GroupPresentation(("a",), ("aa",)),
    "Z/3": GroupPresentation(("a",), ("aaa",)),
    "Z/4": GroupPresentation(("a",), ("aaaa",)),
    "Z/2 x Z/2": GroupPresentation(("a", "b"), ("aa", "bb", "abab")),
    "S3": GroupPresentation(("a", "b"), ("aa", "bbb", "abab")),
}

print(f"{'group':>10} {'n':>2} {'bar':>15} {'shift':>15}")
for name, pres in groups.items():
    model = todd_coxeter(pres, 50)
    for n in (1, 2, 3):
        bar = bar_homology(model, n)
        shift = shift_homology(model, n)
        tick = "ok" if bar == shift else "MISMATCH"
        print(f"{name:>10} {n:>2} {str(bar):>15} {str(shift):>15}  {tick}")

print()
z2 = todd_coxeter(groups["Z/2"], 10)
print("the whole coefficient chain for H_3(Z/2):")
print(shift_chain_check(z2, 3).render())

print()
ideal = augmentation_ideal_rep(z2)
print("coinvariants of I, I^2, I^3 for Z/2 (sign flips on odd powers):")
for k in (1, 2, 3):
    print(f"  I^{k} (x)_pi Z =", coinvariants(tensor_power(ideal, k)))

print()
print("group-ring coefficients are invisible in positive degrees:")
print(projective_vanishing_check(z2, 2, 2).render())
