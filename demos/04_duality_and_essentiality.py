#!/usr/bin/env python3
"""Duality pairings and the essentiality certificate for projective 3-space.

The story in one sitting: orient the manifold, check that capping with the
fundamental class is an isomorphism in every degree and coefficient
module, build the degree-one obstruction cocycle beta (an edge's value is
its deck translation minus one), cup it to the top degree, and pair with
the fundamental class.  The pairing generates H_0(M; I^3) = Z/2, so the
manifold is essential; yet the same top power dies under the
forget-equivariance map to the cover, because H^3 of the 3-sphere is
torsion free.  Both facts are exact computations.
"""

import os

from eqhom.complexes import LocalSystem, build_cover, load_complex_file
from eqhom.duality import (Cochain, bs_class_report, bs_power, cap,
                           cohomology_pair, cup, essentiality_pairing, orient,
                           pd_check, pert_finite)
from eqhom.groups import augmentation_ideal_rep, tensor_power
from eqhom.group_homology import bar_homology

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

rp3 = load_complex_file(os.path.join(FIX, "rp3.cplx"))
manifold = orient(rp3)
print("oriented projective 3-space:", len(manifold.orientation),
      "signed tetrahedra; the signed sum is a cycle")

cover = build_cover(rp3)
ideal = augmentation_ideal_rep(cover.model)

print()
print("duality: cap with [M] in every degree and coefficient power")
for power in range(4):
    system = (LocalSystem(rp3, 1) if power == 0 else
              LocalSystem.from_rep(cover, tensor_power(ideal, power)))
    report = pd_check(manifold, system)
    label = "Z" if power == 0 else f"I^{power}"
    print(f"  coefficients {label:>4}: "
          f"{'PASS' if report.ok else 'FAIL'}  "
          + "  ".join(f"H^{e.degree}={e.cohomology}" for e in report.entries))

print()
print("the obstruction class and its cup powers:")
for k in (1, 2, 3):
    print(" ", bs_class_report(cover, k).render())

print()
pairing = essentiality_pairing(manifold, cover)
print("essentiality pairing:", pairing.render())
print("cross-check, H_3 of the order-two group:", bar_homology(cover.model, 3))

print()
image = pert_finite(bs_power(cover, 3), cover)
print("the same power, pushed to the cover:", image.render())
gen = cohomology_pair(LocalSystem(rp3, 1), 3)
top = Cochain(LocalSystem(rp3, 1), 3, gen.generator_cycle(0))
print("while the integral top class transfers with degree two:",
      pert_finite(top, cover).render())
