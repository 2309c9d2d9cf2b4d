#!/usr/bin/env python3
"""Complexes, fundamental groups, universal covers, local coefficients.

The projective plane is small enough to watch every step: its edge-path
group completes to the order-two group, the double cover is a sphere, and
sign-twisted coefficients see the torsion that plain homology puts in
degree one.  Group-ring coefficients on the plane give the homology of
the cover, which is how eqhom computes on covers.
"""

import os

from eqhom.complexes import (LocalSystem, build_cover, check_chain_condition,
                             fundamental_group, homology, load_complex_file,
                             local_cohomology, local_homology, render_homology)
from eqhom.groups import augmentation_ideal_rep, regular_rep, todd_coxeter

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

rp2 = load_complex_file(os.path.join(FIX, "rp2.cplx"))
print("the 6-vertex projective plane has cells", rp2.counts())
print(render_homology(homology(rp2)))

print()
pres = fundamental_group(rp2)
print("edge-path presentation:", len(pres.generators), "generators,",
      len(pres.relators), "relators")
model = todd_coxeter(pres, 100)
print("coset enumeration gives a group of order", model.order)

cover = build_cover(rp2)
plain = cover.cover_complex()
reg = LocalSystem.from_rep(cover, regular_rep(model))
print()
print("universal cover cells:", plain.counts())
print("cover homology (a sphere), beside homology with group-ring coefficients:")
for k, (upstairs, downstairs) in enumerate(zip(homology(plain), local_homology(reg))):
    print(f"H{k}(cover) = {str(upstairs):<5}  H{k}(RP2; Zpi) = {downstairs}")
print("eqhom computes on covers the second way (Shapiro's lemma); the plain")
print("cover built above is a reference to compare against")
check_chain_condition(LocalSystem(rp2, 1, cover=cover))  # raises unless it holds
print("boundary over the group ring squares to zero:", True)
print("deck action free:", cover.deck_action_is_free())

print()
ideal = augmentation_ideal_rep(model)
system = LocalSystem.from_rep(cover, ideal)
print("homology with coefficients in the augmentation ideal (sign action):")
print(render_homology(local_homology(system)))
print("and its cohomology:")
print(render_homology(local_cohomology(system), prefix="H^"))
