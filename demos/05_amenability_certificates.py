#!/usr/bin/env python3
"""Flow certificates on Cayley balls: the non-amenability probe.

A bound-t certificate gives every vertex of the inner ball net inflow +1
with every edge carrying at most t units.  On a free-group ball a
designation scheme on the tree does this with t = 1 at every radius; on
an abelian ball the demand grows like the area while the supply through
the boundary grows like the perimeter, so the least feasible bound climbs
and small cuts certify each failure.
"""

from eqhom.coarse import (CayleyBall, free_group_ponzi,
                          gromov_counterexample_report, isoperimetric_ratio,
                          min_ponzi_bound)
from eqhom.groups import FreeAbelianGroup, FreeGroup

f2 = FreeGroup(2)
zz = FreeAbelianGroup(2)

print("free group of rank two: the tree scheme at several radii")
for r in (1, 2, 4, 6):
    ball = CayleyBall(f2, r)
    cert = free_group_ponzi(ball)
    print(f"  R={r}: ball {len(ball):>5}, inner {ball.inner_count:>4}, "
          f"t = 1 certificate verified: {cert.verify()}")

print()
print("the plane Z^2: least feasible bound per radius, with obstructing cuts")
for r in range(1, 7):
    ball = CayleyBall(zz, r)
    res = min_ponzi_bound(ball)
    inner, crossing, ratio = isoperimetric_ratio(ball)
    cut = ("" if res.cut_below is None else
           f"  (cut of capacity {res.cut_below.capacity} < {inner})")
    print(f"  R={r}: inner {inner:>3}, boundary flux {crossing:>3}, "
          f"ratio {str(ratio):>6}, t_min = {res.t_min}{cut}")

print()
print("Folner-style ratios diverge for Z^2 and stay below one for F_2:")
for r in (2, 4, 6):
    _, _, rz = isoperimetric_ratio(CayleyBall(zz, r))
    _, _, rf = isoperimetric_ratio(CayleyBall(f2, r))
    print(f"  R={r}: Z^2 ratio {str(rz):>6} ~ {float(rz):.2f},   "
          f"F_2 ratio {str(rf):>9} ~ {float(rf):.2f}")

print()
print("the combined mechanism report (rank 5, radius 4):")
print()
print(gromov_counterexample_report(5, 4).render())
