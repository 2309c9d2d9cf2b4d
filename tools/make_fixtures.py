#!/usr/bin/env python3
"""Regenerate the triangulation fixtures in fixtures/.

Run from the repository root:  python3 tools/make_fixtures.py

Constructions:
  * circle, boundary simplices of the 3- and 4-simplex: written literally.
  * t2: the 7-vertex torus, triangles {i, i+1, i+3} and {i, i+1, i+5} mod 7.
  * rp2: the 6-vertex antipodal quotient of the icosahedron.
  * rp3: antipodal quotient of the barycentrically subdivided 16-cell
    boundary.  The first subdivision already makes the quotient a
    simplicial complex: no simplex shares a vertex orbit twice, and a
    flag's orbit is determined by its vertex orbits.
  * t3: staircase simplicial product S1 x S1 x S1 on 3-vertex circles.
  * q8space: S^3 / Q8, the one nonabelian fundamental group here.  The
    join of two 4-gons a_t = (i^t, 0), b_t = (0, i^t) is the unit
    quaternions z + wj, and Q8 acts by left multiplication: i sends
    a_t -> a_{t+1}, b_t -> b_{t+1}, and j sends a_t -> b_{-t},
    b_t -> a_{2-t} (indices mod 4).  The quotient by vertex orbits is
    taken on the second barycentric subdivision; on the first it merges
    facets and leaves a ridge in three facets.

Each .cplx gets a sibling .golden file with its homology, and the script
asserts the expected values before writing anything.
"""

import os
import sys
from itertools import combinations

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from eqhom.complexes import (SimplicialComplex, barycentric_subdivision,
                             build_cover, cycle_complex, homology,
                             quotient_by_free_cyclic_action, render_homology,
                             simplicial_product)

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def write_fixture(name, cx, comment, orient=False, expect=None):
    hom = homology(cx)
    if expect is not None:
        got = [str(h) for h in hom]
        assert got == expect, f"{name}: homology {got} != expected {expect}"
    lines = [f"# {comment}"]
    counts = ", ".join(str(c) for c in cx.counts())
    lines.append(f"# cells per dimension: {counts}")
    if orient:
        lines.append("orient: auto")
    for f in cx.facets:
        lines.append("f " + " ".join(map(str, f)))
    path = os.path.join(FIXDIR, name + ".cplx")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(FIXDIR, name + ".golden"), "w", encoding="utf-8") as fh:
        fh.write(render_homology(hom) + "\n")
    print(f"wrote {name}: cells {cx.counts()}, H = {[str(h) for h in hom]}")


def q8space():
    """S^3 / Q8 from the join of two 4-gons, as in the module docstring."""
    a, b = (lambda t: t % 4), (lambda t: 4 + t % 4)
    cx = SimplicialComplex([(a(t), a(t + 1), b(s), b(s + 1))
                            for t in range(4) for s in range(4)])
    gens = [{**{a(t): a(t + 1) for t in range(4)}, **{b(t): b(t + 1) for t in range(4)}},
            {**{a(t): b(-t) for t in range(4)}, **{b(t): a(2 - t) for t in range(4)}}]
    for _ in range(2):
        cx, simplex_of = barycentric_subdivision(cx)
        label = {s: i for i, s in enumerate(simplex_of)}
        gens = [{i: label[tuple(sorted(g[v] for v in s))] for i, s in enumerate(simplex_of)}
                for g in gens]
    # each orbit is keyed by its least vertex id, which no hash seed moves
    key = {}
    for v in cx.vertex_ids:
        orbit, frontier = {v}, [v]
        while frontier:
            frontier = [g[w] for w in frontier for g in gens if g[w] not in orbit]
            orbit.update(frontier)
        assert len(orbit) == 8, f"vertex {v} has orbit size {len(orbit)}"
        key[v] = min(orbit)
    new = {r: i for i, r in enumerate(sorted(set(key.values())))}
    facets = {tuple(sorted(new[key[v]] for v in f)) for f in cx.simplices(cx.dim)}
    assert all(len(set(f)) == len(f) for f in facets), "a facet meets its own orbit"
    assert 8 * len(facets) == len(cx.simplices(cx.dim)), "facet orbits merged"
    return SimplicialComplex(sorted(facets))


def main():
    os.makedirs(FIXDIR, exist_ok=True)

    circle = cycle_complex(3)
    write_fixture("circle", circle, "triangle circle", expect=["Z^1", "Z^1"])

    s2 = SimplicialComplex(list(combinations(range(4), 3)))
    write_fixture("s2", s2, "boundary of the 3-simplex (a 2-sphere)",
                  orient=True, expect=["Z^1", "0", "Z^1"])

    s3 = SimplicialComplex(list(combinations(range(5), 4)))
    write_fixture("s3", s3, "boundary of the 4-simplex (a 3-sphere)",
                  orient=True, expect=["Z^1", "0", "0", "Z^1"])

    t2 = SimplicialComplex(
        [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
        + [tuple(sorted((i, (i + 1) % 7, (i + 5) % 7))) for i in range(7)])
    write_fixture("t2", t2, "7-vertex torus (14 triangles)",
                  orient=True, expect=["Z^1", "Z^2", "Z^1"])

    rp2 = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5),
                             (0, 4, 5), (1, 2, 5), (1, 3, 4), (1, 4, 5),
                             (2, 3, 4), (2, 3, 5)])
    write_fixture("rp2", rp2, "6-vertex real projective plane",
                  orient=True, expect=["Z^1", "Z/2", "0"])

    # 16-cell boundary: vertices 0..3 are +e_i, 4..7 are -e_i.
    cross = SimplicialComplex(
        [tuple(sorted(i + 4 * s for i, s in zip(range(4), signs)))
         for signs in __import__("itertools").product((0, 1), repeat=4)])
    assert [str(h) for h in homology(cross)] == ["Z^1", "0", "0", "Z^1"]
    sub, simplex_of = barycentric_subdivision(cross)
    label = {s: i for i, s in enumerate(simplex_of)}
    vmap = {i: label[tuple(sorted((v + 4) % 8 for v in s))]
            for i, s in enumerate(simplex_of)}
    rp3 = quotient_by_free_cyclic_action(sub, vmap, 2)
    write_fixture("rp3", rp3,
                  "projective 3-space: antipodal quotient of the subdivided "
                  "16-cell boundary",
                  orient=True, expect=["Z^1", "Z/2", "0", "Z^1"])

    t3 = simplicial_product(simplicial_product(cycle_complex(3),
                                               cycle_complex(3)),
                            cycle_complex(3))
    write_fixture("t3", t3, "3-torus: staircase product of three circles",
                  orient=True, expect=["Z^1", "Z^3", "Z^3", "Z^1"])

    q8 = q8space()
    model = build_cover(q8).model
    assert model.order == 8 and any(model.mul(x, y) != model.mul(y, x)
                                    for x in model.elements() for y in model.elements())
    write_fixture("q8space", q8, "S^3 / Q8: quaternion group quotient of the "
                  "twice subdivided join of two 4-gons",
                  orient=True, expect=["Z^1", "Z/2 + Z/2", "0", "Z^1"])


if __name__ == "__main__":
    main()
