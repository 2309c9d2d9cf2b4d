"""Workloads of the eqhom benchmark: generated inputs, job lists, answers.

Every job is one ``eqhom`` command line.  Its expected stdout is built
here from sources that do not run eqhom: the shipped golden files, known
facts about the spaces and groups involved, and, for ``min-bound``, a
networkx max flow on a Cayley ball that this module builds itself.
"""

import random
import re
from dataclasses import dataclass
from itertools import combinations, permutations
from pathlib import Path

WORKLOADS = ("simplicial", "twisted", "group-homology", "cayley-flow")


@dataclass(frozen=True)
class Job:
    """One CLI call; ``expect`` is the exact stdout, or a regex when
    ``pattern`` is set (for output that a correct program may vary)."""

    name: str
    args: tuple
    expect: str
    pattern: bool = False

    def check(self, code, stdout):
        """None when the job answered correctly, else a one-line reason."""
        if code != 0:
            return f"exit code {code}"
        text = stdout.decode("utf-8", "replace")
        ok = (re.fullmatch(self.expect, text) if self.pattern
              else text == self.expect)
        if not ok:
            return "unexpected stdout: " + " | ".join(text.splitlines())[:300]
        return None


# ---------------------------------------------------------------------------
# abelian groups as printed by eqhom: "0", "Z^2", "Z/2", "Z^1 + Z/2"

def _parse_group(text):
    free, torsion = 0, []
    if text != "0":
        for part in text.split(" + "):
            if part.startswith("Z^"):
                free = int(part[2:])
            else:
                torsion.append(int(part[2:]))
    return free, torsion


def _render_group(free, torsion):
    parts = ([f"Z^{free}"] if free else []) + [f"Z/{d}" for d in torsion]
    return " + ".join(parts) or "0"


def _read_golden(root, name):
    """Integral homology groups from fixtures/<name>.golden, as strings."""
    lines = (root / "fixtures" / f"{name}.golden").read_text().splitlines()
    return [line.split(" = ", 1)[1] for line in lines if line.strip()]


def _universal_coefficients(homology):
    """H^k(X; Z) = free part of H_k + torsion of H_{k-1}."""
    groups = [_parse_group(h) for h in homology]
    return [_render_group(groups[k][0], groups[k - 1][1] if k else [])
            for k in range(len(groups))]


def _homology_text(groups, prefix="H"):
    return "".join(f"{prefix}{k} = {g}\n" for k, g in enumerate(groups))


def _pd_text(cohomology, homology):
    n = len(cohomology) - 1
    lines = [f"k={k}: H^{k} = {cohomology[k]} ~ H_{n - k} = {homology[n - k]} [iso]"
             for k in range(n + 1)]
    return "\n".join(lines + ["PD CHECK: PASS"]) + "\n"


# ---------------------------------------------------------------------------
# generated inputs

def lens_space_facets(p):
    """Facets of a simplicial L(p, 1), built without eqhom.

    The join of two 2p-gons is a 3-sphere; its barycentric subdivision
    makes the diagonal rotation by two steps act freely and regularly, so
    the orbits of flags form a simplicial quotient.  Vertices of the
    quotient are numbered by the sorted order of their orbit keys.
    """
    m = 2 * p

    def rotate(v):
        return (v + 2) % m if v < m else m + (v - m + 2) % m

    def orbit_key(face):
        keys = []
        for _ in range(p):
            keys.append(tuple(sorted(face)))
            face = [rotate(v) for v in face]
        return min(keys)

    facets = set()
    for i in range(m):
        for j in range(m):
            tet = (i, (i + 1) % m, m + j, m + (j + 1) % m)
            for flag in permutations(tet):
                facets.add(frozenset(orbit_key(flag[:k + 1]) for k in range(4)))
    label = {key: n for n, key in enumerate(sorted(set().union(*facets)))}
    return [tuple(sorted(label[key] for key in f)) for f in facets]


def face_counts(facets):
    faces = set()
    for f in facets:
        for k in range(1, len(f) + 1):
            faces.update(combinations(sorted(f), k))
    dim = max(len(f) for f in faces) - 1
    return [sum(1 for f in faces if len(f) == k + 1) for k in range(dim + 1)]


def relabel(facets, seed):
    """Relabel vertices by a permutation drawn from seed; 0 is the identity."""
    labels = sorted({v for f in facets for v in f})
    image = list(labels)
    if seed:
        random.Random(seed).shuffle(image)
    perm = dict(zip(labels, image))
    return sorted(tuple(sorted(perm[v] for v in f)) for f in facets)


# Q8 = <a, b | a^4, a^2 b^2, abab^-1>, as in the group-homology tests.
Q8_PRESENTATION = "gens: a b\nrels: aaaa aabb abab'\n"


# ---------------------------------------------------------------------------
# the L^1 ball in Z^2 and its Ponzi flow network, checked with networkx

def z2_min_bound(radius):
    """(ball size, inner size, t_min, max flow at t_min - 1) by networkx.

    Same network as eqhom's Ponzi probe: the outer shell is the source
    side, every inner vertex must absorb one unit, and each ball edge
    carries at most t in either direction.
    """
    import networkx as nx
    from networkx.algorithms.flow import preflow_push

    ball = [(x, y) for x in range(-radius, radius + 1)
            for y in range(-radius, radius + 1) if abs(x) + abs(y) <= radius]
    members = set(ball)
    inner = [v for v in ball if abs(v[0]) + abs(v[1]) < radius]
    shell = [v for v in ball if abs(v[0]) + abs(v[1]) == radius]
    edges = [(v, w) for v in ball for w in ((v[0] + 1, v[1]), (v[0], v[1] + 1))
             if w in members]

    def flow_value(t):
        g = nx.DiGraph()
        for v in shell:
            g.add_edge("s", v, capacity=len(inner))
        for v, w in edges:
            g.add_edge(v, w, capacity=t)
            g.add_edge(w, v, capacity=t)
        for v in inner:
            g.add_edge(v, "t", capacity=1)
        return nx.maximum_flow_value(g, "s", "t", flow_func=preflow_push)

    t = 1
    below = None
    while (value := flow_value(t)) < len(inner):
        below = value
        t += 1
    return len(ball), len(inner), t, below


# ---------------------------------------------------------------------------
# job lists

def make_jobs(workload, root, work, seed):
    """Write the workload's generated inputs into work; return its jobs."""
    fx = root / "fixtures"
    if workload == "simplicial":
        facets = lens_space_facets(3)
        counts = face_counts(facets)
        if counts != [56, 344, 576, 288]:
            raise AssertionError(f"lens space generator broke: {counts}")
        lens = work / "lens3.cplx"
        lens.write_text("".join("f " + " ".join(map(str, f)) + "\n"
                                for f in relabel(facets, seed)))
        s3 = ["Z^1", "0", "0", "Z^1"]
        # pi_1(L(3,1)) = Z/3 and the universal cover is S^3, triangulated
        # with three lifts of every base cell.
        cover = ("pi1 order = 3\n"
                 + "".join(f"dim {k}: {3 * c} cells\n" for k, c in enumerate(counts))
                 + _homology_text(s3))
        t3, rp3 = _read_golden(root, "t3"), _read_golden(root, "rp3")
        return [
            Job("cover-lens3", ("cover", str(lens)), cover),
            Job("homology-t3", ("homology", str(fx / "t3.cplx")), _homology_text(t3)),
            Job("homology-rp3", ("homology", str(fx / "rp3.cplx")), _homology_text(rp3)),
            Job("cohomology-rp3", ("cohomology", str(fx / "rp3.cplx")),
                _homology_text(_universal_coefficients(rp3), prefix="H^")),
        ]
    if workload == "twisted":
        rp3_cplx = str(fx / "rp3.cplx")
        rp3 = _read_golden(root, "rp3")
        s3 = ["Z^1", "0", "0", "Z^1"]
        # pi_1(RP^3) = Z/2.  Z[pi] coefficients give the (co)homology of the
        # cover S^3; I is the sign module for Z/2, so I^2 is trivial and
        # I^3 is the sign module again.  H^3(RP^3; I^3) = H_0(RP^3; I^3) =
        # Z/2, where beta^3 is the nonzero class (RP^3 is essential), and
        # beta pulls back to zero on the simply connected cover.
        return [
            Job("pd-check-regular", ("pd-check", rp3_cplx, "--coeff", str(fx / "regular.rep")),
                _pd_text(s3, s3)),
            Job("pd-check-i2", ("pd-check", rp3_cplx, "--coeff", str(fx / "i2.rep")),
                _pd_text(_universal_coefficients(rp3), rp3)),
            Job("essential-rp3", ("essential", rp3_cplx),
                "pi1 order = 2\n(beta^3) cap [M] class = (1) in Z/2 [nonzero]\nESSENTIAL\n"),
            Job("bs-class-rp3", ("bs-class", rp3_cplx, "--power", "3"),
                "beta^3 class = (1) in Z/2 [nonzero]\n"),
            Job("pert-rp3", ("pert", rp3_cplx, "--power", "3"),
                "pert(beta^3):\npert class = (0) in Z^1 [zero]\n"),
        ]
    if workload == "group-homology":
        q8 = work / "q8.pres"
        q8.write_text(Q8_PRESENTATION)
        # H_3(Q8) = Z/8, H_4(Z/2 x Z/2) = (Z/2)^2, H_3(S_3) = Z/6.
        return [
            Job("q8-n3-both", ("group-homology", str(q8), "--n", "3", "--method", "both"),
                "bar   = Z/8\nshift = Z/8\nAGREE\n"),
            Job("z2z2-n4", ("group-homology", str(fx / "z2z2.pres"), "--n", "4"),
                "bar   = Z/2 + Z/2\nshift = Z/2 + Z/2\nAGREE\n"),
            Job("shift-chain-s3", ("shift-chain", str(fx / "s3.pres"), "--n", "3"),
                "H_3(pi; Z) = Z/6\nH_2(pi; I) = Z/6\nH_1(pi; I^2) = Z/6\nEQUAL\n"),
        ]
    if workload == "cayley-flow":
        radius = 8
        size, inner = 2 * 3 ** radius - 1, 2 * 3 ** (radius - 1) - 1  # F_2 is a 4-regular tree
        ball, z2_inner, t_min, cut = z2_min_bound(25)
        gromov = (root / "tests" / "golden" / "gromov_rank5_r4.kv").read_text()
        return [
            # Which edges carry flow depends on the max-flow algorithm; every
            # inner vertex needs at least one of them.
            Job("ponzi-f2-r8", ("ponzi", "f2", "--radius", str(radius), "--bound", "1"),
                re.escape(f"group = F_2\nradius = {radius}  bound = 1\n"
                          f"ball = {size}  inner = {inner}\nFEASIBLE\ncertificate: ")
                + r"[1-9][0-9]*"
                + re.escape(" edges carry flow, max |flow| <= 1, every inner "
                            "vertex nets +1 (verified)\n"),
                pattern=True),
            Job("min-bound-z2-r25", ("min-bound", "z2", "--radius", "25"),
                f"group = Z^2\nradius = 25\nball = {ball}  inner = {z2_inner}\n"
                f"t_min = {t_min}\ncertificate at t_min verified = True\n"
                f"cut at t_min - 1: capacity {cut} < demand {z2_inner}\n"),
            Job("gromov-rank5-r4", ("gromov-report", "--rank", "5", "--radius", "4",
                                    "--format", "kv"), gromov),
        ]
    raise ValueError(f"unknown workload {workload!r}")
