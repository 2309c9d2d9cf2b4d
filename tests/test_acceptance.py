"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria with stated runtime limits assert them with a wall clock.
"""

import random
import time
from itertools import combinations

from eqhom.cli import run as cli_run
from eqhom.coarse import (CayleyBall, free_group_ponzi, isoperimetric_ratio,
                          max_flow, min_ponzi_bound)
from eqhom.complexes import LocalSystem, check_chain_condition
from eqhom.duality import (Cochain, bs_power, cap_chain, cup,
                           essentiality_pairing, orient, pd_check,
                           pert_finite)
from eqhom.complexes import chain_boundary_matrix
from eqhom.group_homology import (bar_homology, projective_vanishing_check,
                                  shift_homology)
from eqhom.groups import (FreeAbelianGroup, FreeGroup, GroupPresentation,
                          augmentation_ideal_rep, tensor_power, todd_coxeter)
from eqhom.intlinalg import (AbelianGroupInvariants, IntMatrix, matmul,
                             matvec, smith_normal_form)

from conftest import load_fixture, unit_cocycle
from determinant import determinant

Z2 = AbelianGroupInvariants(0, (2,))
ZERO = AbelianGroupInvariants(0)

GROUPS = {
    "Z/2": GroupPresentation(("a",), ("aa",)),
    "Z/3": GroupPresentation(("a",), ("aaa",)),
    "Z/4": GroupPresentation(("a",), ("aaaa",)),
    "Z/2xZ/2": GroupPresentation(("a", "b"), ("aa", "bb", "abab")),
    "S3": GroupPresentation(("a", "b"), ("aa", "bbb", "abab")),
}


def _report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_shift_formula_equivalence():
    start = time.monotonic()
    models = {name: todd_coxeter(p, 50) for name, p in GROUPS.items()}
    for name, model in models.items():
        for n in (1, 2, 3):
            bar = bar_homology(model, n)
            shift = shift_homology(model, n)
            assert bar == shift, (name, n, str(bar), str(shift))
    assert bar_homology(models["Z/2"], 3) == Z2
    assert bar_homology(models["Z/2"], 2) == ZERO
    assert bar_homology(models["Z/3"], 1) == AbelianGroupInvariants(0, (3,))
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    _report(1, "shift-formula equivalence, 5 groups x n<=3")


def test_criterion_2_shift_chain():
    model = todd_coxeter(GROUPS["Z/2"], 10)
    ideal = augmentation_ideal_rep(model)
    values = [bar_homology(model, 3),
              bar_homology(model, 2, ideal),
              bar_homology(model, 1, tensor_power(ideal, 2))]
    assert values == [Z2, Z2, Z2]
    _report(2, "H3(Z/2) = H2(Z/2;I) = H1(Z/2;I^2) = Z/2")


def test_criterion_3_projective_vanishing():
    for name in ("Z/2", "Z/3"):
        model = todd_coxeter(GROUPS[name], 10)
        for k in (1, 2):  # coefficients Zpi and I (x) Zpi
            report = projective_vanishing_check(model, k, 2)
            assert report.all_trivial, (name, k, report.render())
    _report(3, "H1, H2 with Zpi and I(x)Zpi coefficients vanish")


def test_criterion_4_poincare_duality(t2, s2cx, s3cx, t3, rp3, rp3_cover):
    for cx in (t2, s2cx, s3cx, t3):
        assert pd_check(orient(cx), LocalSystem(cx, 1)).ok
    ideal = augmentation_ideal_rep(rp3_cover.model)
    manifold = orient(rp3)
    assert pd_check(manifold, LocalSystem(rp3, 1)).ok
    for power in (1, 2, 3):
        system = LocalSystem.from_rep(rp3_cover, tensor_power(ideal, power))
        assert pd_check(manifold, system).ok
    _report(4, "cap with [M] is an isomorphism on all fixtures")


def test_criterion_5_essentiality_and_pert(rp3, rp3_cover):
    manifold = orient(rp3)
    pairing = essentiality_pairing(manifold, rp3_cover)
    assert pairing.group == Z2
    assert pairing.coordinates == (1,)
    image = pert_finite(bs_power(rp3_cover, 3), rp3_cover)
    assert image.group == AbelianGroupInvariants(1)  # H^3(S^3; Z) = Z
    assert image.coordinates == (0,)
    _report(5, "(beta^3) cap [RP3] generates Z/2 while pert(beta^3) = 0")


def test_criterion_6_product_identities(t2, s2cx, s3cx, t3, rp3, rp3_cover):
    rng = random.Random(2026)
    ideal = augmentation_ideal_rep(rp3_cover.model)
    fixtures = [LocalSystem(t2, 1), LocalSystem(s2cx, 1),
                LocalSystem(s3cx, 1), LocalSystem(t3, 1),
                LocalSystem(rp3, 1),
                LocalSystem.from_rep(rp3_cover, ideal),
                LocalSystem.from_rep(rp3_cover, tensor_power(ideal, 2))]

    def rand_cochain(system, k):
        return Cochain(system, k, [rng.randint(-3, 3) for _ in range(
            len(system.complex.simplices(k)) * system.rank)])

    for system in fixtures:
        cx = system.complex
        n = cx.dim
        for _ in range(100):
            k = rng.randint(0, n - 1)
            l = rng.randint(0, n - 1 - k)
            phi = rand_cochain(system, k)
            psi = rand_cochain(LocalSystem(cx, 1), l)
            lhs = cup(phi, psi).delta().vector
            a = cup(phi.delta(), psi).vector
            b = cup(phi, psi.delta()).vector
            s = (-1) ** k
            assert lhs == [x + s * y for x, y in zip(a, b)]
        for _ in range(100):
            m = rng.randint(1, n)
            k = rng.randint(0, m - 1)
            phi = rand_cochain(system, k)
            z = [rng.randint(-3, 3) for _ in cx.simplices(m)]
            lhs = matvec(chain_boundary_matrix(system, m - k),
                         cap_chain(phi, z, m))
            east = cap_chain(phi, matvec(cx.boundary_matrix(m), z), m - 1)
            west = cap_chain(phi.delta(), z, m)
            s = (-1) ** k
            assert lhs == [s * (x - y) for x, y in zip(east, west)]
        # cup with the unit 0-cocycle is the identity
        u = unit_cocycle(cx)
        for k in range(n + 1):
            phi = rand_cochain(system, k)
            assert cup(u, phi).vector == phi.vector
    _report(6, "Leibniz identities exact on 200 instances per fixture")


def test_criterion_7_block_weinberger_probe():
    start = time.monotonic()
    f2 = FreeGroup(2)
    for r in range(1, 7):
        ball = CayleyBall(f2, r)
        scheme = free_group_ponzi(ball)
        assert scheme.verify()
        res = min_ponzi_bound(ball)
        assert res.t_min == 1
        assert res.certificate.verify()
    zz = FreeAbelianGroup(2)
    previous = 0
    for r in range(1, 7):
        ball = CayleyBall(zz, r)
        res = min_ponzi_bound(ball)
        assert res.t_min >= previous
        previous = res.t_min
    ball6 = CayleyBall(zz, 6)
    inner, crossing, _ = isoperimetric_ratio(ball6)
    assert (inner, crossing) == (61, 44) and crossing < inner
    assert previous > 1  # t_min(Z^2, 6) exceeds 1
    z1 = FreeAbelianGroup(1)
    for r in range(2, 9):
        res = min_ponzi_bound(CayleyBall(z1, r))
        assert res.t_min >= -(-(2 * r - 1) // 2)
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"criterion 7 took {elapsed:.1f}s"
    _report(7, "flow probes: t_min(F2)=1, t_min(Z^2) grows, Z^1 linear")


def test_criterion_8_mechanism_report():
    code, text = cli_run(["gromov-report", "--rank", "5", "--radius", "4"])
    assert code == 0
    for header in ("[H_n(Z^n)]", "[F2 ponzi]", "[tensor argument]"):
        assert header in text
    assert "verified = True" in text
    assert "MECHANISM CERTIFIED AT RADIUS 4" in text
    code2, text2 = cli_run(["gromov-report", "--rank", "5", "--radius", "4",
                            "--factor", "z2", "--format", "kv"])
    assert code2 == 0
    assert "verdict = declined" in text2
    trace_line = [l for l in text2.splitlines()
                  if l.startswith("t_min_trace")][0]
    trace = [int(x) for x in trace_line.split("=")[1].split(",")]
    assert max(trace) > 1 and trace == sorted(trace)
    _report(8, "gromov-report certifies F2 and declines Z^2")


def test_criterion_9_infrastructure(rp2_cover, rp3_cover):
    start = time.monotonic()
    rng = random.Random(99)
    for _ in range(1000):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        a = IntMatrix(m, n, [[rng.randint(-9, 9) for _ in range(n)]
                             for _ in range(m)])
        sf = smith_normal_form(a)
        assert matmul(matmul(sf.U, a), sf.V) == sf.S
        assert abs(determinant(sf.U)) == 1
        assert abs(determinant(sf.V)) == 1
        nz = [d for d in sf.invariant_factors if d]
        assert all(y % x == 0 for x, y in zip(nz, nz[1:]))

    def brute_min_cut(n, arcs, s, t):
        best = None
        others = [v for v in range(n) if v not in (s, t)]
        for k in range(len(others) + 1):
            for sub in combinations(others, k):
                side = {s} | set(sub)
                cap = sum(c for (u, v, c) in arcs
                          if u in side and v not in side)
                best = cap if best is None else min(best, cap)
        return best

    for _ in range(500):
        n = rng.randint(2, 10)
        arcs = []
        for _ in range(rng.randint(1, 18)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.append((u, v, rng.randint(0, 7)))
        res = max_flow(n, arcs, 0, n - 1)
        assert res.value == brute_min_cut(n, arcs, 0, n - 1)

    for name in ("circle", "t2", "s2", "s3", "rp2", "rp3", "t3"):
        cx = load_fixture(f"{name}.cplx")
        for k in range(1, cx.dim + 1):
            assert matmul(cx.boundary_matrix(k),
                          cx.boundary_matrix(k + 1)).is_zero()
    for cover in (rp2_cover, rp3_cover):
        check_chain_condition(LocalSystem(cover.base, 1, cover=cover))
        cc = cover.cover_complex()
        for k in range(1, cc.dim + 1):
            assert matmul(cc.boundary_matrix(k),
                          cc.boundary_matrix(k + 1)).is_zero()
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 9 took {elapsed:.1f}s"
    _report(9, "SNF transforms, max-flow vs brute force, dd = 0 everywhere")
