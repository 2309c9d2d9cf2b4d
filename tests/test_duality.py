import random
from math import comb

import pytest

import eqhom.complexes
from eqhom import duality, intlinalg
from eqhom.cli import run
from eqhom.complexes import (LocalSystem, SimplicialComplex, build_cover,
                             chain_boundary_matrix, cochain_differential_matrix,
                             homology, lens_space, local_cohomology,
                             local_homology, torus_complex)
from eqhom.duality import (Cochain, Cocycle, TriangulatedManifold,
                           bs_class_report, bs_power,
                           berstein_svarc, cap, cap_chain, cohomology_pair,
                           cup, essentiality_pairing, homology_pair, orient,
                           pd_check, pert_finite)
from eqhom.errors import InputError, ModelMismatch, PreconditionError
from eqhom.groups import augmentation_ideal_rep, regular_rep, tensor_power
from eqhom.group_homology import bar_homology
from eqhom.intlinalg import AbelianGroupInvariants, IntMatrix, matvec

from conftest import load_fixture, unit_cocycle
from determinant import determinant

Z2 = AbelianGroupInvariants(0, (2,))


def rand_cochain(rng, system, k):
    return Cochain(system, k, [rng.randint(-3, 3) for _ in range(
        len(system.complex.simplices(k)) * system.rank)])


def rand_chain(rng, cx, m):
    return [rng.randint(-3, 3) for _ in cx.simplices(m)]


def cap_reference(phi, chain, m):
    """phi cap z, one m-simplex at a time: s with z(s) = c adds
    c rho(h(s0, sk)^-1) phi(front face) on the back face, the inverse taken
    in the group."""
    system, k, r = phi.system, phi.degree, phi.system.rank
    cx = system.complex
    out = [0] * (len(cx.simplices(m - k)) * r)
    for s, c in zip(cx.simplices(m), chain):
        if not c:
            continue
        val = phi.value(s[:k + 1])
        if not system.is_trivial and k > 0:
            h = system.cover.holonomy(s[0], s[k])
            val = system.rep.act(system.cover.model.inv(h), val)
        base = cx.index(s[k:]) * r
        for a in range(r):
            out[base + a] += c * val[a]
    return out


def cup_reference(phi, psi):
    """phi cup psi, one simplex at a time: s carries phi(front face) (x)
    rho(h(s0, sk)) psi(back face) on the lexicographic basis, the back
    value moved to s0 through psi's group action."""
    k, l = phi.degree, psi.degree
    r1, r2 = phi.system.rank, psi.system.rank
    cx = phi.system.complex
    out = [0] * (len(cx.simplices(k + l)) * r1 * r2)
    for j, s in enumerate(cx.simplices(k + l)):
        front, back = phi.value(s[:k + 1]), psi.value(s[k:])
        if not psi.system.is_trivial and k > 0:
            back = psi.system.rep.act(psi.system.cover.holonomy(s[0], s[k]), back)
        for a in range(r1):
            for b in range(r2):
                out[(j * r1 + a) * r2 + b] = front[a] * back[b]
    return out


def cap_systems(name, lens3_cover, rp3_cover):
    """L(3, 1) with I and I^2, where a nontrivial holonomy is not its own
    inverse, and RP^3 with Z[pi]."""
    if name == "RP3 Zpi":
        return LocalSystem.from_rep(rp3_cover, regular_rep(rp3_cover.model))
    power = {"L(3,1) I": 1, "L(3,1) I^2": 2}[name]
    ideal = augmentation_ideal_rep(lens3_cover.model)
    return LocalSystem.from_rep(lens3_cover, tensor_power(ideal, power))


def check_leibniz(rng, system, instances):
    """The two normative product identities, on random data."""
    cx = system.complex
    n = cx.dim
    for _ in range(instances):
        # cup: delta(phi cup psi) = dphi cup psi + (-1)^k phi cup dpsi
        k = rng.randint(0, n - 1)
        l = rng.randint(0, n - 1 - k) if n - 1 - k >= 0 else 0
        phi = rand_cochain(rng, system, k)
        psi = rand_cochain(rng, LocalSystem(cx, 1), l)
        lhs = cup(phi, psi).delta().vector
        a = cup(phi.delta(), psi).vector
        b = cup(phi, psi.delta()).vector
        sign = (-1) ** k
        assert lhs == [x + sign * y for x, y in zip(a, b)]
        # cap: d(phi cap z) = (-1)^k (phi cap dz - dphi cap z)
        m = rng.randint(1, n)
        k2 = rng.randint(0, m - 1)
        phi2 = rand_cochain(rng, system, k2)
        z = rand_chain(rng, cx, m)
        lhs2 = matvec(chain_boundary_matrix(system, m - k2),
                      cap_chain(phi2, z, m))
        dz = matvec(cx.boundary_matrix(m), z)
        east = cap_chain(phi2, dz, m - 1)
        west = cap_chain(phi2.delta(), z, m)
        sign = (-1) ** k2
        assert lhs2 == [sign * (x - y) for x, y in zip(east, west)]


class TestCochain:
    def test_vector_is_kept_flat(self, rp3_cover):
        system = LocalSystem.from_rep(rp3_cover, regular_rep(rp3_cover.model))
        edges = rp3_cover.base.simplices(1)
        flat = list(range(len(edges) * system.rank))
        phi = Cochain(system, 1, flat)
        assert phi.vector == flat
        assert phi.value(edges[3]) == [6, 7]

    def test_wrong_length_is_refused(self, t2):
        system = LocalSystem(t2, 2)
        for size in (len(t2.simplices(1)), 2 * len(t2.simplices(1)) + 1):
            with pytest.raises(ValueError, match="^cochain vector has the wrong length$"):
                Cochain(system, 1, [0] * size)


class TestOrientation:
    def test_sphere_orientable(self, s2cx):
        m = orient(s2cx)
        assert sorted(m.orientation).count(-1) + \
            sorted(m.orientation).count(1) == 4
        assert not any(matvec(s2cx.boundary_matrix(2),
                              m.fundamental_cycle()))

    def test_rp2_not_orientable(self, rp2):
        with pytest.raises(PreconditionError, match="^orientation propagation contradicts$"):
            orient(rp2)

    def test_t2_orientable(self, t2):
        orient(t2)

    def test_not_pseudomanifold(self):
        cx = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        with pytest.raises(PreconditionError, match=r"^ridge \(1, 2\) lies in 1 facets, not 2$"):
            orient(cx)

    @pytest.mark.parametrize("name", ["s2cx", "t2", "s3cx", "t3", "rp3"])
    def test_fundamental_class_coordinates(self, name, request):
        cx = request.getfixturevalue(name)
        manifold = orient(cx)
        pair = homology_pair(LocalSystem(cx, 1), manifold.dim)
        coords = pair.coordinates(manifold.fundamental_cycle())
        assert pair.invariants == AbelianGroupInvariants(1)
        assert coords in ((1,), (-1,))

    def test_torus_class_in_dimension_four(self):
        # The n >= 4 regime of the construction: [T^4] generates H_4(T^4) = Z,
        # checked exactly on the 1944 top simplices rather than by Kunneth,
        # and H_k(T^4) = Z^C(4,k) in every degree.
        cx = torus_complex(4)
        assert homology(cx) == [AbelianGroupInvariants(comb(4, k))
                                for k in range(5)]
        manifold = orient(cx)
        pair = homology_pair(LocalSystem(cx, 1), 4)
        assert pair.invariants == AbelianGroupInvariants(1)
        assert pair.coordinates(manifold.fundamental_cycle()) in ((1,), (-1,))


class TestProducts:
    def test_cup_unit_identity(self, t2, rp3):
        rng = random.Random(17)
        for cx in (t2, rp3):
            u = unit_cocycle(cx)
            for k in range(cx.dim + 1):
                phi = rand_cochain(rng, LocalSystem(cx, 1), k)
                assert cup(u, phi).vector == phi.vector
                assert cup(phi, u).vector == phi.vector

    def test_cap_chain_rejects_a_cochain_above_the_chain(self, t2):
        phi = Cochain(LocalSystem(t2, 1), 1, [0] * len(t2.simplices(1)))
        with pytest.raises(PreconditionError,
                           match="^cochain degree exceeds chain degree$"):
            cap_chain(phi, [0] * len(t2.simplices(0)), 0)

    def test_cap_unit_identity(self, t2):
        rng = random.Random(23)
        u = unit_cocycle(t2)
        for m in range(t2.dim + 1):
            z = rand_chain(rng, t2, m)
            assert cap_chain(u, z, m) == z

    def test_cup_associative_trivial(self, t3):
        rng = random.Random(5)
        sys0 = LocalSystem(t3, 1)
        for (j, k, l) in [(0, 1, 1), (1, 1, 1), (0, 0, 2)]:
            a = rand_cochain(rng, sys0, j)
            b = rand_cochain(rng, sys0, k)
            c = rand_cochain(rng, sys0, l)
            assert cup(cup(a, b), c).vector == cup(a, cup(b, c)).vector

    def test_cup_associative_twisted(self, rp3, rp3_cover):
        rng = random.Random(6)
        ideal = augmentation_ideal_rep(rp3_cover.model)
        system = LocalSystem.from_rep(rp3_cover, ideal)
        a = rand_cochain(rng, system, 1)
        b = rand_cochain(rng, system, 1)
        c = rand_cochain(rng, system, 1)
        assert cup(cup(a, b), c).vector == cup(a, cup(b, c)).vector

    def test_leibniz_trivial_coefficients(self, t2, s3cx):
        rng = random.Random(31)
        check_leibniz(rng, LocalSystem(t2, 1), 40)
        check_leibniz(rng, LocalSystem(s3cx, 1), 40)

    def test_leibniz_twisted(self, rp3, rp3_cover):
        rng = random.Random(37)
        ideal = augmentation_ideal_rep(rp3_cover.model)
        check_leibniz(rng, LocalSystem.from_rep(rp3_cover, ideal), 40)

    def test_cup_leibniz_both_factors_twisted(self, rp3, rp3_cover):
        rng = random.Random(43)
        ideal = augmentation_ideal_rep(rp3_cover.model)
        system = LocalSystem.from_rep(rp3_cover, ideal)
        for (k, l) in [(0, 1), (1, 1), (1, 0), (0, 2), (2, 0)]:
            phi = rand_cochain(rng, system, k)
            psi = rand_cochain(rng, system, l)
            lhs = cup(phi, psi).delta().vector
            a = cup(phi.delta(), psi).vector
            b = cup(phi, psi.delta()).vector
            sign = (-1) ** k
            assert lhs == [x + sign * y for x, y in zip(a, b)]

    def test_base_mismatch(self, t2, s2cx):
        phi = unit_cocycle(t2)
        psi = unit_cocycle(s2cx)
        with pytest.raises(ModelMismatch):
            cup(phi, psi)

    def test_cup_refuses_two_covers(self, rp3, rp3_cover):
        # An equal group model does not make two covers one: their holonomies
        # come from their own spanning trees.
        other = build_cover(rp3)
        assert other.model == rp3_cover.model
        rng = random.Random(47)
        phi, psi = (rand_cochain(rng, LocalSystem.from_rep(
            cover, augmentation_ideal_rep(cover.model)), 1) for cover in (rp3_cover, other))
        with pytest.raises(ModelMismatch, match="different covers"):
            cup(phi, psi)

    @pytest.mark.parametrize("name", ["L(3,1) I", "L(3,1) I^2", "RP3 Zpi"])
    def test_cap_chain_matches_reference(self, name, lens3_cover, rp3_cover):
        system = cap_systems(name, lens3_cover, rp3_cover)
        cx = system.complex
        rng = random.Random(53)
        for m in range(cx.dim + 1):
            for k in range(m + 1):
                phi = rand_cochain(rng, system, k)
                z = rand_chain(rng, cx, m)
                assert cap_chain(phi, z, m) == cap_reference(phi, z, m), (m, k)

    @pytest.mark.parametrize("name", ["L(3,1) I", "L(3,1) I^2", "RP3 Zpi", "T2 Z^2"])
    def test_cup_matches_reference(self, name, lens3_cover, rp3_cover, t2):
        # Both factors twisted, and each one against trivial Z coefficients.
        system = LocalSystem(t2, 2) if name == "T2 Z^2" \
            else cap_systems(name, lens3_cover, rp3_cover)
        cx = system.complex
        plain = LocalSystem(cx, 1)
        rng = random.Random(61)
        for k in range(cx.dim + 1):
            for l in range(cx.dim + 1 - k):
                for left, right in ((system, system), (system, plain), (plain, system)):
                    phi = rand_cochain(rng, left, k)
                    psi = rand_cochain(rng, right, l)
                    assert cup(phi, psi).vector == cup_reference(phi, psi), (k, l)

    @pytest.mark.parametrize("name", ["L(3,1) I", "L(3,1) I^2", "RP3 Zpi"])
    def test_cap_matrix_matches_reference(self, name, lens3_cover, rp3_cover):
        # Phi_k is eps_k (f cap [M]), eps_0 = 1 and eps_{k+1} = (-1)^(k+1) eps_k.
        system = cap_systems(name, lens3_cover, rp3_cover)
        manifold = orient(system.complex)
        rng = random.Random(59)
        eps = 1
        for k in range(manifold.dim + 1):
            phi = rand_cochain(rng, system, k)
            image = matvec(cap_matrix(manifold, system, k), phi.vector)
            expected = cap_reference(phi, manifold.fundamental_cycle(), manifold.dim)
            assert image == [eps * x for x in expected], k
            eps *= (-1) ** (k + 1)


class TestToruspairing:
    def test_intersection_form(self, t2):
        manifold = orient(t2)
        sys0 = LocalSystem(t2, 1)
        co1 = cohomology_pair(sys0, 1)
        assert co1.invariants == AbelianGroupInvariants(2)
        h0 = homology_pair(sys0, 0)
        gens = [Cochain(sys0, 1, co1.generator_cycle(i))
                for i in range(2)]
        pairing = [[h0.coordinates(cap(cup(gens[i], gens[j]), manifold))[0]
                    for j in range(2)] for i in range(2)]
        assert abs(determinant(IntMatrix.from_rows(pairing))) == 1
        assert pairing[0][0] == 0 and pairing[1][1] == 0
        co2 = cohomology_pair(sys0, 2)
        assert co2.coordinates(cup(gens[0], gens[0]).vector) == (0,)
        assert co2.coordinates(cup(gens[1], gens[1]).vector) == (0,)

    def test_cap_sends_degree_one_generators_to_dual_curves(self, t2):
        manifold = orient(t2)
        sys0 = LocalSystem(t2, 1)
        co1 = cohomology_pair(sys0, 1)
        h1 = homology_pair(sys0, 1)
        images = []
        for i in range(2):
            phi = Cochain(sys0, 1, co1.generator_cycle(i))
            coords = h1.coordinates(cap(phi, manifold))
            assert any(coords)  # a nonzero 1-cycle class (the dual curve)
            images.append(coords)
        assert abs(determinant(IntMatrix.from_rows(images))) == 1


def cap_operator(system, k, m, chain):
    """f |-> f cap z : C^k(X; L) -> C_{m-k}(X; L) for the integer m-chain z,
    built as a matrix: the reference that cap_chain sums term by term."""
    cx = system.complex
    return system.matrix(len(cx.simplices(m - k)), len(cx.simplices(k)),
                         duality._cap_terms(system, k, m, chain))


def cap_matrix(manifold, system, k):
    """Phi_k : C^k(M; L) -> C_{n-k}(M; L), f |-> eps_k (f cap [M])."""
    eps = (-1) ** (k * (k + 1) // 2)
    return cap_operator(system, k, manifold.dim,
                        [eps * c for c in manifold.fundamental_cycle()])


def by_degree(manifold, system):
    """The report with every degree found directly by duality._pd_entry on
    the full differentials and Phi_k, not on the Morse complex."""
    n = manifold.dim
    delta = [cochain_differential_matrix(system, k) for k in range(-1, n + 1)]
    bd = [chain_boundary_matrix(system, k) for k in range(n + 2)]
    return duality.PdReport([duality._pd_entry(delta, bd, cap_matrix(manifold, system, k), k)
                             for k in range(n + 1)])


def suspension(cx):
    """Cone every facet to two new vertices: the suspension of cx."""
    top = max(v for f in cx.facets for v in f)
    return SimplicialComplex([f + (v,) for f in cx.facets for v in (top + 1, top + 2)])


def doubled(manifold, times=2):
    """The same complex with twice (or `times` times) its fundamental class."""
    return TriangulatedManifold(manifold.complex, manifold.dim,
                                tuple(times * c for c in manifold.orientation))


def flip_morse_cap(monkeypatch, degree):
    """Make pd_check build -Psi_degree in place of Psi_degree."""
    real = duality._morse_cap

    def flipped(manifold, morse, k):
        psi = real(manifold, morse, k)
        sign = -1 if k == degree else 1
        return IntMatrix.from_blocks(psi.rows, psi.cols, (1, 1), [(0, 0, sign, psi)])

    monkeypatch.setattr(duality, "_morse_cap", flipped)


class TestPdCheck:
    @pytest.mark.parametrize("name", ["t2", "s2cx", "s3cx"])
    def test_trivial_coefficients(self, name, request):
        cx = request.getfixturevalue(name)
        report = pd_check(orient(cx), LocalSystem(cx, 1))
        assert report.ok

    def test_t3(self, t3):
        assert pd_check(orient(t3), LocalSystem(t3, 1)).ok

    @pytest.mark.parametrize("power", [0, 1, 2, 3])
    def test_rp3_twisted(self, rp3, rp3_cover, power):
        if power == 0:
            system = LocalSystem(rp3, 1)
        else:
            ideal = augmentation_ideal_rep(rp3_cover.model)
            system = LocalSystem.from_rep(rp3_cover, tensor_power(ideal, power))
        assert pd_check(orient(rp3), system).ok

    def test_suspended_torus_fails_by_degree(self, t2, tmp_path):
        # An orientable pseudomanifold whose cone points break duality:
        # H^1 = 0 but H_2 = Z^2.
        path = tmp_path / "susp_t2.cplx"
        path.write_text("".join("f " + " ".join(map(str, f)) + "\n"
                                for f in suspension(t2).facets))
        assert run(["pd-check", str(path)]) == (2, (
            "error: duality pairing failed: k=1: H^1 = 0 ~ H_2 = Z^2 [NOT ISO]; "
            "k=2: H^2 = Z^2 ~ H_1 = 0 [NOT ISO]\n"))

    def test_doubled_class_fails_with_z(self, rp3):
        manifold = doubled(orient(rp3))
        report = pd_check(manifold, LocalSystem(rp3, 1))
        assert report.render() == (
            "k=0: H^0 = Z^1 ~ H_3 = Z^1 [NOT ISO]\n"
            "k=1: H^1 = 0 ~ H_2 = 0 [iso]\n"
            "k=2: H^2 = Z/2 ~ H_1 = Z/2 [NOT ISO]\n"
            "k=3: H^3 = Z^1 ~ H_0 = Z^1 [NOT ISO]\n"
            "PD CHECK: FAIL")

    def test_doubled_class_fails_with_group_ring(self, rp3, rp3_cover):
        manifold = doubled(orient(rp3))
        system = LocalSystem.from_rep(rp3_cover, regular_rep(rp3_cover.model))
        assert pd_check(manifold, system).render() == (
            "k=0: H^0 = Z^1 ~ H_3 = Z^1 [NOT ISO]\n"
            "k=1: H^1 = 0 ~ H_2 = 0 [iso]\n"
            "k=2: H^2 = 0 ~ H_1 = 0 [iso]\n"
            "k=3: H^3 = Z^1 ~ H_0 = Z^1 [NOT ISO]\n"
            "PD CHECK: FAIL")

    def test_doubled_class_passes_on_three_torsion(self):
        # H_*(L(3, 1); I) is all 3-torsion, where doubling is invertible,
        # so these coefficients cannot see a doubled class.
        cx = lens_space(3)
        cover = build_cover(cx)
        system = LocalSystem.from_rep(cover, augmentation_ideal_rep(cover.model))
        assert pd_check(doubled(orient(cx)), system).ok

    def test_doubled_class_fails_on_q8_space(self, q8space, q8_cover):
        # nonabelian pi on the failure path; by_degree takes seconds here
        system = LocalSystem.from_rep(q8_cover, augmentation_ideal_rep(q8_cover.model))
        assert pd_check(doubled(orient(q8space)), system).render() == (
            "k=0: H^0 = 0 ~ H_3 = 0 [iso]\n"
            "k=1: H^1 = Z/8 ~ H_2 = Z/8 [NOT ISO]\n"
            "k=2: H^2 = 0 ~ H_1 = 0 [iso]\n"
            "k=3: H^3 = Z/2 + Z/2 ~ H_0 = Z/2 + Z/2 [NOT ISO]\n"
            "PD CHECK: FAIL")

    def test_wrong_cap_sign_is_refused(self, rp3, monkeypatch):
        """The cone's composition check, not an assert, proves the eps_k signs.

        It sees a flipped Psi_k only through a nonzero Morse differential
        next to it: on RP3, d^M_2 = 2 meets Psi_1 in d^M_2 Psi_1 =
        Psi_2 delta_M^1.  On T^2 (and T^3, S^3) every Morse differential is
        zero, so no composition reads the sign, and none has to: -Psi is an
        isomorphism exactly when Psi is.
        """
        flip_morse_cap(monkeypatch, 1)
        with pytest.raises(PreconditionError, match=r"^d_k \. d_\{k\+1\} != 0$"):
            pd_check(orient(rp3), LocalSystem(rp3, 1))

    def test_cap_sign_cannot_change_a_failing_verdict(self, t3, monkeypatch):
        """Every Morse differential of T^3 is zero, so no composition reads
        the sign of Psi_1; the failing degree 1, found from Psi_1, does, and
        its verdict must not depend on it."""
        manifold, system = doubled(orient(t3), 3), LocalSystem(t3, 1)
        want = pd_check(manifold, system).render()
        assert "k=1: H^1 = Z^3 ~ H_2 = Z^3 [NOT ISO]" in want
        flip_morse_cap(monkeypatch, 1)
        assert pd_check(manifold, system).render() == want

    def test_q8_space(self, q8space, q8_cover):
        # nonabelian pi: Z[pi] is noncommutative, so Psi's factor order counts
        model, manifold = q8_cover.model, orient(q8space)
        report = pd_check(manifold, LocalSystem.from_rep(q8_cover, regular_rep(model)))
        assert [str(e.cohomology) for e in report.entries] == ["Z^1", "0", "0", "Z^1"]
        assert report.ok
        report = pd_check(manifold, LocalSystem.from_rep(q8_cover, augmentation_ideal_rep(model)))
        assert report.render() == (
            "k=0: H^0 = 0 ~ H_3 = 0 [iso]\n"
            "k=1: H^1 = Z/8 ~ H_2 = Z/8 [iso]\n"
            "k=2: H^2 = 0 ~ H_1 = 0 [iso]\n"
            "k=3: H^3 = Z/2 + Z/2 ~ H_0 = Z/2 + Z/2 [iso]\n"
            "PD CHECK: PASS")

    def test_lens5_with_i_cubed(self):
        cx = lens_space(5)
        cover = build_cover(cx)
        system = LocalSystem.from_rep(cover, tensor_power(augmentation_ideal_rep(cover.model), 3))
        report = pd_check(orient(cx), system)
        assert report.ok
        homology, cohomology = local_homology(system), local_cohomology(system)
        assert [e.homology for e in report.entries] == homology[::-1]
        assert [e.cohomology for e in report.entries] == cohomology


class TestPdRoutesAgree:
    """pd_check, all on the Morse complex, against by_degree on the full one."""

    @pytest.mark.parametrize("name", ["circle", "t2", "t3", "s2", "s3", "rp3"])
    def test_closed_fixtures_with_z(self, name):
        cx = load_fixture(name + ".cplx")
        manifold, system = orient(cx), LocalSystem(cx, 1)
        report = pd_check(manifold, system)
        assert report.ok
        assert report.render() == by_degree(manifold, system).render()

    @pytest.mark.parametrize("power", [1, 2, 3, None], ids=["I", "I^2", "I^3", "Zpi"])
    def test_rp3_twisted(self, rp3, rp3_cover, power):
        model = rp3_cover.model
        rep = regular_rep(model) if power is None else \
            tensor_power(augmentation_ideal_rep(model), power)
        manifold, system = orient(rp3), LocalSystem.from_rep(rp3_cover, rep)
        report = pd_check(manifold, system)
        assert report.ok
        assert report.render() == by_degree(manifold, system).render()

    @pytest.mark.parametrize("p", [3, 4])
    def test_lens_spaces_with_i(self, p):
        cx = lens_space(p)
        cover = build_cover(cx)
        system = LocalSystem.from_rep(cover, augmentation_ideal_rep(cover.model))
        manifold = orient(cx)
        report = pd_check(manifold, system)
        assert report.ok
        assert report.render() == by_degree(manifold, system).render()

    @pytest.mark.parametrize("power", [None, 2], ids=["Zpi", "I^2"])
    def test_lens3(self, lens3_cover, power):
        model = lens3_cover.model
        rep = regular_rep(model) if power is None else \
            tensor_power(augmentation_ideal_rep(model), power)
        manifold, system = orient(lens3_cover.base), LocalSystem.from_rep(lens3_cover, rep)
        report = pd_check(manifold, system)
        assert report.ok
        assert report.render() == by_degree(manifold, system).render()

    @pytest.mark.parametrize("case, direct", [
        ("doubled-z", [0, 1, 2, 3]), ("doubled-zpi", [0, 1, 3]), ("suspended-t2", [1, 2]),
        ("doubled-i3", [0, 1, 2, 3]), ("doubled-l4-i", [0, 1, 2, 3]),
        ("doubled-l4-zpi", [0, 1, 3])])
    def test_failing_reports_match(self, case, direct, rp3, rp3_cover, t2, monkeypatch):
        # Only the degrees next to a nonzero H_*(Cone) are found directly,
        # on the Morse complex; the report is the one every degree found
        # directly on the full complex gives.  H_*(M; L) is computed only if
        # some degree takes its groups from it: with every degree found
        # directly, only the cone's homology is.  The groups come from the
        # Morse complex, whose chain_homology is the one in complexes.
        # RP3 with I^3 and L(4,1) are twisted, with nonzero Morse
        # differentials; L(4,1)'s holonomy is not its own inverse.
        if case == "suspended-t2":
            cx = suspension(t2)
            manifold, system = orient(cx), LocalSystem(cx, 1)
        elif case.startswith("doubled-l4"):
            cx = lens_space(4)
            cover = build_cover(cx)
            rep = regular_rep(cover.model) if case == "doubled-l4-zpi" \
                else augmentation_ideal_rep(cover.model)
            manifold, system = doubled(orient(cx)), LocalSystem.from_rep(cover, rep)
        else:
            manifold = doubled(orient(rp3))
            model = rp3_cover.model
            system = {"doubled-z": LocalSystem(rp3, 1),
                      "doubled-zpi": LocalSystem.from_rep(rp3_cover, regular_rep(model)),
                      "doubled-i3": LocalSystem.from_rep(
                          rp3_cover, tensor_power(augmentation_ideal_rep(model), 3))}[case]
        want = by_degree(manifold, system).render()
        degrees = []
        real = duality._pd_entry
        monkeypatch.setattr(duality, "_pd_entry",
                            lambda *args: degrees.append(args[-1]) or real(*args))
        calls = []
        for module in (duality, eqhom.complexes):
            monkeypatch.setattr(module, "chain_homology", lambda ds, real=module.chain_homology:
                                calls.append(ds) or real(ds))
        report = pd_check(manifold, system)
        assert not report.ok
        assert report.render() == want
        assert degrees == direct
        assert len(calls) == (1 if direct == list(range(manifold.dim + 1)) else 2)


class TestReadersReplayTapes:
    """Coordinates and generator lifts come from replaying the elimination's
    tapes on vectors; no transform matrix is built on the way."""

    def test_no_transform_matrix_built(self, rp3, rp3_cover, monkeypatch):
        factored, built = [], []
        real_smith, real_build = intlinalg._smith, intlinalg._tape_matrix
        monkeypatch.setattr(intlinalg, "_smith",
                            lambda m, **kw: factored.append(m) or real_smith(m, **kw))
        monkeypatch.setattr(intlinalg, "_tape_matrix",
                            lambda *args: built.append(args) or real_build(*args))
        manifold = orient(rp3)
        system = LocalSystem.from_rep(rp3_cover, regular_rep(rp3_cover.model))
        # a passing pd_check decides by the cone, without a Smith transform
        assert pd_check(manifold, system).ok
        assert factored == []
        # the per-degree route still reads its coordinates from tapes
        assert by_degree(manifold, system).ok
        assert essentiality_pairing(manifold, rp3_cover).coordinates == (1,)
        assert bs_class_report(rp3_cover, 3).coordinates == (1,)
        assert len(factored) > 10
        assert built == []

    @staticmethod
    def full_matrices_made(monkeypatch):
        made = []
        for module, name in ((duality, "cochain_differential_matrix"),
                             (duality, "chain_boundary_matrix"),
                             (eqhom.complexes, "chain_boundary_matrix"),
                             (eqhom.complexes, "cochain_differential_matrix")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, real=real:
                                made.append(name) or real(*args))
        return made

    def test_passing_pd_check_assembles_no_full_matrix(self, rp3, rp3_cover, monkeypatch):
        made = self.full_matrices_made(monkeypatch)
        ideal = augmentation_ideal_rep(rp3_cover.model)
        assert pd_check(orient(rp3), LocalSystem.from_rep(rp3_cover, ideal)).ok
        assert made == []

    def test_failing_pd_check_assembles_no_full_matrix(self, rp3, rp3_cover, monkeypatch):
        # the failing degrees are found on the Morse complex too
        made = self.full_matrices_made(monkeypatch)
        ideal = augmentation_ideal_rep(rp3_cover.model)
        for system in (LocalSystem(rp3, 1), LocalSystem.from_rep(rp3_cover, ideal)):
            assert not pd_check(doubled(orient(rp3)), system).ok
        assert made == []


class TestObstructionClass:
    def test_cocycle_exactness(self, rp2_cover, rp3_cover):
        # the Cocycle constructor verifies delta = 0 exactly
        berstein_svarc(rp2_cover)
        berstein_svarc(rp3_cover)

    @pytest.mark.parametrize("cover_name", ["rp2_cover", "rp3_cover", "lens3_cover"])
    def test_beta_is_h_minus_one_on_every_edge(self, cover_name, request):
        # On the edge (u, v), beta is h(u, v) - 1, read on I's basis
        # {g - 1 : g != e} in the model's element order.
        cover = request.getfixturevalue(cover_name)
        model = cover.model
        basis = [g for g in model.elements() if g != model.identity]
        expected = []
        for u, v in cover.base.simplices(1):
            h = cover.holonomy(u, v)
            expected.extend(int(g == h) for g in basis)
        assert any(expected)
        assert berstein_svarc(cover).vector == expected

    def test_trivial_group_zero_class(self, s2cx):
        cover = build_cover(s2cx)
        beta = berstein_svarc(cover)
        assert beta.system.rank == 0

    def test_rp2_class_generates(self, rp2_cover):
        report = bs_class_report(rp2_cover, 1)
        assert report.group == Z2
        assert not report.is_zero

    def test_rp3_powers_generate(self, rp3_cover):
        for k in (1, 2, 3):
            report = bs_class_report(rp3_cover, k)
            assert report.group == Z2
            assert not report.is_zero

    def test_class_invariant_under_coboundary(self, rp3_cover):
        rng = random.Random(41)
        beta = berstein_svarc(rp3_cover)
        pair = cohomology_pair(beta.system, 1)
        base = pair.coordinates(beta.vector)
        eta = rand_cochain(rng, beta.system, 0)
        shifted = beta + eta.delta()
        assert pair.coordinates(shifted.vector) == base

    def test_basepoint_independence_of_pairing(self, rp3):
        manifold = orient(rp3)
        for basepoint in (0, 7):
            cover = build_cover(rp3, basepoint=basepoint)
            report = essentiality_pairing(manifold, cover)
            assert report.group == Z2
            assert not report.is_zero


class TestEssentiality:
    def test_rp3_is_essential(self, rp3, rp3_cover):
        report = essentiality_pairing(orient(rp3), rp3_cover)
        assert report.group == Z2
        assert report.coordinates == (1,)
        # cross-check against the group-homology module
        assert bar_homology(rp3_cover.model, 3) == report.group

    def test_sphere_is_inessential(self, s3cx):
        cover = build_cover(s3cx)
        report = essentiality_pairing(orient(s3cx), cover)
        assert report.is_zero

    def test_rp2_rejected_by_orientation(self, rp2):
        with pytest.raises(PreconditionError, match="^orientation propagation contradicts$"):
            orient(rp2)


@pytest.fixture(scope="module")
def s2_cover(s2cx):
    return build_cover(s2cx)


def pert_on_cover_complex(phi, cover):
    """Reference for pert_finite: lift phi cell by cell onto the plain cover.

    The lift of sigma at sheet g is the cover simplex on the labels of
    (v_i, g h(v0, v_i)) and carries rho(g) phi(sigma).  Returns the
    invariants and Smith coordinates of its class in H^k(cover; Z^rank).
    """
    k, r = phi.degree, phi.system.rank
    cc = cover.cover_complex()
    flat = [0] * (len(cc.simplices(k)) * r)
    for s in cover.base.simplices(k):
        base_val = phi.value(s)
        for g in cover.model.elements():
            cell = tuple(cover.vertex_label(v, cover.vertex_sheet(s, i, g))
                         for i, v in enumerate(s))
            idx = cc.index(cell) * r
            flat[idx:idx + r] = base_val if phi.system.is_trivial \
                else phi.system.rep.act(g, base_val)
    pair = cohomology_pair(LocalSystem(cc, r), k)
    return pair.invariants, pair.coordinates(flat)


def pert_inputs(cover):
    """Every integral generator of H^k(base), then beta^1..beta^3."""
    sys0 = LocalSystem(cover.base, 1)
    for k in range(cover.base.dim + 1):
        co = cohomology_pair(sys0, k)
        for i in range(co.num_generators):
            yield f"H^{k} generator {i}", Cochain(sys0, k, co.generator_cycle(i))
    for k in (1, 2, 3):
        yield f"beta^{k}", bs_power(cover, k)


class TestPert:
    @pytest.mark.parametrize("cover_name", ["rp2_cover", "rp3_cover", "s2_cover",
                                            "lens3_cover"])
    def test_matches_cover_complex_lift(self, cover_name, request):
        # H^*(cover; Z^r) computed as H^*(base; Zpi (x) Z^r) agrees with the
        # plain cover; Smith bases may differ in sign, so compare |coordinates|.
        cover = request.getfixturevalue(cover_name)
        seen_nonzero = False
        for name, phi in pert_inputs(cover):
            report = pert_finite(phi, cover)
            group, coords = pert_on_cover_complex(phi, cover)
            assert report.group == group, name
            assert tuple(map(abs, report.coordinates)) == tuple(map(abs, coords)), name
            seen_nonzero |= not report.is_zero
        assert seen_nonzero

    def test_lift_at_sheet_g_is_not_a_cocycle(self, lens3_cover, monkeypatch):
        # Storing sheet g at basis element g rather than g^-1 breaks the
        # identification with the cover's cochains.  Z/3 has elements that
        # are not their own inverses, so the cocycle check must refuse it.
        # beta^3 is left out: every top-degree cochain is a cocycle.
        powers = [bs_power(lens3_cover, k) for k in (1, 2)]
        monkeypatch.setattr(lens3_cover.model, "inv", lambda g: g)
        for power in powers:
            with pytest.raises(ValueError, match="vector is not a cycle"):
                pert_finite(power, lens3_cover)

    def test_power_below_one_is_rejected_before_beta(self, lens3_cover, monkeypatch):
        monkeypatch.setattr(duality, "berstein_svarc",
                            lambda cover: pytest.fail("built beta for k < 1"))
        with pytest.raises(InputError, match="^power must be >= 1$"):
            bs_power(lens3_cover, 0)

    def test_power_above_dimension_builds_no_large_identity(self, lens3_cover,
                                                            monkeypatch):
        # beta^40 lies above the dimension, so its class is () in 0; the
        # target's trivial factor has rank 2^40 and must stay unbuilt.
        sizes = []
        real = IntMatrix.identity

        def identity(n):
            sizes.append(n)
            if n > 64:
                pytest.fail(f"built a {n} x {n} identity")
            return real(n)

        monkeypatch.setattr(IntMatrix, "identity", staticmethod(identity))
        report = pert_finite(bs_power(lens3_cover, 40), lens3_cover)
        assert report.render() == "pert class = () in 0 [zero]"
        assert all(n <= 64 for n in sizes)

    def test_trivial_group_identity(self, s2cx):
        cover = build_cover(s2cx)
        sys0 = LocalSystem(s2cx, 1)
        co2 = cohomology_pair(sys0, 2)
        gen = Cochain(sys0, 2, co2.generator_cycle(0))
        report = pert_finite(gen, cover)
        assert report.group == co2.invariants
        assert tuple(abs(c) for c in report.coordinates) == (1,)

    def test_beta_cubed_dies(self, rp3_cover):
        power = bs_power(rp3_cover, 3)
        report = pert_finite(power, rp3_cover)
        assert report.group == AbelianGroupInvariants(1)
        assert report.coordinates == (0,)

    def test_degree_two_transfer(self, rp3, rp3_cover):
        sys0 = LocalSystem(rp3, 1)
        co3 = cohomology_pair(sys0, 3)
        assert co3.invariants == AbelianGroupInvariants(1)
        gen = Cochain(sys0, 3, co3.generator_cycle(0))
        report = pert_finite(gen, rp3_cover)
        assert tuple(abs(c) for c in report.coordinates) == (2,)

    def test_essential_with_dead_pert_coexist(self, rp3, rp3_cover):
        # the two facts exercise different maps and both hold
        pairing = essentiality_pairing(orient(rp3), rp3_cover)
        image = pert_finite(bs_power(rp3_cover, 3), rp3_cover)
        assert not pairing.is_zero and image.is_zero
