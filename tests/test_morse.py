"""The Morse complex on critical cells against the full differentials.

local_homology and local_cohomology factor the Morse complex of the base
complex's coreduction, d^M = P d through the Morse projection P.  The full route, chain_homology over
chain_boundary_matrix / cochain_differential_matrix with one rank-L block
per simplex, is the oracle here; both routes must reject a broken face
relation or holonomy with PreconditionError.  The Morse inclusion iota is
checked the same way, and the classes that essential, bs-class and pert
decide on the Morse complex against their order on the full one.
"""

import random
from math import prod

import pytest
from hypothesis import given, settings

import eqhom.complexes
from eqhom import duality
from eqhom.complexes import (LocalSystem, MorseProjection, build_cover,
                             chain_boundary_matrix, check_chain_condition,
                             cochain_differential_matrix, homology, lens_space,
                             local_cohomology, local_homology, simplicial_product,
                             torus_complex)
from eqhom.errors import CertificateError, PreconditionError
from eqhom.groups import (IntRepresentation, augmentation_ideal_rep, regular_rep,
                          tensor_power)
from eqhom.duality import (Cochain, bs_class_report, bs_power, cap, class_order,
                           essentiality_pairing, orient, pert_finite)
from eqhom.intlinalg import (AbelianGroupInvariants, IntMatrix, PairHomology, chain_homology,
                             invariant_factors, matmul, matvec)

from conftest import load_fixture
from test_complexes import FIXTURE_NAMES, small_complexes


def full_homology(system):
    return chain_homology(chain_boundary_matrix(system, k)
                          for k in range(system.complex.dim + 2))


def full_cohomology(system):
    return chain_homology(cochain_differential_matrix(system, k)
                          for k in range(system.complex.dim, -2, -1))[::-1]


def assert_matches_full_route(system):
    assert local_homology(system) == full_homology(system)
    assert local_cohomology(system) == full_cohomology(system)


def ideal_systems(cover, powers=(1, 2, 3)):
    """Z[pi], then I, I^2, ... on the cover's base."""
    ideal = augmentation_ideal_rep(cover.model)
    yield LocalSystem.from_rep(cover, regular_rep(cover.model))
    for n in powers:
        yield LocalSystem.from_rep(cover, tensor_power(ideal, n))


def critical_counts(cx):
    return [len(cells) for cells in cx.coreduction()[0]]


class TestOracle:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        cx = load_fixture(f"{name}.cplx")
        assert_matches_full_route(LocalSystem(cx, 1))
        assert_matches_full_route(LocalSystem(cx, 2))

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_lens_spaces(self, p):
        for system in ideal_systems(build_cover(lens_space(p))):
            assert_matches_full_route(system)

    def test_rp3_twisted(self, rp3_cover):
        for system in ideal_systems(rp3_cover):
            assert_matches_full_route(system)

    def test_s2_times_rp3_with_the_ideal(self, s2cx, rp3):
        cover = build_cover(simplicial_product(s2cx, rp3))
        assert_matches_full_route(LocalSystem.from_rep(cover, augmentation_ideal_rep(cover.model)))

    def test_q8_space(self, q8_cover):
        # nonabelian pi: the Morse differentials multiply in a noncommutative Z[pi]
        for system in list(ideal_systems(q8_cover, powers=(1,))):
            assert_matches_full_route(system)

    def test_four_torus(self):
        assert_matches_full_route(LocalSystem(torus_complex(4), 1))

    @settings(max_examples=40, deadline=None)
    @given(small_complexes)
    def test_small_complexes(self, cx):
        assert_matches_full_route(LocalSystem(cx, 1))


def projection_matrix(morse, k):
    """The rho-image of P_k : C_k -> M_k, one column per k-cell."""
    cells = range(len(morse.complex.simplices(k)))
    return morse.system.matrix(len(morse.critical[k]), len(cells), (
        (i, s, a, g) for s in cells for (i, g), a in morse.column(k, s).items()))


def assert_projection_is_a_chain_map(system):
    """P is the identity on critical cells and P_{k-1} d_k = d^M_k P_k on the
    rho-images, against the full chain_boundary_matrix."""
    morse = MorseProjection(system)
    dim, d_morse = system.complex.dim, morse.differentials()
    for k, level in enumerate(morse.critical):
        assert all(morse.column(k, c) == {(i, 0): 1} for i, c in enumerate(level))
    p = [projection_matrix(morse, k) for k in range(dim + 1)]
    for k in range(1, dim + 1):
        assert matmul(p[k - 1], chain_boundary_matrix(system, k)) == matmul(d_morse[k], p[k])


class TestProjection:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures_with_z(self, name):
        assert_projection_is_a_chain_map(LocalSystem(load_fixture(f"{name}.cplx"), 1))

    def test_rp3_twisted(self, rp3_cover):
        for system in ideal_systems(rp3_cover):
            assert_projection_is_a_chain_map(system)

    @pytest.mark.parametrize("p", [3, 4])
    def test_lens_spaces(self, p):
        for system in ideal_systems(build_cover(lens_space(p)), powers=(1,)):
            assert_projection_is_a_chain_map(system)

    def test_q8_space_with_the_group_ring(self, q8_cover):
        assert_projection_is_a_chain_map(
            LocalSystem.from_rep(q8_cover, regular_rep(q8_cover.model)))

    def test_columns_are_built_once(self, rp3):
        morse = MorseProjection(LocalSystem(rp3, 1))
        column = morse.column(1, len(rp3.simplices(1)) - 1)
        assert morse.column(1, len(rp3.simplices(1)) - 1) is column


def inclusion_matrix(morse, k):
    """The rho-image of iota_k : M_k -> C_k, one row per k-cell."""
    cells = range(len(morse.complex.simplices(k)))
    return morse.system.matrix(len(cells), len(morse.critical[k]), (
        (s, j, a, g) for s in cells for (j, g), a in morse.row(k, s).items()))


def assert_inclusion_is_a_section(system, seed=0):
    """iota_k is the identity on critical cells, P_k iota_k = id, and d_k
    iota_k = iota_{k-1} d^M_k against the full chain_boundary_matrix.
    transfer applies P_k to chains and iota_k^*, the Hom dual, to cochains:
    iota^* delta = delta_M iota^* on random cochains, and iota^* P^* = id."""
    rng = random.Random(seed)
    morse = MorseProjection(system)
    dim, r, inv = system.complex.dim, system.rank, system.inv
    d_morse, delta_morse = morse.differentials(), morse.differentials(dual=True)
    iota = [inclusion_matrix(morse, k) for k in range(dim + 1)]
    for k, level in enumerate(morse.critical):
        assert all(morse.row(k, c) == {(i, 0): 1} for i, c in enumerate(level))
        p = projection_matrix(morse, k)
        assert matmul(p, iota[k]) == IntMatrix.identity(len(level) * r)
        chain = [rng.randint(-2, 2) for _ in range(p.cols)]
        assert morse.transfer(k, chain) == matvec(p, chain)
        p_dual = system.matrix(len(level), len(morse.complex.simplices(k)), (
            (i, s, a, inv(g)) for s in range(len(morse.complex.simplices(k)))
            for (i, g), a in morse.column(k, s).items()), dual=True)
        morse_cochain = [rng.randint(-2, 2) for _ in range(len(level) * r)]
        assert morse.transfer(k, matvec(p_dual, morse_cochain), dual=True) == morse_cochain
    for k in range(1, dim + 1):
        assert matmul(chain_boundary_matrix(system, k), iota[k]) == matmul(iota[k - 1], d_morse[k])
        cochain = [rng.randint(-2, 2) for _ in range(len(system.complex.simplices(k - 1)) * r)]
        assert (morse.transfer(k, matvec(cochain_differential_matrix(system, k - 1), cochain), True)
                == matvec(delta_morse[k], morse.transfer(k - 1, cochain, True)))


class TestInclusion:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        cx = load_fixture(f"{name}.cplx")
        assert_inclusion_is_a_section(LocalSystem(cx, 1))
        assert_inclusion_is_a_section(LocalSystem(cx, 2))

    def test_rp3_twisted(self, rp3_cover):
        for system in ideal_systems(rp3_cover):
            assert_inclusion_is_a_section(system)

    @pytest.mark.parametrize("p", [3, 4])
    def test_lens_spaces(self, p):
        for system in ideal_systems(build_cover(lens_space(p)), powers=(1,)):
            assert_inclusion_is_a_section(system)

    def test_q8_space(self, q8_cover):
        # only a nonabelian pi sees which side of iota_x the holonomy goes on
        for system in ideal_systems(q8_cover, powers=(1,)):
            assert_inclusion_is_a_section(system)

    def test_rows_are_built_once(self, rp3):
        morse = MorseProjection(LocalSystem(rp3, 1))
        upper = morse._partners[1].index(-2)
        assert morse.row(1, upper) is morse.row(1, upper)


def full_order(image, *vectors):
    """The order of the subgroup that vectors span in Z^n / (the column span
    of image), 0 if infinite, from invariant factors alone: no Smith basis
    and no Morse complex.  With the vectors as more columns, the torsion
    shrinks by that order, or the rank grows."""
    def torsion_and_rank(m):
        factors = [d for d in invariant_factors(m) if d]
        return prod(factors), len(factors)

    n, parts = image.cols, [v for v in vectors if any(v)]
    augmented = IntMatrix._adopt(image.rows, n + len(parts), [
        {**row, **{n + t: v[i] for t, v in enumerate(parts) if v[i]}}
        for i, row in enumerate(image._nz)])
    (t0, r0), (t1, r1) = torsion_and_rank(image), torsion_and_rank(augmented)
    return 0 if r1 > r0 else t0 // t1


def pert_lift(phi, cover, monkeypatch):
    """The lift of phi to the cover that pert_finite decides, caught on its
    way into the class decision."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(duality, "_class_report", lambda *args, **kwargs: seen.append(args))
        pert_finite(phi, cover)
    system, k, vector, _ = seen[0]
    return Cochain(system, k, vector)


def pert_order(lift, cover):
    """Z[pi] (x) Z^r is r copies of Z[pi], one per trivial coordinate t, so
    the lifted class is zero iff its r parts span 0 in H^k(X; Z[pi]); a
    nonzero class reads as None."""
    r = lift.system.rank // cover.model.order
    group_ring = LocalSystem.from_rep(cover, regular_rep(cover.model))
    image = cochain_differential_matrix(group_ring, lift.degree - 1)
    return 1 if full_order(image, *(lift.vector[t::r] for t in range(r))) == 1 else None


def morse_class(pair, cycle):
    """(is_zero, order) of a cycle's class in a PairHomology of the Morse
    complex: unlike its Smith coordinates, both are basis-free."""
    coords = pair.coordinates(cycle)
    return not any(coords), class_order(pair.invariants, coords)


CLASS_CASES = [  # (command, space, power, order): ROADMAP item 17's fifteen cases
    ("pert", "rp3", 1, 1), ("pert", "rp3", 3, 1), ("pert", 3, 3, 1), ("pert", 4, 3, 1),
    ("pert", 5, 3, 1), ("pert", "q8space", 1, 1),
    ("bs-class", "rp3", 3, 2), ("bs-class", 3, 3, 3), ("bs-class", 4, 2, 4),
    ("bs-class", 5, 3, 5),
    ("essential", "rp3", 3, 2), ("essential", 3, 3, 3), ("essential", 4, 3, 4),
    ("essential", 5, 3, 5), ("essential", "s2xrp3", 5, 1),
]


@pytest.fixture(scope="module")
def spaces(rp3, q8space, s2cx):
    """space(name, power) -> (complex, cover, beta^power), each built once."""
    made = {}

    def space(name, power):
        if name not in made:
            cx = {"rp3": rp3, "q8space": q8space}.get(name) or (
                simplicial_product(s2cx, rp3) if name == "s2xrp3" else lens_space(name))
            made[name] = cx, build_cover(cx)
        if (name, power) not in made:
            made[name, power] = bs_power(made[name][1], power)
        return (*made[name], made[name, power])
    return space


class TestMorseClasses:
    @pytest.mark.parametrize("command, space, power, order", CLASS_CASES,
                             ids=[f"{c}-{s}-{p}" for c, s, p, _ in CLASS_CASES])
    def test_order_agrees_with_the_full_complex(self, command, space, power, order, spaces,
                                                 monkeypatch):
        cx, cover, phi = spaces(space, power)
        if command == "essential":
            z = cap(phi, orient(cx))
            morse = MorseProjection(phi.system)
            d = morse.differentials()
            zero, got = morse_class(PairHomology(d[0], d[1]), morse.transfer(0, z))
            assert full_order(chain_boundary_matrix(phi.system, 1), z) == got
        else:
            lift = pert_lift(phi, cover, monkeypatch) if command == "pert" else phi
            morse = MorseProjection(lift.system)
            delta = morse.differentials(dual=True)
            zero, got = morse_class(PairHomology(delta[power + 1], delta[power]),
                                    morse.transfer(power, lift.vector, dual=True))
            assert got == (pert_order(lift, cover) if command == "pert" else
                           full_order(cochain_differential_matrix(lift.system, power - 1),
                                      lift.vector))
        assert (got, zero) == (order, order == 1)

    def test_class_order(self):
        group = AbelianGroupInvariants(1, (2, 4))
        assert [class_order(group, c) for c in ((0, 0, 0), (0, 1, 2), (0, 0, 3), (1, 0, 0))] \
            == [1, 2, 4, 0]
        assert class_order(AbelianGroupInvariants(0, (6,)), (4,)) == 3
        assert class_order(AbelianGroupInvariants(0), ()) == 1

    def test_forced_classes_skip_the_full_route(self, rp3, rp3_cover, q8_cover, monkeypatch):
        # zero classes and order 2 in Z/d print from the Morse group
        for name in ("cohomology_pair", "homology_pair"):
            monkeypatch.setattr(duality, name, lambda *args: pytest.fail("full route"))
        assert essentiality_pairing(orient(rp3), rp3_cover).render() == \
            "(beta^3) cap [M] class = (1) in Z/2 [nonzero]"
        assert bs_class_report(rp3_cover, 3).render() == "beta^3 class = (1) in Z/2 [nonzero]"
        assert pert_finite(bs_power(rp3_cover, 3), rp3_cover).render() == \
            "pert class = (0) in Z^1 [zero]"
        assert pert_finite(bs_power(q8_cover, 1), q8_cover).render() == \
            "pert class = () in 0 [zero]"

    def test_routes_that_disagree_raise(self, spaces, monkeypatch):
        # Z^6 + Z/4 is not cyclic, so the class prints from the full route,
        # whose order 4 must match the Morse order, here made 2
        cx, cover, _ = spaces(4, 3)
        real = MorseProjection.transfer
        monkeypatch.setattr(MorseProjection, "transfer", lambda self, k, v, dual=False:
                            [2 * x for x in real(self, k, v, dual)])
        with pytest.raises(CertificateError, match=r"order 4 in Z\^6 \+ Z/4 on the full complex, "
                                                   r"2 in Z\^6 \+ Z/4 on the Morse one$"):
            essentiality_pairing(orient(cx), cover)


class TestCoreduction:
    @pytest.mark.parametrize("make, betti", [
        (lambda: load_fixture("rp3.cplx"), [1, 1, 1, 1]),
        (lambda: load_fixture("t3.cplx"), [1, 3, 3, 1]),
        (lambda: lens_space(3), [1, 1, 1, 1]),
        (lambda: torus_complex(4), [1, 4, 6, 4, 1])],
        ids=["rp3", "t3", "lens3", "t4"])
    def test_critical_cells_are_the_betti_numbers(self, make, betti):
        # the critical counts bound the Betti numbers over Q; here they meet them
        assert critical_counts(make()) == betti

    def test_matching_is_kept_and_deterministic(self, t3):
        assert t3.coreduction() is t3.coreduction()
        again = load_fixture("t3.cplx").coreduction()
        assert again == t3.coreduction()

    def test_matching_is_acyclic_in_removal_order(self):
        cx = lens_space(3)
        critical, stamp, partner = cx.coreduction()
        for k in range(cx.dim + 1):
            for f, u in enumerate(partner[k]):
                if u >= 0:  # every other face of u left before the pair
                    faces = cx.boundary_terms(k + 1)[u]
                    assert f in faces and partner[k + 1][u] == -2
                    assert all(stamp[k][g] < stamp[k][f] for g in faces if g != f)
            for c in critical[k]:
                assert all(stamp[k - 1][g] < stamp[k][c] for g in cx.boundary_terms(k)[c])
        matched = sum(u >= 0 for level in partner for u in level)
        assert sum(map(len, critical)) + 2 * matched == sum(cx.counts())

    def test_disconnected_complex(self):
        cx = eqhom.complexes.SimplicialComplex([(0, 1, 2), (3, 4), (4, 5), (3, 5), (6,)])
        assert critical_counts(cx) == [3, 1, 0]
        assert [str(h) for h in homology(cx)] == ["Z^3", "Z^1", "0"]


class TestChecks:
    def test_swapped_face_index_fails_both_routes(self):
        for route in (local_homology, full_homology, local_cohomology, full_cohomology):
            cx = load_fixture("rp2.cplx")
            terms = cx.boundary_terms(2)
            f0, f1, f2 = terms[3]
            terms[3] = (f1, f0, f2)
            with pytest.raises(PreconditionError):
                route(LocalSystem(cx, 1))

    def test_altered_edge_holonomy_fails_both_routes(self):
        for route in (local_homology, full_homology, local_cohomology, full_cohomology):
            cover = build_cover(lens_space(3))
            u, v = next(e for e in cover.base.simplices(1) if cover.holonomy(*e) == 0)
            cover._holonomy[(u, v)], cover._holonomy[(v, u)] = 1, cover.model.inv(1)
            system = LocalSystem.from_rep(cover, regular_rep(cover.model))
            with pytest.raises(PreconditionError):
                route(system)

    def test_broken_cocycle_fails_the_group_ring_check(self):
        cover = build_cover(lens_space(3))
        e = cover.base.simplices(1)[5]
        cover._holonomy[e] = cover.model.mul(cover.holonomy(*e), 1)
        with pytest.raises(PreconditionError, match="^edge holonomies are not a cocycle"):
            check_chain_condition(LocalSystem(cover.base, 1, cover=cover))

    def test_representation_not_multiplicative(self, lens3_cover):
        # every nonidentity element of Z/3 acting as -1: rho(g) rho(g) != rho(g^2)
        rep = IntRepresentation(lens3_cover.model, 1, lambda g: IntMatrix.identity(1)
                                if g == 0 else IntMatrix.from_rows([[-1]]))
        with pytest.raises(PreconditionError, match="^the representation is not multiplicative"):
            local_homology(LocalSystem.from_rep(lens3_cover, rep))

    def test_euler_characteristic_mismatch(self, monkeypatch, t2):
        real = eqhom.complexes.chain_homology

        def one_more_free(differentials):
            groups = real(differentials)
            return [AbelianGroupInvariants(groups[0].free_rank + 1)] + groups[1:]

        monkeypatch.setattr(eqhom.complexes, "chain_homology", one_more_free)
        with pytest.raises(CertificateError, match="Euler characteristic"):
            local_homology(LocalSystem(t2, 1))
