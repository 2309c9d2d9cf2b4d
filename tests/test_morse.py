"""The Morse complex on critical cells against the full differentials.

local_homology and local_cohomology factor the Morse complex of the base
complex's coreduction, d^M = P d through the Morse projection P.  The full route, chain_homology over
chain_boundary_matrix / cochain_differential_matrix with one rank-L block
per simplex, is the oracle here; both routes must reject a broken face
relation or holonomy with PreconditionError.
"""

import pytest
from hypothesis import given, settings

import eqhom.complexes
from eqhom.complexes import (LocalSystem, MorseProjection, build_cover,
                             chain_boundary_matrix, check_chain_condition,
                             cochain_differential_matrix, homology, lens_space,
                             local_cohomology, local_homology, simplicial_product,
                             torus_complex)
from eqhom.errors import CertificateError, PreconditionError
from eqhom.groups import (IntRepresentation, augmentation_ideal_rep, regular_rep,
                          tensor_power)
from eqhom.intlinalg import AbelianGroupInvariants, IntMatrix, chain_homology, matmul

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
