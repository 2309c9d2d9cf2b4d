from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from eqhom.complexes import (EquivariantComplex, LocalSystem,
                             SimplicialComplex, build_cover, chain_boundary_matrix,
                             check_chain_condition,
                             cochain_differential_matrix, cohomology,
                             barycentric_subdivision, cycle_complex,
                             fundamental_group, homology,
                             lens_space, load_complex, local_cohomology,
                             local_homology, render_homology,
                             simplicial_product, torus_complex)
from eqhom.duality import orient
from eqhom.groups import (FreeGroup, GroupPresentation, _default_names,
                          augmentation_ideal_rep, regular_rep, todd_coxeter, trivial_rep)
import eqhom.intlinalg
from eqhom.errors import InputError, ModelMismatch, PreconditionError
from eqhom.intlinalg import (AbelianGroupInvariants, IntMatrix,
                             cokernel_invariants, matmul)

from conftest import fixture_path, load_fixture

FIXTURE_NAMES = ("circle", "t2", "t3", "s2", "s3", "rp2", "rp3")


def euler_characteristic(cx):
    return sum((-1) ** k * len(cx.simplices(k)) for k in range(cx.dim + 1))


class TestConstruction:
    def test_circle_from_text(self):
        cx = load_complex("f 0 1\nf 1 2\nf 0 2\n")
        assert cx.counts() == [3, 3]
        assert [str(h) for h in homology(cx)] == ["Z^1", "Z^1"]

    def test_boundary_of_tetrahedron(self):
        cx = SimplicialComplex(list(combinations(range(4), 3)))
        assert cx.counts() == [4, 6, 4]
        assert euler_characteristic(cx) == 2

    def test_rp2_counts(self, rp2):
        assert rp2.counts() == [6, 15, 10]

    def test_parse_error_carries_line(self):
        with pytest.raises(InputError, match=r"^line 2: expected 'f v0 v1 \.\.\.'$") as exc:
            load_complex("f 0 1\ng 1 2\n")
        assert "line 2" in str(exc.value)

    def test_duplicate_vertex(self):
        with pytest.raises(InputError, match="^line 1: repeated vertex$"):
            load_complex("f 0 0 1\n")

    @pytest.mark.parametrize("simplices, message", [
        ([], "^empty complex$"),
        ([(-1, 0)], "^negative vertex id$"),
        ([(0, 0)], r"^repeated vertex in \(0, 0\)$")],
        ids=["empty", "negative", "repeated"])
    def test_bad_simplices(self, simplices, message):
        with pytest.raises(InputError, match=message):
            SimplicialComplex(simplices)

    def test_orient_line_is_ignored(self):
        with open(fixture_path("t2.cplx"), encoding="utf-8") as fh:
            text = fh.read()
        assert "orient: auto" in text
        bare = "\n".join(line for line in text.splitlines()
                         if line.strip() != "orient: auto")
        with_line, without = load_complex(text), load_complex(bare)
        assert with_line.facets == without.facets
        assert all(with_line.simplices(k) == without.simplices(k)
                   for k in range(with_line.dim + 1))

    def test_facets_are_the_maximal_faces(self):
        def quadratic_facets(cx):
            faces = [s for k in range(cx.dim + 1) for s in cx.simplices(k)]
            return sorted((s for s in faces
                           if not any(s != t and set(s) <= set(t) for t in faces)),
                          key=lambda s: (len(s), s))

        complexes = [load_fixture(f"{name}.cplx") for name in FIXTURE_NAMES]
        complexes += [lens_space(3), SimplicialComplex([(0, 1, 2), (1, 2), (3,)])]
        for cx in complexes:
            assert cx.facets == quadratic_facets(cx)
        assert complexes[-1].facets == [(3,), (0, 1, 2)]

    def test_boundary_matrix_is_the_trivial_chain_differential(self):
        for name in FIXTURE_NAMES:
            cx = load_fixture(f"{name}.cplx")
            system = LocalSystem(cx, 1)
            for k in range(-1, cx.dim + 2):
                mat = cx.boundary_matrix(k)
                assert chain_boundary_matrix(system, k) == mat
                # face i of a simplex enters with sign (-1)^i
                for j, s in enumerate(cx.simplices(k) if k >= 1 else ()):
                    col = {cx.index(s[:i] + s[i + 1:]): (-1) ** i
                           for i in range(len(s))}
                    assert mat.col(j) == [col.get(r, 0) for r in range(mat.rows)]

    def test_boundary_squares_to_zero(self):
        for name in ("t2", "s2", "s3", "rp2", "rp3", "t3"):
            cx = load_fixture(f"{name}.cplx")
            for k in range(1, cx.dim + 1):
                assert matmul(cx.boundary_matrix(k),
                              cx.boundary_matrix(k + 1)).is_zero()


class TestHomology:
    def test_point(self):
        cx = SimplicialComplex([(0,)])
        assert [str(h) for h in homology(cx)] == ["Z^1"]

    def test_golden_values(self):
        for name in ("circle", "t2", "s2", "s3", "rp2", "rp3", "t3"):
            cx = load_fixture(f"{name}.cplx")
            with open(fixture_path(f"{name}.golden")) as fh:
                golden = fh.read().rstrip("\n")
            assert render_homology(homology(cx)) == golden

    @pytest.mark.parametrize("name, groups", [("t3", homology), ("rp3", cohomology)])
    def test_each_differential_factored_once(self, monkeypatch, name, groups):
        factored = []
        real = eqhom.intlinalg._nonzero_factors

        def counting(mat, skip=frozenset()):
            factored.append(mat)  # kept alive, so the ids stay distinct
            return real(mat, skip)

        monkeypatch.setattr(eqhom.intlinalg, "_nonzero_factors", counting)
        groups(load_fixture(f"{name}.cplx"))
        # one call per differential d_0 .. d_4; two of the 1 x 1 Morse
        # differentials may be equal, so they are told apart by identity
        assert len(factored) == len({id(mat) for mat in factored}) == 5

    def test_euler_equals_alternating_betti(self):
        for name in ("circle", "t2", "s2", "s3", "rp2", "rp3", "t3"):
            cx = load_fixture(f"{name}.cplx")
            betti = sum((-1) ** k * h.free_rank
                        for k, h in enumerate(homology(cx)))
            assert betti == euler_characteristic(cx)

    def test_cohomology_t2(self, t2):
        assert [str(h) for h in cohomology(t2)] == ["Z^1", "Z^2", "Z^1"]


class TestFundamentalGroup:
    def test_sphere_is_simply_connected(self, s2cx):
        pres = fundamental_group(s2cx)
        assert todd_coxeter(pres, 50).order == 1

    def test_circle_free_of_rank_one(self):
        pres = fundamental_group(cycle_complex(3))
        assert len(pres.generators) == 1
        assert pres.relators == ()

    def test_rp2_has_order_two(self, rp2):
        pres = fundamental_group(rp2)
        assert todd_coxeter(pres, 50).order == 2

    def test_not_connected(self):
        cx = SimplicialComplex([(0, 1, 2), (3, 4, 5)])
        with pytest.raises(PreconditionError, match="^complex is not connected$"):
            fundamental_group(cx)


def edge_path_reference(cx, basepoint):
    """The edge-path presentation built from vertex pairs, or None if the
    complex is not connected: a BFS spanning tree over sorted neighbours,
    and triangle (a, b, c) read as the words of (a, b), (b, c), (c, a)."""
    adj = {v: [] for v in cx.vertex_ids}
    for u, v in cx.simplices(1):
        adj[u].append(v)
        adj[v].append(u)
    seen, tree, frontier = {basepoint}, set(), [basepoint]
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(adj[u]):
                if w not in seen:
                    seen.add(w)
                    tree.add(tuple(sorted((u, w))))
                    nxt.append(w)
        frontier = nxt
    if len(seen) != cx.vertices:
        return None
    nontree = [e for e in cx.simplices(1) if e not in tree]
    names = _default_names(len(nontree))
    name_of = dict(zip(nontree, names))

    def edge_word(u, v):
        e = tuple(sorted((u, v)))
        return () if e in tree else ((name_of[e], 1 if (u, v) == e else -1),)

    words = (edge_word(a, b) + edge_word(b, c) + edge_word(c, a)
             for a, b, c in cx.simplices(2))
    return GroupPresentation(names, [w for w in words if w])


def orientation_reference(cx):
    """Facet signs propagated depth first from facet 0 over ridges cut out
    of the facets' vertex tuples; None if the signs contradict."""
    n = cx.dim
    incidence = {}
    for j, s in enumerate(cx.simplices(n)):
        for i in range(n + 1):
            incidence.setdefault(s[:i] + s[i + 1:], []).append((j, i))
    neighbors = {}
    for (j1, i1), (j2, i2) in incidence.values():
        neighbors.setdefault(j1, []).append((j2, i1 + i2))
        neighbors.setdefault(j2, []).append((j1, i1 + i2))
    signs, stack = {0: 1}, [0]
    while stack:
        j = stack.pop()
        for j2, parity in neighbors[j]:
            forced = -signs[j] * (-1) ** parity
            if j2 not in signs:
                signs[j2] = forced
                stack.append(j2)
            elif signs[j2] != forced:
                return None
    return tuple(signs[j] for j in range(len(signs)))


# Facet sets on at most 7 vertices, joined into one component by edges
# between the least vertices of consecutive facets.
connected_complexes = st.lists(
    st.sets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=8
).map(lambda facets: SimplicialComplex(
    [tuple(f) for f in facets]
    + [(min(f), min(g)) for f, g in zip(facets, facets[1:]) if min(f) != min(g)]))


class TestFaceReaders:
    """The complex's kept boundary terms give the same presentation and
    orientation as the definitions on vertex tuples."""

    @pytest.fixture(scope="class")
    def complexes(self):
        return ([load_fixture(f"{name}.cplx") for name in FIXTURE_NAMES]
                + [lens_space(p) for p in (3, 4, 5)])

    def test_terms_are_kept(self, complexes):
        for cx in complexes:
            for k in range(1, cx.dim + 1):
                assert cx.boundary_terms(k) is cx.boundary_terms(k)

    def test_presentation_matches_vertex_pairs(self, complexes):
        for cx in complexes:
            assert fundamental_group(cx) == edge_path_reference(cx, 0)

    @settings(max_examples=60, deadline=None)
    @given(connected_complexes)
    def test_presentation_matches_vertex_pairs_on_drawn_complexes(self, cx):
        for basepoint in (cx.vertex_ids[0], cx.vertex_ids[-1]):
            assert fundamental_group(cx, basepoint) == edge_path_reference(cx, basepoint)

    def test_orientation_matches_ridge_tuples(self, complexes):
        for cx in complexes:
            expected = orientation_reference(cx)
            if expected is None:
                with pytest.raises(PreconditionError,
                                   match="^orientation propagation contradicts$"):
                    orient(cx)
            else:
                assert orient(cx).orientation == expected


class TestUniversalCover:
    def test_rp2_double_cover(self, rp2, rp2_cover):
        assert rp2_cover.counts() == [12, 30, 20]
        cc = rp2_cover.cover_complex()
        assert [str(h) for h in homology(cc)] == ["Z^1", "0", "Z^1"]

    def test_simply_connected_cover_is_base(self, s2cx):
        cover = build_cover(s2cx)
        assert cover.model.order == 1
        assert cover.cover_complex().counts() == s2cx.counts()
        assert homology(cover.cover_complex()) == homology(s2cx)

    def test_rp3_cover_is_sphere(self, rp3_cover):
        cc = rp3_cover.cover_complex()
        assert cc.counts() == [80, 464, 768, 384]
        assert [str(h) for h in homology(cc)] == ["Z^1", "0", "0", "Z^1"]

    def test_ring_boundary_squares_to_zero(self, rp2_cover, rp3_cover):
        for cover in (rp2_cover, rp3_cover):
            check_chain_condition(LocalSystem(cover.base, 1, cover=cover))

    def test_deck_action_free(self, rp2_cover, rp3_cover):
        assert rp2_cover.deck_action_is_free()
        assert rp3_cover.deck_action_is_free()

    def test_ring_boundary_entries_are_monomials(self, rp2_cover):
        # Each Z[pi] entry of d_2 is one term +-g: no face appears twice.
        terms = rp2_cover.boundary_terms(2)
        assert terms
        elements = set(rp2_cover.model.elements())
        for faces in terms:
            assert len({face for face, _, _ in faces}) == len(faces)
            for _, sign, elt in faces:
                assert sign in (1, -1) and elt in elements

    @pytest.mark.parametrize("cover", ["rp2_cover", "rp3_cover", "lens3_cover", "q8_cover"])
    def test_boundary_terms_are_the_dual_faces(self, cover, request):
        # Nothing in the library reads EquivariantComplex.boundary_terms; it
        # must state the same face rule as LocalSystem.faces on the coboundary.
        cover = request.getfixturevalue(cover)
        system = LocalSystem.from_rep(cover, regular_rep(cover.model))
        for k in range(1, cover.base.dim + 1):
            cells = range(len(cover.base.simplices(k)))
            assert cover.boundary_terms(k) == [system.faces(k, c, dual=True) for c in cells]

    def test_presentation_mismatch(self, rp2):
        wrong = todd_coxeter(GroupPresentation(("a",), ("aa",)), 10)
        with pytest.raises(PreconditionError,
                           match="^model was not built from this complex's pi_1 presentation$"):
            EquivariantComplex(rp2, wrong)

    def test_infinite_model_rejected(self, rp2):
        with pytest.raises(PreconditionError,
                           match="^universal covers are built for finite models only$"):
            EquivariantComplex(rp2, FreeGroup(2))

    def test_one_edge_path_presentation_per_cover(self, rp2, monkeypatch):
        import eqhom.complexes
        calls = []
        edge_path = eqhom.complexes._edge_path_data

        def counted(cx, basepoint):
            calls.append(basepoint)
            return edge_path(cx, basepoint)

        monkeypatch.setattr(eqhom.complexes, "_edge_path_data", counted)
        cover = build_cover(rp2)
        assert calls == [0]
        assert cover.counts() == [12, 30, 20]
        assert EquivariantComplex(rp2, cover.model).counts() == cover.counts()
        assert calls == [0, 0]  # a direct caller's model is checked


class TestLocalCoefficients:
    def test_trivial_system_matches_base(self, rp2):
        sys0 = LocalSystem(rp2, 1)
        assert local_homology(sys0) == homology(rp2)
        assert local_cohomology(sys0) == cohomology(rp2)

    def test_shapiro_regular_equals_cover(self, rp2_cover, rp3_cover):
        for cover in (rp2_cover, rp3_cover):
            system = LocalSystem.from_rep(cover, regular_rep(cover.model))
            assert local_homology(system) == \
                homology(cover.cover_complex())

    def test_sign_coefficients_h0(self, rp2_cover, rp3_cover):
        for cover in (rp2_cover, rp3_cover):
            system = LocalSystem.from_rep(
                cover, augmentation_ideal_rep(cover.model))
            groups = local_homology(system)
            assert groups[0] == AbelianGroupInvariants(0, (2,))

    def test_rp3_triple_power_h3(self, rp3_cover):
        from eqhom.groups import tensor_power
        ideal = augmentation_ideal_rep(rp3_cover.model)
        system = LocalSystem.from_rep(rp3_cover, tensor_power(ideal, 3))
        co = local_cohomology(system)
        assert co[3] == AbelianGroupInvariants(0, (2,))
        # duality cross-check: the same group shows up as coinvariants in
        # degree zero homology
        ho = local_homology(system)
        assert ho[0] == AbelianGroupInvariants(0, (2,))

    def test_rank_zero_system_shapes(self, rp2):
        system = LocalSystem(rp2, 0)
        for k in range(-1, rp2.dim + 2):
            for mat in (chain_boundary_matrix(system, k),
                        cochain_differential_matrix(system, k)):
                assert (mat.rows, mat.cols) == (0, 0)
        assert [str(h) for h in local_homology(system)] == ["0"] * 3

    def test_cochain_differential_below_degree_zero(self, rp2, rp2_cover):
        from eqhom.groups import tensor_power
        ideal = augmentation_ideal_rep(rp2_cover.model)
        n0 = len(rp2.simplices(0))
        for system in (LocalSystem(rp2, 1), LocalSystem(rp2, 3),
                       LocalSystem.from_rep(rp2_cover, regular_rep(rp2_cover.model)),
                       LocalSystem.from_rep(rp2_cover, tensor_power(ideal, 2))):
            mat = cochain_differential_matrix(system, -1)
            assert (mat.rows, mat.cols) == (n0 * system.rank, 0)

    def test_tensor_builds_no_matrix_until_used(self, rp3_cover, monkeypatch):
        ideal = LocalSystem.from_rep(rp3_cover, augmentation_ideal_rep(rp3_cover.model))
        ideal.rep.matrix_of(1)
        built = []
        real = IntMatrix.kronecker
        monkeypatch.setattr(IntMatrix, "kronecker",
                            lambda a, b: built.append((a, b)) or real(a, b))
        both = ideal.tensor(ideal)
        mixed = ideal.tensor(LocalSystem(rp3_cover.base, 2))
        assert built == []
        both.rep.matrix_of(1)
        mixed.rep.matrix_of(1)
        assert len(built) == 2

    def test_holonomy_matrix_is_the_edge_transport(self, lens3_cover):
        cx = lens3_cover.base
        trivial = LocalSystem(cx, 2)
        system = LocalSystem.from_rep(lens3_cover, augmentation_ideal_rep(lens3_cover.model))
        rho = system.rep.matrix_of
        eye = IntMatrix.identity(system.rank)
        reversed_differs = 0
        for u, v in cx.simplices(1):
            assert trivial.holonomy(u, v) == 0 and trivial.holonomy(v, u) == 0
            assert system.holonomy(u, u) == 0
            forward, back = system.holonomy(u, v), system.holonomy(v, u)
            assert forward == lens3_cover.holonomy(u, v)
            assert matmul(rho(forward), rho(back)) == eye
            assert matmul(rho(back), rho(forward)) == eye
            reversed_differs += rho(forward) != rho(back)
        # Z/3 acting on I: a nontrivial holonomy is not its own inverse.
        assert reversed_differs

    def test_twisted_system_needs_a_cover(self, rp3_cover):
        rep = augmentation_ideal_rep(rp3_cover.model)
        with pytest.raises(ModelMismatch, match="^twisted local system has no cover$"):
            LocalSystem(rp3_cover.base, rep.rank, rep=rep)

    def test_simply_connected_any_coefficients(self, s2cx):
        cover = build_cover(s2cx)
        rep = trivial_rep(cover.model, 2)
        system = LocalSystem.from_rep(cover, rep)
        co = local_cohomology(system)
        assert [str(h) for h in co] == ["Z^2", "0", "Z^2"]


class TestBuilders:
    def test_product_torus(self):
        t2 = simplicial_product(cycle_complex(3), cycle_complex(3))
        assert t2.counts() == [9, 27, 18]
        assert [str(h) for h in homology(t2)] == ["Z^1", "Z^2", "Z^1"]

    def test_torus_complex_matches_fixture(self, t3):
        assert torus_complex(3).counts() == t3.counts()


# Pure complexes of dimension 1 or 2 on at most 6 vertices (subdivision
# keeps only the top simplices), and three small fixtures, one with torsion.
pure_complexes = st.integers(2, 3).flatmap(
    lambda size: st.sets(st.sampled_from(list(combinations(range(6), size))),
                         min_size=1, max_size=7)
).map(lambda facets: SimplicialComplex(sorted(facets)))
small_complexes = st.one_of(
    pure_complexes,
    st.sampled_from(("circle", "s2", "rp2")).map(lambda name: load_fixture(f"{name}.cplx")))


def cyclic_orders(group):
    """The group as a list of cyclic orders, 0 for each copy of Z."""
    return [0] * group.free_rank + list(group.torsion)


def direct_sum(orders):
    """Invariants of the sum of cyclic groups Z/d (Z for d = 0)."""
    n = len(orders)
    return cokernel_invariants(IntMatrix(n, n, [
        [d if i == j else 0 for j in range(n)] for i, d in enumerate(orders)]))


def kunneth(hx, hy):
    """H_n(X x Y) from H_*(X) and H_*(Y): the tensor and Tor terms."""
    out = []
    for n in range(len(hx) + len(hy) - 1):
        orders = []
        for i, gx in enumerate(hx):
            for j, gy in enumerate(hy):
                if i + j == n:  # Z/a (x) Z/b = Z/gcd(a, b), with Z = Z/0
                    orders += [gcd(a, b) for a in cyclic_orders(gx) for b in cyclic_orders(gy)]
                elif i + j == n - 1:  # Tor(Z/a, Z/b) = Z/gcd(a, b) for a, b >= 2
                    orders += [gcd(a, b) for a in gx.torsion for b in gy.torsion]
        out.append(direct_sum([d for d in orders if d != 1]))
    return out


class TestHomologyProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_complexes)
    def test_subdivision_invariance(self, cx):
        assert homology(barycentric_subdivision(cx)[0]) == homology(cx)

    @settings(max_examples=25, deadline=None)
    @given(small_complexes, small_complexes)
    def test_kunneth_on_products(self, cx1, cx2):
        assert homology(simplicial_product(cx1, cx2)) == kunneth(homology(cx1), homology(cx2))

    def test_kunneth_tor_term(self):
        # RP2 x RP2 is the smallest product here whose H_3 is all Tor.
        rp2 = load_fixture("rp2.cplx")
        hx = homology(rp2)
        assert [str(h) for h in kunneth(hx, hx)] == ["Z^1", "Z/2 + Z/2", "Z/2", "Z/2", "0"]
        assert homology(simplicial_product(rp2, rp2)) == kunneth(hx, hx)
