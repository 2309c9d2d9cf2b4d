import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from eqhom.intlinalg import (AbelianGroupInvariants, ChainConditionViolated,
                             IntMatrix, PairHomology, chain_homology,
                             cokernel_invariants, determinant, invariant_factors,
                             is_isomorphism_onto, kernel_basis, lattice_basis,
                             matmul, matvec, rank, smith_normal_form,
                             solve_columns, unimodular_inverse)


def M(rows, cols=None):
    return IntMatrix.from_rows(rows, cols)


small_matrices = st.integers(0, 5).flatmap(
    lambda m: st.integers(0, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m).map(lambda rows: IntMatrix(m, n, rows))))


class TestSmithForm:
    def test_identity(self):
        sf = smith_normal_form(IntMatrix.identity(2))
        assert sf.invariant_factors == (1, 1)
        assert sf.U == IntMatrix.identity(2)
        assert sf.V == IntMatrix.identity(2)

    def test_diag_2_3(self):
        sf = smith_normal_form(M([[2, 0], [0, 3]]))
        assert sf.invariant_factors == (1, 6)

    def test_rank_deficient(self):
        # gcd of the entries is 1 and every 2x2 minor vanishes
        sf = smith_normal_form(M([[4, 6], [6, 9]]))
        assert sf.invariant_factors == (1, 0)

    def test_empty_shapes(self):
        for (m, n) in [(0, 0), (0, 3), (3, 0)]:
            sf = smith_normal_form(IntMatrix.zeros(m, n))
            assert sf.invariant_factors == ()
            assert sf.S.rows == m and sf.S.cols == n

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_transform_identities(self, a):
        sf = smith_normal_form(a)
        assert matmul(matmul(sf.U, a), sf.V) == sf.S
        assert abs(determinant(sf.U)) == 1
        assert abs(determinant(sf.V)) == 1
        assert matmul(sf.U, sf.uinv) == IntMatrix.identity(a.rows)
        assert matmul(sf.V, sf.vinv) == IntMatrix.identity(a.cols)

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_divisibility_chain_and_fast_path(self, a):
        sf = smith_normal_form(a)
        facs = list(sf.invariant_factors)
        nonzero = [d for d in facs if d]
        assert all(d > 0 for d in nonzero)
        assert facs[len(nonzero):] == [0] * (len(facs) - len(nonzero))
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        assert invariant_factors(a) == facs

    @settings(max_examples=100, deadline=None)
    @given(small_matrices)
    def test_deterministic(self, a):
        sf1 = smith_normal_form(a)
        sf2 = smith_normal_form(a)
        assert sf1.U == sf2.U and sf1.V == sf2.V and sf1.S == sf2.S

    def test_factor_product_equals_minor_gcd(self):
        # product of the first k nonzero factors = gcd of all k x k minors
        rng = random.Random(11)
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            a = IntMatrix(m, n, [[rng.randint(-9, 9) for _ in range(n)]
                                 for _ in range(m)])
            facs = [d for d in invariant_factors(a) if d]
            for k in range(1, len(facs) + 1):
                minors = []
                for ri in combinations(range(m), k):
                    for ci in combinations(range(n), k):
                        sub = IntMatrix(k, k, [[a.data[i][j] for j in ci]
                                               for i in ri])
                        minors.append(abs(determinant(sub)))
                g = 0
                for v in minors:
                    while v:
                        g, v = v, g % v
                prod = 1
                for d in facs[:k]:
                    prod *= d
                assert prod == g


class TestBlockAssembly:
    def test_identity_blocks(self):
        mat = IntMatrix.from_blocks(4, 6, (2, 2), [(0, 2, 3, None),
                                                   (1, 0, -1, None),
                                                   (1, 0, -1, None)])
        assert mat == M([[0, 0, 0, 0, 3, 0], [0, 0, 0, 0, 0, 3],
                         [-2, 0, 0, 0, 0, 0], [0, -2, 0, 0, 0, 0]])

    def test_scaled_square_blocks(self):
        b = M([[1, 2], [0, -1]])
        mat = IntMatrix.from_blocks(4, 4, (2, 2), [(0, 0, 2, b), (1, 1, -1, b),
                                                   (1, 1, 3, None)])
        assert mat == M([[2, 4, 0, 0], [0, -2, 0, 0],
                         [0, 0, 2, -2], [0, 0, 0, 4]])

    def test_non_square_blocks_kronecker(self):
        # [[1, -2]] (x) [[1], [2], [3]], written out by hand
        b = M([[1], [2], [3]])
        mat = IntMatrix.from_blocks(3, 2, (3, 1), [(0, 0, 1, b), (0, 1, -2, b)])
        assert mat == M([[1, -2], [2, -4], [3, -6]])

    @settings(max_examples=60, deadline=None)
    @given(small_matrices, small_matrices)
    def test_kronecker_definition(self, a, b):
        blocks = [(i, j, a.data[i][j], b) for i in range(a.rows)
                  for j in range(a.cols)]
        mat = IntMatrix.from_blocks(a.rows * b.rows, a.cols * b.cols,
                                    (b.rows, b.cols), blocks)
        want = [[a.data[i][j] * b.data[p][q]
                 for j in range(a.cols) for q in range(b.cols)]
                for i in range(a.rows) for p in range(b.rows)]
        assert mat == IntMatrix(a.rows * b.rows, a.cols * b.cols, want)


class TestKernels:
    def test_identity_kernel_empty(self):
        assert kernel_basis(IntMatrix.identity(3)).cols == 0

    def test_one_equation(self):
        k = kernel_basis(M([[1, 1]]))
        assert k.cols == 1
        assert [abs(v) for v in k.col(0)] == [1, 1]

    def test_saturated_2_4(self):
        k = kernel_basis(M([[2, 4]]))
        col = k.col(0)
        assert sorted(abs(v) for v in col) == [1, 2]
        assert 2 * col[0] + 4 * col[1] == 0

    @settings(max_examples=100, deadline=None)
    @given(small_matrices)
    def test_kernel_lattice(self, a):
        k = kernel_basis(a)
        assert matmul(a, k).is_zero()
        assert k.cols == a.cols - rank(a)
        # saturated: the basis extends to a basis of the ambient lattice
        assert all(d == 1 for d in invariant_factors(k) if d)

    def test_membership_by_enumeration(self):
        rng = random.Random(5)
        for _ in range(20):
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            a = IntMatrix(m, n, [[rng.randint(-3, 3) for _ in range(n)]
                                 for _ in range(m)])
            k = kernel_basis(a)
            for vec in product(range(-2, 3), repeat=n):
                if any(matvec(a, list(vec))):
                    continue
                # every small kernel vector is an integer combination
                solve_columns(k, IntMatrix.column(list(vec)))


class TestCokernel:
    def test_z2(self):
        assert cokernel_invariants(M([[2]])) == AbelianGroupInvariants(0, (2,))

    def test_diag23(self):
        assert cokernel_invariants(M([[2, 0], [0, 3]])) == \
            AbelianGroupInvariants(0, (6,))

    def test_zero_matrix(self):
        assert cokernel_invariants(IntMatrix.zeros(2, 3)) == \
            AbelianGroupInvariants(2)

    def test_rendering(self):
        assert str(AbelianGroupInvariants(1, (2,))) == "Z^1 + Z/2"
        assert str(AbelianGroupInvariants(0)) == "0"
        assert str(AbelianGroupInvariants(0, (2, 4))) == "Z/2 + Z/4"


class TestHomologyOfPair:
    def triangle_boundary(self):
        # circle with three vertices and three edges
        return M([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])

    def test_circle_h1(self):
        d1 = self.triangle_boundary()
        h1 = chain_homology([IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0)])[0]
        assert h1 == AbelianGroupInvariants(3)  # no relations at all
        h1 = chain_homology([
            # ker(d1)/im(nothing): rank of the cycle lattice of the circle
            d1, IntMatrix.zeros(3, 0)])[0]
        assert h1 == AbelianGroupInvariants(1)

    def test_circle_h0(self):
        d1 = self.triangle_boundary()
        h0 = chain_homology([IntMatrix.zeros(0, 3), d1])[0]
        assert h0 == AbelianGroupInvariants(1)

    def test_chain_condition_enforced(self):
        with pytest.raises(ChainConditionViolated):
            chain_homology([M([[1, 0]]), M([[1], [0]])])

    def test_unimodular_change_of_basis_invariance(self):
        rng = random.Random(3)
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = IntMatrix(m, n, [[rng.randint(-4, 4) for _ in range(n)]
                                 for _ in range(m)])
            k = kernel_basis(a)
            r = IntMatrix(k.cols, 2, [[rng.randint(-3, 3), rng.randint(-3, 3)]
                                      for _ in range(k.cols)])
            b = matmul(k, r)
            base = chain_homology([a, b])[0]
            p = _random_unimodular(n, rng)
            a2 = matmul(a, p)
            b2 = matmul(unimodular_inverse(p), b)
            assert chain_homology([a2, b2])[0] == base

    def test_chain_homology_matches_pair_homology(self):
        # Each degree of a stream equals the transform route on its pair.
        rng = random.Random(11)
        for _ in range(40):
            length = rng.randint(3, 4)
            ds = [IntMatrix.zeros(0, rng.randint(1, 4))]
            for _ in range(length - 1):
                ker = kernel_basis(ds[-1])
                cols = rng.randint(0, 4)
                r = IntMatrix(ker.cols, cols, [[rng.randint(-3, 3) for _ in range(cols)]
                                               for _ in range(ker.cols)])
                ds.append(matmul(ker, r))
            groups = chain_homology(ds)
            assert len(groups) == length - 1
            for k, group in enumerate(groups):
                assert group == PairHomology(ds[k], ds[k + 1]).invariants


def _random_unimodular(n, rng):
    m = IntMatrix.identity(n)
    data = [list(r) for r in m.data]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        data[i] = [a + q * b for a, b in zip(data[i], data[j])]
    return IntMatrix(n, n, data)


class TestCoordinates:
    def test_generators_have_unit_coordinates(self):
        rng = random.Random(9)
        for _ in range(30):
            m, n = rng.randint(1, 4), rng.randint(2, 5)
            a = IntMatrix(m, n, [[rng.randint(-3, 3) for _ in range(n)]
                                 for _ in range(m)])
            k = kernel_basis(a)
            r = IntMatrix(k.cols, 2, [[rng.randint(-3, 3), rng.randint(-3, 3)]
                                      for _ in range(k.cols)])
            pair = PairHomology(a, matmul(k, r))
            for i in range(pair.num_generators):
                coords = pair.coordinates(pair.generator_cycle(i))
                expected = tuple(1 if j == i else 0
                                 for j in range(pair.num_generators))
                assert coords == expected

    def test_rejects_non_cycles(self):
        pair = PairHomology(M([[1, 1]]), IntMatrix.zeros(2, 0))
        with pytest.raises(ValueError):
            pair.coordinates([1, 0])

    def test_is_isomorphism_onto(self):
        g = AbelianGroupInvariants(1, (2,))
        assert is_isomorphism_onto(g, g, [(1, 0), (0, 1)])
        assert is_isomorphism_onto(g, g, [(1, 1), (0, 1)])
        assert not is_isomorphism_onto(g, g, [(0, 0), (0, 1)])
        assert not is_isomorphism_onto(g, g, [(1, 0), (0, 2)])
        assert is_isomorphism_onto(AbelianGroupInvariants(0),
                                   AbelianGroupInvariants(0), [])


class TestSolvers:
    def test_solve_columns(self):
        a = M([[2, 0], [0, 3]])
        b = M([[4], [9]])
        x = solve_columns(a, b)
        assert matmul(a, x) == b

    def test_unimodular_inverse(self):
        u = M([[1, 2], [0, 1]])
        assert matmul(u, unimodular_inverse(u)) == IntMatrix.identity(2)
        with pytest.raises(ValueError):
            unimodular_inverse(M([[2]]))

    def test_lattice_basis_spans(self):
        a = M([[2, 4], [0, 0]])
        b = lattice_basis(a)
        assert b.cols == 1
        assert [abs(v) for v in b.col(0)] == [2, 0]

    def test_determinant(self):
        assert determinant(IntMatrix.identity(3)) == 1
        assert determinant(M([[2, 0], [0, 3]])) == 6
        assert determinant(M([[0, 1], [1, 0]])) == -1
        assert determinant(IntMatrix.zeros(0, 0)) == 1
