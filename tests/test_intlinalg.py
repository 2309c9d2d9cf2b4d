import ast
import heapq
import random
from itertools import combinations, product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eqhom import intlinalg
from eqhom.complexes import (LocalSystem, chain_boundary_matrix,
                             cochain_differential_matrix)
from eqhom.errors import PreconditionError
from eqhom.group_homology import BarComplex, bar_homology
from eqhom.groups import (GroupPresentation, augmentation_ideal_rep,
                          regular_rep, tensor_power, todd_coxeter)
from eqhom.intlinalg import (AbelianGroupInvariants, IntMatrix, PairHomology,
                             QuotientLattice, _unit_pivots,
                             chain_homology, cokernel_invariants,
                             invariant_factors, is_isomorphism_onto,
                             kernel_basis, matmul, matvec, rank,
                             smith_normal_form)

from conftest import load_fixture
from dense_smith import dense_smith
from determinant import determinant
from lattice_oracle import (NoIntegerSolution, lattice_basis, solve_columns,
                            unimodular_inverse)
import shift_oracle


def M(rows, cols=None):
    return IntMatrix.from_rows(rows, cols)


small_matrices = st.integers(0, 5).flatmap(
    lambda m: st.integers(0, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m).map(lambda rows: IntMatrix(m, n, rows))))


def sparse_matrix(m, n, entries):
    rows = [[0] * n for _ in range(m)]
    for i, j, v in entries:
        rows[i][j] = v
    return IntMatrix(m, n, rows)


# Up to 30 x 40, entries in -2..2, mostly zero.
sparse_matrices = st.integers(1, 30).flatmap(
    lambda m: st.integers(1, 40).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                      st.sampled_from([-2, -1, 1, 2])),
            max_size=m * n // 4).map(
                lambda entries: sparse_matrix(m, n, entries))))

# Boundary-like: each column holds 0..4 nonzeros in distinct rows, +-1 or +-2.
boundary_like_matrices = st.integers(1, 25).flatmap(
    lambda m: st.integers(1, 40).flatmap(
        lambda n: st.lists(
            st.dictionaries(st.integers(0, m - 1), st.sampled_from([-2, -1, 1, 2]),
                            max_size=4),
            min_size=n, max_size=n).map(
                lambda cols: sparse_matrix(m, n, [(i, j, v) for j, col in enumerate(cols)
                                                  for i, v in col.items()]))))


def sparse_view(a):
    rows, cols = {}, {}
    for i, row in enumerate(a.data):
        d = {j: v for j, v in enumerate(row) if v}
        if d:
            rows[i] = d
            for j in d:
                cols.setdefault(j, set()).add(i)
    return rows, cols


def rescan_pivots(rows, cols):
    """Reference unit elimination: rescan every nonzero for each pivot."""
    while True:
        best = None
        for r, row in rows.items():
            for c, v in row.items():
                if v == 1 or v == -1:
                    key = (len(cols[c]), c, len(row), r)
                    if best is None or key < best:
                        best = key
        if best is None:
            return
        _, c, _, r = best
        prow = rows.pop(r)
        for j in prow:
            cols[j].discard(r)
            if not cols[j]:
                del cols[j]
        for r2 in list(cols.get(c, ())):
            row2 = rows[r2]
            q = row2[c] * prow[c]
            for j, pv in prow.items():
                nv = row2.get(j, 0) - q * pv
                if nv:
                    if j not in row2:
                        cols.setdefault(j, set()).add(r2)
                    row2[j] = nv
                elif j in row2:
                    del row2[j]
                    cols[j].discard(r2)
                    if not cols[j]:
                        del cols[j]
            if not row2:
                del rows[r2]
        yield r, c


def assert_rescan_pivots(a):
    """The queue picks exactly the rescan's pivots and leaves the same residual."""
    rows, cols = sparse_view(a)
    ref_rows, ref_cols = sparse_view(a)
    assert (list(_unit_pivots(rows, cols, a.rows, a.cols))
            == list(rescan_pivots(ref_rows, ref_cols)))
    assert rows == ref_rows and cols == ref_cols


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
    @given(small_matrices, sparse_matrices)
    def test_transform_identities(self, small, sparse):
        for a in (small, sparse):
            sf = smith_normal_form(a)
            assert matmul(matmul(sf.U, a), sf.V) == sf.S
            assert abs(determinant(sf.U)) == 1
            assert abs(determinant(sf.V)) == 1
            assert matmul(sf.U, sf.uinv) == IntMatrix.identity(a.rows)
            assert matmul(sf.V, sf.vinv) == IntMatrix.identity(a.cols)

    @settings(max_examples=100, deadline=None)
    @given(boundary_like_matrices)
    def test_boundary_like_transforms(self, a):
        sf = smith_normal_form(a)
        facs = list(sf.invariant_factors)
        assert matmul(matmul(sf.U, a), sf.V) == sf.S == IntMatrix(
            a.rows, a.cols, [[facs[i] if i == j else 0 for j in range(a.cols)]
                             for i in range(a.rows)])
        assert abs(determinant(sf.U)) == 1
        assert abs(determinant(sf.V)) == 1
        assert invariant_factors(a) == facs

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


def assert_matches_dense_reference(a):
    """Same factors and the same U, uinv, V, vinv as the dense elimination."""
    sf = smith_normal_form(a)
    facs, u, uinv, v, vinv = dense_smith(a)
    assert sf.invariant_factors == facs
    assert sf.U.data == u and sf.uinv.data == uinv
    assert sf.V.data == v and sf.vinv.data == vinv


class TestDenseReference:
    """The sparse elimination against the dense one it replaced (tests/dense_smith.py)."""

    def test_fixture_boundaries(self):
        for name in ("circle", "t2", "s2", "s3", "rp2", "rp3", "t3"):
            cx = load_fixture(f"{name}.cplx")
            for k in range(1, cx.dim + 1):
                assert_matches_dense_reference(cx.boundary_matrix(k))

    def test_rp2_twisted_differentials(self, rp2_cover):
        model = rp2_cover.model
        for rep in (regular_rep(model),
                    tensor_power(augmentation_ideal_rep(model), 2)):
            system = LocalSystem.from_rep(rp2_cover, rep)
            for k in range(1, 3):
                assert_matches_dense_reference(chain_boundary_matrix(system, k))
            for k in range(2):
                assert_matches_dense_reference(cochain_differential_matrix(system, k))

    def test_random_sparse(self):
        # Entries in -3..3 make remainders and divisibility offenders.
        rng = random.Random(23)
        for _ in range(150):
            m, n = rng.randint(1, 30), rng.randint(1, 40)
            entries = [(rng.randrange(m), rng.randrange(n),
                        rng.choice((-3, -2, -1, 1, 2, 3)))
                       for _ in range(rng.randint(0, m * n // 3))]
            assert_matches_dense_reference(sparse_matrix(m, n, entries))
        # Denser fill and entries in -5..5: pivots leave nonzero remainders
        # in their row and column far more often, and each one swaps rows or
        # columns and restarts the step.
        rng = random.Random(29)
        for _ in range(40):
            m, n = rng.randint(1, 30), rng.randint(1, 40)
            fill = rng.uniform(0.3, 0.6)
            entries = [(i, j, rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))
                       for i in range(m) for j in range(n) if rng.random() < fill]
            assert_matches_dense_reference(sparse_matrix(m, n, entries))


class TestTapeReplay:
    """The four replays against the matrices built from the same tapes."""

    def test_replays_match_built_transforms(self):
        rng = random.Random(31)
        kinds = set()
        for trial in range(80):
            m, n = rng.randint(1, 30), rng.randint(1, 40)
            # Half sparse in -3..3, half denser in -5..5 (more remainders,
            # so more swaps and restarts).
            values = (-3, -2, -1, 1, 2, 3) if trial % 2 else tuple(range(-5, 6))
            fill = rng.uniform(0.05, 0.3) if trial % 2 else rng.uniform(0.3, 0.6)
            a = sparse_matrix(m, n, [(i, j, rng.choice(values)) for i in range(m)
                                     for j in range(n) if rng.random() < fill])
            sf = smith_normal_form(a)
            u, uinv, v, vinv = sf.U, sf.uinv, sf.V, sf.vinv
            assert matmul(u, uinv) == IntMatrix.identity(m)
            assert matmul(v, vinv) == IntMatrix.identity(n)
            assert matmul(matmul(u, a), v) == sf.S
            y = [rng.randint(-5, 5) for _ in range(m)]
            x = [rng.randint(-5, 5) for _ in range(n)]
            y0, x0 = list(y), list(x)
            assert intlinalg._replay_vector(sf.row_ops, y) == matvec(u, y)
            assert intlinalg._replay_vector(sf.row_ops, y, inverse=True) == matvec(uinv, y)
            assert intlinalg._replay_vector(sf.col_ops, x, inverse=True) == matvec(v, x)
            assert intlinalg._replay_vector(sf.col_ops, x) == matvec(vinv, x)
            assert (y, x) == (y0, x0)
            # The column tape on the rows of a matrix is V^-1 times it.
            b = sparse_matrix(n, 3, [(rng.randrange(n), rng.randrange(3),
                                      rng.randint(-3, 3)) for _ in range(n)])
            rows = intlinalg._replay(sf.col_ops, [dict(r) for r in b._nz])
            assert IntMatrix._adopt(n, 3, rows) == matmul(vinv, b)
            kinds.update(("row", len(op), len(op) == 3 and len(op[1]) > 1)
                         for op in sf.row_ops)
            kinds.update(("col", len(op), len(op) == 3 and len(op[1]) > 1)
                         for op in sf.col_ops)
        # every kind of operation was replayed: row axpys, swaps and
        # negations; column gathers of one and of several sources, swaps
        assert kinds >= {("row", 3, False), ("row", 2, False), ("row", 1, False),
                         ("col", 3, False), ("col", 3, True), ("col", 2, False)}


    def test_one_tape_is_the_same_elimination(self, monkeypatch):
        # Recording one tape leaves the pivots alone: the factors and the
        # recorded tape are those of the two-tape elimination.
        rng = random.Random(47)
        for _ in range(30):
            m, n = rng.randint(1, 20), rng.randint(1, 25)
            a = sparse_matrix(m, n, [(i, j, rng.randint(-4, 4)) for i in range(m)
                                     for j in range(n) if rng.random() < 0.3])
            both = intlinalg._smith(a)
            rows_only = intlinalg._smith(a, col_tape=False)
            cols_only = intlinalg._smith(a, row_tape=False)
            assert rows_only.invariant_factors == cols_only.invariant_factors \
                == both.invariant_factors
            assert (rows_only.row_ops, rows_only.col_ops) == (both.row_ops, None)
            assert (cols_only.row_ops, cols_only.col_ops) == (None, both.col_ops)
        # Each reader asks for the one tape it replays.
        asked = []
        real = intlinalg._smith
        monkeypatch.setattr(intlinalg, "_smith",
                            lambda a, **kw: asked.append(kw) or real(a, **kw))
        d1 = M([[1, -1, 0], [0, 1, -1]])
        PairHomology(d1, IntMatrix.zeros(3, 0))
        assert asked == [{"row_tape": False}, {"col_tape": False}]
        asked.clear()
        kernel_basis(d1)
        assert asked == [{"row_tape": False}]


class CountingRows(list):
    """A row list that counts the rows read from it; a slice counts its length."""

    reads = 0

    def __getitem__(self, k):
        self.reads += len(range(*k.indices(len(self)))) if isinstance(k, slice) else 1
        return super().__getitem__(k)


class TestSmithWork:
    def test_row_reads_follow_nonzeros(self):
        # A signed permutation matrix with shuffled rows needs a column swap
        # at nearly every pivot.  Each step should read the rows holding the
        # columns it touches, not every row below the pivot.
        m = 600
        rng = random.Random(3)
        perm = list(range(m))
        rng.shuffle(perm)
        md = CountingRows({j: rng.choice((-1, 1))} for j in perm)
        row_ops, col_ops = [], []
        assert intlinalg._snf_inplace(md, m, m, row_ops, col_ops) == [1] * m
        assert md.reads < 20 * (m + m)  # 20 (nnz + m)
        v = intlinalg._tape_matrix(col_ops, m, inverse=True)
        assert matmul(v, intlinalg._tape_matrix(col_ops, m)) == IntMatrix.identity(m)

    def test_pivot_search_skips_emptied_rows(self):
        # k copies of e_0, then e_1 .. e_k: the first pivot empties the
        # other copies, which then lie between every later pivot row and
        # the row it is swapped into.  The search should read an emptied
        # row once, not once per later pivot.
        k = 300
        rows = [{0: 1}] * k + [{j: 1} for j in range(1, k + 1)]
        m, n = len(rows), k + 1
        md = CountingRows(dict(r) for r in rows)
        row_ops = []
        assert intlinalg._snf_inplace(md, m, n, row_ops) == [1] * n
        assert md.reads < 20 * (m + m)  # 20 (nnz + m)
        s = IntMatrix._adopt(m, n, [{i: 1} if i < n else {} for i in range(m)])
        u = intlinalg._tape_matrix(row_ops, m)
        assert matmul(u, IntMatrix._adopt(m, n, rows)) == s


def assert_leaves_inputs(call, *args):
    """call(*args) leaves every matrix argument equal to a copy."""
    mats = [m for arg in args for m in (arg if isinstance(arg, list) else [arg])
            if isinstance(m, IntMatrix)]
    copies = [IntMatrix(m.rows, m.cols, m.data) for m in mats]
    try:
        call(*args)
    except (NoIntegerSolution, ValueError):  # singular, not square, not solvable
        pass
    for m, copy in zip(mats, copies):
        assert m == copy


def assert_factoring_leaves_inputs(ds):
    """Every factoring entry point on the chain complex with differentials ds."""
    for a in ds:
        for call in (invariant_factors, smith_normal_form, kernel_basis, lattice_basis,
                     unimodular_inverse):
            assert_leaves_inputs(call, a)
        assert_leaves_inputs(solve_columns, a, matmul(a, IntMatrix.identity(a.cols)))
        assert_leaves_inputs(QuotientLattice, a.rows, a)
    for d_k, d_kplus1 in zip(ds, ds[1:]):
        assert_leaves_inputs(PairHomology, d_k, d_kplus1)
    assert_leaves_inputs(chain_homology, ds)


class TestInputsUnchanged:
    """The elimination works in place on copies: inputs may be shared and cached."""

    def test_fixture_boundaries(self):
        for name in ("circle", "t2", "s2", "s3", "rp2", "rp3", "t3"):
            cx = load_fixture(f"{name}.cplx")
            assert_factoring_leaves_inputs(
                [cx.boundary_matrix(k) for k in range(cx.dim + 2)])

    def test_random_sparse(self):
        rng = random.Random(41)
        for _ in range(50):
            m, n = rng.randint(1, 20), rng.randint(1, 25)
            entries = [(rng.randrange(m), rng.randrange(n),
                        rng.choice((-3, -2, -1, 1, 2, 3)))
                       for _ in range(rng.randint(0, m * n // 3))]
            a = sparse_matrix(m, n, entries)
            assert_factoring_leaves_inputs([a, kernel_basis(a)])


class TestStorage:
    def test_three_constructions_agree(self):
        want = M([[1, 0, -2], [0, 0, 0], [3, 1, 0]])
        extra = M([[5, 0, 2], [0, 4, 0], [0, -1, 0]])
        blocks = IntMatrix.from_blocks(3, 3, (3, 3), [
            (0, 0, 1, M([[6, 0, 0], [0, 4, 0], [3, 0, 0]])), (0, 0, -1, extra)])
        product = matmul(M([[1, 1], [0, 0], [1, 0]]), M([[3, 1, 0], [-2, -1, -2]]))
        for m in (blocks, product):
            assert m == want
        for m in (want, blocks, product):
            assert all(v for row in m._nz for v in row.values())

    def test_blocks_must_fit(self):
        with pytest.raises(ValueError):
            IntMatrix.from_blocks(2, 2, (2, 2), [(1, 0, 1, None)])
        with pytest.raises(ValueError):
            IntMatrix.from_blocks(2, 2, (1, 1), [(0, 1, 1, M([[1, 2]]))])

    def test_storage_stays_in_intlinalg(self):
        # The row dicts and the dense data view are read only inside intlinalg.
        offenders = []
        for path in sorted(Path(intlinalg.__file__).parent.glob("*.py")):
            if path.name != "intlinalg.py":
                for node in ast.walk(ast.parse(path.read_text(), str(path))):
                    if isinstance(node, ast.Attribute) and node.attr in ("data", "_nz"):
                        offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
        assert offenders == []


class TestSympyOracle:
    def test_invariant_factors_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors as sympy_factors
        rng = random.Random(31)
        for _ in range(60):
            m, n = rng.randint(1, 20), rng.randint(1, 25)
            entries = [(rng.randrange(m), rng.randrange(n),
                        rng.choice((-3, -2, -1, 1, 2, 3)))
                       for _ in range(rng.randint(0, m * n // 3))]
            a = sparse_matrix(m, n, entries)
            want = [int(d) for d in sympy_factors(sympy.Matrix(a.data),
                                                  domain=sympy.ZZ)]
            assert invariant_factors(a) == want
            assert list(smith_normal_form(a).invariant_factors) == want


class TestMatmul:
    def test_matches_triple_loop(self):
        rng = random.Random(17)
        for _ in range(60):
            m, k, n = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
            a = IntMatrix(m, k, [[rng.choice((0, 0, 0, 1, -1, 2, -5))
                                  for _ in range(k)] for _ in range(m)])
            b = IntMatrix(k, n, [[rng.choice((0, 0, 0, 1, -1, 3, -7))
                                  for _ in range(n)] for _ in range(k)])
            want = [[sum(a.data[i][x] * b.data[x][j] for x in range(k))
                     for j in range(n)] for i in range(m)]
            assert matmul(a, b) == IntMatrix(m, n, want)

    def test_empty_shapes(self):
        assert matmul(IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0)) == \
            IntMatrix.zeros(0, 0)
        assert matmul(IntMatrix.zeros(2, 0), IntMatrix.zeros(0, 4)) == \
            IntMatrix.zeros(2, 4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(IntMatrix.zeros(2, 3), IntMatrix.zeros(2, 3))


class TestUnitPivots:
    """The pivot queue against a rescan, and the factors on larger inputs."""

    def test_fixture_boundaries_match_rescan(self):
        for name in ("circle", "t2", "s2", "s3", "rp2", "rp3", "t3"):
            cx = load_fixture(f"{name}.cplx")
            for k in range(1, cx.dim + 1):
                assert_rescan_pivots(cx.boundary_matrix(k))

    def test_random_sparse_match_rescan(self):
        rng = random.Random(7)
        for _ in range(150):
            m, n = rng.randint(1, 30), rng.randint(1, 40)
            entries = [(rng.randrange(m), rng.randrange(n),
                        rng.choice((-2, -1, -1, 1, 1, 2)))
                       for _ in range(rng.randint(0, m * n // 3))]
            assert_rescan_pivots(sparse_matrix(m, n, entries))

    def test_pivot_block_is_unimodular(self):
        # Compression in chain_homology leaves out the rows at the pivot
        # columns I of d_k; that is sound because d_k[R, I] is unimodular.
        def assert_unimodular_block(a):
            pivots = list(_unit_pivots(*sparse_view(a), a.rows, a.cols))
            data = a.data
            block = IntMatrix(len(pivots), len(pivots),
                              [[data[r][c] for _, c in pivots] for r, _ in pivots])
            assert abs(determinant(block)) == 1

        for name in ("circle", "t2", "s2", "s3", "rp2", "rp3", "t3"):
            cx = load_fixture(f"{name}.cplx")
            for k in range(1, cx.dim + 1):
                assert_unimodular_block(cx.boundary_matrix(k))
        rng = random.Random(7)
        for _ in range(150):
            m, n = rng.randint(1, 30), rng.randint(1, 40)
            entries = [(rng.randrange(m), rng.randrange(n),
                        rng.choice((-2, -1, -1, 1, 1, 2)))
                       for _ in range(rng.randint(0, m * n // 3))]
            assert_unimodular_block(sparse_matrix(m, n, entries))

    def test_random_dense_match_rescan(self):
        # About 40% filled, so nearly every step shortens most columns.
        rng = random.Random(11)
        for _ in range(12):
            m, n = rng.randint(20, 40), rng.randint(40, 90)
            entries = [(i, j, rng.choice((-2, -1, -1, 1, 1, 2)))
                       for i in range(m) for j in range(n) if rng.random() < 0.4]
            assert_rescan_pivots(sparse_matrix(m, n, entries))

    def test_q8_shift_matrix_pushes_fewer_keys_than_entries(self, monkeypatch):
        # The 301 x 686 matrix the twisted-target shift route factors for
        # H_3(Q8): removing a pivot row shortens nearly every column, so a queue
        # that re-keys every unit of a shortened column pushes far more keys
        # than it has entries.
        pushes = []
        written = []

        def counting_heappush(heap, key):
            pushes.append(key)
            heapq.heappush(heap, key)

        def recording_factors(a):
            written.append(a)
            del pushes[:]
            return invariant_factors(a)

        monkeypatch.setattr(intlinalg, "heappush", counting_heappush)
        monkeypatch.setattr(shift_oracle, "invariant_factors", recording_factors)
        q8 = todd_coxeter(GroupPresentation(("a", "b"), ("aaaa", "aabb", "abab'")), 100)
        assert shift_oracle.twisted_shift_homology(q8, 3) == AbelianGroupInvariants(0, (8,))
        a, = written
        nnz = sum(1 for row in a.data for v in row if v)
        assert (a.rows, a.cols, nnz) == (301, 686, 34426)
        assert 0 < len(pushes) < nnz

    @settings(max_examples=80, deadline=None)
    @given(sparse_matrices)
    def test_sparse_factors_match_smith(self, a):
        assert_rescan_pivots(a)
        assert invariant_factors(a) == list(smith_normal_form(a).invariant_factors)

    def test_dense_unit_matrix_rebuilds_heap(self, monkeypatch):
        builds = []

        def counting_heapify(heap):
            builds.append(len(heap))
            heapq.heapify(heap)

        monkeypatch.setattr(intlinalg, "heapify", counting_heapify)
        rng = random.Random(1)
        a = IntMatrix(24, 40, [[rng.choice((-1, 0, 1)) for _ in range(40)]
                               for _ in range(24)])
        facs = invariant_factors(a)
        assert len(builds) >= 2
        assert facs == list(smith_normal_form(a).invariant_factors)
        assert_rescan_pivots(a)

    def test_pinned_transforms(self):
        # U, uinv, V and vinv are part of the output: the Smith coordinates
        # printed by bs-class, essential and pert are read through them.
        cases = [
            ([[2, 4, -6, 0, 3], [1, -3, 5, 7, 0], [0, 6, 2, -4, 8]],
             (1, 1, 2),
             [[0, 1, 0], [1, -2, 9], [66, -132, 595]],
             [[2, 595, -9], [1, 0, 0], [0, -66, 1]],
             [[1, 185, 8, -79, -911], [0, 0, -4, 23, 268],
              [0, -37, 3, -11, -126], [0, 0, -5, 29, 335], [0, 1, 0, 0, -2]],
             [[1, -3, 5, 7, 0], [0, 64, 2, -50, 75],
              [0, 2115, 67, -1652, 2479], [0, -5, 0, 4, 0],
              [0, 32, 1, -25, 37]]),
            ([[0, 3, 6], [4, -2, 0], [8, 0, 5], [0, 0, 0], [-6, 9, 3]],
             (1, 1, 18),
             [[1, 1, 0, 0, 0], [-4, -6, 5, 0, 0], [-3, 0, 3, 0, 1],
              [0, 0, 0, 1, 0], [-4, -15, 6, 0, -2]],
             [[3, -12, 10, 0, 5], [-2, 12, -10, 0, -5], [0, 5, -4, 0, -2],
              [0, 0, 0, 1, 0], [9, -51, 43, 0, 21]],
             [[0, 0, 1], [1, -6, 92], [0, 1, -16]],
             [[4, 1, 6], [16, 0, 1], [1, 0, 0]]),
            ([[2, 0, 0, 0, 4, 0], [0, 3, 0, 6, 0, 0], [0, 0, 4, 0, 0, 2],
              [6, 9, 0, 0, 0, 0]],
             (1, 2, 6, 6),
             [[1, 1, 0, 0], [0, 0, 1, 0], [3, 2, 0, 0], [3, 3, 0, -1]],
             [[-2, 0, 1, 0], [3, 0, -1, 0], [0, 1, 0, 0], [3, 0, 0, -1]],
             [[-1, 0, 3, 2, -6, 0], [1, 0, -2, -2, 4, 0], [0, 0, 0, 0, 0, 1],
              [0, 0, 0, 1, -2, 0], [0, 0, 0, -1, 3, 0], [0, 1, 0, 0, 0, -2]],
             [[2, 3, 0, 6, 4, 0], [0, 0, 2, 0, 0, 1], [1, 1, 0, 2, 2, 0],
              [0, 0, 0, 3, 2, 0], [0, 0, 0, 1, 1, 0], [0, 0, 1, 0, 0, 0]]),
        ]
        for a, facs, u, uinv, v, vinv in cases:
            sf = smith_normal_form(M(a))
            assert sf.invariant_factors == facs
            assert sf.U.data == u and sf.uinv.data == uinv
            assert sf.V.data == v and sf.vinv.data == vinv


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

    def test_value_equality_and_hash(self):
        a, b = AbelianGroupInvariants(1, (2,)), AbelianGroupInvariants(1, [2])
        assert a == b and hash(a) == hash(b) and {a: "x"}[b] == "x"
        assert a != AbelianGroupInvariants(1, (4,)) and a != AbelianGroupInvariants(2, (2,))
        assert a != (1, (2,))

    @pytest.mark.parametrize("free, torsion, message", [
        (-1, (), "negative free rank"),
        (0, (1,), "torsion order 1 < 2"),
        (0, (2, 3), "torsion chain broken: 2 does not divide 3"),
    ])
    def test_validation(self, free, torsion, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AbelianGroupInvariants(free, torsion)


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
        with pytest.raises(PreconditionError, match=r"^d_k \. d_\{k\+1\} != 0$"):
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


def per_differential_homology(ds):
    """The uncompressed route: every whole differential factored, plus ranks."""
    groups = []
    for d_k, d_kplus1 in zip(ds, ds[1:]):
        facs = [d for d in invariant_factors(d_kplus1) if d]
        free = d_k.cols - rank(d_k) - len(facs)
        groups.append(AbelianGroupInvariants(free, tuple(d for d in facs if d > 1)))
    return groups


def torsion_chain(orders):
    """The invariant factors > 1 of the sum of the Z/d, by pairwise gcd and lcm."""
    ds = sorted(orders)
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = gcd(ds[i], ds[j])
            ds[i], ds[j] = g, ds[i] * ds[j] // g
    return tuple(d for d in ds if d > 1)


def random_elementary_complex(rng):
    """A chain complex in random bases, with its homology.

    Sums of Z in one degree and Z --t--> Z across two (t in 1..6), so the
    homology has torsion; each C_k is then changed by a random unimodular
    P_k, d_k -> P_{k-1}^-1 d_k P_k, which keeps d d = 0 and the homology.
    """
    top = rng.randint(1, 3)
    ranks = [0] * (top + 1)
    free = [0] * (top + 1)
    torsion = [[] for _ in range(top + 1)]
    pieces = []  # (degree of the source, t, source index, target index)
    for _ in range(rng.randint(2, 7)):
        k = rng.randint(0, top)
        if k == 0 or rng.random() < 0.3:
            ranks[k] += 1
            free[k] += 1
        else:
            t = rng.choice((1, 1, 2, 3, 4, 6))
            pieces.append((k, t, ranks[k], ranks[k - 1]))
            torsion[k - 1].append(t)
            ranks[k] += 1
            ranks[k - 1] += 1
    ds = [IntMatrix.zeros(0, ranks[0])]
    for k in range(1, top + 1):
        data = [[0] * ranks[k] for _ in range(ranks[k - 1])]
        for deg, t, src, dst in pieces:
            if deg == k:
                data[dst][src] = t
        ds.append(IntMatrix(ranks[k - 1], ranks[k], data))
    ds.append(IntMatrix.zeros(ranks[top], 0))
    ps = [_random_unimodular(r, rng) for r in ranks]
    based = [ds[0] @ ps[0]] + [
        unimodular_inverse(ps[k - 1]) @ ds[k] @ ps[k] for k in range(1, top + 1)
    ] + [unimodular_inverse(ps[top]) @ ds[-1]]
    return based, [AbelianGroupInvariants(f, torsion_chain(ts))
                   for f, ts in zip(free, torsion)]


def random_kernel_complex(rng):
    """d_{k+1} = kernel basis of d_k times random integers, from a random d_1."""
    n0, n1 = rng.randint(1, 4), rng.randint(1, 5)
    ds = [IntMatrix.zeros(0, n0),
          IntMatrix(n0, n1, [[rng.randint(-3, 3) for _ in range(n1)] for _ in range(n0)])]
    for _ in range(rng.randint(1, 3)):
        ker = kernel_basis(ds[-1])
        cols = rng.randint(0, 4)
        ds.append(matmul(ker, IntMatrix(ker.cols, cols, [
            [rng.choice((-3, -2, 0, 0, 1, 2, 3, 4)) for _ in range(cols)]
            for _ in range(ker.cols)])))
    return ds


class TestCompression:
    """chain_homology leaves out the rows at the unit pivot columns of d_k."""

    def test_matches_per_differential_route(self, monkeypatch):
        skipped = []
        real = intlinalg._nonzero_factors

        def recording(mat, skip=frozenset()):
            skipped.append(len(skip))
            return real(mat, skip)

        monkeypatch.setattr(intlinalg, "_nonzero_factors", recording)
        rng = random.Random(14)
        torsion = 0
        for _ in range(150):
            ds, known = random_elementary_complex(rng)
            assert chain_homology(ds) == per_differential_homology(ds) == known
            torsion += any(g.torsion for g in known)
        for _ in range(150):
            ds = random_kernel_complex(rng)
            groups = chain_homology(ds)
            assert groups == per_differential_homology(ds)
            torsion += any(g.torsion for g in groups)
        assert torsion >= 50 and sum(1 for n in skipped if n) >= 100

    def test_residual_pivot_is_not_left_out(self):
        # d_0 = [2 3] has no unit entry; leaving out the row of d_1 at the
        # column of its residual pivot would give Z/2 or Z/3.
        assert chain_homology([M([[2, 3]]), M([[3], [-2]])]) == [AbelianGroupInvariants(0)]
        assert chain_homology([M([[3, 2]]), M([[-2], [3]])]) == [AbelianGroupInvariants(0)]

    def test_check_runs_on_the_whole_pair(self):
        # As in test_chain_condition_enforced, but inside a stream: the
        # offending row of d_2 sits at d_1's unit pivot column.
        with pytest.raises(PreconditionError, match=r"^d_k \. d_\{k\+1\} != 0$"):
            chain_homology([IntMatrix.zeros(0, 1), M([[1, 0]]), M([[1, 1], [0, 1]])])

    def test_q8_bar_d4_rows(self, monkeypatch):
        # H_3(Q8) by the bar route: d_3 has rank 42, so at most 343 - 42
        # rows of the 343 x 2401 d_4 go to the unit elimination.
        shapes = []
        real = intlinalg._unit_pivots

        def recording(rows, cols, m, n):
            shapes.append((m, n, len(rows)))
            return real(rows, cols, m, n)

        monkeypatch.setattr(intlinalg, "_unit_pivots", recording)
        q8 = todd_coxeter(GroupPresentation(("a", "b"), ("aaaa", "aabb", "abab'")), 100)
        assert str(bar_homology(q8, 3)) == "Z/8"
        assert rank(BarComplex(q8, 4).boundary_matrix(3)) == 42
        (live,) = [k for m, n, k in shapes if (m, n) == (343, 2401)]
        assert live <= 343 - 42


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
