import re
from itertools import product

import pytest

from eqhom import group_homology
from eqhom.errors import BudgetError
from eqhom.group_homology import (BarComplex, CoinvariantsPresentation,
                                  bar_homology, coinvariants,
                                  projective_vanishing_check,
                                  shift_chain_check, shift_homology)
from eqhom.groups import (GroupPresentation, augmentation_ideal_rep,
                          induced_rep, regular_rep, tensor_power, tensor_rep,
                          todd_coxeter, trivial_rep)
from eqhom.intlinalg import AbelianGroupInvariants, IntMatrix, cokernel_invariants

from shift_oracle import twisted_shift_homology

Z2 = AbelianGroupInvariants(0, (2,))
ZERO = AbelianGroupInvariants(0)

PRESENTATIONS = {
    "Z/2": GroupPresentation(("a",), ("aa",)),
    "Z/3": GroupPresentation(("a",), ("aaa",)),
    "Z/4": GroupPresentation(("a",), ("aaaa",)),
    "Z/2xZ/2": GroupPresentation(("a", "b"), ("aa", "bb", "abab")),
    "S3": GroupPresentation(("a", "b"), ("aa", "bbb", "abab")),
}
MODELS = {name: todd_coxeter(p, 50) for name, p in PRESENTATIONS.items()}
Q8 = GroupPresentation(("a", "b"), ("aaaa", "aabb", "abab'"))


def abelianization_invariants(pres):
    """H_1 from a presentation: cokernel of the relator exponent matrix."""
    gidx = {g: i for i, g in enumerate(pres.generators)}
    return cokernel_invariants(IntMatrix.from_blocks(
        len(gidx), len(pres.relators), (1, 1),
        ((gidx[g], j, e, None) for j, rel in enumerate(pres.relators) for g, e in rel)))


def kunneth_z2_squared(n):
    """H_n(Z/2 x Z/2) for n >= 1 by Kunneth, from H_*(Z/2) = Z, Z/2, 0, Z/2, 0, ...

    Z (x) Z/2, Z/2 (x) Z/2 and Tor(Z/2, Z/2) are each Z/2; every other
    term of degree n >= 1 vanishes.
    """
    def nonzero(i):
        return i == 0 or i % 2 == 1

    tensor = sum(1 for i in range(n + 1) if nonzero(i) and nonzero(n - i))
    tor = sum(1 for i in range(1, n - 1) if i % 2 == 1 and (n - 1 - i) % 2 == 1)
    return AbelianGroupInvariants(0, (2,) * (tensor + tor))


def bar_boundary_by_tuples(model, k, rep):
    """{(row, col): value} of d_k on B_k (x)_pi L, term by term from tuples.

    d[g1|...|gk] (x) x = [g2|...|gk] (x) rho(g1^-1) x
                       + sum_i (-1)^i [...|g_i g_(i+1)|...] (x) x
                       + (-1)^k [g1|...|g(k-1)] (x) x,
    where a tuple holding the identity is zero (normalized bar complex).
    Tuples are ordered lexicographically; entries are summed one at a time.
    """
    r = rep.rank
    index = {t: i for i, t in enumerate(product(range(1, model.order), repeat=k - 1))}
    out = {}

    def add(tup, col, b, coeff, matrix=None):
        if 0 in tup:
            return
        for a in range(r):
            v = coeff * (matrix[a][b] if matrix else int(a == b))
            if v:
                key = (index[tup] * r + a, col)
                out[key] = out.get(key, 0) + v

    for ci, t in enumerate(product(range(1, model.order), repeat=k)):
        act = rep.matrix_of(model.inv(t[0])).data
        for b in range(r):
            col = ci * r + b
            add(t[1:], col, b, 1, act)
            for i in range(k - 1):
                add(t[:i] + (model.mul(t[i], t[i + 1]),) + t[i + 2:], col, b, (-1) ** (i + 1))
            add(t[:-1], col, b, (-1) ** k)
    return {key: v for key, v in out.items() if v}


class TestBarResolution:
    def test_z2_low_degrees(self):
        m = MODELS["Z/2"]
        assert bar_homology(m, 1) == Z2
        assert bar_homology(m, 2) == ZERO
        assert bar_homology(m, 3) == Z2

    def test_s3_abelianization(self):
        assert bar_homology(MODELS["S3"], 1) == Z2

    def test_h0_is_coinvariants(self):
        for m in MODELS.values():
            for rep in (trivial_rep(m, 1), augmentation_ideal_rep(m),
                        regular_rep(m)):
                assert bar_homology(m, 0, rep) == coinvariants(rep)

    def test_budget_guard(self):
        message = "(|pi|-1)^7 = 78125 exceeds budget 20000"
        for n in (7, 6):  # 6 overflows in BarComplex, at degree 7
            with pytest.raises(BudgetError) as exc:
                bar_homology(MODELS["S3"], n)
            assert type(exc.value) is BudgetError
            assert str(exc.value) == message

    def test_budget_counts_coefficient_rank(self, monkeypatch):
        # (|pi|-1)^3 = 343 fits, but B_3 (x)_pi (I^3 (x) Zpi) has rank 343 * 2744
        q8 = todd_coxeter(Q8, 100)
        coeff = induced_rep(tensor_power(augmentation_ideal_rep(q8), 3))
        with pytest.raises(BudgetError,
                           match=re.escape("(|pi|-1)^3 * rank 2744 = 941192")):
            BarComplex(q8, 3, coeff)
        monkeypatch.setattr(group_homology, "BUDGET", 10)
        m = MODELS["Z/3"]
        assert BarComplex(m, 2).module_rank(2) == 4
        with pytest.raises(BudgetError):
            BarComplex(m, 2, regular_rep(m))  # rank 4 * 3
        with pytest.raises(BudgetError):
            projective_vanishing_check(m, 1, 1)

    def test_torsion_annihilated_by_group_order(self):
        for name, m in MODELS.items():
            for n in (1, 2, 3):
                for d in bar_homology(m, n).torsion:
                    assert m.order % d == 0

    def test_boundary_matches_tuple_formula(self):
        cases = [(MODELS[name], 3) for name in ("Z/2", "Z/3", "S3")]
        cases += [(todd_coxeter(Q8, 100), 3), (MODELS["Z/2xZ/2"], 4)]
        for m, top in cases:
            ideal = augmentation_ideal_rep(m)
            for rep in (trivial_rep(m, 1), trivial_rep(m, 2), ideal,
                        tensor_power(ideal, 2), regular_rep(m)):
                for k in range(top + 1):
                    d = BarComplex(m, k, rep).boundary_matrix(k)
                    assert (d.rows, d.cols) == (
                        (m.order - 1) ** (k - 1) * rep.rank if k else 0,
                        (m.order - 1) ** k * rep.rank)
                    got = {(i, j): v for i, row in enumerate(d._nz) for j, v in row.items()}
                    want = bar_boundary_by_tuples(m, k, rep) if k else {}
                    assert got == want


class TestCoinvariants:
    def test_trivial(self):
        m = MODELS["Z/3"]
        assert coinvariants(trivial_rep(m, 1)) == AbelianGroupInvariants(1)

    def test_sign_action(self):
        m = MODELS["Z/2"]
        assert coinvariants(augmentation_ideal_rep(m)) == Z2

    def test_squared_sign_action(self):
        m = MODELS["Z/2"]
        ideal = augmentation_ideal_rep(m)
        assert coinvariants(tensor_power(ideal, 2)) == AbelianGroupInvariants(1)

    def test_induced_module(self):
        # (I^2 (x) Zpi) (x)_pi Z is the underlying group of I^2, here Z
        m = MODELS["Z/2"]
        ideal = augmentation_ideal_rep(m)
        rep = tensor_rep(tensor_power(ideal, 2), regular_rep(m))
        assert coinvariants(rep) == AbelianGroupInvariants(1)

    def test_presentation_matrix_shape(self):
        m = MODELS["S3"]
        rep = augmentation_ideal_rep(m)
        pres = CoinvariantsPresentation.of(rep)
        assert pres.matrix.rows == rep.rank
        assert pres.matrix.cols == rep.rank * len(m.generators)


class TestShiftFormula:
    def test_z2_degree_3(self):
        assert shift_homology(MODELS["Z/2"], 3) == Z2

    def test_z2_degree_2(self):
        assert shift_homology(MODELS["Z/2"], 2) == ZERO

    def test_z3_degree_1(self):
        assert shift_homology(MODELS["Z/3"], 1) == AbelianGroupInvariants(0, (3,))

    def test_matches_bar_everywhere(self):
        # and the twisted-target oracle, on either tensor factor
        for name, m in MODELS.items():
            for n in (1, 2, 3):
                bar = bar_homology(m, n)
                assert shift_homology(m, n) == bar, (name, n)
                for factor in ("last", "first"):
                    assert twisted_shift_homology(m, n, factor) == bar, \
                        (name, n, factor)

    def test_budget_guard(self):
        with pytest.raises(BudgetError) as exc:
            shift_homology(MODELS["S3"], 7)
        assert type(exc.value) is BudgetError
        assert str(exc.value) == "(|pi|-1)^7 = 78125 exceeds budget 20000"

    def test_higher_degrees(self):
        z2z2 = MODELS["Z/2xZ/2"]
        for n in range(1, 7):
            assert shift_homology(z2z2, n) == kunneth_z2_squared(n), n
        assert kunneth_z2_squared(5) == AbelianGroupInvariants(0, (2,) * 4)
        assert kunneth_z2_squared(6) == AbelianGroupInvariants(0, (2,) * 3)
        assert shift_homology(MODELS["S3"], 4) == ZERO
        assert shift_homology(MODELS["Z/4"], 5) == AbelianGroupInvariants(0, (4,))
        assert shift_homology(MODELS["Z/4"], 6) == ZERO


class TestShiftChain:
    def test_z2_three_ways(self):
        report = shift_chain_check(MODELS["Z/2"], 3)
        assert report.values == [Z2, Z2, Z2]
        assert report.all_equal

    def test_z3_degree_2(self):
        report = shift_chain_check(MODELS["Z/3"], 2)
        assert report.values == [ZERO, ZERO]

    def test_degree_one_is_abelianization(self):
        for name, m in MODELS.items():
            report = shift_chain_check(m, 1)
            assert report.values[0] == coinvariants(augmentation_ideal_rep(m))
            assert report.values[0] == \
                abelianization_invariants(PRESENTATIONS[name])


class TestProjectiveVanishing:
    def test_z2_k2(self):
        assert projective_vanishing_check(MODELS["Z/2"], 2, 2).all_trivial

    def test_z3_group_ring(self):
        assert projective_vanishing_check(MODELS["Z/3"], 1, 2).all_trivial

    def test_trivial_group(self):
        triv = todd_coxeter(GroupPresentation(("a",), ("a",)), 5)
        assert projective_vanishing_check(triv, 1, 2).all_trivial

    def test_group_ring_coefficients_vanish(self):
        for m in MODELS.values():
            rep = regular_rep(m)
            for n in (1, 2):
                assert bar_homology(m, n, rep).is_trivial()


class TestQuaternionGroup:
    def test_both_routes_reproduce_q8(self):
        # harder cross-check: order 8, nonabelian, periodic homology
        q8 = todd_coxeter(Q8, 100)
        assert q8.order == 8
        expected = [AbelianGroupInvariants(0, (2, 2)), ZERO,
                    AbelianGroupInvariants(0, (8,))]
        for n, value in zip((1, 2, 3), expected):
            assert bar_homology(q8, n) == value
            assert shift_homology(q8, n) == value


class TestAbelianization:
    def test_values(self):
        expected = {
            "Z/2": Z2,
            "Z/3": AbelianGroupInvariants(0, (3,)),
            "Z/4": AbelianGroupInvariants(0, (4,)),
            "Z/2xZ/2": AbelianGroupInvariants(0, (2, 2)),
            "S3": Z2,
        }
        for name, pres in PRESENTATIONS.items():
            assert abelianization_invariants(pres) == expected[name]
            assert bar_homology(MODELS[name], 1) == expected[name]
