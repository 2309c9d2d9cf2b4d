import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from eqhom import groups, intlinalg
from eqhom.complexes import fundamental_group, lens_space, simplicial_product
from eqhom.errors import BudgetError, InputError, PreconditionError
from eqhom.groups import (FiniteGroup, FreeAbelianGroup, FreeGroup,
                          GroupPresentation, ModelMismatch, ProductGroup,
                          augmentation_ideal_rep, free_reduce,
                          parse_presentation, parse_word, regular_rep,
                          render_word, tensor_power, tensor_rep, todd_coxeter,
                          trivial_rep)
from eqhom.intlinalg import IntMatrix, matmul


def Z(n):
    return todd_coxeter(GroupPresentation(("a",), ("a" * n,)), 4 * n)


S3_PRES = GroupPresentation(("a", "b"), ("aa", "bbb", "abab"))
V4_PRES = GroupPresentation(("a", "b"), ("aa", "bb", "abab"))
Q8_PRES = GroupPresentation(("a", "b"), ("aaaa", "aabb", "abab'"))
A4_PRES = GroupPresentation(("a", "b"), ("aaa", "bbb", "abab"))
A5_PRES = GroupPresentation(("a", "b"), ("aa", "bbb", "ababababab"))


def word_walk_table(pres, max_cosets):
    """Reference construction of todd_coxeter's (table, gens): the same
    enumeration, then a breadth-first word for every coset, and entry
    (c1, c2) by walking the word of c2 from c1 through the coset graph."""
    gens = pres.generators
    ncols = 2 * len(gens)
    colof = {}
    for i, g in enumerate(gens):
        colof[(g, 1)] = 2 * i
        colof[(g, -1)] = 2 * i + 1
    rels = [tuple(colof[letter] for letter in rel) for rel in pres.relators if rel]
    ct = groups._CosetTable(max_cosets)
    idx = 0
    while idx < len(ct.tab):
        if ct.find(idx) == idx:
            for rel in rels:
                ct.scan_and_fill(idx, rel)
                if ct.find(idx) != idx:
                    break
            if ct.find(idx) == idx:
                for col in range(ncols):
                    if col not in ct.tab[idx]:
                        ct.define(idx, col)
        idx += 1
    live = [i for i in range(len(ct.tab)) if ct.find(i) == i]
    relabel = {c: k for k, c in enumerate(live)}
    graph = [[relabel[ct.find(ct.tab[c][col])] for col in range(ncols)] for c in live]
    words = {0: ()}
    frontier = [0]
    letters = [(g, 1) for g in gens] + [(g, -1) for g in gens]
    while frontier:
        nxt = []
        for c in frontier:
            for letter in letters:
                d = graph[c][colof[letter]]
                if d not in words:
                    words[d] = words[c] + (letter,)
                    nxt.append(d)
        frontier = nxt
    table = []
    for c1 in range(len(live)):
        row = []
        for c2 in range(len(live)):
            c = c1
            for letter in words[c2]:
                c = graph[c][colof[letter]]
            row.append(c)
        table.append(row)
    return table, {g: graph[0][colof[(g, 1)]] for g in gens}


class TestWords:
    def test_parse_simple(self):
        assert parse_word("aba'") == (("a", 1), ("b", 1), ("a", -1))

    def test_parse_dotted(self):
        assert parse_word("x0.x1'") == (("x0", 1), ("x1", -1))

    def test_render_roundtrip(self):
        for s in ("aba'", "1", "abc'a"):
            assert render_word(parse_word(s)) == s

    def test_free_reduction(self):
        assert free_reduce(parse_word("abb'a'")) == ()
        assert free_reduce(parse_word("aba'a")) == parse_word("ab")

    def test_presentation_file(self):
        pres = parse_presentation("# comment\ngens: a b\nrels: aa bbb abab\n")
        assert pres.generators == ("a", "b")
        assert len(pres.relators) == 3

    def test_unknown_generator(self):
        for rel in ("ab", (("a", 1), ("b", 1)), (("a", 1), ("b", 2))):
            with pytest.raises(InputError, match="^relator uses unknown generator 'b'$"):
                GroupPresentation(("a",), (rel,))
        # Only the reduced relators are checked, however they are spelled.
        for rel in ("abb'", (("a", 1), ("b", 1), ("b", -1))):
            assert GroupPresentation(("a",), (rel,)).relators == ((("a", 1),),)

    def test_presentations_equal_by_value(self):
        a = GroupPresentation(("a", "b"), ("aa", "bb'b"))
        b = GroupPresentation(["a", "b"], [parse_word("aa"), (("b", 1),)])
        assert a == b and hash(a) == hash(b) and {a: "x"}[b] == "x"
        assert a != GroupPresentation(("a", "b"), ("aa",))
        assert a != GroupPresentation(("b", "a"), ("aa", "b"))


class TestToddCoxeter:
    def test_cyclic_3(self):
        assert Z(3).order == 3

    def test_s3(self):
        assert todd_coxeter(S3_PRES, 20).order == 6

    def test_free_exceeds(self):
        with pytest.raises(BudgetError) as exc:
            todd_coxeter(GroupPresentation(("a", "b"), ()), 100)
        assert type(exc.value) is BudgetError
        assert str(exc.value) == "coset budget 100 exceeded"

    def test_klein_four(self):
        assert todd_coxeter(V4_PRES, 20).order == 4

    def test_identity_is_c0(self):
        m = Z(4)
        assert m.normal_form("") == 0
        assert m.element_name(0) == "c0"

    def test_relators_hold_exhaustively(self):
        for pres in (S3_PRES, V4_PRES):
            m = todd_coxeter(pres, 50)
            for rel in pres.relators:
                g = m.normal_form(rel)
                assert g == 0
                # the relator acts trivially on every element
                for c in m.elements():
                    acc = c
                    for name, e in rel:
                        acc = m.mul(acc, m.gen_element(name, e))
                    assert acc == c

    def test_table_validation(self):
        with pytest.raises(Exception):
            FiniteGroup([[0, 1], [1, 1]], {"a": 1})

    def test_table_matches_word_walk(self):
        # A5 (order 60) is above the size at which associativity is scanned;
        # c is a redundant generator of S3.
        redundant = GroupPresentation(("a", "b", "c"), ("aa", "bbb", "abab", "c'ab"))
        cases = [(GroupPresentation(("a",), ("a" * n,)), 4 * n) for n in range(1, 61)]
        cases += [(pres, 200) for pres in (V4_PRES, S3_PRES, Q8_PRES, A4_PRES,
                                           redundant)]
        cases.append((A5_PRES, 1000))
        for pres, budget in cases:
            m = todd_coxeter(pres, budget)
            table, gens = word_walk_table(pres, budget)
            assert m.table == table
            assert m.gens == gens
        assert todd_coxeter(A5_PRES, 1000).order == 60
        assert todd_coxeter(redundant, 200).order == 6

    # sha256 of repr((table, gens)) for the edge-path group of each space,
    # recorded before coset rows held only their defined entries.  Printed
    # Smith coordinates depend on this element numbering.
    NUMBERING = {
        "rp3": "b739236f659130c7b109e2f3277f350fbaf2150a341c091319adbb8dcc71d490",
        "lens3": "100a137ee4c448c2ccd87215d95e6d068a74b8d8dd2ef1664825868d4148340b",
        "lens4": "235a9d572001fd96aa00b7b0b99367035564f8a1e3206d487f9d9281814bbc72",
        "lens5": "27f951e0fed6025a6d28c80a65ff8a115e48aae349907ca0823b8ba4aab841ab",
        "lens7": "41a79e67bdcd86074017f8dc360be18024ae8c97d7748a238e5743590793b44d",
        "q8space": "bf41ce3efa85960ad507b154128a3ab4644ec590a6eb157102cc8798ec408595",
        "s2xrp3": "b3090f07bc092aaada5ed0f6bf5dea3be92e223cd6f5d759d1c5d89ff1db4956",
    }

    def test_element_numbering_is_pinned(self, rp3, q8space, s2cx):
        spaces = {"rp3": rp3, "q8space": q8space, "s2xrp3": simplicial_product(s2cx, rp3)}
        spaces.update((f"lens{p}", lens_space(p)) for p in (3, 4, 5, 7))
        for name, cx in spaces.items():
            m = todd_coxeter(fundamental_group(cx), 20000)
            digest = hashlib.sha256(repr((m.table, m.gens)).encode()).hexdigest()
            assert digest == self.NUMBERING[name], name

    def test_budget_edge(self, rp3):
        # Enumerating pi_1(RP^3) defines 111 cosets in all.
        pres = fundamental_group(rp3)
        with pytest.raises(BudgetError, match="^coset budget 110 exceeded$"):
            todd_coxeter(pres, 110)
        assert todd_coxeter(pres, 111).order == 2

    def test_generators_must_generate(self):
        z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        with pytest.raises(PreconditionError,
                           match="^generators do not generate the group$"):
            FiniteGroup(z4, {"a": 2})
        assert FiniteGroup(z4, {"a": 3}).order == 4

    def test_table_must_satisfy_the_relators(self):
        z2 = [[0, 1], [1, 0]]
        with pytest.raises(PreconditionError,
                           match="^table does not satisfy a relator$"):
            FiniteGroup(z2, {"a": 1}, GroupPresentation(("a",), ("aaa",)))
        assert FiniteGroup(z2, {"a": 1}, GroupPresentation(("a",), ("aa",))).order == 2


class TestNormalForms:
    def test_free(self):
        f2 = FreeGroup(2)
        assert f2.normal_form("abb'") == f2.normal_form("a")

    def test_free_mul_matches_stack_reduction(self):
        # Half the right factors start with the inverse of a suffix of the
        # left one, so junctions cancel by every length, up to all of x.
        rng = random.Random(12)
        f2 = FreeGroup(2)

        def reduced(length):
            word = []
            while len(word) < length:
                s = rng.choice((1, -1, 2, -2))
                if not word or word[-1] != -s:
                    word.append(s)
            return tuple(word)

        def stack_reduce(letters):
            out = []
            for s in letters:
                if out and out[-1] == -s:
                    out.pop()
                else:
                    out.append(s)
            return tuple(out)

        for _ in range(2000):
            x = reduced(rng.randint(0, 8))
            y = reduced(rng.randint(0, 8))
            if rng.random() < 0.5:
                y = stack_reduce(f2.inv(x[rng.randint(0, len(x)):]) + y)
            assert f2.mul(x, y) == stack_reduce(x + y)

    def test_free_abelian(self):
        za = FreeAbelianGroup(2)
        assert za.normal_form("aba") == (2, 1)

    def test_finite_exponent(self):
        z3 = Z(3)
        assert z3.normal_form("aaaa") == z3.normal_form("a")

    def test_product(self):
        pg = ProductGroup(FreeAbelianGroup(1, ("a",)), FreeGroup(2, ("s", "t")))
        x = pg.normal_form("asa")
        assert x == ((2,), pg.right.gen_element("s"))

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))),
                    max_size=12))
    def test_idempotent(self, letters):
        models = [FreeGroup(2), FreeAbelianGroup(2), Z(4),
                  todd_coxeter(S3_PRES, 20),
                  ProductGroup(FreeAbelianGroup(1, ("a",)),
                               FreeGroup(1, ("b",)))]
        for m in models:
            gens = m.generators
            word = [(gens[i % len(gens)], e) for i, e in letters]
            inverse = [(g, -e) for g, e in reversed(word)]
            assert m.normal_form(word + inverse) == m.identity
            assert m.mul(m.normal_form(word), m.normal_form(inverse)) == m.identity


class TestGroupRing:
    def test_model_mismatch(self):
        with pytest.raises(ModelMismatch):
            tensor_rep(trivial_rep(Z(2)), trivial_rep(Z(3)))

    def test_model_mismatch_is_one_class(self):
        from eqhom import coarse, complexes, duality, errors, groups
        assert (groups.ModelMismatch is complexes.ModelMismatch
                is coarse.ModelMismatch is duality.ModelMismatch
                is errors.ModelMismatch)


class TestRepresentations:
    def test_augmentation_ideal_z2(self):
        rep = augmentation_ideal_rep(Z(2))
        assert rep.rank == 1
        assert rep.images["a"].data == [[-1]]

    def test_augmentation_ideal_z3(self):
        rep = augmentation_ideal_rep(Z(3))
        # a.(a-1) = -(a-1) + (a^2-1);  a.(a^2-1) = -(a-1)
        assert rep.images["a"].data == [[-1, -1], [1, 0]]

    def test_trivial_group_rank_zero(self):
        triv = todd_coxeter(GroupPresentation(("a",), ("a",)), 5)
        assert augmentation_ideal_rep(triv).rank == 0

    def test_not_finite(self):
        with pytest.raises(PreconditionError,
                           match="^augmentation ideal module needs a finite model$"):
            augmentation_ideal_rep(FreeGroup(2))

    def test_tensor_unit(self):
        z3 = Z(3)
        ideal = augmentation_ideal_rep(z3)
        both = tensor_rep(ideal, trivial_rep(z3, 1))
        assert both.images["a"] == ideal.images["a"]

    def test_tensor_signs_z2(self):
        ideal = augmentation_ideal_rep(Z(2))
        assert tensor_rep(ideal, ideal).images["a"].data == [[1]]
        assert tensor_power(ideal, 3).images["a"].data == [[-1]]

    def test_tensor_associative(self):
        s3 = todd_coxeter(S3_PRES, 20)
        ideal = augmentation_ideal_rep(s3)
        reg = regular_rep(s3)
        left = tensor_rep(tensor_rep(ideal, reg), ideal)
        right = tensor_rep(ideal, tensor_rep(reg, ideal))
        assert all(left.images[g] == right.images[g] for g in s3.generators)

    def test_regular_rep(self):
        z2 = Z(2)
        assert regular_rep(z2).images["a"].data == [[0, 1], [1, 0]]
        z3 = Z(3)
        m = regular_rep(z3).images["a"]
        perm = [m.col(j).index(1) for j in range(3)]
        assert sorted(perm) == [0, 1, 2]

    def test_regular_rep_satisfies_relators(self):
        s3 = todd_coxeter(S3_PRES, 20)
        rep = regular_rep(s3)
        for rel in S3_PRES.relators:
            m = IntMatrix.identity(6)
            for g, e in rel:
                m = matmul(m, rep.matrix_of(s3.gen_element(g, e)))
            assert m == IntMatrix.identity(6)

    def test_equal_images_built_without_factoring(self, monkeypatch):
        # Z/2 on three generators with equal images, as in an edge-path
        # presentation where many edges map to the same element.
        pres = GroupPresentation(("a", "b", "c"), ("aa", "ab'", "ac'"))
        model = todd_coxeter(pres, 10)
        factored = []
        real = intlinalg._smith
        monkeypatch.setattr(intlinalg, "_smith",
                            lambda m, **kw: factored.append(m) or real(m, **kw))
        rep = regular_rep(model)
        images = rep.images
        assert images["a"] == images["b"] == images["c"]
        assert factored == []
        swap = images["a"]
        for g in "abc":
            assert matmul(swap, rep.matrix_of(model.gen_element(g, -1))) == \
                IntMatrix.identity(2)

    def test_right_multiplication_fails_the_check(self):
        # R(s) e_g = e_{gs} reverses products, so on the nonabelian S3 it
        # is no homomorphism; it still satisfies the relators read
        # backwards (aa, bbb, baba), which a relator walk would accept.
        s3 = todd_coxeter(S3_PRES, 20)
        n, table = s3.order, s3.table

        def right(s):
            return IntMatrix.from_blocks(
                n, n, (1, 1), ((table[g][s], g, 1, None) for g in range(n)))

        with pytest.raises(PreconditionError):
            groups._checked_rep(s3, n, right)
        left = groups._checked_rep(
            s3, n, lambda s: IntMatrix.from_blocks(
                n, n, (1, 1), ((table[s][g], g, 1, None) for g in range(n))))
        assert left.images == regular_rep(s3).images

    def test_cover_reps_build_once_per_element(self, rp3_cover, monkeypatch):
        # The RP^3 edge-path presentation has many generator names for
        # its two elements: build one matrix per element, factor nothing.
        model = rp3_cover.model
        assert len(model.generators) > 100 and model.order == 2
        factored, built = [], []
        real_smith = intlinalg._smith
        monkeypatch.setattr(intlinalg, "_smith",
                            lambda m, **kw: factored.append(m) or real_smith(m, **kw))
        real_blocks = IntMatrix.from_blocks.__func__
        monkeypatch.setattr(IntMatrix, "from_blocks", classmethod(
            lambda cls, *args: built.append(args) or real_blocks(cls, *args)))
        for make in (regular_rep, augmentation_ideal_rep):
            built.clear()
            rep = make(model)
            assert len(rep.images) == len(model.generators)
            assert len(built) <= model.order
        assert factored == []

    def test_homomorphism_property_small_groups(self):
        for model in (Z(2), Z(3), Z(4), todd_coxeter(V4_PRES, 20),
                      todd_coxeter(S3_PRES, 20)):
            assert model.order <= 8
            for rep in (augmentation_ideal_rep(model), regular_rep(model)):
                for a in model.elements():
                    for b in model.elements():
                        assert matmul(rep.matrix_of(a), rep.matrix_of(b)) == \
                            rep.matrix_of(model.mul(a, b))

    def test_kronecker_shape(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        k = a.kronecker(b)
        assert (k.rows, k.cols) == (4, 4)
        assert k.data[0][1] == 1 and k.data[0][3] == 2
