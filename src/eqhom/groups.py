"""Group presentations, computable models, and integer representations.

Four model variants have solvable word problems here: finite groups (via
coset enumeration of a presentation, or an explicit multiplication
table), free groups, free abelian groups, and binary direct products.
On top of these sit integer matrix representations: the regular module
Z[pi], the augmentation ideal I with its basis {g - 1 : g != e}, and
tensor powers of I under the diagonal action.  A representation holds
one matrix per group element, built on first use; the regular module and
I are built from the multiplication table and checked to be
homomorphisms once, when they are made.

Word syntax: a generator is a name, an inverse is the name with a
trailing apostrophe.  In text form a word is either a string of
single-character names (``aba'``) or dot-separated names (``x0.x1'``).
"""

from operator import add, neg

from .errors import BudgetError, InputError, ModelMismatch, PreconditionError
from .intlinalg import IntMatrix, matmul, matvec


# ---------------------------------------------------------------------------
# words and presentations

def parse_word(text):
    """Parse a word string into a tuple of (generator, +-1) letters.

    >>> parse_word("aba'")
    (('a', 1), ('b', 1), ('a', -1))
    >>> parse_word("x0.x1'")
    (('x0', 1), ('x1', -1))
    """
    if text in ("", "1"):
        return ()
    letters = []
    if "." in text:
        tokens = text.split(".")
    else:
        tokens = []
        for ch in text:
            if ch == "'":
                if not tokens:
                    raise InputError(f"word {text!r} starts with an apostrophe")
                tokens[-1] += "'"
            else:
                tokens.append(ch)
    for tok in tokens:
        if tok.endswith("'"):
            letters.append((tok[:-1], -1))
        else:
            letters.append((tok, 1))
    return tuple(letters)


def render_word(word):
    if not word:
        return "1"
    tokens = [g + ("'" if e < 0 else "") for g, e in word]
    if all(len(g) == 1 for g, _ in word):
        return "".join(tokens)
    return ".".join(tokens)


def free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _as_word(word):
    if isinstance(word, str):
        return parse_word(word)
    return tuple((g, int(e)) for g, e in word)


class GroupPresentation:
    """Generators and relators; relator words are freely reduced.

    Equal presentations compare and hash equal.
    """

    def __init__(self, generators, relators):
        self.generators = gens = tuple(generators)
        # A relator spelled in the letters (g, 1) and (g, -1) of the
        # generators is normalized by lookups; only other relators go
        # through _as_word and need their generators checked.
        letters = {}
        for g in gens:
            letters[g, 1], letters[g, -1] = (g, 1), (g, -1)
        rels, unchecked = [], []
        for w in relators:
            try:
                rels.append(free_reduce(tuple(map(letters.__getitem__, w))))
            except (KeyError, TypeError):
                rels.append(free_reduce(_as_word(w)))
                unchecked.append(rels[-1])
        self.relators = tuple(rels)
        known = set()
        for g in gens:
            if g in known:
                raise InputError(f"repeated generator {g!r}")
            known.add(g)
        for rel in unchecked:
            for g, _ in rel:
                if g not in known:
                    raise InputError(f"relator uses unknown generator {g!r}")

    def __eq__(self, other):
        return (isinstance(other, GroupPresentation) and self.generators == other.generators
                and self.relators == other.relators)

    def __hash__(self):
        return hash((self.generators, self.relators))

    def render(self):
        lines = ["gens: " + " ".join(self.generators)]
        lines.append("rels: " + " ".join(render_word(w) for w in self.relators))
        return "\n".join(lines) + "\n"


def parse_presentation(text):
    """Read the two-line presentation format (``gens:`` / ``rels:``)."""
    gens = None
    rels = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if gens is not None:
                raise InputError(f"line {lineno}: second 'gens:' line")
            gens = tuple(line[len("gens:"):].split())
        elif line.startswith("rels:"):
            rels.extend(line[len("rels:"):].split())
        else:
            raise InputError(f"line {lineno}: expected 'gens:' or 'rels:'")
    if gens is None:
        raise InputError("presentation has no 'gens:' line")
    return GroupPresentation(gens, tuple(parse_word(w) for w in rels))


# ---------------------------------------------------------------------------
# group models

class GroupModel:
    """Common interface: identity, mul, inv, and canonical normal forms."""

    generators = ()
    is_finite = False
    # True when a homomorphism onto Z/2 sends every generator to 1: depth
    # parity is then that map's value, so no Cayley-graph edge joins two
    # vertices at the same distance from the identity.
    bipartite = False

    def gen_element(self, name, exp=1):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def normal_form(self, word):
        """Canonical element for a word (string or letter sequence)."""
        out = self.identity
        for g, e in _as_word(word):
            out = self.mul(out, self.gen_element(g, e))
        return out

    def sort_key(self, element):
        raise NotImplementedError

    def codes(self, radius):
        """Integer codes for the radius-R Cayley ball and one step past it.

        Returns (encode, step, bound).  encode maps such elements one-to-one
        into [0, bound), and integer order on the codes is sort_key order.
        step(codes, s) is [c.s for c in codes] for the code s of a
        generator or its inverse, other than the identity.
        """
        raise NotImplementedError


class FiniteGroup(GroupModel):
    """A finite group given by its full multiplication table.

    Element i is named ``c{i}``; element 0 is the identity.  ``gens`` maps
    generator names to element indices and must generate the group.
    """

    is_finite = True

    def __init__(self, table, gens, presentation=None):
        self.table = [list(map(int, row)) for row in table]
        self.order = len(self.table)
        self.gens = dict(gens)
        self.generators = tuple(self.gens)
        self.presentation = presentation
        self._check_table()
        self.identity = 0
        self._inverse = [row.index(0) for row in self.table]
        if presentation is not None:
            # Walk each relator from the identity; a letter is the table
            # column of its generator or inverse, looked up once.
            table, column = self.table, {}
            for rel in presentation.relators:
                x = 0
                for letter in rel:
                    col = column.get(letter)
                    if col is None:
                        col = column[letter] = self.gen_element(*letter)
                    x = table[x][col]
                if x:
                    raise PreconditionError("table does not satisfy a relator")

    def _check_table(self):
        n = self.order
        if n == 0:
            raise PreconditionError("empty multiplication table")
        for i, row in enumerate(self.table):
            if len(row) != n or any(not 0 <= v < n for v in row):
                raise PreconditionError("multiplication table is not closed")
            if row[0] != i or self.table[0][i] != i:
                raise PreconditionError("element 0 is not an identity")
            if 0 not in row:
                raise PreconditionError(f"element {i} has no inverse")
        if n <= 24:
            for a in range(n):
                for b in range(n):
                    ab = self.table[a][b]
                    for c in range(n):
                        if self.table[ab][c] != self.table[a][self.table[b][c]]:
                            raise PreconditionError("table is not associative")
        gens = set(self.gens.values())
        if any(not 0 <= g < n for g in gens):
            raise PreconditionError("generator index out of range")
        # In a finite group every element is a positive word in generators.
        reached = {0}
        queue = [0]
        for c in queue:
            for g in gens:
                d = self.table[c][g]
                if d not in reached:
                    reached.add(d)
                    queue.append(d)
        if len(reached) != n:
            raise PreconditionError("generators do not generate the group")

    def gen_element(self, name, exp=1):
        if name not in self.gens:
            raise InputError(f"unknown generator {name!r}")
        g = self.gens[name]
        return g if exp > 0 else self._inverse[g]

    def mul(self, x, y):
        return self.table[x][y]

    def inv(self, x):
        return self._inverse[x]

    def elements(self):
        return range(self.order)

    def sort_key(self, element):
        return (element,)

    def codes(self, radius):
        """Elements are their own codes; s steps through the table's column s."""
        table = self.table

        def step(codes, s):
            col = [row[s] for row in table]
            return [col[c] for c in codes]

        return int, step, self.order

    def element_name(self, element):
        return f"c{element}"

    def __eq__(self, other):
        return (isinstance(other, FiniteGroup) and self.table == other.table
                and self.gens == other.gens)

    def __hash__(self):
        return hash((tuple(map(tuple, self.table)), tuple(sorted(self.gens.items()))))

    def describe(self):
        return f"finite group of order {self.order}"


def _default_names(rank):
    if rank <= 26:
        return tuple("abcdefghijklmnopqrstuvwxyz"[:rank])
    return tuple(f"x{i}" for i in range(rank))


class FreeGroup(GroupModel):
    """Free group; elements are freely reduced tuples of signed indices.

    The letter +-(i+1) stands for the i-th generator or its inverse.
    """

    bipartite = True  # word-length parity

    def __init__(self, rank, names=None):
        self.rank = rank
        self.generators = tuple(names) if names else _default_names(rank)
        if len(self.generators) != rank:
            raise ValueError("need one name per generator")
        self._index = {g: i for i, g in enumerate(self.generators)}
        self.identity = ()

    def gen_element(self, name, exp=1):
        if name not in self._index:
            raise InputError(f"unknown generator {name!r}")
        return ((self._index[name] + 1) * (1 if exp > 0 else -1),)

    def mul(self, x, y):
        # x and y are reduced, so letters cancel only at the junction: the
        # first i letters of x survive and the first n - i of y cancel.
        # When nothing cancels, x + y skips building two slices.
        n = i = len(x)
        for s in y:
            if not i or x[i - 1] != -s:
                break
            i -= 1
        return x + y if i == n else x[:i] + y[n - i:]

    def inv(self, x):
        return tuple(-s for s in reversed(x))

    def sort_key(self, element):
        return (len(element), element)

    def codes(self, radius):
        """A word as base-2k digits under a leading 1, in shortlex order.

        The letters -k..-1, 1..k are the digits 0..2k-1, so a letter's
        inverse is the digit 2k-1-d: a letter appends its digit, or
        cancels the last one when that is its inverse.
        """
        k = self.rank
        base = 2 * k

        def encode(word):
            c = 1
            for s in word:
                c = c * base + s + k - (s > 0)
            return c

        def step(codes, s):
            d = s - base  # s codes the one-letter word: 1, then digit d
            inverse = base - 1 - d
            return [c // base if c % base == inverse and c >= base else c * base + d
                    for c in codes]

        return encode, step, base ** (radius + 2)

    def __eq__(self, other):
        return (isinstance(other, FreeGroup) and self.rank == other.rank
                and self.generators == other.generators)

    def __hash__(self):
        return hash(("free", self.generators))

    def describe(self):
        return f"F_{self.rank}"


class FreeAbelianGroup(GroupModel):
    """Z^rank; elements are exponent vectors."""

    bipartite = True  # coordinate-sum parity

    def __init__(self, rank, names=None):
        self.rank = rank
        self.generators = tuple(names) if names else _default_names(rank)
        if len(self.generators) != rank:
            raise ValueError("need one name per generator")
        self._index = {g: i for i, g in enumerate(self.generators)}
        self.identity = (0,) * rank

    def gen_element(self, name, exp=1):
        if name not in self._index:
            raise InputError(f"unknown generator {name!r}")
        v = [0] * self.rank
        v[self._index[name]] = 1 if exp > 0 else -1
        return tuple(v)

    def mul(self, x, y):
        return tuple(map(add, x, y))

    def inv(self, x):
        return tuple(map(neg, x))

    def sort_key(self, element):
        return element

    def codes(self, radius):
        """Exponents offset by R+1 as base-(2R+3) digits, in lexicographic order.

        Every exponent one step past the ball lies in [-R-1, R+1], so it
        fits one digit, and a letter adds a constant.
        """
        n, base, offset = self.rank, 2 * radius + 3, radius + 1

        def encode(x):
            c = 0
            for e in x:
                c = c * base + e + offset
            return c

        one = encode(self.identity)

        def step(codes, s):
            d = s - one
            return [c + d for c in codes]

        return encode, step, base ** n

    def __eq__(self, other):
        return (isinstance(other, FreeAbelianGroup) and self.rank == other.rank
                and self.generators == other.generators)

    def __hash__(self):
        return hash(("freeabelian", self.generators))

    def describe(self):
        return f"Z^{self.rank}"


class ProductGroup(GroupModel):
    """Direct product; elements are pairs, generators are the union."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        if set(left.generators) & set(right.generators):
            raise ValueError("product factors must use disjoint generator names")
        self.generators = tuple(left.generators) + tuple(right.generators)
        self.identity = (left.identity, right.identity)

    @property
    def is_finite(self):
        return self.left.is_finite and self.right.is_finite

    @property
    def bipartite(self):
        return self.left.bipartite and self.right.bipartite

    def gen_element(self, name, exp=1):
        if name in self.left.generators:
            return (self.left.gen_element(name, exp), self.right.identity)
        if name in self.right.generators:
            return (self.left.identity, self.right.gen_element(name, exp))
        raise InputError(f"unknown generator {name!r}")

    def mul(self, x, y):
        return (self.left.mul(x[0], y[0]), self.right.mul(x[1], y[1]))

    def inv(self, x):
        return (self.left.inv(x[0]), self.right.inv(x[1]))

    def sort_key(self, element):
        return (self.left.sort_key(element[0]), self.right.sort_key(element[1]))

    def codes(self, radius):
        """left * M + right, with M the right factor's code bound: the
        lexicographic order of the pairs.  A letter steps one factor."""
        encode_l, step_l, bound_l = self.left.codes(radius)
        encode_r, step_r, m = self.right.codes(radius)
        one_l = encode_l(self.left.identity)

        def encode(x):
            return encode_l(x[0]) * m + encode_r(x[1])

        def step(codes, s):
            a, b = divmod(s, m)
            if a != one_l:  # a letter of the left factor
                lefts = step_l([c // m for c in codes], a)
                return [x * m + c % m for x, c in zip(lefts, codes)]
            rights = [c % m for c in codes]
            return [c + y - r for c, r, y in zip(codes, rights, step_r(rights, b))]

        return encode, step, bound_l * m

    def __eq__(self, other):
        return (isinstance(other, ProductGroup) and self.left == other.left
                and self.right == other.right)

    def __hash__(self):
        return hash(("product", self.left, self.right))

    def describe(self):
        return f"{self.left.describe()} x {self.right.describe()}"


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration (HLT, trivial subgroup)

class _CosetTable:
    """The coset table of an HLT enumeration under a coset budget.

    Column 2i is generator i and 2i + 1 its inverse.  Row c holds only its
    defined entries, as a dict from column to coset: most cosets of a big
    enumeration die in a coincidence with few entries defined, so a row
    costs what it holds.  unify walks a dead row's entries in ascending
    column order, so definitions, coincidences and the coset count are
    those of a table with one slot per column.
    """

    def __init__(self, budget):
        self.budget = budget
        self.tab = []
        self.parent = []
        self._new()

    def _new(self):
        if len(self.tab) >= self.budget:
            raise BudgetError(f"coset budget {self.budget} exceeded")
        c = len(self.tab)
        self.tab.append({})
        self.parent.append(c)
        return c

    def find(self, c):
        parent = self.parent
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(self, c, col):
        d = self._new()
        self.tab[c][col] = d
        self.tab[d][col ^ 1] = c
        return d

    def unify(self, a, b):
        find, parent, tab = self.find, self.parent, self.tab
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            parent[b] = a
            rowa = tab[a]
            for col, nb in sorted(tab[b].items()):
                na = rowa.get(col)
                if na is None:
                    rowa[col] = nb
                else:
                    stack.append((na, nb))

    def scan_and_fill(self, c, word):
        find, tab = self.find, self.tab
        f, i = c, 0
        b, r = c, len(word) - 1
        while True:
            f, b = find(f), find(b)
            while i <= r:
                nxt = tab[f].get(word[i])
                if nxt is None:
                    break
                f = find(nxt)
                i += 1
            if i > r:
                if f != b:
                    self.unify(f, b)
                return
            while r >= i:
                nxt = tab[b].get(word[r] ^ 1)
                if nxt is None:
                    break
                b = find(nxt)
                r -= 1
            if r < i:
                self.unify(f, b)
                return
            if r == i:
                tab[f][word[i]] = b
                back = tab[b].get(word[i] ^ 1)
                if back is None:
                    tab[b][word[i] ^ 1] = f
                elif find(back) != find(f):
                    self.unify(back, f)
                return
            self.define(f, word[i])


def todd_coxeter(pres, max_cosets):
    """Enumerate the cosets of the trivial subgroup; a FiniteGroup on success.

    Cosets are numbered in discovery order after compression, with c0 the
    identity.  The multiplication table is filled one column per coset
    along a breadth-first tree of the coset graph: if d = c s, then
    x d = (x c) s for every x.  Raises BudgetError when more than max_cosets
    cosets get defined (the group may be infinite, or merely larger than the
    budget).

    >>> todd_coxeter(GroupPresentation(("a",), (parse_word("aaa"),)), 10).order
    3
    """
    if max_cosets < 1:
        raise InputError("max_cosets must be >= 1")
    gens = pres.generators
    ncols = 2 * len(gens)
    colof = {}
    for i, g in enumerate(gens):
        colof[(g, 1)] = 2 * i
        colof[(g, -1)] = 2 * i + 1
    rels = [tuple(map(colof.__getitem__, rel)) for rel in pres.relators if rel]
    ct = _CosetTable(max_cosets)
    idx = 0
    while idx < len(ct.tab):
        if ct.find(idx) == idx:
            for rel in rels:
                ct.scan_and_fill(idx, rel)
                if ct.find(idx) != idx:
                    break
            if ct.find(idx) == idx:
                row = ct.tab[idx]
                for col in range(ncols):
                    if col not in row:
                        ct.define(idx, col)
        idx += 1
    live = [i for i in range(len(ct.tab)) if ct.find(i) == i]
    relabel = {c: k for k, c in enumerate(live)}
    graph = [[relabel[ct.find(ct.tab[c][col])] for col in range(ncols)] for c in live]
    n = len(live)
    table = [[x] + [0] * (n - 1) for x in range(n)]
    reached = [True] + [False] * (n - 1)
    queue = [0]
    for c in queue:
        for col, d in enumerate(graph[c]):
            if not reached[d]:
                reached[d] = True
                queue.append(d)
                for row in table:
                    row[d] = graph[row[c]][col]
    gen_map = {g: graph[0][colof[(g, 1)]] for g in gens}
    return FiniteGroup(table, gen_map, presentation=pres)


# ---------------------------------------------------------------------------
# integer representations

class IntRepresentation:
    """An action of a group model on Z^rank by invertible integer matrices.

    build(g) gives the matrix of the element g; it runs once per element,
    on first use, and its result is kept.
    """

    def __init__(self, model, rank, build):
        self.model = model
        self.rank = rank
        self._build = build
        self._matrices = {}

    @property
    def images(self):
        """The matrix of each generator, by name."""
        return {name: self.matrix_of(self.model.gen_element(name))
                for name in self.model.generators}

    def matrix_of(self, element):
        m = self._matrices.get(element)
        if m is None:
            m = self._build(element)
            if m.rows != self.rank or m.cols != self.rank:
                raise ValueError("image matrix has wrong shape")
            self._matrices[element] = m
        return m

    def act(self, element, vector):
        return matvec(self.matrix_of(element), vector)


def _checked_rep(model, rank, build):
    """The representation of a finite model built by build, checked.

    rho(e) = 1 and rho(s) rho(g) = rho(sg) for every generator element s
    and every g make rho(w) the product of rho over the letters of any
    positive word w.  Every element of a finite group is such a word, so
    rho is a homomorphism and every rho(g) is invertible.
    """
    rep = IntRepresentation(model, rank, build)
    if rep.matrix_of(model.identity) != IntMatrix.identity(rank):
        raise PreconditionError("the identity does not act as 1")
    for s in sorted(set(model.gens.values())):
        rho_s = rep.matrix_of(s)
        for g in model.elements():
            if matmul(rho_s, rep.matrix_of(g)) != rep.matrix_of(model.mul(s, g)):
                raise PreconditionError(
                    f"rho({model.element_name(s)}) rho({model.element_name(g)}) "
                    f"!= rho({model.element_name(model.mul(s, g))})")
    return rep


def trivial_rep(model, rank=1):
    """Z^rank with every element acting as 1.  The one identity matrix is
    built on first use: a rank as large as (|pi| - 1)^k costs nothing
    while no entry is read."""
    eye = []

    def build(g):
        if not eye:
            eye.append(IntMatrix.identity(rank))
        return eye[0]

    return IntRepresentation(model, rank, build)


def regular_rep(model):
    """Z[pi] as a module over itself (left multiplication), for finite pi."""
    if not isinstance(model, FiniteGroup):
        raise PreconditionError("regular representation needs a finite model")
    n, table = model.order, model.table
    return _checked_rep(model, n, lambda s: IntMatrix.from_blocks(
        n, n, (1, 1), ((table[s][g], g, 1, None) for g in range(n))))


def augmentation_ideal_rep(model):
    """The augmentation ideal I on the basis {g - 1 : g != e}, for finite pi.

    The element s sends g - 1 to (sg - 1) - (s - 1); columns are indexed
    by the model's element order with the identity dropped.

    >>> z2 = todd_coxeter(GroupPresentation(("g",), (parse_word("gg"),)), 5)
    >>> augmentation_ideal_rep(z2).images["g"].data
    [[-1]]
    """
    if not isinstance(model, FiniteGroup):
        raise PreconditionError("augmentation ideal module needs a finite model")
    n, table = model.order, model.table
    # row -1 is the dropped identity
    return _checked_rep(model, n - 1, lambda s: IntMatrix.from_blocks(
        n - 1, n - 1, (1, 1), (
            (row, g - 1, c, None) for g in range(1, n)
            for row, c in ((table[s][g] - 1, 1), (s - 1, -1)) if row >= 0)))


def tensor_rep(left, right):
    """Tensor product with the diagonal action, on the lexicographic basis."""
    if left.model != right.model:
        raise ModelMismatch("tensor factors over different models")
    return IntRepresentation(
        left.model, left.rank * right.rank,
        lambda g: left.matrix_of(g).kronecker(right.matrix_of(g)))


def induced_rep(rep):
    """rep (x) Zpi with the diagonal action, for finite pi.

    It is free over Zpi (x (x) h -> h^-1 x (x) h untwists the action), so
    its homology vanishes in positive degrees.
    """
    return tensor_rep(rep, regular_rep(rep.model))


def tensor_power(rep, k):
    """I^(x)k-style power; k = 0 is the rank-1 trivial module."""
    out = trivial_rep(rep.model, 1)
    for _ in range(k):
        out = tensor_rep(out, rep)
    return out
