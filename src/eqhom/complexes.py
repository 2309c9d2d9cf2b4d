"""Finite simplicial complexes, universal covers, and local coefficients.

A complex is stored as its full face lattice with simplices ordered
lexicographically inside each dimension; boundary signs alternate over
the sorted vertex order.  The complex owns its face relations:
boundary_terms(k) is built on first use and kept, and the differentials,
the cover, the edge-path group and orientation all read it.

For a complex with finite fundamental group the universal cover is
realized as an equivariant complex: one free Z[pi] basis cell per base
simplex, with boundary entries carrying the deck translation of the
leading face.

Deck bookkeeping follows the edge-path group: the holonomy of an edge
(u, v) is the class of (tree path to u) + (u, v) + (tree path back from
v), and the lift of a simplex at sheet g places its smallest vertex v0 on
(v0, g) and vertex v_i on (v_i, g . h(v0, v_i)).  Computations on the
cover run on the base with Z[pi] coefficients (Shapiro's lemma); the plain
cover as a simplicial complex is only a reference for checking them.

LocalSystem alone knows about twisting.  holonomy(u, v) is the element
of Z[pi] that carries a coefficient along the edge u -> v, 0 the identity;
faces(k, c) gives face 0 of a simplex s the element h(s1, s0), or
h(s0, s1) in the coboundary, and every other face 0; matrix() applies rho
once to a matrix over Z[pi], for the differentials, cap and Morse alike.

Groups come from critical cells: coreduction() matches the base cells
acyclically once per complex (Mrozek-Batko), and local_homology and
local_cohomology factor the Morse complex over Z[pi] (Skoldberg) and its
Hom dual.  One MorseProjection serves the groups, pd_check's cone and the
classes of duality: one walk builds P on chains and, run over the Hom
dual, the pullback iota^* of the Morse inclusion on cochains.  Only a
nonzero class whose Smith coordinates are not forced reads the full
differentials.  check_chain_condition proves their d.d = 0 without them:
the simplicial identities cancel the terms of d.d in pairs with equal
coefficients, except where vertices 0 and 1 go.  There the front triangle
meets rho(h(s2, s1)) rho(h(s1, s0)) with rho(h(s2, s0)), and in the
coboundary rho(h(s0, s1)) rho(h(s1, s2)) with rho(h(s0, s2)).
"""

from collections import deque
from itertools import chain, combinations, count, permutations, repeat

from .errors import BudgetError, CertificateError, InputError, ModelMismatch, PreconditionError
from .groups import (FiniteGroup, GroupPresentation, _default_names, todd_coxeter,
                     trivial_rep)
from .intlinalg import IntMatrix, chain_homology, matmul


class SimplicialComplex:
    """Downward-closed face lattice generated by a list of simplices; it is
    immutable and keeps its face relations, boundary_terms(k), once built."""

    def __init__(self, simplices):
        """The face levels are built top-down in one pass: level k - 1 is
        the faces of level k plus the given (k - 1)-simplices, and the
        facets are the given simplices that no face of the level above
        covers.  Each level is sorted lexicographically."""
        given = {}
        for s in simplices:
            s = tuple(sorted(map(int, s)))
            if len(set(s)) != len(s):
                raise InputError(f"repeated vertex in {s}")
            if s and s[0] < 0:
                raise InputError("negative vertex id")
            if s:
                given.setdefault(len(s) - 1, set()).add(s)
        if not given:
            raise InputError("empty complex")
        self.dim = max(given)
        self._simplices = [None] * (self.dim + 1)
        facets = [None] * (self.dim + 1)
        covered = set()  # the faces of the level above
        for k in range(self.dim, -1, -1):
            mine = given.get(k, set())
            facets[k] = sorted(mine - covered)
            level = self._simplices[k] = sorted(covered | mine)
            covered = set(chain.from_iterable(map(combinations, level, repeat(k))))
        self._index = [{s: i for i, s in enumerate(level)}
                       for level in self._simplices]
        self.vertex_ids = [s[0] for s in self._simplices[0]]
        self.vertices = len(self.vertex_ids)
        self.facets = list(chain.from_iterable(facets))
        self._terms = [None] * (self.dim + 1)
        self._coreduction = None

    def simplices(self, k):
        if 0 <= k <= self.dim:
            return self._simplices[k]
        return []

    def counts(self):
        return [len(level) for level in self._simplices]

    def index(self, simplex):
        simplex = tuple(simplex)
        k = len(simplex) - 1
        try:
            return self._index[k][simplex]
        except (IndexError, KeyError):
            raise KeyError(f"no simplex {simplex}") from None

    def boundary_terms(self, k):
        """Face indices per k-simplex: the i-th deletes vertex i and enters
        the boundary with sign (-1)^i.

        Built on first use and kept: the complex is immutable, so every
        reader of face relations shares one list per degree.  The tuples
        are empty outside degrees 1..dim.
        """
        if not 1 <= k <= self.dim:
            return [() for _ in self.simplices(k)]
        if self._terms[k] is None:
            # combinations lists the faces deleting vertex k, ..., 0
            index = self._index[k - 1].__getitem__
            self._terms[k] = [tuple(map(index, combinations(s, k)))[::-1]
                              for s in self._simplices[k]]
        return self._terms[k]

    def boundary_matrix(self, k):
        """d_k : C_k -> C_{k-1}; shapes (0 x n_0) and (n_dim x 0) at the ends."""
        return chain_boundary_matrix(LocalSystem(self, 1), k)

    def coreduction(self):
        """(critical, stamp, up, down, cofaces) per degree, kept: an acyclic matching.

        A queued cell with one face left goes with it; when the queue runs
        dry, the first cell left in the least degree is critical.  stamp
        orders removals; up is the upper cell matched with a lower one and
        down the lower face matched with an upper one, -1 elsewhere, so both
        are -1 on a critical cell.  cofaces[k] lists the (k+1)-cells on each
        k-cell, the index lists that walk the matching in the Hom dual."""
        if self._coreduction is None:
            terms = [self.boundary_terms(k) for k in range(self.dim + 1)]
            for k in range(2, self.dim + 1):
                if any(terms[k - 1][f[j]][i] != terms[k - 1][f[i]][j - 1] for f in terms[k]
                       for j in range(1, k + 1) for i in range(j)):
                    raise PreconditionError(f"faces of degree {k} break the simplicial identities")
            cofaces = [[[] for _ in level] for level in terms]
            for k in range(1, self.dim + 1):
                for t, faces in enumerate(terms[k]):
                    for f in faces:
                        cofaces[k - 1][f].append(t)
            left = [list(map(len, level)) for level in terms]
            stamp, up, down = ([[-1] * len(level) for level in terms] for _ in range(3))
            critical, clock, queue = [[] for _ in terms], count(), deque()

            def remove(k, j):
                stamp[k][j] = next(clock)
                for t in cofaces[k][j]:
                    left[k + 1][t] -= 1
                    if stamp[k + 1][t] < 0:
                        queue.append((k + 1, t))

            for k, level in enumerate(stamp):
                for j, done in enumerate(level):
                    if done < 0:
                        critical[k].append(j)
                        remove(k, j)
                    while queue:
                        d, s = queue.popleft()
                        if stamp[d][s] < 0 and left[d][s] == 1:
                            t = next(f for f in terms[d][s] if stamp[d - 1][f] < 0)
                            up[d - 1][t], down[d][s] = s, t
                            remove(d, s)
                            remove(d - 1, t)
            self._coreduction = critical, stamp, up, down, cofaces
        return self._coreduction


def load_complex(text):
    """Parse the ``f v0 v1 ...`` facet format (# comments); an ``orient:
    auto`` line is ignored, as ``orient`` always computes the orientation."""
    simplices = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "orient: auto":
            continue
        parts = line.split()
        if parts[0] != "f":
            raise InputError(f"line {lineno}: expected 'f v0 v1 ...'")
        try:
            verts = [int(p) for p in parts[1:]]
        except ValueError:
            raise InputError(f"line {lineno}: vertex ids must be integers") from None
        if not verts:
            raise InputError(f"line {lineno}: empty simplex")
        if any(v < 0 for v in verts):
            raise InputError(f"line {lineno}: negative vertex id")
        if len(set(verts)) != len(verts):
            raise InputError(f"line {lineno}: repeated vertex")
        simplices.append(tuple(verts))
    return SimplicialComplex(simplices)


def load_complex_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_complex(fh.read())


# ---------------------------------------------------------------------------
# edge-path fundamental group

def _spanning_tree(cx, basepoint):
    """Edge indices of the BFS spanning tree at the basepoint, walked over
    the edges' boundary terms; raises unless the complex is connected."""
    root = cx._index[0].get((basepoint,))
    if root is None:
        raise InputError(f"basepoint {basepoint} is not a vertex")
    adj = [[] for _ in range(cx.vertices)]  # edges are sorted: neighbours in vertex order
    for j, (v, u) in enumerate(cx.boundary_terms(1)):
        adj[u].append((v, j))
        adj[v].append((u, j))
    seen, tree, frontier = {root}, set(), [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w, j in adj[u]:
                if w not in seen:
                    seen.add(w)
                    tree.add(j)
                    nxt.append(w)
        frontier = nxt
    if len(seen) != cx.vertices:
        raise PreconditionError("complex is not connected")
    return tree


def _edge_path_data(cx, basepoint):
    """The presentation and the generator name of each non-tree edge index.

    Triangle (a, b, c) reads a -> b -> c -> a: face 2, face 0, then face 1
    inverted; tree edges read as the empty word.
    """
    tree = _spanning_tree(cx, basepoint)
    nontree = [j for j in range(len(cx.simplices(1))) if j not in tree]
    names = _default_names(len(nontree))
    gen_of_edge = dict(zip(nontree, names))
    forward = [()] * len(cx.simplices(1))
    backward = list(forward)
    for j, name in gen_of_edge.items():
        forward[j], backward[j] = ((name, 1),), ((name, -1),)
    words = (forward[e2] + forward[e0] + backward[e1]
             for e0, e1, e2 in cx.boundary_terms(2))
    return GroupPresentation(names, [w for w in words if w]), gen_of_edge


def fundamental_group(cx, basepoint=0):
    """Edge-path presentation from the BFS spanning tree at the basepoint."""
    return _edge_path_data(cx, basepoint)[0]


# ---------------------------------------------------------------------------
# universal covers for finite fundamental groups

class EquivariantComplex:
    """The universal cover of a base complex, as a free Z[pi] chain complex.

    boundary_terms(k)[j] lists (face_index, sign, deck_element) triples for
    the j-th base k-simplex.  The plain cover, a simplicial complex on
    vertex labels v * |pi| + g, is a reference only: the library computes
    on the cover through LocalSystem.from_rep with Z[pi] coefficients.
    """

    def __init__(self, base, model, basepoint=0, edge_path=None):
        """edge_path is _edge_path_data(base, basepoint), if already known."""
        if not isinstance(model, FiniteGroup):
            raise PreconditionError("universal covers are built for finite models only")
        pres, gen_of_edge = edge_path or _edge_path_data(base, basepoint)
        if model.presentation != pres:
            raise PreconditionError(
                "model was not built from this complex's pi_1 presentation")
        self.base = base
        self.model = model
        self._holonomy = {}
        for j, e in enumerate(base.simplices(1)):
            h = model.gen_element(gen_of_edge[j]) if j in gen_of_edge else model.identity
            self._holonomy[e] = h
            self._holonomy[(e[1], e[0])] = model.inv(h)
        self._cover = None

    def holonomy(self, u, v):
        """Deck translation of the edge u -> v (both orders stored)."""
        return self._holonomy[(u, v)]

    def vertex_sheet(self, simplex, i, g=0):
        """Sheet of the i-th vertex in the lift of simplex at sheet g."""
        h = self.model.identity if i == 0 else self.holonomy(simplex[0], simplex[i])
        return self.model.mul(g, h)

    def boundary_terms(self, k):
        """(face_index, sign, element) per base k-simplex: the base's face i
        with sign (-1)^i, and element the holonomy of (s0, s1) on face 0 and
        the identity elsewhere.
        """
        one = self.model.identity
        return [[(face, -1 if i % 2 else 1, self.holonomy(s[0], s[1]) if i == 0 else one)
                 for i, face in enumerate(faces)]
                for s, faces in zip(self.base.simplices(k), self.base.boundary_terms(k))]

    # -- the plain cover, a reference for tests and demos ---------------------

    def vertex_label(self, v, g):
        return v * self.model.order + g

    def cover_complex(self):
        """The cover as an ordinary simplicial complex.

        Labels v * |pi| + g preserve the base vertex order inside every
        lift, so the i-th face of a lift is the lift of the i-th face.
        """
        if self._cover is None:
            facets = []
            for s in self.base.facets:
                for g in self.model.elements():
                    facets.append(tuple(self.vertex_label(v, self.vertex_sheet(s, i, g))
                                        for i, v in enumerate(s)))
            self._cover = SimplicialComplex(facets)
        return self._cover

    def deck_image_label(self, label, h):
        v, g = divmod(label, self.model.order)
        return self.vertex_label(v, self.model.mul(h, g))

    def deck_action_is_free(self):
        """No cover cell is fixed by a nonidentity deck element."""
        cover = self.cover_complex()
        for k in range(cover.dim + 1):
            for s in cover.simplices(k):
                for h in self.model.elements():
                    if h == self.model.identity:
                        continue
                    if tuple(sorted(self.deck_image_label(v, h) for v in s)) == s:
                        return False
        return True

    def counts(self):
        return [len(level) * self.model.order for level in self.base._simplices]


def build_cover(cx, basepoint=0, max_cosets=20000):
    """fundamental_group + todd_coxeter + EquivariantComplex in one step,
    with one edge-path presentation."""
    edge_path = _edge_path_data(cx, basepoint)
    try:
        model = todd_coxeter(edge_path[0], max_cosets)
    except BudgetError as exc:
        # H_1 is the abelianized pi_1 (Hurewicz); a free summand proves
        # pi_1 infinite, otherwise only the budget ran out.
        h1 = homology(cx)[1]
        if h1.free_rank:
            raise PreconditionError(f"pi_1 is infinite: H_1 = {h1}") from exc
        raise
    return EquivariantComplex(cx, model, basepoint, edge_path)


# ---------------------------------------------------------------------------
# local coefficient systems

class LocalSystem:
    """A coefficient module for a complex: trivial Z^rank, or a pi-module.

    Twisted systems carry the cover they act through; trivial systems need
    only the base complex.
    """

    def __init__(self, complex, rank, cover=None, rep=None):
        if rep is not None and cover is None:
            raise ModelMismatch("twisted local system has no cover")
        self.complex = complex
        self.rank = rank
        self.cover = cover
        self.rep = rep

    @classmethod
    def from_rep(cls, cover, rep):
        if rep.model != cover.model:
            raise ModelMismatch("representation is over a different group model")
        return cls(cover.base, rep.rank, cover=cover, rep=rep)

    @property
    def is_trivial(self):
        return self.rep is None

    def holonomy(self, u, v):
        """h(u, v) in Z[pi], which carries a coefficient along the edge u -> v;
        0, the identity, for a trivial system and for u == v."""
        return self.cover.holonomy(u, v) if self.rep is not None and u != v else 0

    def mul(self, x, y):
        return self.cover.model.mul(x, y) if x and y else x or y

    def inv(self, x):
        return self.cover.model.inv(x) if x else 0

    def faces(self, k, c, dual=False):
        """(face, sign, g) for each face i of the k-cell c, k >= 1: sign (-1)^i,
        and g = h(s1, s0) on face 0, or h(s0, s1) when dual, else 0."""
        s = self.complex.simplices(k)[c]
        g = self.holonomy(s[0], s[1]) if dual else self.holonomy(s[1], s[0])
        return [(face, -1 if i % 2 else 1, 0 if i else g)
                for i, face in enumerate(self.complex.boundary_terms(k)[c])]

    def matrix(self, rows, cols, entries, dual=False):
        """The rho-image of a rows x cols matrix over Z[pi] given by (i, j, a, g)
        entries, a block rho(g) each; its block transpose when dual."""
        r, rep = self.rank, self.rep
        shape = (cols * r, rows * r) if dual else (rows * r, cols * r)
        return IntMatrix.from_blocks(*shape, (r, r), (
            (j, i, a, rep.matrix_of(g) if g else None) if dual else
            (i, j, a, rep.matrix_of(g) if g else None) for i, j, a, g in entries))

    def apply(self, rows, entries, vector):
        """matrix(rows, _, entries) times a flat vector, summed term by term."""
        r, out = self.rank, [0] * (rows * self.rank)
        for i, j, a, g in entries:
            value = vector[j * r:(j + 1) * r]
            for t, x in enumerate(self.rep.act(g, value) if g else value, i * r):
                out[t] += a * x
        return out

    def tensor(self, other):
        if self.complex is not other.complex:
            raise ModelMismatch("local systems over different complexes")
        if self.cover is not None and other.cover not in (None, self.cover):
            raise ModelMismatch("local systems twisted through different covers")
        if self.is_trivial and other.is_trivial:
            return LocalSystem(self.complex, self.rank * other.rank)
        from .groups import tensor_rep
        cover = self.cover or other.cover
        left = self.rep or trivial_rep(cover.model, self.rank)
        right = other.rep or trivial_rep(cover.model, other.rank)
        return LocalSystem.from_rep(cover, tensor_rep(left, right))


def _differential(system, k, dual):
    """d_k over Z[pi] from faces, as its rho-image; delta^(k-1) when dual."""
    rows, cols = len(system.complex.simplices(k - 1)), len(system.complex.simplices(k))
    return system.matrix(rows, cols, ((face, j, sign, g) for j in range(cols if k > 0 else 0)
                                      for face, sign, g in system.faces(k, j, dual)), dual)


def chain_boundary_matrix(system, k):
    """d_k on C_*(X; L) = C_*(cover) (x)_pi L; blocks are rho(h)^-1."""
    return _differential(system, k, False)


def cochain_differential_matrix(system, k):
    """delta^k : C^k(X; L) -> C^{k+1}(X; L); blocks are rho(h)."""
    return _differential(system, k + 1, True)


def check_chain_condition(system):
    """Raise PreconditionError unless d.d = 0 on C_*(X; L) and C^*(X; L): the
    simplicial identities (checked by the coreduction), the cocycle condition
    and rho multiplicative on the pairs the front triangles meet, skipping the
    identity 0, which the Morse differentials carry as None."""
    cx, cover, rep = system.complex, system.cover, system.rep
    cx.coreduction()
    if cover is None:
        return
    mul, inv, hol = cover.model.mul, cover.model.inv, cover.holonomy
    pairs = set()
    for a, b, c in cx.simplices(2):
        ab, bc = hol(a, b), hol(b, c)
        if mul(ab, bc) != hol(a, c):
            raise PreconditionError(f"edge holonomies are not a cocycle on {(a, b, c)}")
        pairs.update(((ab, bc), (inv(bc), inv(ab))))
    if rep is not None and any(x and y and matmul(rep.matrix_of(x), rep.matrix_of(y))
                               != rep.matrix_of(mul(x, y)) for x, y in pairs):
        raise PreconditionError("the representation is not multiplicative on holonomies")


class MorseProjection:
    """The Morse projection P : C_*(X~) -> M_* over Z[pi] onto the critical
    cells of the base coreduction, and the Morse complex d^M = P d.

    A matrix entry x = sum a_g g over Z[pi] stands for the block
    sum a_g rho(g); rho is multiplicative, so products are taken in Z[pi]
    and rho is applied once, by LocalSystem.matrix.  Column sigma of P_k is
    sigma on a critical cell, 0 on an upper one, and on a lower
    sigma = face_p u -sum_{q != p} P(face_q u) [u : face_q u] [u : sigma]^-1,
    which makes P(d u) = 0; [u : face_q u] = a_q m_q is the (sign, g) of
    LocalSystem.faces.  Columns are {(critical position, g): a}, each built
    once on first use from faces that left the coreduction earlier.  P d =
    d^M P follows from d.d = 0, which the constructor checks first.

    The same walk over the Hom dual, with cofaces for faces, the entries of
    delta for those of d and upper cells for lower ones, is the Morse
    projection of the dual complex (Skoldberg): iota^*, whose column sigma
    is row sigma of the Morse inclusion iota : M_* -> C_* with each g inverted.
    """

    def __init__(self, system):
        check_chain_condition(system)
        self.system, self.complex = system, system.complex
        self.critical, _, self._up, self._down, self._coterms = self.complex.coreduction()
        self._columns = [[{c: {(i, 0): 1} for i, c in enumerate(level)} for level in self.critical]
                         for _ in range(2)]
        self._differentials = {}

    def column(self, k, s, dual=False):
        """P_k e_s as {(critical position, g): a}, or when dual column s of
        iota_k^*; gradient paths are long, so the cells it needs are stacked,
        not recursed into."""
        cols = self._columns[dual][k]
        if s in cols:
            return cols[s]
        partner, skip = (self._down[k], self._up[k]) if dual else (self._up[k], self._down[k])
        if skip[s] >= 0:
            return {}
        n, todo = k - 1 if dual else k + 1, [s]
        near = self._coterms[n] if dual else self.complex.boundary_terms(n)
        while todo:
            t = todo[-1]
            if t not in cols:  # matched with a cell of degree n: critical ones are seeded
                u = partner[t]
                wait = [x for x in near[u] if x not in cols and skip[x] < 0 and x != t]
                if wait:
                    todo.extend(wait)
                    continue
                cols[t] = self._image(n, u, near[u].index(t), dual)
            todo.pop()
        return cols[s]

    def transfer(self, k, vector, dual=False):
        """P_k of a flat k-chain with L coefficients, or when dual iota_k^* of a
        flat k-cochain, from the cells it is nonzero on."""
        system, r = self.system, self.system.rank
        cells = [s for s in range(len(self.complex.simplices(k))) if any(vector[s * r:(s + 1) * r])]
        return system.apply(len(self.critical[k]), (
            (j, s, a, g) for s in cells for (j, g), a in self.column(k, s, dual).items()), vector)

    def _image(self, k, c, p=None, dual=False):
        """sum_{q != p} P(face_q c) [c : face_q c] for a k-cell c, that times
        -[c : face_p c]^-1 when p is given; upper faces add 0.  When dual the
        same over the cofaces of c, with the dual columns and the entries of
        delta^k; lower cofaces add 0."""
        system, n, acc = self.system, k + 1 if dual else k - 1, {}
        cols, skip = self._columns[dual][n], (self._up if dual else self._down)[n]
        if dual:
            terms = self.complex.boundary_terms(n)
            faces = [(x, *system.faces(n, x, True)[terms[x].index(c)][1:])
                     for x in self._coterms[k][c]]
        else:
            faces = system.faces(k, c)
        sign, right = (1, 0) if p is None else (-faces[p][1], system.inv(faces[p][2]))
        for q, (f, a_q, m_q) in enumerate(faces):
            if q != p and skip[f] < 0:
                a_q, m = sign * a_q, system.mul(m_q, right)  # -a_p a_q, m_q m_p^-1
                for (i, g), a in (cols[f] if f in cols else self.column(n, f, dual)).items():
                    key = (i, system.mul(g, m)) if m else (i, g)
                    acc[key] = acc.get(key, 0) + a_q * a
        return {key: a for key, a in acc.items() if a}

    def differential(self, k, dual=False):
        """d^M_k, 0 <= k <= dim + 1, or when dual delta_M^(k-1); built once."""
        if (k, dual) not in self._differentials:
            crit, inv = self.critical + [[]], self.system.inv
            self._differentials[k, dual] = self.system.matrix(len(crit[k - 1]), len(crit[k]), (
                (i, j, a, inv(g) if dual else g) for j, c in enumerate(crit[k] if k else ())
                for (i, g), a in self._image(k, c).items()), dual)
        return self._differentials[k, dual]

    def differentials(self, dual=False):
        """d^M_0..d^M_{dim+1}; when dual their Hom duals, delta_M^-1..delta_M^dim."""
        return [self.differential(k, dual) for k in range(len(self.critical) + 1)]

    def homology(self, dual=False):
        """H_* (H^* when dual) of the Morse complex; free ranks checked by Euler."""
        d, r = self.differentials(dual), self.system.rank
        groups = chain_homology(d[::-1])[::-1] if dual else chain_homology(d)
        if sum((-1) ** k * (h.free_rank - r * n)
               for k, (h, n) in enumerate(zip(groups, self.complex.counts()))):
            raise CertificateError("free ranks do not add up to the Euler characteristic")
        return groups


def homology(cx):
    """H_k(X; Z) for k = 0..dim, via Smith normal forms.

    >>> [str(h) for h in homology(SimplicialComplex([(0, 1), (1, 2), (0, 2)]))]
    ['Z^1', 'Z^1']
    """
    return local_homology(LocalSystem(cx, 1))


def cohomology(cx):
    """H^k(X; Z) via the transposed boundaries."""
    return local_cohomology(LocalSystem(cx, 1))


def local_homology(system):
    """H_k(X; L) for k = 0..dim, from the Morse complex."""
    return MorseProjection(system).homology()


def local_cohomology(system):
    """H^k(X; L) for k = 0..dim, from the Morse complex's Hom dual."""
    return MorseProjection(system).homology(dual=True)


def render_homology(groups, prefix="H"):
    return "\n".join(f"{prefix}{k} = {g}" for k, g in enumerate(groups))


# ---------------------------------------------------------------------------
# small builders

def cycle_complex(n):
    """A circle: the n-cycle graph (n >= 3)."""
    if n < 3:
        raise InputError("a simplicial circle needs at least 3 vertices")
    return SimplicialComplex([(i, (i + 1) % n) for i in range(n)])


def simplicial_product(cx1, cx2):
    """Staircase triangulation of the product, over the vertex orders.

    Each cell (p-simplex) x (q-simplex) is cut along monotone lattice
    paths; the cuts agree across shared faces, so the result triangulates
    the product space.  Vertex (u, v) gets label u * (max id of cx2 + 1) + v.
    """
    n2 = max(cx2.vertex_ids) + 1
    facets = []
    for f1 in cx1.facets:
        for f2 in cx2.facets:
            p, q = len(f1) - 1, len(f2) - 1
            for rpos in combinations(range(p + q), p):
                i = j = 0
                verts = [f1[0] * n2 + f2[0]]
                for step in range(p + q):
                    if step in rpos:
                        i += 1
                    else:
                        j += 1
                    verts.append(f1[i] * n2 + f2[j])
                facets.append(tuple(verts))
    return SimplicialComplex(facets)


def torus_complex(n):
    """The n-torus as an iterated staircase product of 3-vertex circles."""
    if n < 1:
        raise InputError("torus dimension must be >= 1")
    out = cycle_complex(3)
    for _ in range(n - 1):
        out = simplicial_product(out, cycle_complex(3))
    return out


def barycentric_subdivision(cx):
    """First barycentric subdivision; vertex i is the i-th simplex of cx.

    Also returns the simplex list indexing the new vertices.
    """
    order = [s for k in range(cx.dim + 1) for s in cx.simplices(k)]
    label = {s: i for i, s in enumerate(order)}
    facets = set()
    for f in cx.simplices(cx.dim):
        for perm in permutations(f):
            chain = [tuple(sorted(perm[:i + 1])) for i in range(len(f))]
            facets.add(tuple(sorted(label[s] for s in chain)))
    return SimplicialComplex(sorted(facets)), order


def quotient_by_free_cyclic_action(cx, vertex_map, order):
    """Quotient by a free simplicial Z/order action given on vertices.

    Requires the action to be regular: every vertex orbit has full size,
    no facet meets a translate of itself, and facet orbits are determined
    by vertex orbits (all verified; violations raise).
    """
    rep = {}
    for v in cx.vertex_ids:
        orbit = [v]
        while True:
            w = vertex_map[orbit[-1]]
            if w == v:
                break
            orbit.append(w)
        if len(orbit) != order:
            raise PreconditionError(f"vertex {v} has orbit size {len(orbit)}")
        rep[v] = min(orbit)
    newlabel = {r: i for i, r in enumerate(sorted(set(rep.values())))}
    facets = set()
    for f in cx.simplices(cx.dim):
        image = tuple(sorted(newlabel[rep[v]] for v in f))
        if len(set(image)) != len(f):
            raise PreconditionError("a facet meets its own orbit")
        facets.add(image)
    if order * len(facets) != len(cx.simplices(cx.dim)):
        raise PreconditionError("facet orbits are not determined by vertex "
                                "orbits; quotient is not simplicial")
    return SimplicialComplex(sorted(facets))


def lens_space(p):
    """L(p, 1): the join of two 2p-gon circles modulo the diagonal rotation.

    The first subdivision of the join makes the order-p rotation regular,
    so the quotient is simplicial; p = 2 gives projective 3-space.
    """
    if p < 2:
        raise InputError("p must be >= 2")
    m = 2 * p
    facets = []
    for i in range(m):
        for j in range(m):
            facets.append(tuple(sorted((i, (i + 1) % m,
                                        m + j, m + (j + 1) % m))))
    join = SimplicialComplex(facets)
    sub, simplex_of = barycentric_subdivision(join)
    label = {s: i for i, s in enumerate(simplex_of)}

    def rotate_vertex(v):
        return (v + 2) % m if v < m else m + ((v - m) + 2) % m

    vmap = {i: label[tuple(sorted(rotate_vertex(v) for v in s))]
            for i, s in enumerate(simplex_of)}
    return quotient_by_free_cyclic_action(sub, vmap, p)
