"""Oriented triangulated manifolds: fundamental classes, cup and cap
products, chain-level duality checks, the degree-one lifting obstruction
cocycle and its powers, and the forget-equivariance map to the cover.

A k-cochain with coefficients in L is one flat vector of rank(L) entries
per k-simplex, in simplex order: the layout of the differentials, of cap
and of PairHomology.  Products use the front-face/back-face formulas over
the global vertex order.  With local coefficients the back factor is
carried across the splitting vertex vk by LocalSystem.holonomy, which is
exactly what the same formulas on the universal cover descend to: cup
acts on the back factor by h(v0, vk), and cap carries the cochain's value
by h(vk, v0) onto the back face (_cap_terms); Psi_k below multiplies the
same terms out through the Morse projection.  The normative sign facts,
verified exactly by the test suite on random cochain/chain data:

    delta(f cup g) = (delta f) cup g + (-1)^k f cup (delta g)
    boundary(f cap z) = (-1)^k ( f cap (boundary z) - (delta f) cap z )

Cocycles map to cycles under cap with the fundamental class.

Poincare duality is decided by one mapping cone.  Let eps_0 = 1 and
eps_{k+1} = (-1)^(k+1) eps_k, so eps_k = (-1)^(k(k+1)/2), and let
Phi_k(f) = eps_k (f cap [M]) : C^k(M; L) -> C_{n-k}(M; L).  As [M] is a
cycle, the cap identity gives d Phi_k = Phi_{k+1} delta^k, so Phi is a
chain map from (C^{n-*}, delta) to (C_*, d).  Its cone has Cone_j =
C^{n+1-j} + C_j and D_j = [[-delta^{n+1-j}, 0], [Phi_{n+1-j}, d_j]], and
sits in the long exact sequence

    ... -> H^{n-j} -> H_j -> H_j(Cone) -> H^{n-j+1} -> H_{j-1} -> ...

whose maps H^{n-j} -> H_j are Phi_*.  So the cone is acyclic iff cap with
[M] is an isomorphism in every degree, and then H^k = H_{n-k} exactly.

pd_check builds the cone on critical cells.  With P the Morse projection
onto the Morse complex M_* (complexes.MorseProjection) and P^* its Hom
dual, Psi_k = P_{n-k} Phi_k P_k^* : M^k -> M_{n-k} is a chain map.  P and
P^* are chain homotopy equivalences, so by the five lemma both cones are
equivalent to Cone(Phi P^*): H_*(Cone Psi) = H_*(Cone Phi) in every degree,
the same verdict and the same failing degrees.  Psi is multiplied out in
Z[pi] in the order back column, holonomy, conjugated front column, and rho
is applied once.  Acyclicity needs invariant factors only, which
chain_homology computes without transforms; its composition check
D_{j-1} D_j = 0 proves Psi a chain map, signs included, next to every
nonzero Morse differential.  Where all of them vanish (T^2, T^3, S^3) it
cannot see a wrong eps_k, which cannot change the verdict there: -Psi is
an isomorphism exactly when Psi is.  When the cone is not acyclic,
pd_check maps the Smith generators of each H^k by Psi_k on the same Morse
complex to name the failing degrees: Psi_* = P_* Phi_* P^*_* exactly.
The classes of essential, bs-class and pert are decided on it too
(_class_report): only a nonzero class whose Smith coordinates are not
forced reads the full differentials.
"""

from math import gcd, lcm

from .errors import CertificateError, InputError, ModelMismatch, PreconditionError
from .complexes import (LocalSystem, MorseProjection, _spanning_tree,
                        chain_boundary_matrix, cochain_differential_matrix)
from .groups import (augmentation_ideal_rep, regular_rep, tensor_rep,
                     trivial_rep)
from .intlinalg import (AbelianGroupInvariants, IntMatrix, PairHomology,
                        chain_homology, is_isomorphism_onto, matvec)


class TriangulatedManifold:
    """A closed oriented triangulated manifold: complex + facet signs."""

    def __init__(self, complex, dim, orientation):
        self.complex = complex
        self.dim = dim
        self.orientation = orientation

    def fundamental_cycle(self):
        return list(self.orientation)


def orient(cx):
    """Coherently orient a closed pseudomanifold, or raise PreconditionError.

    Signs propagate from the first facet over the ridges of the facets'
    boundary terms; the induced orientations of a shared ridge must cancel.
    """
    n = cx.dim
    if n < 1:
        raise PreconditionError("dimension must be at least 1")
    _spanning_tree(cx, cx.vertex_ids[0])  # raises unless connected
    if any(len(f) != n + 1 for f in cx.facets):
        raise PreconditionError("complex is not pure of top dimension")
    ridge_incidence = {}
    for j, faces in enumerate(cx.boundary_terms(n)):
        for i, ridge in enumerate(faces):
            ridge_incidence.setdefault(ridge, []).append((j, i))
    for ridge, inc in ridge_incidence.items():
        if len(inc) != 2:
            raise PreconditionError(
                f"ridge {cx.simplices(n - 1)[ridge]} lies in {len(inc)} facets, not 2")
    neighbors = {}
    for (j1, i1), (j2, i2) in ridge_incidence.values():
        neighbors.setdefault(j1, []).append((j2, i1 + i2))
        neighbors.setdefault(j2, []).append((j1, i1 + i2))
    signs, stack = {0: 1}, [0]
    while stack:
        j = stack.pop()
        for j2, parity in neighbors.get(j, ()):
            forced = -signs[j] * (-1) ** parity
            if j2 in signs:
                if signs[j2] != forced:
                    raise PreconditionError("orientation propagation contradicts")
            else:
                signs[j2] = forced
                stack.append(j2)
    if len(signs) != len(cx.simplices(n)):
        raise PreconditionError("facet adjacency graph is not connected")
    orientation = tuple(signs[j] for j in range(len(signs)))
    z = [0] * len(cx.simplices(n - 1))
    for c, faces in zip(orientation, cx.boundary_terms(n)):
        for i, ridge in enumerate(faces):
            z[ridge] += -c if i % 2 else c
    if any(z):
        raise PreconditionError("signed facet sum is not a cycle")
    return TriangulatedManifold(cx, n, orientation)


# ---------------------------------------------------------------------------
# cochains with local coefficients

class Cochain:
    """A k-cochain: one flat int vector, rank ints per k-simplex in order."""

    def __init__(self, system, degree, vector):
        self.system = system
        self.degree = degree
        if len(vector) != len(system.complex.simplices(degree)) * system.rank:
            raise ValueError("cochain vector has the wrong length")
        self.vector = list(map(int, vector))

    def value(self, simplex):
        r = self.system.rank
        i = self.system.complex.index(simplex) * r
        return self.vector[i:i + r]

    def delta(self):
        mat = cochain_differential_matrix(self.system, self.degree)
        return Cochain(self.system, self.degree + 1, matvec(mat, self.vector))

    def __add__(self, other):
        if self.system is not other.system or self.degree != other.degree:
            raise ModelMismatch("cochain mismatch in +")
        return Cochain(self.system, self.degree,
                       [a + b for a, b in zip(self.vector, other.vector)])


class Cocycle(Cochain):
    """A cochain whose codifferential vanishes (checked on construction)."""

    def __init__(self, system, degree, vector):
        super().__init__(system, degree, vector)
        if any(self.delta().vector):
            raise PreconditionError("cochain is not a cocycle")


def cup(phi, psi):
    """Front-face/back-face product, L1 x L2 -> L1 (x) L2 coefficients."""
    if phi.system.complex is not psi.system.complex:
        raise ModelMismatch("operands live on different complexes")
    cx = phi.system.complex
    k, l = phi.degree, psi.degree
    system = phi.system.tensor(psi.system)
    rep, holonomy = psi.system.rep, psi.system.holonomy
    out = []
    for s in cx.simplices(k + l):
        back, h = psi.value(s[k:]), holonomy(s[0], s[k])
        back = rep.act(h, back) if h else back
        out.extend([a * b for a in phi.value(s[:k + 1]) for b in back])
    return Cochain(system, k + l, out)


def _cap_terms(system, k, m, chain):
    """(back face, front face, c, h(sk, s0)) per m-simplex s with z(s) = c != 0
    of the integer m-chain z: the cochain eats the front k-face, and its
    value is carried back across the splitting vertex onto the back face."""
    cx = system.complex
    for s, c in zip(cx.simplices(m), chain):
        if c:
            yield cx.index(s[k:]), cx.index(s[:k + 1]), c, system.holonomy(s[k], s[0])


def cap_chain(phi, chain, m):
    """phi cap z for a plain integer m-chain z; an (m-k)-chain with L coeffs."""
    if phi.degree > m:
        raise PreconditionError("cochain degree exceeds chain degree")
    if len(chain) != len(phi.system.complex.simplices(m)):
        raise ValueError("chain vector has the wrong length")
    return phi.system.apply(len(phi.system.complex.simplices(m - phi.degree)),
                            _cap_terms(phi.system, phi.degree, m, chain), phi.vector)


def cap(phi, manifold):
    """phi cap [M]; sends cocycles to cycles."""
    if phi.system.complex is not manifold.complex:
        raise ModelMismatch("cochain lives on a different complex")
    return cap_chain(phi, manifold.fundamental_cycle(), manifold.dim)


# ---------------------------------------------------------------------------
# homology classes and reports

class HomologyClassReport:
    """A class in a computed homology group, in Smith coordinates."""

    def __init__(self, group, coordinates, description=""):
        self.group = group
        self.coordinates = coordinates
        self.description = description

    @property
    def is_zero(self):
        return not any(self.coordinates)

    def render(self):
        coords = "(" + ", ".join(map(str, self.coordinates)) + ")"
        status = "zero" if self.is_zero else "nonzero"
        return f"{self.description}class = {coords} in {self.group} [{status}]"


class PdEntry:
    def __init__(self, degree, cohomology, homology, cap_is_isomorphism):
        self.degree = degree
        self.cohomology = cohomology
        self.homology = homology
        self.cap_is_isomorphism = cap_is_isomorphism


class PdReport:
    def __init__(self, entries):
        self.entries = entries

    @property
    def ok(self):
        return all(e.cap_is_isomorphism for e in self.entries)

    def render(self):
        lines = []
        for e in self.entries:
            n = len(self.entries) - 1
            verdict = "iso" if e.cap_is_isomorphism else "NOT ISO"
            lines.append(f"k={e.degree}: H^{e.degree} = {e.cohomology}"
                         f" ~ H_{n - e.degree} = {e.homology} [{verdict}]")
        lines.append("PD CHECK: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def cohomology_pair(system, k):
    """PairHomology for H^k(X; L)."""
    return PairHomology(cochain_differential_matrix(system, k),
                        cochain_differential_matrix(system, k - 1))


def homology_pair(system, k):
    """PairHomology for H_k(X; L)."""
    return PairHomology(chain_boundary_matrix(system, k),
                        chain_boundary_matrix(system, k + 1))


def _morse_cap(manifold, morse, k):
    """Psi_k = P_{n-k} Phi_k P_k^* : M^k -> M_{n-k}, multiplied out in Z[pi]:
    a facet s with coefficient c in [M] adds eps_k c P_{n-k}[a, back(s)]
    h(s_k, s_0) conj(P_k[b, front(s)]) at (a, b)."""
    system, n = morse.system, manifold.dim
    eps, acc = (-1) ** (k * (k + 1) // 2), {}
    for back, front, c, h in _cap_terms(system, k, n, manifold.fundamental_cycle()):
        fronts = morse.column(k, front).items()
        for (a, x), u in morse.column(n - k, back).items():
            xh = system.mul(x, h)
            for (b, y), v in fronts:
                key = (a, b, system.mul(xh, system.inv(y)))
                acc[key] = acc.get(key, 0) + eps * c * u * v
    return system.matrix(len(morse.critical[n - k]), len(morse.critical[k]),
                         ((a, b, w, g) for (a, b, g), w in acc.items()))


def _mapping_cone(delta, bd, psi):
    """D_0..D_{n+2} of Cone(Psi), one at a time.

    Cone_j = M^{n+1-j} + M_j and D_j = [[-delta^{n+1-j}, 0], [Psi_{n+1-j}, d_j]].
    """
    n = len(psi) - 1

    def size(k):  # rank of M^k = M_k
        return bd[k].cols if 0 <= k <= n else 0

    for j in range(n + 3):
        k = n + 1 - j
        top, left = size(k + 1), size(k)
        blocks = []
        if k <= n:
            blocks.append((0, 0, -1, delta[k + 1]))
        if 0 <= k <= n:
            blocks.append((top, 0, 1, psi[k]))
        if j <= n + 1:
            blocks.append((top, left, 1, bd[j]))
        yield IntMatrix.from_blocks(top + size(j - 1), left + size(j), (1, 1), blocks)


def pd_check(manifold, system):
    """Verify cap with [M] maps H^k(M; L) isomorphically onto H_{n-k}(M; L).

    Everything is decided on the Morse complex (see the module docstring):
    Phi_k is an isomorphism whenever H_j and H_{j+1} of Cone(Psi) vanish,
    j = n - k, and such a degree takes its groups from the Morse homology.
    The other degrees, none when the cone is acyclic, are found by
    _pd_entry on the Morse differentials and Psi_k.
    """
    if system.complex is not manifold.complex:
        raise ModelMismatch("local system lives on a different complex")
    n = manifold.dim
    morse = MorseProjection(system)
    psi = [_morse_cap(manifold, morse, k) for k in range(n + 1)]
    delta, bd = morse.differentials(dual=True), morse.differentials()
    cone = chain_homology(_mapping_cone(delta, bd, psi))
    direct = [not (cone[n - k].is_trivial() and cone[n - k + 1].is_trivial())
              for k in range(n + 1)]
    groups = None if all(direct) else morse.homology()
    return PdReport([
        _pd_entry(delta, bd, psi[k], k) if direct[k]
        else PdEntry(k, groups[n - k], groups[n - k], True)
        for k in range(n + 1)])


def _pd_entry(delta, bd, phi, k):
    """The PdEntry of degree k, found directly: map the Smith generators of
    H^k by the cap phi and test their images in H_{n-k}.  delta[k + 1] is
    delta^k and bd[k] is d_k of a complex equivalent to C_*(M; L), the Morse
    one with Psi_k or the full one with Phi_k.  A sign on phi changes nothing."""
    n = len(bd) - 2
    co = PairHomology(delta[k + 1], delta[k])
    ho = PairHomology(bd[n - k], bd[n - k + 1])
    images = [ho.coordinates(matvec(phi, co.generator_cycle(i)))
              for i in range(co.num_generators)]
    iso = is_isomorphism_onto(co.invariants, ho.invariants, images)
    return PdEntry(k, co.invariants, ho.invariants, iso)


# ---------------------------------------------------------------------------
# the degree-one obstruction class and essentiality

def berstein_svarc(cover):
    """The 1-cocycle sending an edge to (its deck translation) - 1 in I.

    Exactly a cocycle: delta on a triangle [a, b, c] evaluates to
    h_ab h_bc - h_ac = 0.  Its class is the first obstruction to
    compressing the classifying map below degree one.
    """
    model = cover.model
    ideal = augmentation_ideal_rep(model)
    system = LocalSystem.from_rep(cover, ideal)
    r = ideal.rank
    vector = [0] * (len(cover.base.simplices(1)) * r)
    for j, (u, v) in enumerate(cover.base.simplices(1)):
        h = cover.holonomy(u, v)
        if h != model.identity:
            vector[j * r + h - 1] = 1
    return Cocycle(system, 1, vector)


def bs_power(cover, k):
    """k-fold cup power of the degree-one obstruction cocycle."""
    if k < 1:
        raise InputError("power must be >= 1")
    beta = berstein_svarc(cover)
    out = beta
    for _ in range(k - 1):
        out = cup(out, beta)
    return out


def class_order(group, coords):
    """The order of the element with these Smith coordinates; 0 if infinite."""
    orders = [0] * group.free_rank + list(group.torsion)
    return lcm(*(d // gcd(c, d) if c else 1 for c, d in zip(coords, orders)))


def _class_report(system, k, vector, description, dual=False):
    """The class of a k-cycle of C_*(X; L), or of a k-cocycle when dual, on
    the Morse complex through P_k or iota_k^*.  Coordinates that every Smith
    basis gives (zeros, or d/2 in a cyclic Z/d) are the Morse ones, once the
    full differential checks the (co)cycle condition that iota^* can hide;
    others come from the full route, which must agree on group and order."""
    if not vector:  # C_k(X; L) = 0
        return HomologyClassReport(AbelianGroupInvariants(0), (), description)
    morse = MorseProjection(system)
    d = morse.differential
    pair = PairHomology(d(k + 1, True), d(k, True)) if dual else PairHomology(d(k), d(k + 1))
    group, coords = pair.invariants, pair.coordinates(morse.transfer(k, vector, dual))
    if any(coords) and (group.free_rank or group.torsion != (2 * coords[0],)):
        full = (cohomology_pair if dual else homology_pair)(system, k)
        order, coords = class_order(group, coords), full.coordinates(vector)
        found = full.invariants, class_order(full.invariants, coords)
        if found != (group, order):
            raise CertificateError(f"{description}class: order {found[1]} in {found[0]} on "
                                   f"the full complex, {order} in {group} on the Morse one")
    elif any(matvec((cochain_differential_matrix if dual else chain_boundary_matrix)(system, k),
                    vector)):
        raise ValueError("vector is not a cycle")
    return HomologyClassReport(group, coords, description)


def bs_class_report(cover, k):
    """The class of the k-th power in H^k(M; I^(x)k)."""
    power = bs_power(cover, k)
    return _class_report(power.system, k, power.vector, f"beta^{k} ", dual=True)


def essentiality_pairing(manifold, cover):
    """(beta^n) cap [M] in H_0(M; I^(x)n); nonzero iff M is essential."""
    if cover.base is not manifold.complex:
        raise ModelMismatch("cover does not cover this manifold")
    n = manifold.dim
    power = bs_power(cover, n)
    return _class_report(power.system, 0, cap(power, manifold), f"(beta^{n}) cap [M] ")


def pert_finite(phi, cover):
    """Forget equivariance: the class of phi in H^k(cover; Z^rank).

    By Shapiro's lemma the cover's cochains are the base's with values in
    Z[pi] (x) Z^rank, sheet g at basis element g^-1: the lift of sigma at
    sheet g has face 0 at sheet g h, h = h(v0, v1), and delta reads face 0
    through left multiplication by h, which fills x from h^-1 x, that is
    sheet x^-1 h.  The lift carries rho(g) phi(sigma) at sheet g; a vector
    that is not a cocycle is refused.
    """
    if phi.system.complex is not cover.base:
        raise ModelMismatch("cochain lives on a different complex")
    if not phi.system.is_trivial and phi.system.cover is not cover:
        raise ModelMismatch("cochain is twisted through a different cover")
    k = phi.degree
    r = phi.system.rank
    model = cover.model
    n = model.order
    flat = [0] * (len(phi.vector) * n)
    for j in range(len(cover.base.simplices(k))):
        base_val = phi.vector[j * r:(j + 1) * r]
        for g in model.elements():
            val = base_val if phi.system.is_trivial \
                else phi.system.rep.act(g, base_val)
            idx = (j * n + model.inv(g)) * r
            flat[idx:idx + r] = val
    target = LocalSystem.from_rep(
        cover, tensor_rep(regular_rep(model), trivial_rep(model, r)))
    return _class_report(target, k, flat, "pert ", dual=True)
