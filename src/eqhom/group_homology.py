"""Group homology of finite groups, two independent ways.

The normalized bar resolution gives H_n(pi; L) directly: degree k has one
free generator per tuple of k nonidentity elements, so ranks grow like
(|pi|-1)^k instead of |pi|^k.  Independently, H_n(pi) is the kernel of
the map on coinvariants

    I^n (x)_pi Z  -->  (I^{n-1} (x) Zpi) (x)_pi Z

induced by including the augmentation ideal into the group ring on the
last tensor factor (tensor powers carry the diagonal action).  The target
is free: a (x) h -> h^-1 a identifies it with I^{n-1} as an abelian group
(Shapiro's lemma; Brown, Cohomology of Groups, III.6), and the map
becomes phi : I^n -> I^{n-1}, a (x) (g - 1) -> rho(g^-1) a - a, so
H_n(pi) = ker(phi) / (relations of the source coinvariants).  Both routes
are exact and are tested against each other.
"""

from itertools import product

from .errors import BudgetError, InputError, PreconditionError
from .groups import (FiniteGroup, augmentation_ideal_rep, induced_rep,
                     tensor_power, trivial_rep)
from .intlinalg import IntMatrix, chain_homology, cokernel_invariants

BUDGET = 20000


def _require_finite(model):
    if not isinstance(model, FiniteGroup):
        raise PreconditionError("group homology routines need a finite model")


def _check_budget(model, n, rank=1):
    """Bound (|pi|-1)^n * rank, the rank of B_n (x)_pi L for L of that rank."""
    size = (model.order - 1) ** n * rank
    if size > BUDGET:
        what = f"(|pi|-1)^{n}" if rank == 1 else f"(|pi|-1)^{n} * rank {rank}"
        raise BudgetError(f"{what} = {size} exceeds budget {BUDGET}")


class BarComplex:
    """Normalized bar resolution of a finite group, tensored down to L."""

    def __init__(self, model, max_degree, coefficients=None):
        _require_finite(model)
        self.coefficients = coefficients or trivial_rep(model, 1)
        _check_budget(model, max_degree, self.coefficients.rank)
        self.model = model

    def module_rank(self, k):
        if k < 0:
            return 0
        return (self.model.order - 1) ** k * self.coefficients.rank

    def _boundary_blocks(self, k):
        """(row, column, sign, block) for every term of d_k.

        A tuple [g1|...|gk] is the column whose base n1 = |pi| - 1 digits
        are g1 - 1, ..., gk - 1, so each face's row is read off the column
        index: dropping g1 leaves col % n1^(k-1), dropping gk leaves
        col // n1, and merging g_i, g_(i+1) into h puts the one digit h - 1
        in place of their two.
        """
        model, L = self.model, self.coefficients
        n1, table = model.order - 1, model.table
        eye = IntMatrix.identity(L.rank)
        # rho(g^-1) for g = 1..n1, None where it is the identity
        act = [None] + [m if m != eye else None for m in
                        (L.matrix_of(model.inv(g)) for g in range(1, n1 + 1))]
        merges = [(i, n1 ** (k - i), n1 ** (k - 2 - i), -1 if i % 2 == 0 else 1)
                  for i in range(k - 1)]
        top, last = n1 ** (k - 1), -1 if k % 2 else 1
        for col, tup in enumerate(product(range(1, n1 + 1), repeat=k)):
            # g1 . [g2|...|gk]  --  (g c) (x) x ~ c (x) rho(g)^-1 x
            yield col % top, col, 1, act[tup[0]]
            # middle merges, zero when a product hits the identity
            for i, high, low, sign in merges:
                merged = table[tup[i]][tup[i + 1]]
                if merged != 0:
                    yield (col // high * n1 + merged - 1) * low + col % low, col, sign, None
            # drop the last letter
            yield col // n1, col, last, None

    def boundary_matrix(self, k):
        """d_k : B_k (x)_pi L -> B_{k-1} (x)_pi L."""
        if k < 1:
            return IntMatrix.zeros(0, self.module_rank(0) if k == 0 else 0)
        r = self.coefficients.rank
        return IntMatrix.from_blocks(self.module_rank(k - 1), self.module_rank(k),
                                     (r, r), self._boundary_blocks(k))


def bar_homology(model, n, coefficients=None):
    """H_n(pi; L) from the normalized bar resolution.

    >>> from .groups import GroupPresentation, todd_coxeter
    >>> z2 = todd_coxeter(GroupPresentation(("g",), ("gg",)), 5)
    >>> [str(bar_homology(z2, n)) for n in (1, 2, 3)]
    ['Z/2', '0', 'Z/2']
    """
    _require_finite(model)
    if n < 0:
        raise InputError("degree must be >= 0")
    _check_budget(model, n)
    bar = BarComplex(model, n + 1, coefficients)
    return chain_homology([bar.boundary_matrix(n), bar.boundary_matrix(n + 1)])[0]


class CoinvariantsPresentation:
    """Z^rank(L) / span{rho(g) x - x : g generator} presents L (x)_pi Z."""

    def __init__(self, matrix):
        self.matrix = matrix

    @classmethod
    def of(cls, rep):
        r, model = rep.rank, rep.model
        gens = [model.gen_element(g) for g in model.generators]
        return cls(IntMatrix.from_blocks(
            r, r * len(gens), (r, r),
            ((0, k, c, img) for k, s in enumerate(gens)
             for c, img in ((1, rep.matrix_of(s)), (-1, None)))))

    def invariants(self):
        return cokernel_invariants(self.matrix)


def coinvariants(rep):
    """H_0(pi; L) = L (x)_pi Z as abelian-group invariants."""
    return CoinvariantsPresentation.of(rep).invariants()


def _untwisted_inclusion(model, in1):
    """phi : I^n -> I^{n-1}, the inclusion followed by a (x) h -> h^-1 a.

    The source basis vector a (x) (g - 1), ordered (a, g) as in the
    lexicographic basis of I^n, goes to rho(g^-1) a - a, where rho is the
    action on in1 = I^{n-1}.
    """
    n_i = model.order - 1
    eye = IntMatrix.identity(in1.rank)
    terms = []
    for g in range(1, model.order):
        unit = IntMatrix.from_blocks(1, n_i, (1, 1), [(0, g - 1, 1, None)])
        for coeff, block in ((1, in1.matrix_of(model.inv(g))), (-1, eye)):
            terms.append((0, 0, coeff, block.kronecker(unit)))
    return IntMatrix.from_blocks(in1.rank, in1.rank * n_i, (1, 1), terms)


def shift_homology(model, n):
    """H_n(pi) as the kernel of I^n (x)_pi Z -> (I^{n-1} (x) Zpi) (x)_pi Z.

    The inclusion I -> Zpi is applied to the last tensor factor; tensor
    powers carry the diagonal action.  The target coinvariants are free:
    a (x) h -> h^-1 a identifies them with I^{n-1} (Shapiro's lemma), so
    the map is phi : I^n -> I^{n-1} with a (x) (g - 1) -> rho(g^-1) a - a,
    and H_n(pi) = ker(phi) / im(rel), where rel presents the source
    coinvariants.  phi . rel = 0 is the equivariance of the inclusion;
    chain_homology checks it.
    """
    _require_finite(model)
    if n < 1:
        raise InputError("degree must be >= 1")
    _check_budget(model, n)
    ideal = augmentation_ideal_rep(model)
    phi = _untwisted_inclusion(model, tensor_power(ideal, n - 1))
    rel_src = CoinvariantsPresentation.of(tensor_power(ideal, n)).matrix
    return chain_homology([phi, rel_src])[0]


class ShiftChainReport:
    """H_{n-k}(pi; I^(x)k) for k = 0..n-1, with an equality verdict."""

    def __init__(self, degrees, values):
        self.degrees = degrees
        self.values = values

    @property
    def all_equal(self):
        return all(v == self.values[0] for v in self.values)

    def render(self):
        lines = []
        for (deg, k), val in zip(self.degrees, self.values):
            coeff = "Z" if k == 0 else f"I^{k}" if k > 1 else "I"
            lines.append(f"H_{deg}(pi; {coeff}) = {val}")
        lines.append("EQUAL" if self.all_equal else "UNEQUAL")
        return "\n".join(lines)


def shift_chain_check(model, n):
    """Check H_n(pi) = H_{n-1}(pi; I) = ... = H_1(pi; I^(n-1)) exactly."""
    _require_finite(model)
    if n < 1:
        raise InputError("degree must be >= 1")
    ideal = augmentation_ideal_rep(model)
    degrees = []
    values = []
    for k in range(n):
        coeff = tensor_power(ideal, k)
        degrees.append((n - k, k))
        values.append(bar_homology(model, n - k, coeff))
    return ShiftChainReport(degrees, values)


class ProjectiveVanishingReport:
    def __init__(self, values):
        self.values = values

    @property
    def all_trivial(self):
        return all(v.is_trivial() for v in self.values)

    def render(self):
        lines = [f"H_{i}(pi; I^{{k-1}} (x) Zpi) = {v}"
                 for i, v in enumerate(self.values, start=1)]
        lines.append("ALL ZERO" if self.all_trivial else "NONZERO TERM")
        return "\n".join(lines)


def projective_vanishing_check(model, k, m):
    """H_i(pi; I^(k-1) (x) Zpi) for i = 1..m; all must vanish."""
    _require_finite(model)
    if k < 1:
        raise InputError("k must be >= 1")
    ideal = augmentation_ideal_rep(model)
    coeff = induced_rep(tensor_power(ideal, k - 1))
    return ProjectiveVanishingReport(
        [bar_homology(model, i, coeff) for i in range(1, m + 1)])

