"""Reference oracle: the shift route with the group-ring target kept twisted.

This is how ``eqhom.group_homology.shift_homology`` computed H_n(pi)
before its target coinvariants were identified with I^{n-1}: the target
(I^{n-1} (x) Zpi) (x)_pi Z stays a quotient, the source vectors mapping
into its relations are found from the kernel of the stacked matrix
[incl | rel_tgt], and the source relations are solved for inside that
preimage lattice.  It takes three transform-carrying Smith forms and is
kept only as a test oracle, so the two routes can be compared.
"""

from eqhom.group_homology import CoinvariantsPresentation
from eqhom.groups import (augmentation_ideal_rep, regular_rep, tensor_power,
                          tensor_rep)
from eqhom.intlinalg import (AbelianGroupInvariants, IntMatrix,
                             invariant_factors, kernel_basis)

from lattice_oracle import lattice_basis, solve_columns


def inclusion_matrix(model, n, factor):
    """(1 (x) i) (x) 1 : I^n -> I^{n-1} (x) Zpi on chosen tensor factor.

    Bases: I has {g - 1} over nonidentity elements in model order, Zpi has
    the group elements; tensor bases are lexicographic.
    """
    order = model.order
    n_i = order - 1
    rank_in1 = n_i ** (n - 1)
    rank_src = n_i ** n
    rank_tgt = rank_in1 * order
    if factor == "last":
        # source (a, b) -> a*order + (b+1) minus a*order + 0
        terms = ((a * order + row, a * n_i + b, c, None)
                 for a in range(rank_in1) for b in range(n_i)
                 for row, c in ((b + 1, 1), (0, -1)))
    elif factor == "first":
        # source (b, a) -> (b+1)*rank_in1 + a minus 0*rank_in1 + a
        terms = ((row + a, b * rank_in1 + a, c, None)
                 for b in range(n_i) for a in range(rank_in1)
                 for row, c in (((b + 1) * rank_in1, 1), (0, -1)))
    else:
        raise ValueError("factor must be 'last' or 'first'")
    return IntMatrix.from_blocks(rank_tgt, rank_src, (1, 1), terms)


def twisted_shift_homology(model, n, factor="last"):
    """H_n(pi) as the kernel of I^n (x)_pi Z -> (I^{n-1} (x) Zpi) (x)_pi Z."""
    ideal = augmentation_ideal_rep(model)
    source = tensor_power(ideal, n)
    in1 = tensor_power(ideal, n - 1)
    reg = regular_rep(model)
    target = tensor_rep(in1, reg) if factor == "last" else tensor_rep(reg, in1)
    incl = inclusion_matrix(model, n, factor)

    rel_src = CoinvariantsPresentation.of(source).matrix
    rel_tgt = CoinvariantsPresentation.of(target).matrix

    # Lattice of source vectors mapping into im(rel_tgt), i.e. to zero in
    # the target coinvariants.
    stacked = IntMatrix.from_blocks(incl.rows, incl.cols + rel_tgt.cols, (1, 1),
                                    [(0, 0, 1, incl), (0, incl.cols, 1, rel_tgt)])
    ker = kernel_basis(stacked)
    projected = ker.row_slice(0, source.rank)
    preimage = lattice_basis(projected)
    # Source relations land inside the preimage lattice (the map is
    # equivariant); express them there and quotient.
    written = solve_columns(preimage, rel_src)
    return AbelianGroupInvariants.from_cokernel(preimage.cols,
                                                invariant_factors(written))
