"""Reference oracles: integer solves, lattice bases and unimodular inverses.

Each runs one Smith elimination (``intlinalg._smith``) and builds the
transforms it reads from the elimination's tapes.  The library has no
caller for them; tests use them to build reference answers (the
twisted shift route in ``shift_oracle``) and to change bases by random
unimodular matrices.
"""

from eqhom.errors import PreconditionError
from eqhom.intlinalg import IntMatrix, _smith, matmul


class NoIntegerSolution(PreconditionError):
    """The linear system has no solution over the integers."""


def solve_columns(A, B):
    """X with A.X = B over the integers, or NoIntegerSolution."""
    if A.rows != B.rows:
        raise ValueError("shape mismatch in solve")
    sf = _smith(A)
    diag = sf.invariant_factors
    r = sf.rank
    Y = matmul(sf.U, B)
    Z = [{} for _ in range(A.cols)]
    for i, row in enumerate(Y._nz):
        if row and i >= r:
            raise NoIntegerSolution("inconsistent system")
        for j, v in row.items():
            if v % diag[i]:
                raise NoIntegerSolution("entry not divisible by invariant factor")
            Z[i][j] = v // diag[i]
    return matmul(sf.V, IntMatrix._adopt(A.cols, B.cols, Z))


def lattice_basis(A):
    """A matrix whose columns are a basis of the lattice spanned by A's columns."""
    sf = _smith(A)
    r = sf.rank
    diag = sf.invariant_factors
    return IntMatrix._adopt(A.rows, r, [
        {j: diag[j] * v for j, v in row.items() if j < r} for row in sf.uinv._nz])


def unimodular_inverse(M):
    """Exact inverse of a unimodular integer matrix."""
    if M.rows != M.cols:
        raise ValueError("not square")
    sf = _smith(M)
    if any(d != 1 for d in sf.invariant_factors):
        raise ValueError("matrix is not unimodular")
    return matmul(sf.V, sf.U)
