"""Exact integer linear algebra.

Everything here runs over Python's arbitrary-precision integers; there is
no floating point and no fixed-width arithmetic anywhere.  The module
provides Smith normal forms with unimodular transforms, integer kernel
lattices, cokernel invariants, and the homology of a chain complex given
by its differentials, plus a coordinate calculus on homology groups
(Smith-basis coordinates of cycles, lifts of generators).

An ``IntMatrix`` stores one {col: value} dict of nonzeros per row, and
only this module reads or writes those dicts.  Both computation paths
eliminate on copies of them:

* ``_smith`` is the one Smith elimination that yields transforms, with a
  fixed pivot rule (least absolute nonzero entry, ties broken by (row,
  col)).  It keeps an index of the rows holding each column, so each
  elementary operation costs the nonzeros it touches, and it records
  the operations on two tapes instead of multiplying out transforms: row
  axpys, swaps and negations; column axpys and swaps.  Replaying a tape
  on a vector applies U or V^-1 (in order) or U^-1 or V (in reverse);
  ``PairHomology`` replays the column tape on the rows of d_{k+1}, and a
  transform is built as a matrix only on request, from the identity.
  Each reader records only the tape it replays: ``QuotientLattice`` the
  row tape, ``PairHomology`` and ``kernel_basis`` the column tape.
* ``invariant_factors`` skips the transforms and eliminates unit pivots
  first: the unit-holding column of least (length, index), and in it the
  unit whose row has least (length, index).  A heap of column keys
  supplies them (``_unit_pivots``): every live column of the pivot row is
  pushed; stale keys are dropped when they surface, and the heap is
  rebuilt from the live columns when they pile up.  The sparse residual
  then goes through the same elimination without transforms.  Invariant
  factors are canonical, so both paths agree by construction.

``chain_homology`` compresses: it factors d_{k+1} without the rows at
the unit pivot columns of d_k.  Those pivots form a unimodular block of
d_k (the unit elimination is triangular with +-1 on the diagonal in
pivot order), so d_k . d_{k+1} = 0 makes each row left out an integer
combination of the rows kept, and the invariant factors do not change.
Only unit pivots are used: a residual pivot need not be a unit.
"""

from heapq import heapify, heappop, heappush

from .errors import PreconditionError


class IntMatrix:
    """A rows x cols matrix of Python ints, stored as sparse rows.

    Each row is a {col: value} dict of its nonzero entries; zeros are
    never stored, so equal matrices hold equal dicts.  ``data`` is a dense
    view, built afresh on every access.  Instances are treated as
    immutable after construction (they may share row dicts); all
    operations return new matrices.

    >>> IntMatrix.identity(2) @ IntMatrix.from_rows([[1, 2], [3, 4]])
    IntMatrix([[1, 2], [3, 4]])
    """

    __slots__ = ("rows", "cols", "_nz")

    def __init__(self, rows, cols, data):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("data shape does not match rows x cols")
        self._set(rows, cols, [{j: v for j, v in enumerate(r) if v} for r in data])

    def _set(self, rows, cols, nz):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        self._nz = nz

    @classmethod
    def _adopt(cls, rows, cols, nz):
        """The matrix whose rows are the given {col: value} dicts, not copied."""
        mat = cls.__new__(cls)
        mat._set(rows, cols, nz)
        return mat

    @classmethod
    def zeros(cls, rows, cols):
        return cls._adopt(rows, cols, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls._adopt(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def from_rows(cls, data, cols=None):
        rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(rows, cols, data)

    @classmethod
    def column(cls, vector):
        return cls._adopt(len(vector), 1, [{0: v} if v else {} for v in vector])

    @classmethod
    def from_blocks(cls, rows, cols, shape, blocks):
        """A rows x cols matrix assembled from blocks on a p x q grid, shape = (p, q).

        blocks yields (i, j, coeff, block): coeff * block is added with its
        top left corner at row i*p and column j*q; a block of None stands
        for the p x p identity.  Blocks add up where they overlap, a sum
        that cancels is not stored, and a block that does not fit inside
        the matrix raises ValueError.

        >>> IntMatrix.from_blocks(2, 4, (2, 2), [(0, 1, -1, None)])
        IntMatrix([[0, 0, -1, 0], [0, 0, 0, -1]])
        """
        p, q = shape
        nz = [{} for _ in range(rows)]
        for i, j, coeff, block in blocks:
            r0, c0 = i * p, j * q
            h, w = (p, p) if block is None else (block.rows, block.cols)
            if r0 < 0 or c0 < 0 or r0 + h > rows or c0 + w > cols:
                raise ValueError(f"block at ({i}, {j}) does not fit in {rows}x{cols}")
            if not coeff:
                continue
            if block is None:
                for a in range(p):
                    row, j = nz[r0 + a], c0 + a
                    s = row.get(j, 0) + coeff
                    if s:
                        row[j] = s
                    else:
                        del row[j]
                continue
            for row, brow in zip(nz[r0:r0 + h], block._nz):
                for j, v in brow.items():
                    j += c0
                    s = row.get(j, 0) + coeff * v
                    if s:
                        row[j] = s
                    else:
                        del row[j]
        return cls._adopt(rows, cols, nz)

    @property
    def data(self):
        """The entries as fresh dense rows."""
        out = []
        for r in self._nz:
            row = [0] * self.cols
            for j, v in r.items():
                row[j] = v
            out.append(row)
        return out

    def col(self, j):
        return [r.get(j, 0) for r in self._nz]

    def row_slice(self, start, stop):
        """Rows start..stop-1 as a matrix (sharing their dicts)."""
        nz = self._nz[start:stop]
        return IntMatrix._adopt(len(nz), self.cols, nz)

    def kronecker(self, other):
        """The Kronecker product: block (i, j) is self[i][j] * other."""
        return IntMatrix.from_blocks(
            self.rows * other.rows, self.cols * other.cols, (other.rows, other.cols),
            ((i, j, v, other) for i, row in enumerate(self._nz) for j, v in row.items()))

    def is_zero(self):
        return not any(self._nz)

    def __matmul__(self, other):
        return matmul(self, other)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._nz == other._nz)

    def __repr__(self):
        if self.rows * self.cols <= 16:
            return f"IntMatrix({self.data!r})"
        return f"IntMatrix({self.rows}x{self.cols})"


def _row_product(arow, bnz):
    """The {col: value} dict of arow . b, given b's row dicts; it may hold zeros."""
    acc = {}
    get = acc.get
    for k, v in arow.items():
        for j, w in bnz[k].items():
            acc[j] = get(j, 0) + v * w
    return acc


def matmul(a, b):
    """Product a.b over the nonzeros of both factors.

    Each row of a adds q * (row k of b) for its nonzero entries q only.
    """
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    bnz = b._nz
    return IntMatrix._adopt(a.rows, b.cols, [
        {j: x for j, x in _row_product(arow, bnz).items() if x} for arow in a._nz])


def matvec(a, v):
    if a.cols != len(v):
        raise ValueError("shape mismatch in matvec")
    return [sum([x * v[j] for j, x in row.items()]) for row in a._nz]


class AbelianGroupInvariants:
    """A finitely generated abelian group: Z^free_rank + sum of Z/d.

    torsion is the ascending divisibility chain d_1 | d_2 | ..., each >= 2.
    Equal invariants compare and hash equal.

    >>> str(AbelianGroupInvariants(1, (2,)))
    'Z^1 + Z/2'
    """

    def __init__(self, free_rank, torsion=()):
        self.free_rank = free_rank
        self.torsion = tor = tuple(int(d) for d in torsion)
        if free_rank < 0:
            raise ValueError("negative free rank")
        for d in tor:
            if d < 2:
                raise ValueError(f"torsion order {d} < 2")
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise ValueError(f"torsion chain broken: {a} does not divide {b}")

    def __eq__(self, other):
        return (isinstance(other, AbelianGroupInvariants)
                and self.free_rank == other.free_rank and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    @classmethod
    def from_cokernel(cls, ambient_rank, factors):
        """Z^ambient_rank / (image with the given invariant factors)."""
        nonzero = [d for d in factors if d]
        return cls(ambient_rank - len(nonzero), tuple(d for d in nonzero if d > 1))

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class SmithForm:
    """U.A.V = S with U, V unimodular and S diagonal in divisibility order.

    invariant_factors has length min(rows, cols): the positive chain
    d_1 | d_2 | ... | d_r followed by zeros.  The elimination's tapes (see
    _snf_inplace) stand for the transforms: replayed in order, the row
    tape applies U and the column tape V^-1; replayed backwards through
    the inverse operations, U^-1 and V (_replay_vector replays on one
    vector).  U, uinv, V and vinv build the matrix afresh on each access,
    as does S.
    A tape that was not recorded is None.
    """

    def __init__(self, shape, invariant_factors, row_ops, col_ops):
        self.shape = shape
        self.invariant_factors = invariant_factors
        self.row_ops = row_ops
        self.col_ops = col_ops

    @property
    def rank(self):
        return sum(1 for d in self.invariant_factors if d)

    @property
    def S(self):
        m, n = self.shape
        diag = list(self.invariant_factors) + [0] * (m - len(self.invariant_factors))
        return IntMatrix._adopt(m, n, [{i: d} if d else {} for i, d in enumerate(diag)])

    U = property(lambda self: _tape_matrix(self.row_ops, self.shape[0]))
    uinv = property(lambda self: _tape_matrix(self.row_ops, self.shape[0], True))
    V = property(lambda self: _tape_matrix(self.col_ops, self.shape[1], True))
    vinv = property(lambda self: _tape_matrix(self.col_ops, self.shape[1]))


def _replay(ops, rows, inverse=False):
    """Apply a tape to a list of {index: value} rows in place; return rows.

    An op (d, srcs, qs) adds qs[k] * rows[srcs[k]] to rows[d] for each k
    (d is not among srcs), (a, b) swaps rows a and b, and (a,) negates
    row a.  With inverse the inverse operations run, last first.
    """
    sign = -1 if inverse else 1
    for op in reversed(ops) if inverse else ops:
        if len(op) == 3:
            dst = rows[op[0]]
            for s, q in zip(op[1], op[2]):
                q *= sign
                for k, b in rows[s].items():
                    v = dst.get(k, 0) + q * b
                    if v:
                        dst[k] = v
                    else:
                        del dst[k]
        elif len(op) == 2:
            a, b = op
            rows[a], rows[b] = rows[b], rows[a]
        else:
            rows[op[0]] = {k: -v for k, v in rows[op[0]].items()}
    return rows


def _replay_vector(ops, x, inverse=False):
    """_replay on a copy of the int vector x, as in y = M.x."""
    x = list(x)
    sign = -1 if inverse else 1
    for op in reversed(ops) if inverse else ops:
        if len(op) == 3:
            d, srcs, qs = op
            x[d] += sign * sum([q * x[s] for s, q in zip(srcs, qs)])
        elif len(op) == 2:
            a, b = op
            x[a], x[b] = x[b], x[a]
        else:
            x[op[0]] = -x[op[0]]
    return x


def _tape_matrix(ops, n, inverse=False):
    """The n x n transform a tape stands for: _replay on the identity."""
    return IntMatrix._adopt(n, n, _replay(ops, [{i: 1} for i in range(n)], inverse))


def _snf_inplace(md, m, n, row_ops=None, col_ops=None):
    """Reduce the sparse m x n matrix md to Smith form in place.

    md is a list of m {col: value} dicts of nonzeros.  Pivot rule: least
    (|entry|, row, col) over the active submatrix.  Row t is cleared in
    ascending column order, and a nonzero remainder becomes the new pivot.
    While step t runs, rows >= t are zero left of column t and rows < t
    hold only their diagonal entry.

    A column index, cols[j] = {row: None} over the rows holding a nonzero
    in column j, is kept up to date by every operation on md, so clearing
    column t visits only its nonzeros and a column swap costs the nonzeros
    of the two columns.  Column t's record is dropped once step t is done:
    no later operation touches a column left of the active one.

    Operations are appended in the op format of _replay to the optional
    tapes: row operations on md to row_ops as they are, column operations
    to col_ops as the row operations they make on V^-1 (C_j -= q C_t is
    R_t += q R_j there).  Returns the list of diagonal entries (positive
    chain, then zeros) of length min(m, n).
    """
    cols = [{} for _ in range(n)]
    for i, row in enumerate(md):
        for j in row:
            cols[j][i] = None

    def axpy_row(i, q, k):
        # R_i += q R_k on md, keeping the column index; q != 0
        if row_ops is not None:
            row_ops.append((i, (k,), (q,)))
        dst = md[i]
        for j, b in md[k].items():
            a = dst.get(j)
            if a is None:
                dst[j] = q * b
                cols[j][i] = None
            else:
                a += q * b
                if a:
                    dst[j] = a
                else:
                    del dst[j], cols[j][i]

    def swap_rows(i, t):
        if row_ops is not None:
            row_ops.append((i, t))
        ri, rt = md[i], md[t]
        for j in ri:
            if j not in rt:
                c = cols[j]
                del c[i]
                c[t] = None
        for j in rt:
            if j not in ri:
                c = cols[j]
                del c[t]
                c[i] = None
        md[i], md[t] = rt, ri

    def swap_cols(j, t):
        if col_ops is not None:
            col_ops.append((j, t))
        cj, ct = cols[j], cols[t]
        for i in cj.keys() | ct.keys():
            row = md[i]
            a = row.pop(j, None)
            b = row.pop(t, None)
            if a is not None:
                row[t] = a
            if b is not None:
                row[j] = b
        cols[j], cols[t] = ct, cj

    # Rows below the active one only go from nonempty to empty, so the
    # pivot search skips for good a row it once found empty: skip[i] links
    # such a row onward (compressed as it is followed), skip[i] == i marks
    # a row not yet found empty.
    skip = list(range(m + 1))

    def row_from(i):
        # the first row >= i not yet found empty
        r = i
        while skip[r] != r:
            r = skip[r]
        while skip[i] != r:
            skip[i], i = r, skip[i]
        return r

    t = 0
    limit = min(m, n)
    while t < limit:
        # Locate the pivot: least (|entry|, row, col); stop at a unit row.
        best = None
        best_abs = 0
        i = row_from(t)
        while i < m:
            row = md[i]
            if row:
                a = min(map(abs, row.values()))
                if best is None or a < best_abs:
                    best = (i, min(j for j, v in row.items() if v == a or v == -a))
                    best_abs = a
                    if a == 1:
                        break
            else:
                skip[i] = i + 1
            i += 1
            if skip[i] != i:
                i = row_from(i)
        if best is None:
            break
        if best[0] != t:
            swap_rows(best[0], t)
        if best[1] != t:
            swap_cols(best[1], t)
        if md[t][t] < 0:
            md[t] = {k: -a for k, a in md[t].items()}
            if row_ops is not None:
                row_ops.append((t,))

        while True:
            # Clear column t below the pivot, in ascending row order; a row
            # operation changes only row i, so the rows to visit are known.
            restart = False
            for i in sorted(cols[t]):
                if i == t:
                    continue
                q = md[i][t] // md[t][t]
                if q:
                    axpy_row(i, -q, t)
                if t in md[i]:
                    # Remainder is a strictly smaller positive pivot.
                    swap_rows(i, t)
                    restart = True
                    break
            if restart:
                continue
            # Clear row t right of the pivot, in ascending column order.
            # Column t is zero off row t, so C_j -= q_j C_t changes md in
            # row t alone; on V^-1 the pass is one op R_t += sum q_j R_j.
            row = md[t]
            p = row[t]
            js, qs = [], []
            for j in sorted(row):
                if j != t:
                    q = row[j] // p
                    if q:
                        js.append(j)
                        qs.append(q)
                        v = row[j] - q * p
                        if v:
                            row[j] = v
                        else:
                            del row[j], cols[j][t]
                    if j in row:
                        restart = True
                        break
            if js and col_ops is not None:
                col_ops.append((t, tuple(js), tuple(qs)))
            if restart:
                swap_cols(j, t)
                continue
            # Pivot row and column are clear; enforce divisibility.
            offender = None
            if p != 1:
                for i in range(t + 1, m):
                    if any(v % p for v in md[i].values()):
                        offender = i
                        break
            if offender is None:
                break
            axpy_row(t, 1, offender)
        cols[t] = None
        md[t] = {t: md[t][t]}  # a fresh dict: the cleared one keeps its peak size
        t += 1

    return [md[i].get(i, 0) for i in range(limit)]


def _smith(A, row_tape=True, col_tape=True):
    """SmithForm of A, eliminating on a copy of A's rows.

    Only the tapes asked for are recorded; an unrecorded tape is None.
    The pivots do not depend on which tapes are kept.
    """
    m, n = A.rows, A.cols
    row_ops = [] if row_tape else None
    col_ops = [] if col_tape else None
    diag = _snf_inplace([dict(r) for r in A._nz], m, n, row_ops, col_ops)
    return SmithForm((m, n), tuple(diag), row_ops, col_ops)


def smith_normal_form(A):
    """Full Smith normal form with unimodular transforms.

    >>> sf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    >>> sf.invariant_factors
    (1, 6)
    >>> (sf.U @ IntMatrix.from_rows([[2, 0], [0, 3]])) @ sf.V == sf.S
    True
    """
    return _smith(A)


def _unit_pivots(rows, cols, m, n):
    """Eliminate unit pivots from a sparse m x n matrix in place; yield each.

    rows maps a row index to its {col: value} dict of nonzeros, cols maps
    a column index to the set of rows holding a nonzero there; both are
    updated as rows are cleared, and a row or column that empties out is
    deleted.  Each step takes, among the columns holding a unit (value
    +-1), the one of least (column length, column index), and in it the
    unit whose row has least (row length, row index); it removes that
    row, clears the column with row operations, and yields (row, col)
    once the step is done.

    A heap holds keys length * n + col.  A step changes only the columns
    of the pivot row (removing the row takes an entry out of each), so
    after a step every live column of the pivot row is pushed at its new
    length.  A popped key whose length is not its column's is stale and
    dropped; a column holding no unit is dropped too, to be pushed again
    when a step changes it.  So every column holding a unit has its
    current key in the heap, and the first live key popped with a unit in
    its column is the least.  When the heap grows past twice its size at
    the last build (plus 64), it is rebuilt from the live columns.
    """
    def rebuild():
        heap[:] = [len(rc) * n + c for c, rc in cols.items()]
        heapify(heap)
        return 2 * len(heap) + 64

    heap = []
    limit = rebuild()
    while heap:
        length, c = divmod(heappop(heap), n)
        rc = cols.get(c)
        if rc is None or len(rc) != length:
            continue
        best = None
        for r in rc:
            row = rows[r]
            v = row[c]
            if v == 1 or v == -1:
                key = len(row) * m + r
                if best is None or key < best:
                    best = key
        if best is None:
            continue
        r = best % m
        prow = rows.pop(r)
        pv = prow.pop(c)
        del cols[c]
        rc.discard(r)
        terms = [(j, v * pv) for j, v in prow.items()]
        for j in prow:
            cols[j].discard(r)
        for r2 in rc:
            row2 = rows[r2]
            q = row2.pop(c)
            get = row2.get
            for j, t in terms:
                old = get(j, 0)
                nv = old - q * t
                if nv:
                    if not old:
                        cols[j].add(r2)
                    row2[j] = nv
                else:
                    del row2[j]
                    cols[j].discard(r2)
            if not row2:
                del rows[r2]
        for j in prow:
            cj = cols[j]
            if cj:
                heappush(heap, len(cj) * n + j)
            else:
                del cols[j]
        yield r, c
        if len(heap) > limit:
            limit = rebuild()


def _nonzero_factors(A, skip=frozenset()):
    """(nonzero invariant factors, unit pivot columns) of A minus the rows in skip.

    Unit pivots are eliminated on a copy of the kept rows (no transforms
    tracked), and the residual rows, re-indexed onto the surviving rows
    and columns, go through _snf_inplace without transforms.  Each unit
    pivot lies in the shortest column holding a unit, in its shortest
    row holding one (see _unit_pivots).  The factors are the canonical
    chain, 1s first.

    The pivot columns I returned, with their rows R, form a unimodular
    block A[R, I]: in pivot order each pivot row, reduced by the earlier
    ones, is +-1 at its own column and 0 at the earlier pivot columns.
    Residual pivots are not returned; they need not be units.
    """
    m, n = A.rows, A.cols
    rows = {}
    cols = {}
    for i, row in enumerate(A._nz):
        if row and i not in skip:
            rows[i] = dict(row)
            for j in row:
                cols.setdefault(j, set()).add(i)
    pivots = {c for _, c in _unit_pivots(rows, cols, m, n)}
    factors = [1] * len(pivots)
    if rows:
        cindex = {c: k for k, c in enumerate(sorted(cols))}
        residual = [{cindex[j]: v for j, v in rows[r].items()} for r in sorted(rows)]
        factors += [d for d in _snf_inplace(residual, len(residual), len(cindex)) if d]
    return factors, pivots


def invariant_factors(A):
    """Invariant factors of A, zero-padded to length min(rows, cols).

    Unit pivots by shortest column first, then the residual, all without
    transforms (see _nonzero_factors).  The output is the canonical chain,
    identical to smith_normal_form(A).

    >>> invariant_factors(IntMatrix.from_rows([[4, 6], [6, 9]]))
    [1, 0]
    """
    factors = _nonzero_factors(A)[0]
    return factors + [0] * (min(A.rows, A.cols) - len(factors))


def rank(A):
    return sum(1 for d in invariant_factors(A) if d)


def kernel_basis(A):
    """Basis of the saturated integer kernel lattice {x : A.x = 0}.

    Columns of the result form a basis; every integer kernel vector is an
    integer combination of them (they extend to a basis of Z^cols).

    >>> kernel_basis(IntMatrix.from_rows([[2, 4]])).col(0)
    [-2, 1]
    """
    sf = _smith(A, row_tape=False)
    n, r = A.cols, sf.rank
    # V times the columns r..n-1 of the identity
    return IntMatrix._adopt(n, n - r, _replay(
        sf.col_ops, [{j - r: 1} if j >= r else {} for j in range(n)], inverse=True))


def cokernel_invariants(A):
    """Z^rows / column-span(A) as free rank plus torsion chain.

    >>> str(cokernel_invariants(IntMatrix.from_rows([[2, 0], [0, 3]])))
    'Z/6'
    """
    return AbelianGroupInvariants.from_cokernel(A.rows, invariant_factors(A))


def _check_composition_zero(d_k, d_kplus1):
    if d_k.cols != d_kplus1.rows:
        raise ValueError(
            f"boundary shapes do not compose: {d_k.rows}x{d_k.cols} then "
            f"{d_kplus1.rows}x{d_kplus1.cols}")
    bnz = d_kplus1._nz
    for row in d_k._nz:
        if any(_row_product(row, bnz).values()):
            raise PreconditionError("d_k . d_{k+1} != 0")


def chain_homology(differentials):
    """Invariants of ker(d_k) / im(d_{k+1}) for k = 0..n, from d_0..d_{n+1}.

    differentials is any iterable of consecutive differentials; each is
    factored and each composition checked once, two held at a time.  As
    ker(d_k) is a direct summand, H_k has the torsion of Z^n / im(d_{k+1}).

    Compression: d_{k+1} is factored without the rows at d_k's unit pivot
    columns I.  With R their pivot rows, d_k[R, I] is unimodular, so the
    rows R of d_k . d_{k+1} = 0 give d_{k+1}[I, :] =
    -d_k[R, I]^-1 . d_k[R, not I] . d_{k+1}[not I, :]: the rows left out
    are integer combinations of the rows kept, and the nonzero invariant
    factors are unchanged.  d_k may itself have been compressed, as its
    kept rows still compose to 0 with d_{k+1}.  The composition is
    checked on the whole pair before any row is left out.
    """
    stream = iter(differentials)
    d_k = next(stream)
    facs, pivots = _nonzero_factors(d_k)
    groups = []
    for d_kplus1 in stream:
        _check_composition_zero(d_k, d_kplus1)
        r_k = len(facs)
        facs, pivots = _nonzero_factors(d_kplus1, pivots)
        free = d_k.cols - r_k - len(facs)
        if free < 0:
            raise PreconditionError("rank bookkeeping failed; not a chain complex")
        groups.append(AbelianGroupInvariants(free, tuple(d for d in facs if d > 1)))
        d_k = d_kplus1
    return groups


class QuotientLattice:
    """Z^ambient / column-span(relations), with Smith coordinates.

    Coordinate order matches the rendered invariants: free coordinates
    first, then torsion in ascending order; entries with invariant factor
    1 are dropped.  Only the row tape of the factorization is recorded.
    """

    def __init__(self, ambient, relations):
        if relations.rows != ambient:
            raise ValueError("relations must live in the ambient lattice")
        sf = _smith(relations, col_tape=False)
        diag = sf.invariant_factors
        self.ambient = ambient
        self._row_ops = sf.row_ops
        r = sf.rank
        torsion_idx = [i for i in range(r) if diag[i] > 1]
        free_idx = list(range(r, ambient))
        self._coord_idx = free_idx + torsion_idx
        self._orders = [0] * len(free_idx) + [diag[i] for i in torsion_idx]
        self.invariants = AbelianGroupInvariants(
            len(free_idx), tuple(diag[i] for i in torsion_idx))

    @property
    def num_generators(self):
        return len(self._coord_idx)

    def coordinates(self, vector):
        """Smith coordinates of a lattice vector's class, reduced mod torsion."""
        if len(vector) != self.ambient:
            raise ValueError("vector is not in the ambient lattice")
        y = _replay_vector(self._row_ops, vector)
        return tuple(y[i] % d if d else y[i] for i, d in zip(self._coord_idx, self._orders))

    def generator(self, i):
        """An ambient lift of the i-th Smith generator: U^-1 e_i."""
        e = [0] * self.ambient
        e[self._coord_idx[i]] = 1
        return _replay_vector(self._row_ops, e, inverse=True)


class PairHomology:
    """ker(d_k)/im(d_{k+1}) with cycle coordinates and generator lifts.

    ker(d_k) is the last n - r coordinates of V^-1, so below row r,
    V^-1 d_{k+1} (d_k's column tape replayed on d_{k+1}'s rows) is the
    image in kernel coordinates.  Only that tape is recorded.
    """

    def __init__(self, d_k, d_kplus1):
        _check_composition_zero(d_k, d_kplus1)
        sf = _smith(d_k, row_tape=False)
        n, r = d_k.cols, sf.rank
        self._n, self._r, self._col_ops = n, r, sf.col_ops
        image = _replay(sf.col_ops, [dict(row) for row in d_kplus1._nz])[r:]
        self.quotient = QuotientLattice(n - r, IntMatrix._adopt(n - r, d_kplus1.cols, image))
        self.invariants = self.quotient.invariants

    def kernel_coordinates(self, cycle):
        if len(cycle) != self._n:
            raise ValueError("vector has the wrong length")
        y = _replay_vector(self._col_ops, cycle)
        if any(y[:self._r]):
            raise ValueError("vector is not a cycle")
        return y[self._r:]

    def coordinates(self, cycle):
        """Smith coordinates of a cycle's homology class."""
        return self.quotient.coordinates(self.kernel_coordinates(cycle))

    def generator_cycle(self, i):
        """A cycle representing the i-th Smith generator of the homology."""
        return _replay_vector(self._col_ops, [0] * self._r + self.quotient.generator(i),
                              inverse=True)

    @property
    def num_generators(self):
        return self.quotient.num_generators


def is_isomorphism_onto(source, target, image_coordinates):
    """Does a homomorphism hit all of target, given where generators go?

    source/target are AbelianGroupInvariants; image_coordinates[i] is the
    target-coordinate tuple of the image of the i-th source generator.
    For finitely generated groups with equal invariants, surjective
    implies bijective, so this decides isomorphism-via-the-given-map.
    """
    if source != target:
        return False
    orders = [0] * target.free_rank + list(target.torsion)
    k = len(orders)
    cols = [{i: v for i, v in enumerate(c) if v} for c in image_coordinates]
    cols += [{i: d} for i, d in enumerate(orders) if d]
    # Z^k / span(cols) is trivial iff its k invariant factors are all 1;
    # the transpose, whose rows are cols, has the same invariant factors.
    return invariant_factors(IntMatrix._adopt(len(cols), k, cols)) == [1] * k

