"""Reference oracle: the dense transform-carrying Smith elimination.

This is the elimination ``eqhom.intlinalg._snf_inplace`` ran on dense
row lists before it moved to sparse rows and columns.  It is kept only as
a test oracle: the sparse routine must take the same pivots and perform
the same row and column operations, so every factor and every transform
must come out identical.
"""

from eqhom.intlinalg import IntMatrix


def dense_snf_inplace(md, m, n, U=None, Uinv=None, V=None, Vinv=None):
    """Reduce the row-list matrix md to Smith form in place.

    Pivot rule: smallest absolute nonzero entry of the active submatrix,
    ties broken by (row, col).  The optional transform accumulators are
    row-lists updated alongside.  Returns the list of diagonal entries
    (positive chain, then zeros) of length min(m, n).
    """

    def row_op(i, t, q):
        # R_i -= q R_t  (columns < t are zero in both rows)
        ri, rt = md[i], md[t]
        md[i] = ri[:t] + [a - q * b for a, b in zip(ri[t:], rt[t:])]
        if U is not None:
            U[i] = [a - q * b for a, b in zip(U[i], U[t])]
        if Uinv is not None:
            for r in Uinv:
                r[t] += q * r[i]

    def add_row(t, i):
        # R_t += R_i
        md[t] = md[t][:t] + [a + b for a, b in zip(md[t][t:], md[i][t:])]
        if U is not None:
            U[t] = [a + b for a, b in zip(U[t], U[i])]
        if Uinv is not None:
            for r in Uinv:
                r[i] -= r[t]

    def swap_rows(i, t):
        md[i], md[t] = md[t], md[i]
        if U is not None:
            U[i], U[t] = U[t], U[i]
        if Uinv is not None:
            for r in Uinv:
                r[i], r[t] = r[t], r[i]

    def negate_row(t):
        md[t] = [-a for a in md[t]]
        if U is not None:
            U[t] = [-a for a in U[t]]
        if Uinv is not None:
            for r in Uinv:
                r[t] = -r[t]

    # Column operations run only while row t is cleared: column t is then
    # zero below row t, and rows above t are zero in every column >= t, so
    # on md they touch row t alone.
    def col_op(j, t, q):
        # C_j -= q C_t
        md[t][j] -= q * md[t][t]
        if V is not None:
            for r in V:
                if r[t]:
                    r[j] -= q * r[t]
        if Vinv is not None:
            Vinv[t] = [a + q * b for a, b in zip(Vinv[t], Vinv[j])]

    def swap_cols(j, t):
        for r in md[t:]:
            r[j], r[t] = r[t], r[j]
        if V is not None:
            for r in V:
                r[j], r[t] = r[t], r[j]
        if Vinv is not None:
            Vinv[j], Vinv[t] = Vinv[t], Vinv[j]

    t = 0
    limit = min(m, n)
    while t < limit:
        # Locate the pivot: minimal |entry|, first in (row, col) order.
        best = None
        best_abs = 0
        for i in range(t, m):
            row = md[i]
            for j in range(t, n):
                v = row[j]
                if v:
                    a = -v if v < 0 else v
                    if best is None or a < best_abs:
                        best, best_abs = (i, j), a
                        if a == 1:
                            break
            if best_abs == 1:
                break
        if best is None:
            break
        if best[0] != t:
            swap_rows(best[0], t)
        if best[1] != t:
            swap_cols(best[1], t)
        if md[t][t] < 0:
            negate_row(t)

        while True:
            # Clear column t below the pivot.
            restart = False
            i = t + 1
            while i < m:
                v = md[i][t]
                if v:
                    q = v // md[t][t]
                    if q:
                        row_op(i, t, q)
                    if md[i][t]:
                        # Remainder is a strictly smaller positive pivot.
                        swap_rows(i, t)
                        restart = True
                        break
                i += 1
            if restart:
                continue
            # Clear row t right of the pivot.
            j = t + 1
            while j < n:
                v = md[t][j]
                if v:
                    q = v // md[t][t]
                    if q:
                        col_op(j, t, q)
                    if md[t][j]:
                        swap_cols(j, t)
                        restart = True
                        break
                j += 1
            if restart:
                continue
            # Pivot row and column are clear; enforce divisibility.
            p = md[t][t]
            offender = None
            if p != 1:
                for i in range(t + 1, m):
                    row = md[i]
                    for j in range(t + 1, n):
                        if row[j] % p:
                            offender = i
                            break
                    if offender is not None:
                        break
            if offender is None:
                break
            add_row(t, offender)
        t += 1

    return [md[i][i] for i in range(limit)]


def dense_smith(a):
    """(factors, U, uinv, V, vinv) of the IntMatrix a, as row lists."""
    m, n = a.rows, a.cols
    md = [list(r) for r in a.data]
    acc = [IntMatrix.identity(k).data for k in (m, m, n, n)]
    diag = dense_snf_inplace(md, m, n, *acc)
    return (tuple(diag), *acc)
