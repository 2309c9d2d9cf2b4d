"""Reference oracle: the integer determinant by fraction-free elimination.

Tests use it to check that Smith transforms are unimodular and that
pairing matrices are invertible over Z; the library itself never needs a
determinant.
"""


def determinant(A):
    """Integer determinant (fraction-free Bareiss elimination)."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    m = A.data
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[i], m[k] = m[k], m[i]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pk - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]
