"""Gauss-Jordan inversion of a SeriesMatrix, a reference no command needs.

The cyclic-algebra tests check u_power and element products against it,
and the descent tests check the closed-form inverse of the cocycle.
"""

from autsplit.series import LaurentSeries, SeriesMatrix


class NotInvertible(ZeroDivisionError):
    """Matrix is not invertible within the working precision."""


def identity_matrix(tower, j, n, prec):
    one = LaurentSeries.one(tower, j, prec)
    zero = LaurentSeries.zero(tower, j, prec)
    return SeriesMatrix(tower, j, prec, [[one if s == t else zero
                                          for t in range(n)]
                                         for s in range(n)])


def matrix_inverse(M):
    """Gauss-Jordan on [M | I], each pivot an entry of least valuation;
    the reduced right half."""
    n = M.n
    ident = identity_matrix(M.tower, M.j, n, M.prec).rows
    mat = [list(r) + list(extra) for r, extra in zip(M.rows, ident)]
    width = len(mat[0])
    for k in range(n):
        rows = [m for m in range(k, n) if mat[m][k]]
        if not rows:
            raise NotInvertible("matrix is singular within precision")
        pivot_row = min(rows, key=lambda m: mat[m][k].val)
        mat[k], mat[pivot_row] = mat[pivot_row], mat[k]
        pinv = mat[k][k].inverse()
        mat[k] = [e * pinv for e in mat[k]]
        for m in range(n):
            if m == k or not mat[m][k]:
                continue
            factor = mat[m][k]
            mat[m] = [mat[m][c] - factor * mat[k][c] for c in range(width)]
    return SeriesMatrix(M.tower, M.j, M.prec, [row[n:] for row in mat])
