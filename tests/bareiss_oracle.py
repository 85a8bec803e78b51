"""Bareiss elimination over Laurent-polynomial entries, kept as a test oracle.

``laurent_bareiss_det`` is the one-step fraction-free elimination run
directly on ``LaurentPoly`` entries, dividing exactly by the previous
pivot at every step.  It shares no code with ``fibersum.linalg.laurent_det``
(Kronecker substitution into one integer determinant) beyond polynomial
arithmetic, so the two check each other.
"""

from __future__ import annotations

from fibersum import LaurentPoly


def laurent_bareiss_det(matrix) -> LaurentPoly:
    """Determinant of a square matrix of LaurentPoly entries.

    One-step Bareiss elimination with row pivoting; each division by the
    previous pivot is exact because every intermediate entry is a minor of
    the input matrix.
    """
    n = len(matrix)
    if n == 0:
        return LaurentPoly.one()
    a = [list(row) for row in matrix]
    for row in a:
        if len(row) != n:
            raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = LaurentPoly.one()
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev)
            a[i][k] = LaurentPoly.zero()
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det
