"""Fraction-free linear algebra over exact rings.

Two primitives, both over Python integers with no floating point:

* ``laurent_det`` computes the determinant of a square matrix of Laurent
  polynomials by Kronecker substitution.  Each row is shifted to
  nonnegative exponents, every entry is evaluated at t = 2^B, one integer
  Bareiss determinant is taken, and the coefficients are read back as
  signed base-2^B digits.  B comes from a Hadamard-type bound on the
  coefficients of the determinant, so the digits never overlap.
* ``integer_rank`` computes the rank of an integer matrix by fraction-free
  forward elimination.
"""

from __future__ import annotations

from .ring import LaurentPoly


def laurent_det(matrix) -> LaurentPoly:
    """Determinant of a square matrix of LaurentPoly entries.

    After each row is multiplied by the power of t that makes its lowest
    exponent 0, every entry p satisfies |p(z)| <= ||p||_1 on the unit
    circle.  Hadamard's inequality then bounds |det(z)| there by
    bound = prod_r sqrt(sum_c ||p_rc||_1^2), and no coefficient of det
    exceeds that maximum.  B is chosen with 2^(B-1) > bound, so the integer
    det(M(2^B)) holds every coefficient as one signed base-2^B digit.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("determinant needs a square matrix")
    shift = 0
    bound_sq = 1
    rows = []
    for row in matrix:
        terms = [p.terms for p in row]
        low = min((min(t) for t in terms if t), default=None)
        if low is None:
            return LaurentPoly.zero()
        shift += low
        bound_sq *= sum(sum(map(abs, t.values())) ** 2 for t in terms)
        rows.append((low, terms))
    bits = (bound_sq.bit_length() + 1) // 2 + 2
    value = _integer_det(
        [
            [sum(c << bits * (e - low) for e, c in t.items()) for t in terms]
            for low, terms in rows
        ]
    )
    coeffs = {}
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    exponent = shift
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << bits
        coeffs[exponent] = digit
        value = (value - digit) >> bits
        exponent += 1
    return LaurentPoly(coeffs)


def _integer_det(a) -> int:
    """Determinant of a square integer matrix by one-step Bareiss
    elimination with row pivoting.  Each step replaces the matrix by its
    trailing block; every division by the previous pivot is exact because
    each new entry is a minor of the input."""
    sign = 1
    prev = 1
    while len(a) > 1:
        for p, row in enumerate(a):
            if row[0]:
                break
        else:
            return 0
        if p:
            a[0], a[p] = a[p], a[0]
            sign = -sign
        pivot = a[0][0]
        top = a[0][1:]
        a = [
            [(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], top)]
            for row in a[1:]
        ]
        prev = pivot
    return sign * a[0][0] if a else 1


def integer_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, len(m)):
            factor = m[i][col]
            for j in range(ncols):
                # Bareiss step: division by the previous pivot is exact.
                m[i][j] = (pivot * m[i][j] - factor * m[rank][j]) // prev
        prev = pivot
        rank += 1
        if rank == len(m):
            break
    return rank
