"""Fraction-free linear algebra over exact rings.

``laurent_det`` computes the determinant of a square matrix of Laurent
polynomials over Python integers, with no floating point, by Kronecker
substitution.  Each row is shifted to nonnegative exponents, every entry
is evaluated at t = 2^B, one integer Bareiss determinant is taken, and
the coefficients are read back as signed base-2^B digits.  B comes from
a Hadamard-type bound on the coefficients of the determinant, so the
digits never overlap.  The Bareiss elimination is lazy: a row whose
leading entry is 0 is not touched until it is used, so on a banded
matrix the cost follows the band, not the full size.
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
        bound_sq *= sum(sum(map(abs, t.values())) ** 2 for t in terms if t)
        rows.append((low, terms))
    bits = (bound_sq.bit_length() + 1) // 2 + 2
    value = _integer_det(
        [
            [
                sum(c << bits * (e - low) for e, c in t.items()) if t else 0
                for t in terms
            ]
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
    """Determinant of a square integer matrix by lazy one-step Bareiss
    elimination with row pivoting.

    Eager Bareiss replaces every row below the pivot at every step, by
    (pivot * x - r0 * y) // prev, where r0 is the row's leading entry, y
    the pivot row's entry and prev the previous pivot; each result is a
    minor of the input, so the division is exact.  When r0 is 0 that
    update only scales the row by pivot / prev.  The lazy form leaves
    such a row untouched and remembers its base, the pivot it was last
    updated against: its eager value is then x * prev // base, entry by
    entry.  A row used again is updated as (pivot * x - r0 * y) // base,
    which equals the eager minor, and a pivot row that has fallen behind
    is first brought up to prev that way (prev // base alone need not be
    an integer).  A row stores only the trailing columns it was last
    updated over, so column k is row[k - n].  On a banded matrix most
    rows have r0 == 0 at most steps, so most updates are skipped.
    """
    n = len(a)
    rows = list(a)
    bases = [1] * n
    sign = 1
    prev = 1
    for k in range(n):
        for p in range(k, n):
            if rows[p][k - n]:
                break
        else:
            return 0
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            bases[k], bases[p] = bases[p], bases[k]
            sign = -sign
        top = rows[k][k - n :]
        if bases[k] != prev:
            top = [x * prev // bases[k] for x in top]
        pivot = top[0]
        top = top[1:]
        for i in range(k + 1, n):
            row = rows[i]
            r0 = row[k - n]
            if r0:
                base = bases[i]
                rows[i] = [
                    (pivot * x - r0 * y) // base
                    for x, y in zip(row[k + 1 - n :], top)
                ]
                bases[i] = pivot
        prev = pivot
    return sign * prev
