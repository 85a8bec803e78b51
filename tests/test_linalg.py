"""Determinants by Kronecker substitution, checked against Laurent Bareiss,
and the lazy integer Bareiss underneath, checked against cofactor expansion."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bareiss_oracle import laurent_bareiss_det
from fibersum import LaurentPoly
from fibersum.linalg import _integer_det, laurent_det

entries = st.one_of(
    st.just(LaurentPoly.zero()),
    st.dictionaries(st.integers(-4, 4), st.integers(-6, 6), max_size=3).map(LaurentPoly),
)


@st.composite
def laurent_matrices(draw):
    """Square Laurent matrices of size 0-6, some with a zero row or column
    or a row that is a combination of two others."""
    n = draw(st.integers(0, 6))
    m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n == 0:
        return m
    shape = draw(st.sampled_from(["plain", "zero row", "zero column", "dependent row"]))
    r, s, u = (draw(st.integers(0, n - 1)) for _ in range(3))
    if shape == "zero row":
        m[r] = [LaurentPoly.zero()] * n
    elif shape == "zero column":
        for row in m:
            row[r] = LaurentPoly.zero()
    elif shape == "dependent row" and r not in (s, u):
        unit = LaurentPoly.monomial(draw(st.integers(-3, 3)), draw(st.sampled_from([1, -2])))
        m[r] = [unit * a + b for a, b in zip(m[s], m[u])]
    return m


@settings(max_examples=300, deadline=None)
@given(laurent_matrices())
def test_property_det_equals_laurent_bareiss(m):
    assert laurent_det(m) == laurent_bareiss_det(m)


def test_det_small_cases():
    lp = LaurentPoly
    assert laurent_det([]) == LaurentPoly.one()
    assert laurent_det([[lp({-3: 2, 5: -7})]]) == lp({-3: 2, 5: -7})
    assert laurent_det([[lp({1: 1}), lp({0: 1})], [lp({0: 1}), lp({-1: 1})]]) == LaurentPoly.zero()
    assert laurent_det([[lp({}), lp({2: 1})], [lp({-1: 3}), lp({})]]) == lp({1: -3})
    with pytest.raises(ValueError):
        laurent_det([[LaurentPoly.one(), LaurentPoly.one()]])


def _sylvester(n):
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


@pytest.mark.parametrize("n", [4, 8, 16])
def test_hadamard_matrices_meet_the_bound(n):
    """|det H| = n^(n/2) is exactly the coefficient bound, the edge of the
    signed-digit decode; row and column powers of t move the exponent."""
    h = _sylvester(n)
    det_h = laurent_bareiss_det([[LaurentPoly.monomial(0, x) for x in row] for row in h])
    assert abs(det_h.coeff(0)) == n ** (n // 2)
    row_powers = [(-1) ** r * (r % 5) for r in range(n)]
    col_powers = [c % 3 for c in range(n)]
    for negated in ((), (0,), (1, n - 1)):
        m = [
            [
                LaurentPoly.monomial(row_powers[r] + col_powers[c], -x if r in negated else x)
                for c, x in enumerate(row)
            ]
            for r, row in enumerate(h)
        ]
        sign = (-1) ** len(negated)
        expected = LaurentPoly.monomial(sum(row_powers) + sum(col_powers), sign * det_h.coeff(0))
        assert laurent_det(m) == expected


def test_hadamard_polynomial_entries():
    """Entries t^k +- t^(k+1) have l1 norm 2, so the bound is 2^n n^(n/2);
    the determinant spreads over many digits and still decodes."""
    h = _sylvester(8)
    t = LaurentPoly.t()
    m = [
        [LaurentPoly.monomial(-r, x) * (1 + t if (r + c) % 2 else 1 - t) for c, x in enumerate(row)]
        for r, row in enumerate(h)
    ]
    assert laurent_det(m) == laurent_bareiss_det(m)



def _cofactor_det(m) -> int:
    """Laplace expansion along the rows, memoized on the set of columns
    still free: O(2^n n) for size n, and no elimination at all."""
    n = len(m)

    @functools.cache
    def minor(row, cols):
        if row == n:
            return 1
        total, sign = 0, 1
        for c in range(n):
            if cols >> c & 1:
                if m[row][c]:
                    total += sign * m[row][c] * minor(row + 1, cols & ~(1 << c))
                sign = -sign
        return total

    return minor(0, (1 << n) - 1)


@st.composite
def integer_matrices(draw):
    """Square integer matrices of size 0-8 in the shapes that exercise the
    lazy rows: rows whose leading entries stay 0 for several steps and are
    then picked as the pivot, after other rows moved the pivots on."""
    n = draw(st.integers(0, 8))
    shape = draw(
        st.sampled_from(
            ["dense", "zero leading column", "tridiagonal", "banded",
             "permuted identity", "staircase", "singular"]
        )
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    width = rng.randint(0, n)

    def entry(r, c):
        if shape == "permuted identity":
            return int(r == c)
        if shape == "tridiagonal" and abs(r - c) > 1:
            return 0
        if shape == "banded" and not -1 <= c - r <= width:
            return 0
        return rng.randint(-9, 9)

    m = [[entry(r, c) for c in range(n)] for r in range(n)]
    if shape == "zero leading column":
        for row in m:
            row[0] = 0
    elif shape == "staircase":
        # Row r starts at a column drawn for it, so after shuffling some
        # rows wait several steps before their leading entry is nonzero.
        for row in m:
            start = rng.randint(0, n - 1)
            row[:start] = [0] * start
    elif shape == "singular" and n:
        # A row that is a combination of two others, or a zero row.
        r, s, u = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        k = rng.randint(-3, 3)
        m[r] = [k * x + y for x, y in zip(m[s], m[u])] if r not in (s, u) else [0] * n
    if shape in ("banded", "tridiagonal", "permuted identity", "staircase"):
        rng.shuffle(m)
    return m


@settings(max_examples=600, deadline=None)
@given(integer_matrices())
def test_property_integer_det_equals_cofactor_expansion(m):
    expected = _cofactor_det(m)
    assert _integer_det([list(row) for row in m]) == expected
