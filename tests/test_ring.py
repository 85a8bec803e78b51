"""Laurent polynomial and group ring arithmetic."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import dense_text
from fibersum import Block, GroupRingElt, LaurentPoly, substitute_exp
from fibersum.cli import _pairs_text
from fibersum.errors import BadParameter, NotDivisible
from fibersum.ring import FactoredSeries

T = LaurentPoly.t()
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def lp(terms):
    return LaurentPoly(terms)


def exp_of(**classes):
    return GroupRingElt.exp(classes)


# ------------------------------------------------------------------ add/mul


def test_add_cancellation():
    assert lp({1: 1, 0: -1}) + ONE == T


def test_add_identity():
    p = lp({3: 2, -1: 5})
    assert ZERO + p == p


def test_add_expand():
    assert lp({1: 1, -1: 1}) + lp({1: 1, -1: -1}) == lp({1: 2})


def test_mul_difference_of_squares():
    assert lp({1: 1, 0: -1}) * lp({1: 1, 0: 1}) == lp({2: 1, 0: -1})


def test_mul_identity():
    p = lp({2: -3, 0: 1, -5: 7})
    assert p * ONE == p


def test_mul_square_of_trefoil_poly():
    # Hand expansion of (t - 1 + t^-1)^2.
    p = lp({1: 1, 0: -1, -1: 1})
    assert p * p == lp({2: 1, 1: -2, 0: 3, -1: -2, -2: 1})


def test_pow():
    assert lp({1: 1, 0: 1}) ** 3 == lp({3: 1, 2: 3, 1: 3, 0: 1})
    assert lp({5: 3}) ** 0 == ONE


def test_foreign_operand_is_a_type_error():
    for value in (T, exp_of(T=1)):
        assert 1 - value == -(value - 1)
        with pytest.raises(TypeError):
            "x" - value
        with pytest.raises(TypeError):
            value - "x"


# ------------------------------------------------------------------ division


def test_exact_div_basic():
    assert lp({2: 1, 0: -1}).exact_div(lp({1: 1, 0: -1})) == lp({1: 1, 0: 1})


def test_exact_div_geometric():
    assert lp({3: 1, 0: -1}).exact_div(lp({1: 1, 0: -1})) == lp({2: 1, 1: 1, 0: 1})


def test_exact_div_remainder_raises():
    with pytest.raises(NotDivisible):
        lp({2: 1, 0: 1}).exact_div(lp({1: 1, 0: -1}))


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(ZERO)


def test_exact_div_laurent_shift():
    # Divisibility in the Laurent ring ignores units +-t^k.
    a = lp({1: 2, -1: -2})
    b = lp({-3: 2})
    assert a.exact_div(b) == lp({4: 1, 2: -1})


# ------------------------------------------------------------------ reverse


def test_reverse_symmetric_fixed():
    p = lp({1: 1, 0: -1, -1: 1})
    assert p.reverse() == p


def test_reverse_monomial():
    assert lp({2: 1}).reverse() == lp({-2: 1})


def test_reverse_zero():
    assert ZERO.reverse() == ZERO


# ------------------------------------------------------------------ group ring


def test_gr_add_cancel():
    assert exp_of(T=1) + (-exp_of(T=1)) == GroupRingElt.zero()


def test_gr_add_identity():
    a = exp_of(T=2) - 3
    assert a + GroupRingElt.zero() == a


def test_gr_two_term():
    s = exp_of(T=1) + exp_of(T=-1)
    assert len(s.terms) == 2


def test_gr_mul_conjugates():
    lhs = (exp_of(T=1) - exp_of(T=-1)) * (exp_of(T=1) + exp_of(T=-1))
    assert lhs == exp_of(T=2) - exp_of(T=-2)


def test_gr_mul_identity():
    a = 2 * exp_of(T=1) - 5
    assert a * GroupRingElt.one() == a


def test_gr_square_fiber_factor():
    # Expansion oracle: (exp(T) - exp(-T))^2 = exp(2T) - 2 + exp(-2T).
    f = exp_of(T=1) - exp_of(T=-1)
    assert f * f == exp_of(T=2) - 2 + exp_of(T=-2)


def test_gr_mixed_lattices_merge():
    a = exp_of(A=1)
    b = exp_of(B=1)
    prod = a * b
    assert prod.lattice == ("A", "B")
    assert prod == GroupRingElt(("A", "B"), {(1, 1): 1})
    # Unsorted names, one of them unused: the canonical form, field for field.
    unsorted = GroupRingElt(("C", "B", "A"), {(0, 1, 1): 1})
    assert (unsorted.lattice, unsorted.terms) == (prod.lattice, prod.terms)
    assert unsorted == prod and hash(unsorted) == hash(prod)


@pytest.mark.parametrize("c", [0, 1, -1, 3, -7, 2**70])
def test_constants_hash_as_their_int(c):
    values = [
        LaurentPoly({0: c}),
        GroupRingElt.constant(c),
        FactoredSeries({}, c),
        FactoredSeries({"A": LaurentPoly({0: c})}),
    ]
    for v in values:
        assert v == c and hash(v) == hash(c)
        assert len({c, v}) == 1
    # Across the two series types, and against the expansion.
    assert len({values[1], values[2], values[3], values[2].expand()}) == 1


def test_gr_conjugate():
    sym = exp_of(T=2) - 1 + exp_of(T=-2)
    assert sym.conjugate() == sym
    assert exp_of(T=1).conjugate() == exp_of(T=-1)
    assert GroupRingElt.zero().conjugate() == GroupRingElt.zero()


# ------------------------------------------------------------------ substitute


def test_substitute_constant():
    c = {"T": 2}
    assert substitute_exp(ONE, c) == GroupRingElt.one()


def test_substitute_trefoil():
    c = {"T": 2}
    p = lp({1: 1, 0: -1, -1: 1})
    assert substitute_exp(p, c) == exp_of(T=2) - 1 + exp_of(T=-2)


def test_substitute_monomial():
    c = {"T": 2}
    assert substitute_exp(lp({2: 1}), c) == exp_of(T=4)


def test_substitute_sums_terms_on_one_vector():
    # At the zero class every power of t lands on the origin.
    p = lp({1: 1, 0: 1})
    assert substitute_exp(p, {}) == GroupRingElt.constant(2)
    assert substitute_exp(p, {"A": 0}) == GroupRingElt.constant(2)
    assert substitute_exp(lp({1: 1, -1: -1}), {"A": 0}) == GroupRingElt.zero()


def test_exp_drops_unused_names():
    assert GroupRingElt.exp({"B": 2, "A": 0, "C": -1}, 3) == 3 * exp_of(B=2, C=-1)
    assert GroupRingElt.exp({"B": 2, "A": 0, "C": -1}).lattice == ("B", "C")
    assert GroupRingElt.exp({}) == GroupRingElt.one()


# ------------------------------------------------------------------ text forms


def test_poly_canonical_text():
    assert str(lp({2: 1, 0: -2, -2: 1})) == "t^2 - 2 + t^-2"
    assert str(lp({1: 1, 0: -1, -1: 1})) == "t - 1 + t^-1"
    assert str(lp({1: 2, 0: -3, -1: 2})) == "2t - 3 + 2t^-1"
    assert str(ZERO) == "0"


def test_poly_parse_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        p = _random_poly(rng)
        assert LaurentPoly.parse(str(p)) == p
    assert LaurentPoly.parse("2*t - 3 + 2*t^-1") == lp({1: 2, 0: -3, -1: 2})


def test_gr_canonical_text():
    s = exp_of(**{"T[1,3]": 2}) - 2 + exp_of(**{"T[1,3]": -2})
    assert str(s) == "exp(2*T[1,3]) - 2 + exp(-2*T[1,3])"
    assert str(GroupRingElt.zero()) == "0"
    assert str(GroupRingElt.one()) == "1"


def test_gr_parse_round_trip():
    rng = random.Random(12)
    for _ in range(200):
        s = _random_gr(rng)
        assert GroupRingElt.parse(str(s)) == s


# Class names in the forms the builders produce (T1, T[a,b], and the
# R:-prefixed names of a renamed right summand), and any name a document
# may give a torus: nonempty, with no whitespace and none of + - * ( ) ^.
class_names = st.one_of(
    st.builds(
        lambda prefix, base: "R:" * prefix + base,
        st.integers(0, 2),
        st.one_of(
            st.integers(1, 3).map(lambda i: f"T{i}"),
            st.tuples(st.integers(1, 40), st.integers(1, 3)).map(
                lambda ab: f"T[{ab[0]},{ab[1]}]"
            ),
        ),
    ),
    st.text(
        st.characters(exclude_characters="+-*()^", exclude_categories=("Cs",)),
        min_size=1,
        max_size=6,
    ).filter(lambda name: not any(ch.isspace() for ch in name)),
    st.sampled_from(['A"', "B\\", "C\u00e9", "7", "exp"]),
)
coefficients = st.integers(-(10**20), 10**20)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-30, 30), coefficients, max_size=8))
def test_property_poly_text_round_trip(terms):
    p = LaurentPoly(terms)
    text = str(p)
    assert LaurentPoly.parse(text) == p
    assert str(LaurentPoly.parse(text)) == text


@st.composite
def group_ring_elts(draw):
    lattice = tuple(sorted(draw(st.sets(class_names, max_size=4))))
    vectors = st.tuples(*[st.integers(-4, 4) for _ in lattice])
    return GroupRingElt(lattice, draw(st.dictionaries(vectors, coefficients, max_size=8)))


@settings(max_examples=200, deadline=None)
@given(group_ring_elts())
def test_property_gr_text_round_trip(g):
    text = str(g)
    assert GroupRingElt.parse(text) == g
    assert str(GroupRingElt.parse(text)) == text


@pytest.mark.parametrize(
    "cls, text",
    [
        (GroupRingElt, "exp(T1)exp(T2)"),
        (GroupRingElt, "exp(A(B)"),
        (GroupRingElt, "exp(A)B)"),
        (GroupRingElt, "exp()"),
        (GroupRingElt, "exp(A B)"),
        (GroupRingElt, "exp(A^2)"),
        (GroupRingElt, "exp(T1 - -T2)"),
        (GroupRingElt, ""),
        (LaurentPoly, "1 -"),
        (LaurentPoly, "- -1"),
        (LaurentPoly, "t^ -2"),
        (LaurentPoly, "2 3"),
        (LaurentPoly, "*t"),
        (LaurentPoly, ""),
    ],
)
def test_parse_refuses_text_no_writer_produces(cls, text):
    with pytest.raises(ValueError):
        cls.parse(text)


def test_parse_lenient_forms():
    assert LaurentPoly.parse("2t^-1") == lp({-1: 2})
    assert LaurentPoly.parse("t - 1 + t^-1") == lp({1: 1, 0: -1, -1: 1})
    assert LaurentPoly.parse("0") == ZERO
    assert LaurentPoly.parse("+ t") == T
    assert GroupRingElt.parse("0") == GroupRingElt.zero()
    assert GroupRingElt.parse("+exp(A) - 2") == exp_of(A=1) - 2


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.text(max_size=6),
        st.text(st.sampled_from(list("A7:0e,[] \t+-*()^")), max_size=6),
    )
)
def test_property_block_admits_exactly_the_names_the_reader_reads(name):
    """A torus name is admitted by Block exactly when the series reader
    reads exp(name) back as the one class name.  The name stands alone in
    its block, so no companion name can repeat it."""
    try:
        Block("K3", (name,))
        admitted = True
    except BadParameter:
        admitted = False
    try:
        read = GroupRingElt.parse(f"exp({name})").lattice == (name,)
    except ValueError:
        read = False
    assert admitted == read


# ------------------------------------------------------------------ properties


def _random_poly(rng, span=6, coeff=9, terms=6):
    return LaurentPoly(
        {
            rng.randint(-span, span): rng.randint(-coeff, coeff)
            for _ in range(rng.randint(0, terms))
        }
    )


def _random_gr(rng, symbols=("T[1,2]", "T[1,3]", "T[2,2]")):
    names = tuple(sorted(rng.sample(symbols, rng.randint(0, len(symbols)))))
    terms = {}
    for _ in range(rng.randint(0, 5)):
        vec = tuple(rng.randint(-3, 3) for _ in names)
        terms[vec] = rng.randint(-9, 9)
    return GroupRingElt(names, terms)


def test_ring_axioms_randomized():
    rng = random.Random(101)
    for _ in range(300):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for _ in range(300):
        a, b, c = (_random_gr(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_division_round_trip_randomized():
    rng = random.Random(102)
    done = 0
    while done < 300:
        a = _random_poly(rng)
        b = _random_poly(rng)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a
        done += 1


def test_reverse_is_involution_and_homomorphism():
    rng = random.Random(103)
    for _ in range(200):
        a = _random_poly(rng)
        b = _random_poly(rng)
        assert a.reverse().reverse() == a
        assert (a + b).reverse() == a.reverse() + b.reverse()
        assert (a * b).reverse() == a.reverse() * b.reverse()


def test_conjugate_is_involution_and_homomorphism():
    rng = random.Random(104)
    for _ in range(200):
        a = _random_gr(rng)
        b = _random_gr(rng)
        assert a.conjugate().conjugate() == a
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_substitution_is_multiplicative():
    rng = random.Random(105)
    c = {"T[1,2]": 2}
    for _ in range(150):
        p = _random_poly(rng)
        q = _random_poly(rng)
        assert substitute_exp(p * q, c) == substitute_exp(p, c) * substitute_exp(q, c)


# ------------------------------------------------------------ factored series

# Factors in up to three classes: zero (empty), constant, content > 1 and
# either sign all occur.
factor_dicts = st.dictionaries(
    st.sampled_from("ABC"),
    st.dictionaries(st.integers(-2, 2), st.integers(-4, 4), max_size=3).map(
        LaurentPoly
    ),
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(
    factor_dicts,
    st.dictionaries(st.sampled_from("ABC"), st.sampled_from([-3, -2, -1, 2, 3])),
    st.integers(-3, 3),
    factor_dicts,
)
def test_property_factored_canonical_form(factors, moved, scalar, other):
    # a and b are the same product with constants moved between the
    # factors and scalar and with negated copies; c is drawn freely.
    m = math.prod(k for n, k in moved.items() if n in factors)
    a = FactoredSeries({n: f * moved.get(n, 1) for n, f in factors.items()}, scalar)
    b = FactoredSeries(factors, scalar * m)
    c = FactoredSeries(other, scalar)
    for x, y in ((a, b), (a, c), (b, c)):
        assert (x == y) == (x.expand() == y.expand())
    assert a == b and hash(a) == hash(b)
    for x in (a, b, c):
        dense = x.expand()
        assert x == dense and dense == x and hash(x) == hash(dense)
        assert (x == x.constant_coeff()) == (not x.factors)
        for f in x.factors.values():
            assert math.gcd(*f.terms.values()) == 1
            assert (f.evaluate_unit(1) or f.terms[f.degree]) > 0
        # Both writers, zero prefix included, against the dense terms.
        assert str(x) == dense_text(dense)
        positive = [
            {"class": list(v), "coeff": k}
            for v, k in dense.sorted_terms()
            if next((e for e in v if e), 0) > 0
        ]
        assert json.loads("[" + _pairs_text(x) + "]") == positive
