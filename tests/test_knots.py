"""Braid words, Burau matrices, and the two Alexander routes."""

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    FIGURE_EIGHT,
    TABLE,
    TORUS_BRAIDS,
    TREFOIL,
    TWIST_BRAIDS,
    UNKNOT,
    named_corpus,
    random_knot_braids,
    random_markov_move,
)
from seifert_oracle import all_pairs_seifert_matrix
from fibersum import (
    BraidWord,
    LaurentPoly,
    alexander,
    alexander_oracle,
    burau_reduced,
    closure_components,
    seifert_matrix,
)
from fibersum.errors import BraidTooLarge, NotAKnot, TooFewStrands
from fibersum.knots import BURAU_BUDGET
from fibersum.linalg import _integer_det, laurent_det


def lp(terms):
    return LaurentPoly(terms)


# ------------------------------------------------------------------ words


def test_braid_validation():
    with pytest.raises(ValueError):
        BraidWord(0, ())
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))


def test_braid_text_round_trip():
    b = BraidWord(3, (1, -2, 1, -2))
    assert str(b) == "3; 1,-2,1,-2"
    assert BraidWord.parse(str(b)) == b
    assert BraidWord.parse("1; ") == UNKNOT


@st.composite
def braid_words(draw):
    strands = draw(st.integers(1, 8))
    if strands == 1:
        return BraidWord(1, ())
    letters = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    return BraidWord(strands, tuple(draw(st.lists(letters, max_size=30))))


@settings(max_examples=200, deadline=None)
@given(braid_words())
def test_property_braid_text_round_trip(braid):
    text = str(braid)
    assert BraidWord.parse(text) == braid
    assert str(BraidWord.parse(text)) == text


# ------------------------------------------------------------------ closure


def test_closure_components_unknot():
    assert closure_components(UNKNOT) == 1


def test_closure_components_trefoil():
    assert closure_components(TREFOIL) == 1


def test_closure_components_even_power():
    assert closure_components(BraidWord(2, (1, 1))) == 2


def test_closure_components_split_strand():
    # sigma_1 word on three strands leaves strand 3 split off.
    assert closure_components(BraidWord(3, (1, 1, 1))) == 2


def test_closure_components_counts_unmoved_strands():
    assert closure_components(BraidWord(10**9, (1,))) == 10**9 - 1
    assert closure_components(BraidWord(10**9, ())) == 10**9
    assert closure_components(BraidWord(5, (2, -3, 2))) == 4


def test_closure_components_memory_follows_the_word():
    # One letter at position 10^6 touches two positions; nothing is
    # allocated per strand below it.
    braid = BraidWord(10**6 + 1, (10**6,))
    tracemalloc.start()
    try:
        assert closure_components(braid) == 10**6
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


# ------------------------------------------------------------------ Burau


def test_burau_empty_word_identity():
    m = burau_reduced(BraidWord(2, ()))
    assert m == [[LaurentPoly.one()]]


def test_burau_single_generator():
    m = burau_reduced(BraidWord(2, (1,)))
    assert m == [[lp({1: -1})]]


def test_burau_inverse_pair():
    m = burau_reduced(BraidWord(3, (1, -1)))
    assert m == [
        [LaurentPoly.one(), LaurentPoly.zero()],
        [LaurentPoly.zero(), LaurentPoly.one()],
    ]


def test_burau_too_few_strands():
    with pytest.raises(TooFewStrands):
        burau_reduced(UNKNOT)


def test_burau_braid_relations():
    for n in (3, 4, 5, 6):
        for i in range(1, n - 1):
            lhs = burau_reduced(BraidWord(n, (i, i + 1, i)))
            rhs = burau_reduced(BraidWord(n, (i + 1, i, i + 1)))
            assert lhs == rhs
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                lhs = burau_reduced(BraidWord(n, (i, j)))
                rhs = burau_reduced(BraidWord(n, (j, i)))
                assert lhs == rhs


def test_burau_determinant_is_unit():
    # det of the representation itself is +-t^k, so det never vanishes.
    for braid in named_corpus():
        det = laurent_det(burau_reduced(braid))
        assert len(det.terms) == 1
        assert abs(next(iter(det.terms.values()))) == 1


def _generator_matrix(strands, letter):
    """sigma_i is the identity but for column c = i - 1: -t on the
    diagonal, t above, 1 below; sigma_i^-1 has -t^-1, 1 and t^-1 there."""
    size = strands - 1
    m = [[lp({0: 1}) if r == c else lp({}) for c in range(size)] for r in range(size)]
    c = abs(letter) - 1
    diag, above, below = (
        (lp({1: -1}), lp({1: 1}), lp({0: 1}))
        if letter > 0
        else (lp({-1: -1}), lp({0: 1}), lp({-1: 1}))
    )
    m[c][c] = diag
    if c > 0:
        m[c - 1][c] = above
    if c + 1 < size:
        m[c + 1][c] = below
    return m


def _dense_product(a, b):
    size = len(a)
    return [
        [sum((a[r][k] * b[k][c] for k in range(size)), lp({})) for c in range(size)]
        for r in range(size)
    ]


def test_burau_equals_product_of_generator_matrices():
    # Pins the convention entry by entry on three or more strands, where a
    # mirrored or transposed one still satisfies the braid relations.
    rng = random.Random(24)
    for _ in range(120):
        strands = rng.randint(2, 7)
        word = tuple(
            rng.choice([1, -1]) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 40))
        )
        size = strands - 1
        expected = [[lp({0: 1}) if r == c else lp({}) for c in range(size)] for r in range(size)]
        for letter in word:
            expected = _dense_product(expected, _generator_matrix(strands, letter))
        assert burau_reduced(BraidWord(strands, word)) == expected


def test_burau_products_per_letter(monkeypatch):
    # Each letter rewrites one column: at most three products per row.
    rng = random.Random(60)
    braid = BraidWord(10, tuple(rng.choice([1, -1]) * rng.randint(1, 9) for _ in range(60)))
    expected = burau_reduced(braid)
    calls = []
    multiply = LaurentPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return multiply(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counted)
    assert burau_reduced(braid) == expected
    assert len(calls) <= 3 * (braid.strands - 1) * len(braid.word)


# ------------------------------------------------------------- Alexander


def test_alexander_unknot():
    assert alexander(UNKNOT) == LaurentPoly.one()
    # A one-letter braid on two strands also closes to the unknot.
    assert alexander(BraidWord(2, (1,))) == LaurentPoly.one()


def test_alexander_trefoil():
    assert alexander(TREFOIL) == lp({1: 1, 0: -1, -1: 1})


def test_alexander_figure_eight():
    assert alexander(FIGURE_EIGHT) == lp({1: -1, 0: 3, -1: -1})


def test_alexander_rejects_links():
    with pytest.raises(NotAKnot):
        alexander(BraidWord(2, (1, 1)))
    with pytest.raises(NotAKnot):
        alexander_oracle(BraidWord(2, ()))


def test_alexander_budget_boundary():
    assert BURAU_BUDGET == 2500
    # 4 strands x 625 letters, exactly at the budget: a 4-cycle closure.
    at_budget = BraidWord(4, (1, 2, 3) + (1,) * 622)
    assert alexander(at_budget) == alexander_oracle(at_budget)
    # T(2, 1249) is 2,498, T(2, 1251) is 2,502: the nearest 2-strand knots.
    assert alexander(BraidWord(2, (1,) * 1249)).terms[624] == 1
    with pytest.raises(BraidTooLarge, match="^2 strands x 1251 letters is over"):
        alexander(BraidWord(2, (1,) * 1251))
    unknot_100 = BraidWord(100, tuple(range(1, 100)))
    with pytest.raises(BraidTooLarge):
        alexander(unknot_100)
    # The knot check comes first, and the Seifert oracle has no budget.
    with pytest.raises(NotAKnot):
        alexander(BraidWord(2, (1,) * 1300))
    assert alexander_oracle(unknot_100) == LaurentPoly.one()


def test_oracle_unknot():
    assert alexander_oracle(UNKNOT) == LaurentPoly.one()
    assert alexander_oracle(BraidWord(2, (1,))) == LaurentPoly.one()


def test_oracle_trefoil():
    assert alexander_oracle(TREFOIL) == lp({1: 1, 0: -1, -1: 1})


def test_oracle_torus_2_5():
    assert alexander_oracle(TORUS_BRAIDS[5]) == lp({2: 1, 1: -1, 0: 1, -1: -1, -2: 1})


def test_seifert_matrix_trefoil():
    v = seifert_matrix(TREFOIL)
    assert len(v) == 2
    assert v[0][0] == v[1][1] == 1
    assert {v[0][1], v[1][0]} == {0, -1}


def test_seifert_matrix_band_order():
    """T(3,4) = (sigma_1 sigma_2)^4: the cycles are listed by their first
    band, so the two generators' cycles alternate and V is banded."""
    v = seifert_matrix(BraidWord(3, (1, 2) * 4))
    assert v == [
        [1, 1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [-1, -1, 1, 1, 0, 0],
        [0, -1, 0, 1, 0, 0],
        [0, 0, -1, -1, 1, 1],
        [0, 0, 0, -1, 0, 1],
    ]


def test_published_table_values_both_routes():
    for braid, expected in TABLE.items():
        assert alexander(braid) == expected
        assert alexander_oracle(braid) == expected


def test_twist_braids_close_to_knots():
    for braid in TWIST_BRAIDS.values():
        assert closure_components(braid) == 1


# -------------------------------------------------------------- properties


def test_oracle_equivalence_random_sample():
    for braid in random_knot_braids(50, seed=500):
        assert alexander(braid) == alexander_oracle(braid)


def test_normalization_invariants():
    for braid in named_corpus() + random_knot_braids(30, seed=501):
        delta = alexander(braid)
        assert delta.evaluate_unit(1) == 1
        assert delta.reverse() == delta


def test_markov_moves_sample():
    rng = random.Random(502)
    for braid in (TREFOIL, FIGURE_EIGHT, TWIST_BRAIDS["5_2"]):
        base = alexander(braid)
        current = braid
        for _ in range(15):
            current = random_markov_move(current, rng)
            if current.strands > 6 or len(current.word) > 24:
                current = braid
                continue
            assert alexander(current) == base


def test_conjugation_exact():
    for braid in (TREFOIL, FIGURE_EIGHT):
        base = alexander(braid)
        assert alexander(braid.conjugated((1, -1, 1))) == base


def test_stabilization_exact():
    for braid in (TREFOIL, FIGURE_EIGHT):
        base = alexander(braid)
        assert alexander(braid.stabilized(1)) == base
        assert alexander(braid.stabilized(-1)) == base


@st.composite
def knot_braids(draw, max_strands=7, max_length=60):
    """Braids on 2 to max_strands strands of length at most max_length
    whose closure is a knot: a random word, then one letter per extra
    component, each joining two components of the closure."""
    strands = draw(st.integers(2, max_strands))
    letters = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    length = draw(st.integers(0, max_length - strands))
    braid = BraidWord(strands, tuple(draw(st.lists(letters, min_size=length, max_size=length))))
    while (count := closure_components(braid)) > 1:
        joins = [
            i
            for i in range(1, strands)
            if closure_components(BraidWord(strands, braid.word + (i,))) < count
        ]
        i = draw(st.sampled_from(joins))
        braid = BraidWord(strands, braid.word + (draw(st.sampled_from([i, -i])),))
    return braid


@settings(max_examples=60, deadline=None)
@given(knot_braids())
def test_property_burau_equals_seifert(braid):
    assert len(braid.word) <= 60
    assert alexander(braid) == alexander_oracle(braid)


@settings(max_examples=300, deadline=None)
@given(knot_braids(max_strands=8, max_length=70))
def test_property_seifert_matrix_equals_all_pairs(braid):
    """The band lookups find exactly the partners the all-pairs scan does."""
    assert len(braid.word) <= 70
    assert seifert_matrix(braid) == all_pairs_seifert_matrix(braid)


@settings(max_examples=60, deadline=None)
@given(knot_braids())
def test_property_seifert_form_is_unimodular(braid):
    """V - V^T is the intersection form of a Seifert surface of a knot,
    so its determinant is +-1 in whatever order the cycles come."""
    v = seifert_matrix(braid)
    size = len(v)
    form = [[v[r][c] - v[c][r] for c in range(size)] for r in range(size)]
    assert abs(_integer_det(form)) == 1


def test_oracle_long_torus_knot():
    braid = BraidWord(2, (1,) * 81)
    start = time.perf_counter()
    delta = alexander_oracle(braid)
    assert time.perf_counter() - start < 3
    assert delta == alexander(braid)
    assert delta == LaurentPoly({e: (-1) ** (40 - e) for e in range(-40, 41)})


def test_oracle_torus_knot_161():
    braid = BraidWord(2, (1,) * 161)
    delta = alexander_oracle(braid)
    assert delta == LaurentPoly({e: (-1) ** (80 - e) for e in range(-80, 81)})
    assert delta == alexander(braid)
