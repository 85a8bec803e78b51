"""The invariant engine: gluing rules, symmetry, basic-class reports."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    CHAIN_KNOTS,
    FIGURE_EIGHT,
    TABLE,
    TREFOIL,
    UNKNOT,
    named_corpus,
    refused_sw_trees,
    seeded_chains,
    sw_trees,
)
from dense_oracle import (
    dense_report_json,
    dense_sw_series,
    dense_text,
    oracle_series,
    report_stdout,
)
from fibersum import (
    FactoredSeries,
    GroupRingElt,
    LaurentPoly,
    basic_classes,
    block,
    char_numbers,
    check_conjugation_symmetry,
    conjugation_sign,
    connected_sum,
    factored_report,
    fiber_sum_chain,
    fingerprint,
    knot_surgery,
    null_log_transform,
    substitute_exp,
    surgered_chain,
    sw_factors,
    sw_first_power_formula,
    sw_report,
    sw_series,
    alexander_oracle,
)
from fibersum.cli import sw_pieces
from fibersum.manifolds import Block, FiberSum, KnotSurgery
from fibersum.errors import (
    AsymmetricSeries,
    BadSignExponent,
    UnsupportedNode,
    UnsupportedSum,
)


def exp_of(**classes):
    return GroupRingElt.exp(classes)


K3_NUMBERS = char_numbers(block("K3"))
FIBER_POLY = LaurentPoly({1: 1, -1: -1})


def fiber_factor(name):
    """exp(T) - exp(-T) for the class T named name, dense."""
    return substitute_exp(FIBER_POLY, {name: 1})


# ------------------------------------------------------------------ engine


def test_sw_k3_is_one():
    assert sw_series(block("K3")) == GroupRingElt.one()


def test_sw_chain_of_two_squared_factor():
    expected = exp_of(**{"T[1,3]": 2}) - 2 + exp_of(**{"T[1,3]": -2})
    assert sw_series(fiber_sum_chain(2)) == expected


def test_sw_trefoil_surgery_on_k3():
    c = knot_surgery(block("K3"), "T2", TREFOIL)
    expected = exp_of(T2=2) - 1 + exp_of(T2=-2)
    assert sw_series(c) == expected
    # The same factor, independently from the Seifert-matrix oracle.
    oracle = substitute_exp(alexander_oracle(TREFOIL), {"T2": 2})
    assert sw_series(c) == oracle


def test_sw_chain_product_formula():
    for n in range(1, 9):
        expected = GroupRingElt.one()
        for alpha in range(1, n):
            factor = fiber_factor(f"T[{alpha},3]")
            expected = expected * factor * factor
        assert sw_series(fiber_sum_chain(n)) == expected


def test_unknot_surgery_is_neutral():
    c = fiber_sum_chain(2)
    assert sw_series(knot_surgery(c, "T[1,2]", UNKNOT)) == sw_series(c)


def test_surgery_order_does_not_matter():
    base = fiber_sum_chain(2)
    ab = knot_surgery(knot_surgery(base, "T[1,2]", TREFOIL), "T[2,2]", FIGURE_EIGHT)
    ba = knot_surgery(knot_surgery(base, "T[2,2]", FIGURE_EIGHT), "T[1,2]", TREFOIL)
    assert sw_series(ab) == sw_series(ba)


def test_repeated_surgery_multiplies():
    once = knot_surgery(block("K3"), "T2", TREFOIL)
    twice = knot_surgery(once, "T2", TREFOIL)
    factor = substitute_exp(alexander_oracle(TREFOIL), {"T2": 2})
    assert sw_series(twice) == factor * factor


def test_stabilized_vanishes():
    stabilized = connected_sum(fiber_sum_chain(2), block("S2twS2"))
    assert sw_series(stabilized) == GroupRingElt.zero()
    also = connected_sum(block("K3"), block("S2xS2"))
    assert sw_series(also) == GroupRingElt.zero()


def test_blowup_sum_unsupported():
    # The refusal names the summand with b2+ = 0.
    for left, right, side in [
        ("K3", "CP2bar", "right summand"),
        ("CP2bar", "K3", "left summand"),
        ("CP2bar", "CP2bar", "both summands"),
    ]:
        with pytest.raises(UnsupportedSum, match=f"b2\\+ = 0 on the {side} \\(a blow-up"):
            sw_series(connected_sum(block(left), block(right)))


def test_log_transform_unsupported():
    with pytest.raises(UnsupportedNode, match="null log transform at torus 'T1'$"):
        sw_series(null_log_transform(block("K3"), "T1"))


# ------------------------------------------------------- first-power variant


def test_first_power_formula_trivial():
    assert sw_first_power_formula(1, [UNKNOT], UNKNOT, UNKNOT) == GroupRingElt.one()


def test_first_power_formula_chain_of_two():
    expected = exp_of(**{"T[1,3]": 1}) - exp_of(**{"T[1,3]": -1})
    assert sw_first_power_formula(2, [UNKNOT, UNKNOT], UNKNOT, UNKNOT) == expected


def test_first_power_formula_with_knot():
    got = sw_first_power_formula(2, [TREFOIL, UNKNOT], UNKNOT, UNKNOT)
    expected = fiber_factor("T[1,3]") * (
        exp_of(**{"T[1,2]": 2}) - 1 + exp_of(**{"T[1,2]": -2})
    )
    assert got == expected


def test_engine_vs_first_power_exact_ratio():
    for n in range(2, 5):
        unknots = [UNKNOT] * n
        engine = sw_series(surgered_chain(n, unknots, UNKNOT, UNKNOT))
        printed = sw_first_power_formula(n, unknots, UNKNOT, UNKNOT)
        assert isinstance(printed, FactoredSeries)
        ratio = FactoredSeries.one()
        dense_ratio = GroupRingElt.one()
        for alpha in range(1, n):
            ratio = ratio.times(f"T[{alpha},3]", FIBER_POLY)
            dense_ratio = dense_ratio * fiber_factor(f"T[{alpha},3]")
        assert engine == printed * ratio
        assert engine == printed.expand() * dense_ratio


# ----------------------------------------------------------------- symmetry


def test_conjugation_sign_values():
    assert conjugation_sign(K3_NUMBERS) == 1  # (24 - 16) / 4 = 2
    assert conjugation_sign(char_numbers(block("S2xS2"))) == -1  # 4 / 4 = 1


def test_conjugation_sign_bad_exponent():
    with pytest.raises(BadSignExponent):
        conjugation_sign(char_numbers(block("CP2bar")))  # chi + sigma = 2


def test_symmetry_check():
    assert check_conjugation_symmetry(GroupRingElt.one(), K3_NUMBERS)
    assert not check_conjugation_symmetry(exp_of(T=1), K3_NUMBERS)
    sym = exp_of(T=2) - 1 + exp_of(T=-2)
    assert check_conjugation_symmetry(sym, K3_NUMBERS)


def test_every_engine_output_is_symmetric():
    members = [
        block("K3"),
        fiber_sum_chain(3),
        surgered_chain(2, [TREFOIL, FIGURE_EIGHT], UNKNOT, TREFOIL),
    ]
    for c in members:
        assert check_conjugation_symmetry(sw_series(c), char_numbers(c))


# ------------------------------------------------------------------ reports


def test_report_constant_series():
    report = basic_classes(GroupRingElt.one(), K3_NUMBERS)
    assert (report.a0, report.count, report.rank) == (1, 0, 0)
    assert report.coeff_multiset == ()


def test_report_single_pair():
    series = exp_of(T=2) - 1 + exp_of(T=-2)
    report = basic_classes(series, K3_NUMBERS)
    assert report.a0 == -1
    assert report.count == 2 and report.rank == 1
    assert report.to_json()["pairs"] == [{"class": [2], "coeff": 1}]


def test_report_rank_three_chain():
    y = surgered_chain(2, [TREFOIL, TREFOIL], UNKNOT, UNKNOT)
    report = sw_report(y)
    assert report.rank == 3
    assert set(report.series.lattice) == {"T[1,2]", "T[1,3]", "T[2,2]"}


def test_report_rank_bounds():
    for c in (
        fiber_sum_chain(3),
        surgered_chain(2, [TREFOIL, FIGURE_EIGHT], TREFOIL, UNKNOT),
    ):
        report = sw_report(c)
        assert report.rank <= report.count // 2
        assert report.rank <= len(report.series.lattice)


def test_report_rejects_asymmetric():
    with pytest.raises(AsymmetricSeries):
        basic_classes(exp_of(T=1), K3_NUMBERS)


def test_report_json_schema():
    y = surgered_chain(1, [TREFOIL], UNKNOT, UNKNOT)
    data = sw_report(y).to_json()
    assert set(data) == {"a0", "pairs", "count", "rank", "coeffs", "lattice", "series"}
    assert data["pairs"] == [{"class": [2], "coeff": 1}]
    assert data["series"] == "exp(2*T[1,2]) - 1 + exp(-2*T[1,2])"
    assert data["lattice"] == ["T[1,2]"]


# ------------------------------------------------------ vanishing and refused


def test_vanishing_sum_reports_zero():
    for kind in ("S2twS2", "S2xS2"):
        c = connected_sum(block("K3"), block(kind))  # chi + sigma = 10
        with pytest.raises(BadSignExponent):
            conjugation_sign(char_numbers(c))
        report = sw_report(c)
        assert report.series.is_zero() and str(report.series) == "0"
        assert (report.a0, report.count, report.rank, report.coeff_multiset) == (0, 0, 0, ())
        assert report.to_json() == {
            "a0": 0, "pairs": [], "count": 0, "rank": 0, "coeffs": [],
            "lattice": [], "series": "0",
        }


def test_zero_series_needs_no_sign():
    cn = char_numbers(connected_sum(block("K3"), block("S2twS2")))
    assert check_conjugation_symmetry(GroupRingElt.zero(), cn)
    assert check_conjugation_symmetry(FactoredSeries.zero(), cn)
    assert basic_classes(GroupRingElt.zero(), cn).count == 0


@pytest.mark.parametrize("kind", ["CP2", "CP2bar", "S2xS2", "S2twS2"])
def test_rational_block_has_no_sw_value(kind):
    with pytest.raises(UnsupportedNode):
        sw_series(block(kind))
    with pytest.raises(UnsupportedNode):
        sw_report(block(kind))


def test_rational_fingerprint_is_not_k3s():
    with pytest.raises(UnsupportedNode):
        fingerprint(block("S2xS2"))
    assert fingerprint(block("K3")).a0 == 1


# ------------------------------------------------------------ factored form


def test_sw_factors_one_per_class():
    y = surgered_chain(2, [TREFOIL, UNKNOT], UNKNOT, FIGURE_EIGHT)
    factors = sw_factors(y).factors
    assert factors["T[1,3]"] == LaurentPoly({2: 1, 0: -2, -2: 1})
    assert factors["T[1,2]"] == LaurentPoly({2: 1, 0: -1, -2: 1})
    assert factors["T[2,3]"] == LaurentPoly({2: -1, 0: 3, -2: -1})
    # The unknot's factor at T[2,2] is the constant 1, folded into scalar.
    assert "T[2,2]" not in factors and sw_factors(y).scalar == 1
    assert sw_factors(y).lattice == ("T[1,2]", "T[1,3]", "T[2,3]")


def test_repeated_surgery_factors_multiply():
    twice = knot_surgery(knot_surgery(block("K3"), "T2", TREFOIL), "T2", TREFOIL)
    trefoil = LaurentPoly({2: 1, 0: -1, -2: 1})
    assert sw_factors(twice).factors == {"T2": trefoil * trefoil}


def test_stabilized_factors_are_zero():
    assert sw_factors(connected_sum(fiber_sum_chain(2), block("S2twS2"))).is_zero()


def hand_built_chain(n):
    """n K3 copies glued T[a,3] to T[a+1,1] by FiberSum nodes, a knot from
    CHAIN_KNOTS surgered into every T[a,2], a second into every third
    T[a,2], and one into every fifth T[a,3] before it is glued; with the
    factor each class gets from the gluing rules, from table values."""
    fiber = LaurentPoly({2: 1, 0: -2, -2: 1})
    factors = {}

    def surgered(c, torus, braid):
        delta = TABLE.get(braid, LaurentPoly({0: 1}))
        poly = LaurentPoly({2 * e: c for e, c in delta.terms.items()})
        factors[torus] = factors[torus] * poly if torus in factors else poly
        return KnotSurgery(c, torus, braid)

    chain = None
    for a in range(1, n + 1):
        copy = Block("K3", (f"T[{a},1]", f"T[{a},2]", f"T[{a},3]"))
        copy = surgered(copy, f"T[{a},2]", CHAIN_KNOTS[a % len(CHAIN_KNOTS)])
        if a % 3 == 0:
            copy = surgered(copy, f"T[{a},2]", CHAIN_KNOTS[(a // 3) % len(CHAIN_KNOTS)])
        if chain is not None:
            factors[f"T[{a - 1},3]"] = factors.get(f"T[{a - 1},3]", 1) * fiber
            copy = FiberSum(chain, f"T[{a - 1},3]", copy, f"T[{a},1]")
        if a % 5 == 0 and a < n:
            copy = surgered(copy, f"T[{a},3]", FIGURE_EIGHT)
        chain = copy
    return chain, factors


def test_sw_factors_of_deep_chain_in_one_construction(monkeypatch):
    # Factors on one class multiply, whichever side of the fiber sum they
    # come from; one FactoredSeries is built per call, at every depth.
    built = []
    init = FactoredSeries.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    small, small_factors = hand_built_chain(10)
    chain, factors = hand_built_chain(2000)
    expected = FactoredSeries(factors)
    assert len(expected.factors) > 2000
    product = FactoredSeries.one()
    for name, poly in small_factors.items():
        product = product.times(name, poly)
    monkeypatch.setattr(FactoredSeries, "__init__", counted)
    assert sw_factors(small) == product
    per_small_call = len(built)
    built.clear()
    assert sw_factors(chain) == expected
    assert len(built) == per_small_call == 1


def test_fingerprint_of_large_chain_needs_no_expansion(monkeypatch):
    c = surgered_chain(6, [TREFOIL] * 6, TREFOIL, TREFOIL)  # 3^13 terms

    def refuse(*args, **kwargs):
        raise AssertionError("a dense series was built")

    monkeypatch.setattr(GroupRingElt, "__init__", refuse)
    start = time.perf_counter()
    fp = fingerprint(c)
    elapsed = time.perf_counter() - start
    assert (fp.count, fp.rank, fp.a0) == (3**13 - 1, 13, -32)
    # |coeff| = 2^5 exactly when all five fiber factors give their constant
    # term -2; the 8 trefoil factors give any of their 3 terms, |coeff| 1.
    assert len(fp.coeff_multiset) == (3**13 - 1) // 2
    assert fp.coeff_multiset.count(32) == (3**8 - 1) // 2
    assert elapsed < 1.0


# ------------------------------------------------ cross-check with the oracle


CROSS_CHECKED = {
    **sw_trees(),
    **{f"seeded chain {i}": c for i, c in enumerate(seeded_chains(20261017))},
}


@pytest.mark.parametrize("name", list(CROSS_CHECKED))
def test_factored_matches_dense_oracle(name):
    c = CROSS_CHECKED[name]
    dense = oracle_series(c)
    assert sw_series(c) == dense
    assert sw_factors(c) == dense
    assert str(sw_factors(c)) == str(dense)
    cn = char_numbers(c)
    report = sw_report(c)
    assert report == basic_classes(dense, cn)
    assert report.to_json() == dense_report_json(dense, cn)
    assert check_conjugation_symmetry(sw_factors(c), cn)


@pytest.mark.parametrize("name", sorted(refused_sw_trees()))
def test_refusals_match_dense_oracle(name):
    c, error = refused_sw_trees()[name]
    with pytest.raises(error):
        sw_factors(c)
    with pytest.raises(error):
        dense_sw_series(c)


knots = st.sampled_from(CHAIN_KNOTS + tuple(named_corpus()[:3]))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.lists(knots, min_size=n + 2, max_size=n + 2)),
       st.lists(st.tuples(st.sampled_from(["T[1,1]", "T[1,2]"]), knots), max_size=2))
def test_property_factored_equals_dense(chain_knots, extra):
    n = len(chain_knots) - 2
    c = surgered_chain(n, chain_knots[:n], chain_knots[n], chain_knots[n + 1])
    for torus, braid in extra:
        c = knot_surgery(c, torus, braid)
    dense = dense_sw_series(c)
    assert sw_series(c) == dense
    assert sw_report(c) == basic_classes(dense, char_numbers(c))


def _signed_poly(draw_half, center, sign):
    """sign = 1: symmetric; -1: antisymmetric (constant term dropped)."""
    terms = {e: c for e, c in draw_half.items()}
    terms.update({-e: sign * c for e, c in draw_half.items()})
    if sign == 1:
        terms[0] = center
    return LaurentPoly(terms)


half_polys = st.dictionaries(st.integers(1, 3), st.integers(-3, 3).filter(bool), max_size=2)


# Class names: plain, and ones that JSON must escape (a quote, a
# backslash, non-ASCII, DEL, NUL).  Drawn per factor, so one series may
# mix names the writer quotes itself with names it must encode.
class_names = st.sampled_from(["C", "C", "C\"", "C\\", "C\u00e9", "C\x7f", "C\x00"])


# An empty half gives a constant factor (center, which may be 0 or
# negative) or, antisymmetric, the zero factor.
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(half_polys, st.integers(-2, 2), st.sampled_from([1, -1]),
                          class_names),
                min_size=0, max_size=4))
def test_property_factored_report_equals_dense_reader(specs):
    factors = {
        f"{name}{i}": _signed_poly(half, center, sign)
        for i, (half, center, sign, name) in enumerate(specs)
    }
    # Given in reverse class order, so that sorting is observable.
    series = FactoredSeries(dict(reversed(factors.items())))
    # The canonical form: constant factors are folded into scalar, the
    # factors kept are non-constant and in sorted order, and the product
    # is that of the input factors, constant ones included.
    assert all(f.terms.keys() - {0} for f in series.factors.values())
    assert series.lattice == tuple(series.factors) == tuple(sorted(series.factors))
    product = GroupRingElt.one()
    for cls, f in factors.items():
        product = product * substitute_exp(f, {cls: 1})
    assert series.expand() == product
    sign = 1
    for _, _, s, _ in specs:
        sign *= s
    cn = K3_NUMBERS if sign == 1 else char_numbers(block("S2xS2"))
    assert check_conjugation_symmetry(series, cn)
    report = factored_report(series, cn)
    dense = basic_classes(series.expand(), cn)
    assert report == dense
    assert report.to_json() == dense.to_json()
    expected = dense_report_json(series.expand(), cn)
    assert report.to_json() == expected
    assert str(series) == str(series.expand()) == dense_text(series.expand())
    for as_json in (False, True):
        assert "".join(sw_pieces(report, as_json)) == report_stdout(expected, as_json)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.dictionaries(st.integers(-2, 2), st.integers(-3, 3).filter(bool),
                                min_size=1, max_size=4), max_size=3),
       st.sampled_from([1, -1]))
def test_property_factored_symmetry_check(polys, eps):
    series = FactoredSeries({f"C{i}": LaurentPoly(p) for i, p in enumerate(polys)})
    cn = K3_NUMBERS if eps == 1 else char_numbers(block("S2xS2"))
    factored = check_conjugation_symmetry(series, cn)
    assert factored == check_conjugation_symmetry(series.expand(), cn)


def test_factored_symmetry_check_never_expands(monkeypatch):
    def refuse(*args):
        raise AssertionError("the series was expanded")

    monkeypatch.setattr(FactoredSeries, "expand", refuse)
    monkeypatch.setattr(FactoredSeries, "sorted_terms", refuse)
    odd = LaurentPoly({0: 1, 1: 1, -1: -1})
    cn = char_numbers(block("S2xS2"))
    assert check_conjugation_symmetry(FactoredSeries({"C0": odd, "C1": LaurentPoly({0: 2})}), cn)
    assert not check_conjugation_symmetry(FactoredSeries({"C0": odd}), K3_NUMBERS)
    assert check_conjugation_symmetry(FactoredSeries({"C0": LaurentPoly({0: 5})}), cn)
    assert check_conjugation_symmetry(FactoredSeries.one(), K3_NUMBERS)


def test_long_chain_report_compares_and_hashes_without_expanding(monkeypatch):
    a, b = sw_report(fiber_sum_chain(50)), sw_report(fiber_sum_chain(50))  # 3^49 terms
    other = sw_report(surgered_chain(2, [TREFOIL, TREFOIL], UNKNOT, UNKNOT))

    def refuse(*args):
        raise AssertionError("the series was expanded")

    monkeypatch.setattr(FactoredSeries, "expand", refuse)
    monkeypatch.setattr(FactoredSeries, "sorted_terms", refuse)
    assert a == b and hash(a) == hash(b)
    assert a.series == b.series and hash(a.series) == hash(b.series)
    assert a != other and a.series != other.series
    assert len({a, b, other}) == 2


def test_report_runs_match_multiset():
    y = surgered_chain(2, [TREFOIL, FIGURE_EIGHT], UNKNOT, UNKNOT)
    report = sw_report(y)
    # The fiber factor t^2 - 2 + t^-2, a trefoil's t^2 - 1 + t^-2 and a
    # figure-eight's -t^2 + 3 - t^-2: 27 terms, a0 = 6.  |coefficient| is
    # a product of one of 1, 2, 1 and one of 1, 3, 1, for each of three
    # trefoil terms; the origin's 6 is taken out and the rest are halved.
    assert (report.count, report.a0) == (26, 6)
    assert report.coeff_runs == ((1, 6), (2, 3), (3, 3), (6, 1))
    assert report.coeff_multiset == tuple(
        v for v, pairs in report.coeff_runs for _ in range(pairs)
    )
    assert report == basic_classes(sw_series(y), char_numbers(y))


def test_factored_symmetry_one_variable_constant_term():
    # 1 + t - t^-1 passes for sign -1 (the constant term is skipped), but
    # no product of two such factors does; both checks agree on both.
    odd = LaurentPoly({0: 1, 1: 1, -1: -1})
    cn = char_numbers(block("S2xS2"))
    one = FactoredSeries({"C0": odd, "C1": LaurentPoly({0: 2})})
    two = FactoredSeries({"C0": odd, "C1": odd})
    assert check_conjugation_symmetry(one, cn)
    assert check_conjugation_symmetry(one.expand(), cn)
    assert not check_conjugation_symmetry(two, cn)
    assert not check_conjugation_symmetry(two.expand(), cn)
