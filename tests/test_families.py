"""Family generation, comparison verdicts, stabilization normal forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import FIGURE_EIGHT, TREFOIL, UNKNOT, rational_chain
from fibersum import (
    DISTINCT,
    INCONCLUSIVE,
    Fingerprint,
    GroupRingElt,
    available_tori,
    basic_classes,
    block,
    char_numbers,
    connected_sum,
    distinguish,
    family_generate,
    family_report,
    fiber_sum,
    fiber_sum_chain,
    fingerprint,
    homotopy_equivalent,
    knot_surgery,
    null_log_transform,
    one_stabilization_equivalent,
    stable_normal_form,
    surgered_chain,
)
from fibersum.errors import NotAKnot, UnknownTorus, UnsupportedNode
from fibersum.manifolds import BLOCK_NAMES
from fibersum import BraidWord


# ------------------------------------------------------------------ families


def test_family_counts():
    assert len(family_generate(1, {"T[1,2]": [UNKNOT, TREFOIL]})) == 2
    slots = {"T[1,2]": [UNKNOT, TREFOIL, FIGURE_EIGHT],
             "T[2,2]": [UNKNOT, TREFOIL, FIGURE_EIGHT]}
    assert len(family_generate(2, slots)) == 9
    assert family_generate(2, {}) == [fiber_sum_chain(2)]


def test_family_unknown_torus():
    with pytest.raises(UnknownTorus):
        family_generate(1, {"T[9,9]": [UNKNOT]})
    with pytest.raises(UnknownTorus):
        family_generate(2, {"T[1,3]": [UNKNOT]})  # consumed by the chain


def test_family_rejects_links():
    with pytest.raises(NotAKnot):
        family_generate(1, {"T[1,2]": [BraidWord(2, (1, 1))]})


# ----------------------------------------------------------------- homotopy


def test_family_members_homotopy_equivalent():
    members = family_generate(2, {"T[1,2]": [UNKNOT, TREFOIL, FIGURE_EIGHT]})
    for i in range(len(members)):
        for j in range(len(members)):
            assert homotopy_equivalent(members[i], members[j])


def test_different_chains_not_homotopy_equivalent():
    assert not homotopy_equivalent(fiber_sum_chain(2), fiber_sum_chain(3))


def test_stabilized_chain_vs_rational_chain():
    stabilized = connected_sum(fiber_sum_chain(1), block("S2twS2"))
    assert homotopy_equivalent(stabilized, rational_chain(4, 20))


# ----------------------------------------------------------------- distinguish


def test_distinguish_trefoil_vs_unknot():
    with_knot = surgered_chain(1, [TREFOIL], UNKNOT, UNKNOT)
    without = surgered_chain(1, [UNKNOT], UNKNOT, UNKNOT)
    assert distinguish(with_knot, without) == DISTINCT
    assert fingerprint(with_knot).count == 2
    assert fingerprint(without).count == 0


def test_distinguish_self_inconclusive():
    c = surgered_chain(1, [TREFOIL], UNKNOT, UNKNOT)
    assert distinguish(c, c) == INCONCLUSIVE


def test_distinguish_is_symmetric():
    a = surgered_chain(1, [TREFOIL], UNKNOT, UNKNOT)
    b = surgered_chain(1, [FIGURE_EIGHT], UNKNOT, UNKNOT)
    assert distinguish(a, b) == distinguish(b, a) == DISTINCT
    # Same coefficient multisets, different a0 (-1 vs 3).
    assert fingerprint(a).coeff_multiset == fingerprint(b).coeff_multiset == (1,)
    assert fingerprint(a).a0 == -1
    assert fingerprint(b).a0 == 3


def test_fingerprint_invariant_under_relabeling():
    series = sw_series_of_reference()
    relabeled = GroupRingElt(
        tuple(f"S[{i}]" for i in range(len(series.lattice))), dict(series.terms)
    )
    cn = char_numbers(fiber_sum_chain(2))
    a = basic_classes(series, cn)
    b = basic_classes(relabeled, cn)
    fa = Fingerprint(a.count, a.rank, a.coeff_multiset, a.a0)
    fb = Fingerprint(b.count, b.rank, b.coeff_multiset, b.a0)
    assert fa == fb


def sw_series_of_reference():
    from fibersum import sw_series

    return sw_series(surgered_chain(2, [TREFOIL, UNKNOT], UNKNOT, UNKNOT))


# ----------------------------------------------------------------- normal form


def test_normal_form_of_surgered_chain():
    y = surgered_chain(1, [TREFOIL], UNKNOT, UNKNOT)
    assert stable_normal_form(y) == (4, 20)


def test_normal_form_of_chain_of_two():
    assert stable_normal_form(fiber_sum_chain(2)) == (8, 40)


def test_normal_form_erases_log_transforms():
    c = fiber_sum_chain(2)
    transformed = null_log_transform(c, "T[1,2]")
    assert stable_normal_form(transformed) == stable_normal_form(c)


def test_normal_form_idempotent():
    for c in (fiber_sum_chain(1), surgered_chain(1, [TREFOIL], UNKNOT, UNKNOT)):
        once = stable_normal_form(c)
        assert stable_normal_form(rational_chain(*once)) == once


def test_normal_form_of_stabilized_chain():
    stabilized = connected_sum(fiber_sum_chain(1), block("S2twS2"))
    assert stable_normal_form(stabilized) == (4, 20)


def test_normal_form_splits_twisted_blocks():
    assert stable_normal_form(block("S2twS2")) == (1, 1)


def test_normal_form_rejects_unknown_grammar():
    with pytest.raises(UnsupportedNode):
        stable_normal_form(connected_sum(fiber_sum_chain(1), fiber_sum_chain(1)))
    with pytest.raises(UnsupportedNode):
        stable_normal_form(connected_sum(block("K3"), block("CP2")))
    with pytest.raises(UnsupportedNode):
        stable_normal_form(block("S2xS2"))


# ------------------------------------------------- normal form properties

KNOTS = (UNKNOT, TREFOIL, FIGURE_EIGHT)


def _decorated(draw, c):
    """c under up to two knot surgeries or null log transforms on
    available tori; the normal form must see through them."""
    for _ in range(draw(st.integers(0, 2))):
        tori = available_tori(c)
        if not tori:
            break
        torus = draw(st.sampled_from(tori))
        if draw(st.booleans()):
            c = knot_surgery(c, torus, draw(st.sampled_from(KNOTS)))
        else:
            c = null_log_transform(c, torus)
    return c


def _glued(draw, left, right):
    """The fiber sum of left and right along random available tori."""
    left_torus = draw(st.sampled_from(available_tori(left)))
    return fiber_sum(left, left_torus, right, draw(st.sampled_from(available_tori(right))))


def _k3_tree(draw, n):
    """A fiber-sum tree of n K3 blocks of random shape, glued along random
    available tori, with surgeries and log transforms anywhere."""
    parts = [_decorated(draw, block("K3", copy=i)) for i in range(1, n + 1)]
    while len(parts) > 1:
        i = draw(st.integers(0, len(parts) - 2))
        parts[i : i + 2] = [_decorated(draw, _glued(draw, *parts[i : i + 2]))]
    return parts[0]


def _summed(draw, parts):
    """The connected sum of parts, shuffled and nested at random."""
    parts = list(draw(st.permutations(parts)))
    while len(parts) > 1:
        i = draw(st.integers(0, len(parts) - 2))
        parts[i : i + 2] = [_decorated(draw, connected_sum(*parts[i : i + 2]))]
    return parts[0]


@st.composite
def stabilized_k3_trees(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 4))
    tree = _summed(draw, [_k3_tree(draw, n)] + [block("S2twS2")] * m)
    return tree, (4 * n + max(m - 1, 0), 20 * n + max(m - 1, 0))


@st.composite
def rational_sums(draw):
    kinds = draw(st.lists(st.sampled_from(["CP2", "CP2bar", "S2twS2"]), min_size=1, max_size=8))
    twisted = kinds.count("S2twS2")
    tree = _summed(draw, [block(kind) for kind in kinds])
    return tree, (kinds.count("CP2") + twisted, kinds.count("CP2bar") + twisted)


@settings(max_examples=60, deadline=None)
@given(st.one_of(stabilized_k3_trees(), rational_sums()))
def test_property_normal_form_counts(case):
    tree, expected = case
    assert stable_normal_form(tree) == expected
    assert stable_normal_form(rational_chain(*expected)) == expected


@st.composite
def ungrammatical_trees(draw):
    twisted = [block("S2twS2")] * draw(st.integers(0, 2))
    chain = _k3_tree(draw, draw(st.integers(1, 3)))
    case = draw(st.sampled_from(["two chains", "chain and block", "S2xS2", "sum in fiber sum"]))
    if case == "two chains":
        return _summed(draw, [chain, _k3_tree(draw, draw(st.integers(1, 3)))] + twisted)
    if case == "chain and block":
        kind = draw(st.sampled_from(["CP2", "CP2bar", "S2xS2"]))
        return _summed(draw, [chain, block(kind)] + twisted)
    if case == "S2xS2":
        kinds = draw(st.lists(st.sampled_from(["CP2", "CP2bar", "S2twS2"]), max_size=3))
        return _summed(draw, [block("S2xS2")] + [block(kind) for kind in kinds])
    summed = _summed(draw, [chain, block(draw(st.sampled_from(BLOCK_NAMES)))])
    other = _k3_tree(draw, draw(st.integers(1, 2)))
    return _decorated(draw, _glued(draw, *draw(st.sampled_from([(summed, other), (other, summed)]))))


@settings(max_examples=60, deadline=None)
@given(ungrammatical_trees())
def test_property_normal_form_rejects_outside_grammar(tree):
    with pytest.raises(UnsupportedNode, match="outside the stabilization grammar"):
        stable_normal_form(tree)


def test_family_pairwise_matrix_two_slots():
    # Two independent slots at N = 3: every pair is homotopy equivalent and
    # one-stabilization equivalent, and pairs whose knot tuples differ in
    # Alexander polynomials are distinct.
    slots = {"T[1,2]": [UNKNOT, TREFOIL], "T[2,2]": [UNKNOT, FIGURE_EIGHT]}
    members = family_generate(3, slots)
    assert len(members) == 4
    for i in range(4):
        for j in range(i + 1, 4):
            assert homotopy_equivalent(members[i], members[j])
            assert one_stabilization_equivalent(members[i], members[j])
            assert distinguish(members[i], members[j]) == DISTINCT


def test_family_n4_members_equivalent():
    members = family_generate(4, {"T[2,2]": [UNKNOT, TREFOIL]})
    assert homotopy_equivalent(*members)
    assert one_stabilization_equivalent(*members)
    assert distinguish(*members) == DISTINCT


# ------------------------------------------------------------- one-stab verdict


def test_family_members_one_stab_equivalent():
    members = family_generate(2, {"T[1,2]": [UNKNOT, TREFOIL, FIGURE_EIGHT]})
    for i in range(len(members)):
        for j in range(len(members)):
            assert one_stabilization_equivalent(members[i], members[j])


def test_different_chains_not_one_stab_equivalent():
    assert not one_stabilization_equivalent(fiber_sum_chain(2), fiber_sum_chain(3))


def test_log_transform_one_stab_equivalent():
    c = fiber_sum_chain(2)
    assert one_stabilization_equivalent(c, null_log_transform(c, "T[2,2]"))


def test_surgery_then_transform_one_stab_equivalent():
    y = surgered_chain(1, [TREFOIL], UNKNOT, UNKNOT)
    assert one_stabilization_equivalent(y, null_log_transform(y, "T[1,2]"))


# ------------------------------------------------------------------- reports


def test_family_report_structure():
    members = family_generate(1, {"T[1,2]": [UNKNOT, TREFOIL]})
    report = family_report(members)
    assert {entry["member_id"] for entry in report["members"]} == {0, 1}
    entry = report["members"][1]
    assert entry["knots"] == {"T[1,2]": "2; 1,1,1"}
    assert set(entry["fingerprint"]) == {"count", "rank", "coeffs", "a0"}
    assert entry["charnumbers"]["chi"] == 24
    (pair,) = report["pairwise"]
    assert pair == {
        "i": 0,
        "j": 1,
        "homotopy": True,
        "distinct": True,
        "one_stab": True,
    }
