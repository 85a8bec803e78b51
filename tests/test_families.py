"""Family generation, comparison verdicts, stabilization normal forms."""

import itertools
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    FIGURE_EIGHT,
    TREFOIL,
    UNKNOT,
    named_corpus,
    random_knot_braids,
    rational_chain,
)
from dense_oracle import dense_report_json
from fibersum import swseries
from fibersum import (
    DISTINCT,
    INCONCLUSIVE,
    Fingerprint,
    GroupRingElt,
    available_tori,
    block,
    char_numbers,
    connected_sum,
    distinguish,
    factored_report,
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
    sw_factors,
)
from fibersum.errors import NotAKnot, TorusUnavailable, UnsupportedNode
from fibersum.manifolds import (
    BLOCK_NAMES,
    Block,
    ConnectedSum,
    FiberSum,
    KnotSurgery,
    NullLogTransform,
)
from fibersum import BraidWord


# ------------------------------------------------------------------ families


def test_family_counts():
    assert len(family_generate(1, {"T[1,2]": [UNKNOT, TREFOIL]})) == 2
    slots = {"T[1,2]": [UNKNOT, TREFOIL, FIGURE_EIGHT],
             "T[2,2]": [UNKNOT, TREFOIL, FIGURE_EIGHT]}
    assert len(family_generate(2, slots)) == 9
    assert family_generate(2, {}) == [fiber_sum_chain(2)]


def seeded_slots(seed):
    """A chain length and a slot file drawn from the knot corpus by a
    seeded generator: one to three slots of one to three braids."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    tori = available_tori(fiber_sum_chain(n))
    pool = named_corpus() + random_knot_braids(8, seed)
    names = rng.sample(tori, rng.randint(1, min(3, len(tori))))
    return n, {name: rng.sample(pool, rng.randint(1, 3)) for name in names}


@pytest.mark.parametrize("seed", [0, 7, 20261017])
def test_family_members_equal_knot_surgery_builds(seed):
    # family_generate builds the nodes directly; knot_surgery checks each.
    n, slots = seeded_slots(seed)
    names = sorted(slots)
    expected = []
    for choice in itertools.product(*(slots[name] for name in names)):
        member = fiber_sum_chain(n)
        for name, braid in zip(names, choice):
            member = knot_surgery(member, name, braid)
        expected.append(member)
    assert family_generate(n, slots) == expected


def test_family_unknown_torus():
    with pytest.raises(TorusUnavailable):
        family_generate(1, {"T[9,9]": [UNKNOT]})
    with pytest.raises(TorusUnavailable):
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


def test_fingerprint_runs_of_long_chain():
    # 18 factors t^2 - 2 + t^-2: a term taking k constant terms has
    # |coefficient| 2^k, and there are C(18, k) 2^(18-k) such terms, in
    # pairs; the origin (k = 18, the a0 = 2^18) is left out.
    fp = fingerprint(fiber_sum_chain(19))
    assert (fp.count, fp.rank, fp.a0) == (3**18 - 1, 18, 2**18)
    assert fp.coeff_runs == tuple((2**k, comb(18, k) * 2 ** (17 - k)) for k in range(18))


def test_fingerprint_invariant_under_relabeling():
    reference = surgered_chain(2, [TREFOIL, UNKNOT], UNKNOT, UNKNOT)
    series = sw_factors(reference).expand()
    relabeled = GroupRingElt(
        tuple(f"S[{i}]" for i in range(len(series.lattice))), dict(series.terms)
    )
    cn = char_numbers(fiber_sum_chain(2))
    fa = dense_fingerprint(dense_report_json(series, cn))
    fb = dense_fingerprint(dense_report_json(relabeled, cn))
    assert fa == fb == fingerprint(reference)


def dense_fingerprint(report):
    runs = tuple(sorted(Counter(report["coeffs"]).items()))
    return Fingerprint(report["count"], report["rank"], runs, report["a0"])


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
    # The normal form reads only b2+-: T and the rational sum with T's
    # b2+- read the same one.
    for c in (fiber_sum_chain(1), surgered_chain(1, [TREFOIL], UNKNOT, UNKNOT)):
        cn = char_numbers(c)
        assert stable_normal_form(rational_chain(cn.b2_plus, cn.b2_minus)) == stable_normal_form(c)


def test_normal_form_of_stabilized_chain():
    # The tree's own S2twS2 is not absorbed: the normal form adds one more.
    stabilized = connected_sum(fiber_sum_chain(1), block("S2twS2"))
    assert stable_normal_form(stabilized) == (5, 21)


def test_normal_form_splits_twisted_blocks():
    assert stable_normal_form(block("S2twS2")) == (2, 2)


def test_normal_form_rejects_unknown_grammar():
    # Sums of chains and rational blocks are admitted and read as
    # T # S2twS2.  Only what sits in a fiber sum is refused, and the
    # refusal says what broke the grammar, not the whole tree.
    summed = connected_sum(block("K3"), block("CP2"))
    admitted = [
        (connected_sum(fiber_sum_chain(1), fiber_sum_chain(1)), (7, 39)),
        (summed, (5, 20)),
        (connected_sum(summed, block("CP2bar")), (5, 21)),
        (block("S2xS2"), (2, 2)),
    ]
    for tree, counts in admitted:
        assert stable_normal_form(tree) == counts
    cases = [
        (fiber_sum(summed, "T1", block("K3"), "T1"), "a connected sum inside a fiber sum"),
        # Only a hand-built node can put a rational block in a fiber sum.
        (FiberSum(block("CP2"), "A", block("K3"), "T1"), "a CP2 block inside a fiber sum"),
    ]
    for tree, what in cases:
        with pytest.raises(UnsupportedNode) as info:
            stable_normal_form(tree)
        assert str(info.value) == f"outside the stabilization grammar: {what}"


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


RATIONAL = ("CP2", "CP2bar", "S2xS2", "S2twS2")
RATIONAL_B2 = {"CP2": (1, 0), "CP2bar": (0, 1), "S2xS2": (1, 1), "S2twS2": (1, 1)}


def _stabilized_counts(chain_sizes, kinds):
    """(b2+, b2-) of T # S2twS2 for T the sum of K3 chains of the given
    sizes and rational blocks of the given kinds."""
    cp2 = sum(4 * k - 1 for k in chain_sizes) + sum(RATIONAL_B2[kind][0] for kind in kinds)
    cp2bar = sum(20 * k - 1 for k in chain_sizes) + sum(RATIONAL_B2[kind][1] for kind in kinds)
    return cp2 + 1, cp2bar + 1


@st.composite
def chain_sums(draw):
    """1-3 K3 trees of 1-5 blocks beside up to four rational blocks of any
    kind, summed in random order and nesting."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    kinds = draw(st.lists(st.sampled_from(RATIONAL), max_size=4))
    tree = _summed(draw, [_k3_tree(draw, n) for n in sizes] + [block(kind) for kind in kinds])
    return tree, _stabilized_counts(sizes, kinds)


@st.composite
def rational_sums(draw):
    kinds = draw(st.lists(st.sampled_from(RATIONAL), min_size=1, max_size=8))
    return _summed(draw, [block(kind) for kind in kinds]), _stabilized_counts([], kinds)


@settings(max_examples=60, deadline=None)
@given(st.one_of(chain_sums(), rational_sums()))
def test_property_normal_form_counts(case):
    tree, expected = case
    assert stable_normal_form(tree) == expected
    # The rational sum with the tree's b2+- reads the same normal form.
    assert stable_normal_form(rational_chain(expected[0] - 1, expected[1] - 1)) == expected


def counted_normal_form(c):
    """The normal form by counting blocks, without char_numbers: a chain of
    k K3 blocks adds (4k - 1, 20k - 1), CP2 adds (1, 0), CP2bar (0, 1),
    S2xS2 and S2twS2 (1, 1) each, and the added S2twS2 one to each count."""
    counts = Counter()
    stack = [(c, False)]  # (node, inside a fiber sum)
    while stack:
        node, in_fiber = stack.pop()
        if isinstance(node, (KnotSurgery, NullLogTransform)):
            stack.append((node.child, in_fiber))
        elif isinstance(node, ConnectedSum):
            stack += [(node.left, False), (node.right, False)]
        else:
            if isinstance(node, FiberSum):
                stack += [(node.left, True), (node.right, True)]
            else:
                counts[node.kind] += 1
            if not in_fiber and (isinstance(node, FiberSum) or node.kind == "K3"):
                counts["chains"] += 1
    k, chains, cp2 = counts["K3"], counts["chains"], counts["CP2"]
    both = counts["S2xS2"] + counts["S2twS2"]
    return 4 * k - chains + cp2 + both + 1, 20 * k - chains + counts["CP2bar"] + both + 1


def _hand_decorated(draw, c):
    for _ in range(draw(st.integers(0, 2))):
        c = KnotSurgery(c, "A", TREFOIL) if draw(st.booleans()) else NullLogTransform(c, "A")
    return c


def _hand_nested(draw, parts, node):
    parts = list(parts)
    while len(parts) > 1:
        i = draw(st.integers(0, len(parts) - 2))
        parts[i : i + 2] = [_hand_decorated(draw, node(*parts[i : i + 2]))]
    return parts[0]


@st.composite
def hand_built_grammar_trees(draw):
    """Admitted trees from node constructors: 0-3 fiber-sum trees of 1-6 K3
    blocks beside rational blocks of any kind, one part at least, nested
    at random, with surgeries and log transforms on any node."""
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        k3s = [_hand_decorated(draw, Block("K3")) for _ in range(draw(st.integers(1, 6)))]
        parts.append(_hand_nested(draw, k3s, lambda a, b: FiberSum(a, "A", b, "B")))
    kinds = st.lists(st.sampled_from(RATIONAL), min_size=0 if parts else 1, max_size=6)
    parts += [Block(kind) for kind in draw(kinds)]
    return _hand_nested(draw, draw(st.permutations(parts)), ConnectedSum)


@settings(max_examples=150, deadline=None)
@given(hand_built_grammar_trees())
def test_property_normal_form_equals_block_count(tree):
    assert stable_normal_form(tree) == counted_normal_form(tree)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        chain_sums().map(lambda case: case[0]),
        rational_sums().map(lambda case: case[0]),
        hand_built_grammar_trees(),
    )
)
def test_property_normal_form_is_the_stabilized_type(tree):
    # The normal form of T is the b2+- of T # S2twS2, which is odd, so
    # the counts fix its type.
    stabilized = char_numbers(ConnectedSum(tree, Block("S2twS2")))
    assert stable_normal_form(tree) == (stabilized.b2_plus, stabilized.b2_minus)
    assert stabilized.parity == "odd"


@st.composite
def ungrammatical_trees(draw):
    """A connected sum, or (from node constructors) a rational block, in a
    fiber sum with a K3 tree on either side, under decorations."""
    other = _k3_tree(draw, draw(st.integers(1, 2)))
    if draw(st.booleans()):
        chain = _k3_tree(draw, draw(st.integers(1, 3)))
        unfit = _summed(draw, [chain, block(draw(st.sampled_from(BLOCK_NAMES)))])
        pair = draw(st.sampled_from([(unfit, other), (other, unfit)]))
        return _decorated(draw, _glued(draw, *pair))
    # Only a hand-built node can put a rational block in a fiber sum.
    unfit = _hand_decorated(draw, Block(draw(st.sampled_from(RATIONAL))))
    left, right = draw(st.sampled_from([(unfit, other), (other, unfit)]))
    return _hand_decorated(draw, FiberSum(left, "A", right, "B"))


@settings(max_examples=60, deadline=None)
@given(ungrammatical_trees())
def test_property_normal_form_rejects_outside_grammar(tree):
    with pytest.raises(UnsupportedNode, match="outside the stabilization grammar: a .* inside a fiber sum"):
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


def test_family_report_lists_every_surgery_on_a_torus():
    # Two surgeries on one torus multiply the series by the polynomial of
    # the sum of their knots; both braids are listed, innermost first.
    inner = knot_surgery(fiber_sum_chain(2), "T[1,2]", TREFOIL)
    member = knot_surgery(inner, "T[1,2]", FIGURE_EIGHT)
    entry = family_report([member, inner])["members"]
    assert entry[0]["knots"] == {"T[1,2]": "2; 1,1,1 # 3; 1,-2,1,-2"}
    assert entry[1]["knots"] == {"T[1,2]": "2; 1,1,1"}
    assert sw_factors(member).factors["T[1,2]"] == (
        sw_factors(inner).factors["T[1,2]"] * swseries._surgery_poly(FIGURE_EIGHT)
    )


def reference_family_report(members):
    """family_report computed member by member from scratch: every
    member's numbers, series and normal form, with no sharing."""
    entries, fingerprints = [], []
    for i, member in enumerate(members):
        cn = char_numbers(member)
        report = factored_report(sw_factors(member), cn)
        knots, node = {}, member
        while isinstance(node, (KnotSurgery, NullLogTransform)):
            if isinstance(node, KnotSurgery):  # outermost first: prepend
                braid, torus = str(node.braid), node.torus
                knots[torus] = f"{braid} # {knots[torus]}" if torus in knots else braid
            node = node.child
        fingerprints.append((report.count, report.rank, report.coeff_runs, report.a0))
        entries.append({
            "member_id": i,
            "knots": dict(sorted(knots.items())),
            "charnumbers": {
                key: getattr(cn, key)
                for key in ("chi", "sigma", "b2_plus", "b2_minus", "parity")
            },
            "fingerprint": {
                "count": report.count,
                "rank": report.rank,
                "coeffs": list(report.coeff_multiset),
                "a0": report.a0,
            },
            "sw_string": str(report.series),
        })
    pairwise = []
    for i, j in itertools.combinations(range(len(members)), 2):
        homotopy = char_numbers(members[i]) == char_numbers(members[j])
        pairwise.append({
            "i": i,
            "j": j,
            "homotopy": homotopy,
            "distinct": fingerprints[i] != fingerprints[j],
            "one_stab": homotopy
            and stable_normal_form(members[i]) == stable_normal_form(members[j]),
        })
    return {"members": entries, "pairwise": pairwise}


def _hand_built_members():
    # Cores of two chain lengths, two equal chain(2) objects, a repeated
    # surgery on one torus, and a vanishing sum under a surgery.
    c2, c3 = fiber_sum_chain(2), fiber_sum_chain(3)
    stabilized = connected_sum(fiber_sum_chain(2), block("S2twS2"))
    return [
        knot_surgery(c2, "T[1,2]", TREFOIL),
        c3,
        knot_surgery(c3, "T[2,2]", FIGURE_EIGHT),
        fiber_sum_chain(2),
        knot_surgery(knot_surgery(c2, "T[1,2]", TREFOIL), "T[1,2]", FIGURE_EIGHT),
        knot_surgery(knot_surgery(c3, "T[3,3]", TREFOIL), "T[1,1]", TREFOIL),
        knot_surgery(stabilized, "T[1,2]", TREFOIL),
        block("K3"),
    ]


@pytest.mark.parametrize(
    "members",
    [
        *(family_generate(*seeded_slots(seed)) for seed in (0, 7, 20261017)),
        # One braid in two slots.
        family_generate(2, {"T[1,1]": [TREFOIL, FIGURE_EIGHT], "T[2,2]": [FIGURE_EIGHT, TREFOIL]}),
        _hand_built_members(),
        [],
    ],
    ids=["seed-0", "seed-7", "seed-20261017", "braid-in-two-slots", "hand-built", "empty"],
)
def test_family_report_equals_member_by_member(members):
    assert family_report(members) == reference_family_report(members)


@pytest.mark.parametrize(
    "logt",
    [
        null_log_transform(fiber_sum_chain(2), "T[1,2]"),
        knot_surgery(null_log_transform(fiber_sum_chain(2), "T[1,2]"), "T[2,2]", TREFOIL),
        null_log_transform(knot_surgery(fiber_sum_chain(2), "T[2,2]", TREFOIL), "T[1,2]"),
    ],
    ids=["bare", "under-a-surgery", "over-a-surgery"],
)
def test_family_report_refuses_log_transform_member(logt):
    members = [knot_surgery(fiber_sum_chain(2), "T[1,2]", TREFOIL), logt]
    with pytest.raises(UnsupportedNode) as expected:
        reference_family_report(members)
    with pytest.raises(UnsupportedNode) as got:
        family_report(members)
    assert str(got.value) == str(expected.value)
    assert str(got.value) == "no gluing formula for a null log transform at torus 'T[1,2]'"


def test_family_report_checks_the_grammar_only_in_pairs():
    # A core outside the grammar is read unless its member is in a
    # homotopy equivalent pair; then the report refuses it, as
    # stable_normal_form does.
    unfit = fiber_sum(connected_sum(block("K3"), block("CP2")), "T1", block("K3"), "T1")
    members = [unfit, fiber_sum_chain(1)]
    assert family_report(members) == reference_family_report(members)
    assert family_report(members)["pairwise"][0]["one_stab"] is False
    for members in ([unfit, unfit], [fiber_sum_chain(2), fiber_sum_chain(2), unfit, unfit]):
        with pytest.raises(UnsupportedNode) as got:
            family_report(members)
        assert str(got.value) == (
            "outside the stabilization grammar: a connected sum inside a fiber sum"
        )


def test_family_report_computes_each_braid_once(monkeypatch):
    # 20 x 20 members over 40 distinct braids; member by member, 800 calls.
    calls = []

    def counted(braid):
        calls.append(braid)
        return alexander(braid)

    alexander = swseries.alexander
    monkeypatch.setattr(swseries, "alexander", counted)
    slots = {
        "T[1,1]": [BraidWord(2, (1,) * (2 * i + 3)) for i in range(20)],
        "T[1,2]": [BraidWord(2, (-1,) * (2 * i + 3)) for i in range(20)],
    }
    report = family_report(family_generate(2, slots))
    assert (len(report["members"]), len(report["pairwise"])) == (400, 79_800)
    assert Counter(calls) == Counter(slots["T[1,1]"] + slots["T[1,2]"])
