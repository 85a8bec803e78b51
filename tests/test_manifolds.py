"""Construction trees, torus bookkeeping, characteristic numbers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import TREFOIL, UNKNOT
from fibersum import (
    available_tori,
    block,
    char_numbers,
    connected_sum,
    fiber_sum,
    fiber_sum_chain,
    homotopy_equivalent,
    knot_surgery,
    null_log_transform,
    stable_normal_form,
    surgered_chain,
    sw_factors,
    torus_records,
)
from fibersum.cli import construction_to_doc, parse_construction
from fibersum.errors import (
    BadParameter,
    DocumentError,
    NotAKnot,
    TorusUnavailable,
    UnknownBlock,
    UnsupportedNode,
)
from fibersum.manifolds import (
    BLOCK_NAMES,
    Block,
    ConnectedSum,
    FiberSum,
    KnotSurgery,
    NullLogTransform,
)
from fibersum.ring import FactoredSeries


# ------------------------------------------------------------------ blocks


def test_k3_block_tori():
    k3 = block("K3")
    assert available_tori(k3) == ("T1", "T2", "T3")


@pytest.mark.parametrize(
    "bad",
    ["", "A B", "A\tB", "A\nB", "A+B", "A-B", "2*A", "A(", "A)", "A^2"],
    ids=["empty", "space", "tab", "newline", "plus", "minus", "star", "open", "close",
         "caret"],
)
def test_block_refuses_unwritable_torus_name(bad):
    # The series text writes torus names bare inside exp(...), so a tree
    # built in the library is held to the rule documents are.
    with pytest.raises(BadParameter, match=r"^tori\[1\]: torus name .* is empty"):
        Block("K3", ("T1", bad, "T3"))


@pytest.mark.parametrize("tori, i", [(("B", "B", "C"), 1), (("B", "C", "B"), 2)])
def test_block_refuses_repeated_torus_name(tori, i):
    # A repeated name would silently drop one of the block's tori.
    with pytest.raises(BadParameter, match=rf"^tori\[{i}\]: torus name 'B' repeats$"):
        Block("K3", tori)


def test_other_blocks_have_no_tori():
    for name in ("CP2", "CP2bar", "S2xS2", "S2twS2"):
        assert available_tori(block(name)) == ()


def test_block_numbers():
    assert (char_numbers(block("K3")).chi, char_numbers(block("K3")).sigma) == (24, -16)
    assert char_numbers(block("S2twS2")).parity == "odd"
    assert char_numbers(block("S2xS2")).parity == "even"
    assert char_numbers(block("CP2")).b2_plus == 1
    assert char_numbers(block("CP2bar")).b2_minus == 1


def test_unknown_block():
    with pytest.raises(UnknownBlock):
        block("S4")


def test_block_refuses_unknown_kind():
    # The same refusal as block(), ahead of the torus-name checks.
    expected = "unknown block 'K4'; expected one of " + str(BLOCK_NAMES)
    for tori in ((), ("T1", "T2", "T3"), ("A B", "A B")):
        with pytest.raises(UnknownBlock) as info:
            Block("K4", tori)
        assert str(info.value) == expected
    # A known kind takes any number of tori.
    assert Block("K3").tori == ()
    assert Block("CP2", ("A",)).tori == ("A",)


# --------------------------------------------------------------- connected sum


def test_connected_sum_k3_stabilizer():
    cn = char_numbers(connected_sum(block("K3"), block("S2twS2")))
    assert (cn.chi, cn.sigma, cn.parity) == (26, -16, "odd")


def test_connected_sum_self_disambiguates():
    c = connected_sum(block("K3"), block("K3"))
    names = available_tori(c)
    assert len(names) == 6
    assert len(set(names)) == 6


def test_right_side_takes_the_shortest_clash_free_prefix():
    # "R:" is repeated until no right name clashes with a left name,
    # whichever side has fewer names.
    three = Block("K3", ("T1", "XXT2", "Z"))
    pair = connected_sum(block("K3"), block("K3"))  # T1..T3 and R:T1..R:T3
    assert connected_sum(three, pair).right.left.tori == ("R:T1", "R:T2", "R:T3")
    assert connected_sum(pair, three).right.tori == ("R:R:T1", "R:R:XXT2", "R:R:Z")


def test_connected_sum_cp2_pair():
    cn = char_numbers(connected_sum(block("CP2"), block("CP2bar")))
    assert (cn.chi, cn.sigma, cn.parity) == (4, 0, "odd")


# ------------------------------------------------------------------ fiber sum


def test_fiber_sum_two_k3():
    c = fiber_sum(block("K3", copy=1), "T[1,3]", block("K3", copy=2), "T[2,1]")
    cn = char_numbers(c)
    assert (cn.chi, cn.sigma, cn.b2_plus, cn.b2_minus) == (48, -32, 7, 39)
    assert cn.parity == "even" and cn.simply_connected


def test_fiber_sum_consumes_exactly_two():
    c = fiber_sum(block("K3", copy=1), "T[1,3]", block("K3", copy=2), "T[2,1]")
    records = torus_records(c)
    consumed = {n for n, r in records.items() if r.status == "consumed"}
    assert consumed == {"T[1,3]", "T[2,1]"}
    assert len(available_tori(c)) == 4


def test_fiber_sum_consumed_torus_raises():
    c = fiber_sum(block("K3", copy=1), "T[1,3]", block("K3", copy=2), "T[2,1]")
    with pytest.raises(TorusUnavailable):
        fiber_sum(c, "T[1,3]", block("K3", copy=3), "T[3,1]")


def test_fiber_sum_unknown_torus_raises():
    with pytest.raises(TorusUnavailable):
        fiber_sum(block("K3"), "T9", block("K3", copy=2), "T[2,1]")


def test_fiber_sum_default_names_disambiguate():
    c = fiber_sum(block("K3"), "T3", block("K3"), "T1")
    assert (c.left_torus, c.right_torus) == ("T3", "R:T1")
    assert c.right == Block("K3", ("R:T1", "R:T2", "R:T3"))
    assert len(available_tori(c)) == 4


# ------------------------------------------------------------------ surgery


def test_knot_surgery_keeps_numbers_and_torus():
    k3 = block("K3")
    c = knot_surgery(k3, "T2", TREFOIL)
    assert char_numbers(c) == char_numbers(k3)
    assert "T2" in available_tori(c)


def test_knot_surgery_consumed_torus():
    x2 = fiber_sum_chain(2)
    with pytest.raises(TorusUnavailable):
        knot_surgery(x2, "T[1,3]", TREFOIL)


def test_knot_surgery_rejects_links():
    from fibersum import BraidWord

    with pytest.raises(NotAKnot):
        knot_surgery(block("K3"), "T1", BraidWord(2, (1, 1)))


def test_knot_surgery_rejects_huge_split_braid():
    # Strands the word never moves are counted, not allocated.
    from fibersum import BraidWord

    with pytest.raises(NotAKnot):
        knot_surgery(block("K3"), "T1", BraidWord(10**9, (1,)))


def test_repeated_surgery_permitted():
    c = knot_surgery(block("K3"), "T2", TREFOIL)
    c = knot_surgery(c, "T2", TREFOIL)
    assert char_numbers(c).chi == 24


def test_null_log_transform():
    k3 = block("K3")
    c = null_log_transform(k3, "T2")
    assert char_numbers(c) == char_numbers(k3)
    with pytest.raises(TorusUnavailable):
        null_log_transform(fiber_sum_chain(2), "T[1,3]")


# ------------------------------------------------------------------ builders


def test_chain_of_one_is_a_block():
    c = fiber_sum_chain(1)
    assert available_tori(c) == ("T[1,1]", "T[1,2]", "T[1,3]")


def test_chain_of_two():
    c = fiber_sum_chain(2)
    assert (c.left, c.left_torus) == (block("K3", copy=1), "T[1,3]")
    assert (c.right, c.right_torus) == (block("K3", copy=2), "T[2,1]")
    assert available_tori(c) == ("T[1,1]", "T[1,2]", "T[2,2]", "T[2,3]")


def test_chain_bad_parameter():
    with pytest.raises(BadParameter):
        fiber_sum_chain(0)


@pytest.mark.parametrize("n", range(1, 21))
def test_chain_numbers_and_torus_count(n):
    c = fiber_sum_chain(n)
    cn = char_numbers(c)
    assert (cn.chi, cn.sigma) == (24 * n, -16 * n)
    assert cn.b2_plus == 4 * n - 1
    assert cn.b2_minus == 20 * n - 1
    assert cn.parity == "even" and cn.simply_connected
    assert cn.chi == 2 + cn.b2_plus + cn.b2_minus
    assert cn.sigma == cn.b2_plus - cn.b2_minus
    assert (cn.chi + cn.sigma) % 4 == 0
    assert len(available_tori(c)) == n + 2


def test_surgered_chain_numbers_unchanged():
    y = surgered_chain(2, [TREFOIL, UNKNOT], UNKNOT, TREFOIL)
    assert char_numbers(y) == char_numbers(fiber_sum_chain(2))


def test_surgered_chain_arity():
    with pytest.raises(BadParameter):
        surgered_chain(2, [TREFOIL], UNKNOT, UNKNOT)


# ------------------------------------------------- characteristic numbers

# chi, sigma and parity of each block, written out independently of the
# package's table.
REFERENCE_BLOCKS = {
    "K3": (24, -16, "even"),
    "CP2": (3, 1, "odd"),
    "CP2bar": (3, -1, "odd"),
    "S2xS2": (4, 0, "even"),
    "S2twS2": (4, 0, "odd"),
}


def reference_numbers(c):
    """(chi, sigma, parity) by recursion on the node kinds: a connected
    sum subtracts chi(S^4) = 2, a fiber sum chi(T^2) = 0, sigma adds, and
    the form is odd as soon as one side's is."""
    if isinstance(c, Block):
        return REFERENCE_BLOCKS[c.kind]
    if isinstance(c, (KnotSurgery, NullLogTransform)):
        return reference_numbers(c.child)
    lc, ls, lp = reference_numbers(c.left)
    rc, rs, rp = reference_numbers(c.right)
    parity = "even" if lp == rp == "even" else "odd"
    return lc + rc - 2 * isinstance(c, ConnectedSum), ls + rs, parity


# Hand-built nodes: the names and braids are not checked, so any shape of
# tree over any blocks is reachable, beside trees the builders make.
hand_built_trees = st.recursive(
    st.sampled_from(BLOCK_NAMES).map(Block)
    | st.sampled_from([block("K3"), block("K3", copy=2), fiber_sum_chain(2)]),
    lambda kids: st.one_of(
        st.builds(ConnectedSum, kids, kids),
        st.builds(FiberSum, kids, st.just("A"), kids, st.just("B")),
        st.builds(KnotSurgery, kids, st.just("A"), st.sampled_from([TREFOIL, UNKNOT])),
        st.builds(NullLogTransform, kids, st.just("A")),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(hand_built_trees)
def test_property_char_numbers_equal_recursive_reference(tree):
    chi, sigma, parity = reference_numbers(tree)
    cn = char_numbers(tree)
    assert (cn.chi, cn.sigma, cn.parity) == (chi, sigma, parity)
    assert (cn.b1, cn.simply_connected) == (0, True)
    assert (cn.b2_plus, cn.b2_minus) == ((chi - 2 + sigma) // 2, (chi - 2 - sigma) // 2)


def test_char_numbers_refuse_a_non_node():
    with pytest.raises(TypeError, match="not a construction node: 'K3'"):
        char_numbers(ConnectedSum(block("CP2"), "K3"))


def test_deep_chain_from_node_constructors():
    # A 5,000-level fiber-sum chain, under a knot surgery and a log
    # transform every tenth level, and a rational sum nested as deep: far
    # past the recursion limit, so every reader and builder must walk flat.
    n = 5000
    chain = block("K3", copy=1)
    for alpha in range(1, n):
        glued = f"T[{alpha + 1},1]"
        chain = FiberSum(chain, f"T[{alpha},3]", block("K3", copy=alpha + 1), glued)
        if alpha % 10 == 0:
            chain = NullLogTransform(KnotSurgery(chain, f"T[{alpha},2]", TREFOIL), "T[1,1]")
    cn = char_numbers(chain)
    assert (cn.chi, cn.sigma, cn.parity) == (24 * n, -16 * n, "even")
    assert homotopy_equivalent(chain, chain)
    assert stable_normal_form(chain) == (4 * n, 20 * n)
    rational = block("S2twS2")
    for kind in ["CP2", "CP2bar", "S2twS2"] * (n // 3):
        rational = ConnectedSum(rational, block(kind))
    assert char_numbers(rational).parity == "odd"
    assert stable_normal_form(rational) == (2 * (n // 3) + 2, 2 * (n // 3) + 2)
    assert stable_normal_form(ConnectedSum(chain, block("S2twS2"))) == (4 * n + 1, 20 * n + 1)
    assert not homotopy_equivalent(chain, rational)
    # Every walk is the one iterative fold: no RecursionError at any depth.
    free = available_tori(chain)
    assert len(free) == n + 2 and free[0] == "T[1,1]"
    summed = connected_sum(chain, chain)
    assert available_tori(summed.right) == tuple(sorted("R:" + name for name in free))
    with pytest.raises(UnsupportedNode, match="null log transform at torus 'T\\[1,1\\]'"):
        sw_factors(chain)
    surgeries = block("K3")
    for _ in range(n):
        surgeries = KnotSurgery(surgeries, "T1", UNKNOT)
    assert sw_factors(surgeries) == FactoredSeries.one()
    doc, depth = construction_to_doc(chain), 1
    assert doc["fsum"]["rt"] == f"T[{n},1]"
    node = doc
    while "block" not in node:  # the left spine, down to the first block
        key, = node
        node = node[key]["on" if key in ("surgery", "logt") else "left"]
        depth += 1
    assert node == {"block": "K3", "tori": ["T[1,1]", "T[1,2]", "T[1,3]"]}
    assert depth == n + 2 * ((n - 1) // 10)
    # The parser alone refuses the document's depth, before it builds.
    with pytest.raises(DocumentError, match=r"^\$(\.\w+\.(left|on)){800}: tree depth 801 is over"):
        parse_construction(doc)
