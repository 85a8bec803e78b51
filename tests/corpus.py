"""Shared knot corpus for the test suite.

Expected Alexander polynomials are frozen from standard knot tables
(symmetric normalization, value 1 at t = 1); they are independent of both
computation routes in the package.
"""

from __future__ import annotations

import random

from fibersum import (
    BraidWord,
    ConnectedSum,
    LaurentPoly,
    block,
    closure_components,
    connected_sum,
    fiber_sum,
    fiber_sum_chain,
    knot_surgery,
    null_log_transform,
    surgered_chain,
)
from fibersum.errors import UnsupportedNode, UnsupportedSum

UNKNOT = BraidWord(1, ())
TREFOIL = BraidWord(2, (1, 1, 1))
FIGURE_EIGHT = BraidWord(3, (1, -2, 1, -2))

# (2, q) torus braids for q = 3, 5, ..., 13.
TORUS_BRAIDS = {q: BraidWord(2, (1,) * q) for q in (3, 5, 7, 9, 11, 13)}

TWIST_BRAIDS = {
    "4_1": FIGURE_EIGHT,
    "5_2": BraidWord(3, (1, 1, 1, 2, -1, 2)),
    "6_1": BraidWord(4, (1, 1, 2, -1, -3, 2, -3)),
}

# Frozen table values, keyed by braid.  Torus knots T(2,q) have the
# alternating polynomial t^g - t^(g-1) + ... +- 1 ... + t^-g with g = (q-1)/2.
TABLE = {
    TREFOIL: LaurentPoly({1: 1, 0: -1, -1: 1}),
    FIGURE_EIGHT: LaurentPoly({1: -1, 0: 3, -1: -1}),
    TWIST_BRAIDS["5_2"]: LaurentPoly({1: 2, 0: -3, -1: 2}),
    TWIST_BRAIDS["6_1"]: LaurentPoly({1: -2, 0: 5, -1: -2}),
    BraidWord(3, (1, 1, 1, -2, 1, -2)): LaurentPoly(
        {2: -1, 1: 3, 0: -3, -1: 3, -2: -1}
    ),  # 6_2
    BraidWord(3, (1, 1, -2, 1, -2, -2)): LaurentPoly(
        {2: 1, 1: -3, 0: 5, -1: -3, -2: 1}
    ),  # 6_3
    BraidWord(3, (1, 2) * 4): LaurentPoly({3: 1, 2: -1, 0: 1, -2: -1, -3: 1}),  # T(3,4)
}
for _q, _braid in TORUS_BRAIDS.items():
    _g = (_q - 1) // 2
    TABLE[_braid] = LaurentPoly({e: (-1) ** (_g - e) for e in range(-_g, _g + 1)})


def named_corpus() -> list[BraidWord]:
    """The deterministic part of the knot corpus."""
    out = list(TORUS_BRAIDS.values())
    out.append(FIGURE_EIGHT)
    out.extend(TWIST_BRAIDS[k] for k in ("5_2", "6_1"))
    return out


def random_knot_braids(
    count: int, seed: int, max_strands: int = 4, max_length: int = 12
) -> list[BraidWord]:
    """Seeded random braid words whose closures are knots."""
    rng = random.Random(seed)
    out: list[BraidWord] = []
    while len(out) < count:
        strands = rng.randint(2, max_strands)
        length = rng.randint(1, max_length)
        word = tuple(
            rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length)
        )
        braid = BraidWord(strands, word)
        if closure_components(braid) == 1:
            out.append(braid)
    return out


def random_markov_move(braid: BraidWord, rng: random.Random) -> BraidWord:
    """One random Markov move: conjugation by a short word, or a
    stabilization with random sign."""
    if braid.strands >= 2 and rng.random() < 0.6:
        conj = tuple(
            rng.choice([1, -1]) * rng.randint(1, braid.strands - 1)
            for _ in range(rng.randint(1, 3))
        )
        return braid.conjugated(conj)
    return braid.stabilized(rng.choice([1, -1]))


# ------------------------------------------------------------------ trees


def sw_trees() -> dict:
    """Named construction trees the SW engine supports: K3 blocks, chains,
    surgeries (repeated, renamed) and vanishing connected sums of both b2+
    parities."""
    k3_trefoil = knot_surgery(block("K3"), "T2", TREFOIL)
    chain2 = fiber_sum_chain(2)
    y2 = surgered_chain(2, [TREFOIL, FIGURE_EIGHT], UNKNOT, TWIST_BRAIDS["5_2"])
    return {
        "K3": block("K3"),
        "K3 trefoil": k3_trefoil,
        "K3 trefoil, figure-eight at one torus": knot_surgery(
            k3_trefoil, "T2", FIGURE_EIGHT
        ),
        **{f"chain {n}": fiber_sum_chain(n) for n in range(1, 5)},
        "chain 2 unknot": knot_surgery(chain2, "T[1,2]", UNKNOT),
        "Y 2": y2,
        "Y 3 torus knots": surgered_chain(
            3, [TORUS_BRAIDS[5], UNKNOT, TREFOIL], TWIST_BRAIDS["6_1"], UNKNOT
        ),
        "renamed fiber sum": fiber_sum(
            knot_surgery(block("K3"), "T1", TREFOIL),
            "T3",
            knot_surgery(block("K3"), "T2", FIGURE_EIGHT),
            "T1",
        ),
        "K3 # S2twS2": connected_sum(block("K3"), block("S2twS2")),
        "chain 2 # S2xS2": connected_sum(chain2, block("S2xS2")),
        "Y 2 # S2twS2": connected_sum(y2, block("S2twS2")),
        "K3 # CP2 # CP2": connected_sum(
            connected_sum(block("K3"), block("CP2")), block("CP2")
        ),
        "K3 # K3": connected_sum(block("K3"), k3_trefoil),
        "S2xS2 # S2xS2": connected_sum(block("S2xS2"), block("S2xS2")),
    }


def refused_sw_trees() -> dict:
    """Named trees the SW engine has no formula for, with the error each
    must raise."""
    return {
        "CP2": (block("CP2"), UnsupportedNode),
        "CP2bar": (block("CP2bar"), UnsupportedNode),
        "S2xS2": (block("S2xS2"), UnsupportedNode),
        "S2twS2": (block("S2twS2"), UnsupportedNode),
        "K3 # CP2bar": (connected_sum(block("K3"), block("CP2bar")), UnsupportedSum),
        "CP2 # CP2bar": (connected_sum(block("CP2"), block("CP2bar")), UnsupportedSum),
        "log transform": (
            null_log_transform(fiber_sum_chain(2), "T[1,2]"),
            UnsupportedNode,
        ),
    }


def rational_chain(cp2: int, cp2bar: int):
    """The canonical left-nested connected sum of cp2 CP2 and cp2bar CP2bar
    blocks, CP2 summands first.  These blocks carry no tori, so nodes built
    directly equal what connected_sum builds, in linear time."""
    head, *rest = ["CP2"] * cp2 + ["CP2bar"] * cp2bar
    c = block(head)
    for kind in rest:
        c = ConnectedSum(c, block(kind))
    return c


CHAIN_KNOTS = (UNKNOT, TREFOIL, FIGURE_EIGHT, TWIST_BRAIDS["5_2"], TORUS_BRAIDS[5])


def seeded_chains(seed: int, per_size: int = 2, max_n: int = 4) -> list:
    """surgered_chain(n) for n = 1..max_n, per_size of each, with knots
    drawn from CHAIN_KNOTS by a seeded generator."""
    rng = random.Random(seed)
    out = []
    for n in range(1, max_n + 1):
        for _ in range(per_size):
            knots = [rng.choice(CHAIN_KNOTS) for _ in range(n + 2)]
            out.append(surgered_chain(n, knots[:n], knots[n], knots[n + 1]))
    return out
