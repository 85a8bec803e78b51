"""Families of constructions: generation, comparison, and the
one-stabilization normal form.

A family fixes the fiber-sum chain and varies the knots surgered into its
tori.  All members share characteristic numbers (hence homotopy type, by
the classification of closed simply connected 4-manifolds), all become
the same manifold after one stabilization, and their Seiberg-Witten
fingerprints tell them apart whenever the Alexander data differs.

Distinctness always goes through the automorphism-invariant Fingerprint,
never raw series equality: a diffeomorphism may relabel torus classes, so
only unordered data (class count, span rank, coefficient multiset, a0)
may be compared.  Equal fingerprints certify nothing, hence the verdict
"inconclusive".

The normal form encodes proved diffeomorphisms as rewrites and nothing
else: knot surgeries and null log transforms are erased (each is undone
by the single stabilization), a chain of n K3 blocks becomes the
connected sum of 4n CP2 and 20n CP2bar blocks, and each S2twS2 splits as
CP2 # CP2bar.  The canonical connected sum is fixed by its two counts,
so the normal form is the pair (cp2, cp2bar); no tree is built.  Trees
outside that grammar are rejected rather than guessed at.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import NotAKnot, UnknownTorus, UnsupportedNode
from .knots import BraidWord, closure_components
from .manifolds import (
    Block,
    CharNumbers,
    ConnectedSum,
    Construction,
    FiberSum,
    KnotSurgery,
    NullLogTransform,
    available_tori,
    char_numbers,
    debug_string,
    fiber_sum_chain,
    knot_surgery,
)
from .swseries import SWReport, sw_report

DISTINCT = "distinct"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Fingerprint:
    """Relabeling-invariant summary of a Seiberg-Witten series."""

    count: int
    rank: int
    coeff_multiset: tuple[int, ...]
    a0: int


def fingerprint(c: Construction) -> Fingerprint:
    return _fingerprint_of(sw_report(c))


def _fingerprint_of(report: SWReport) -> Fingerprint:
    return Fingerprint(report.count, report.rank, report.coeff_multiset, report.a0)


# ---------------------------------------------------------------- families


def family_generate(
    n: int, slots: dict[str, list[BraidWord]]
) -> list[Construction]:
    """One construction per choice of knot in each slot.

    ``slots`` maps available torus names of fiber_sum_chain(n) to lists of
    candidate braids; the family is the Cartesian product, surgeries
    applied in sorted slot-name order.
    """
    base = fiber_sum_chain(n)
    open_tori = set(available_tori(base))
    for name in slots:
        if name not in open_tori:
            raise UnknownTorus(f"{name!r} is not an available torus of the chain")
    for name, braids in slots.items():
        for braid in braids:
            if closure_components(braid) != 1:
                raise NotAKnot(f"slot {name!r}: closure of {braid} is not a knot")
    names = sorted(slots)
    members = []
    for choice in itertools.product(*(slots[name] for name in names)):
        member = base
        for name, braid in zip(names, choice):
            member = knot_surgery(member, name, braid)
        members.append(member)
    return members


# -------------------------------------------------------------- comparisons


def homotopy_equivalent(a: Construction, b: Construction) -> bool:
    """Equality of (chi, sigma, parity) - complete homotopy data for
    closed simply connected 4-manifolds."""
    return _same_homotopy_type(char_numbers(a), char_numbers(b))


def _same_homotopy_type(ca: CharNumbers, cb: CharNumbers) -> bool:
    return (ca.chi, ca.sigma, ca.parity) == (cb.chi, cb.sigma, cb.parity)


def distinguish(a: Construction, b: Construction) -> str:
    """DISTINCT iff the fingerprints differ; equal fingerprints never
    certify a diffeomorphism, so the other verdict is INCONCLUSIVE."""
    return DISTINCT if fingerprint(a) != fingerprint(b) else INCONCLUSIVE


# --------------------------------------------------------------- normal form


def stable_normal_form(c: Construction) -> tuple[int, int]:
    """The diffeomorphism type after one stabilization, as the numbers
    (cp2, cp2bar) of CP2 and CP2bar blocks in its canonical connected sum.

    Knot surgeries and null log transforms are erased wherever they sit
    (one stabilization undoes each: any knot unknots through +-1
    surgeries, and the log transform is undone directly), and connected
    sums are flattened into summands.  Supported trees:

    * a pure fiber-sum tree of n K3 blocks: one stabilization dissolves it
      into the connected sum of 4n CP2 and 20n CP2bar blocks;
    * such a tree already summed with m >= 1 copies of S2twS2: the extra
      copies beyond the first merge in, giving 4n+m-1 and 20n+m-1;
    * a connected sum of CP2 / CP2bar / S2twS2 blocks only: already a
      rational chain (each S2twS2 splits as CP2 # CP2bar); these are
      fixed points, making the normal form idempotent.

    Anything else raises UnsupportedNode: the rewrite encodes proved
    diffeomorphisms only and does not invent new ones.
    """
    k3 = chains = 0
    rational: Counter[str] = Counter()
    grammatical = True
    stack = [(c, False)]  # (node, inside a fiber sum)
    while stack and grammatical:
        node, in_fiber = stack.pop()
        if isinstance(node, (KnotSurgery, NullLogTransform)):
            stack.append((node.child, in_fiber))
        elif isinstance(node, FiberSum):
            chains += not in_fiber
            stack += [(node.left, True), (node.right, True)]
        elif isinstance(node, Block) and node.kind == "K3":
            k3 += 1
            chains += not in_fiber
        elif in_fiber:
            grammatical = False  # a connected sum or rational block in a fiber sum
        elif isinstance(node, ConnectedSum):
            stack += [(node.left, False), (node.right, False)]
        else:
            rational[node.kind] += 1
    twisted = rational.pop("S2twS2", 0)
    if grammatical and chains == 1 and not rational:
        extra = max(twisted - 1, 0)
        return 4 * k3 + extra, 20 * k3 + extra
    if grammatical and chains == 0 and set(rational) <= {"CP2", "CP2bar"}:
        return rational["CP2"] + twisted, rational["CP2bar"] + twisted
    raise UnsupportedNode(f"outside the stabilization grammar: {debug_string(c)}")


def one_stabilization_equivalent(a: Construction, b: Construction) -> bool:
    """True iff both normal forms coincide and the inputs are honestly
    homotopy equivalent (the sanity gate)."""
    if not homotopy_equivalent(a, b):
        return False
    return stable_normal_form(a) == stable_normal_form(b)


# ------------------------------------------------------------------ reports


def family_report(members: list[Construction]) -> dict:
    """JSON-ready report: one entry per member plus the pairwise matrix of
    homotopy / distinctness / one-stabilization verdicts.

    Each member's characteristic numbers, SW report and normal form are
    computed once; the pairs compare those.  A normal form is computed
    only for members in a homotopy equivalent pair, as in
    one_stabilization_equivalent.
    """
    numbers, fingerprints, entries = [], [], []
    for i, member in enumerate(members):
        cn = char_numbers(member)
        report = sw_report(member)
        fp = _fingerprint_of(report)
        numbers.append(cn)
        fingerprints.append(fp)
        entries.append(
            {
                "member_id": i,
                "knots": _surgery_listing(member),
                "charnumbers": {
                    "chi": cn.chi,
                    "sigma": cn.sigma,
                    "b2_plus": cn.b2_plus,
                    "b2_minus": cn.b2_minus,
                    "parity": cn.parity,
                },
                "fingerprint": {
                    "count": fp.count,
                    "rank": fp.rank,
                    "coeffs": list(fp.coeff_multiset),
                    "a0": fp.a0,
                },
                "sw_string": str(report.series),
            }
        )
    normal_forms: dict[int, tuple[int, int]] = {}

    def normal_form(i: int) -> tuple[int, int]:
        if i not in normal_forms:
            normal_forms[i] = stable_normal_form(members[i])
        return normal_forms[i]

    pairwise = []
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            homotopy = _same_homotopy_type(numbers[i], numbers[j])
            pairwise.append(
                {
                    "i": i,
                    "j": j,
                    "homotopy": homotopy,
                    "distinct": fingerprints[i] != fingerprints[j],
                    "one_stab": homotopy and normal_form(i) == normal_form(j),
                }
            )
    return {"members": entries, "pairwise": pairwise}


def _surgery_listing(c: Construction) -> dict[str, str]:
    out: dict[str, str] = {}
    node = c
    while isinstance(node, (KnotSurgery, NullLogTransform)):
        if isinstance(node, KnotSurgery):
            out[node.torus] = str(node.braid)
        node = node.child
    return dict(sorted(out.items()))
