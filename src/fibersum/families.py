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
may be compared.  The multiset is kept as the (value, pairs) runs that
the factors give, so comparing never expands a series.  Equal
fingerprints certify nothing, hence the verdict "inconclusive".

The normal form encodes proved diffeomorphisms as rewrites and nothing
else: knot surgeries and null log transforms are erased (each is undone
by the single stabilization), a chain of n K3 blocks becomes the
connected sum of 4n CP2 and 20n CP2bar blocks, and each S2twS2 splits as
CP2 # CP2bar.  Rewrites keep b2+-, which fix the canonical connected
sum, so the normal form is the pair (cp2, cp2bar) read off char_numbers;
no tree is built.  Trees outside that grammar are rejected, not guessed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import FamilyTooLarge, NotAKnot, TorusUnavailable, UnsupportedNode
from .knots import BraidWord, closure_components
from .manifolds import (
    Block,
    ConnectedSum,
    Construction,
    FiberSum,
    KnotSurgery,
    NullLogTransform,
    available_tori,
    char_numbers,
    fiber_sum_chain,
)
from .swseries import (
    SWReport,
    _surgery_poly,
    factored_report,
    require_term_budget,
    sw_factors,
    sw_report,
)

DISTINCT = "distinct"
INCONCLUSIVE = "inconclusive"

# Most members family_generate may build (the product of the slot sizes).
# The report covers every pair, so its time grows as the square: 20 x 20
# 2-strand torus knots in two slots took 0.5-0.8 s with the JSON, and 111 MB
# of peak RSS, mostly the pair dicts and json.dumps.
FAMILY_BUDGET = 400


@dataclass(frozen=True)
class Fingerprint:
    """Relabeling-invariant summary of a Seiberg-Witten series: class
    count, span rank, the |coefficient| multiset as sorted (value, pairs)
    runs, and a0.  Equality compares the runs; coeff_multiset expands
    them on request, as SWReport's does."""

    count: int
    rank: int
    coeff_runs: tuple[tuple[int, int], ...]
    a0: int

    coeff_multiset = SWReport.coeff_multiset


def fingerprint(c: Construction) -> Fingerprint:
    return _fingerprint_of(sw_report(c))


def _fingerprint_of(report: SWReport) -> Fingerprint:
    return Fingerprint(report.count, report.rank, report.coeff_runs, report.a0)


# ---------------------------------------------------------------- families


def family_generate(
    n: int, slots: dict[str, list[BraidWord]]
) -> list[Construction]:
    """One construction per choice of knot in each slot.

    ``slots`` maps available torus names of fiber_sum_chain(n) to lists of
    candidate braids; the family is the Cartesian product, surgeries
    applied in sorted slot-name order.  A product over FAMILY_BUDGET is
    refused (FamilyTooLarge) before anything is built.  Every slot name
    and braid is checked once, so the members' KnotSurgery nodes are
    built directly, all over one shared chain object.
    """
    size = math.prod(len(braids) for braids in slots.values())
    if size > FAMILY_BUDGET:
        raise FamilyTooLarge(f"{size} members is over the budget of {FAMILY_BUDGET}")
    base = fiber_sum_chain(n)
    open_tori = set(available_tori(base))
    for name in slots:
        if name not in open_tori:
            raise TorusUnavailable(f"{name!r} is not an available torus of the chain")
    for name, braids in slots.items():
        for braid in braids:
            if closure_components(braid) != 1:
                raise NotAKnot(f"slot {name!r}: closure of {braid} is not a knot")
    names = sorted(slots)
    members = []
    for choice in itertools.product(*(slots[name] for name in names)):
        member = base
        for name, braid in zip(names, choice):
            member = KnotSurgery(member, name, braid)
        members.append(member)
    return members


# -------------------------------------------------------------- comparisons


def homotopy_equivalent(a: Construction, b: Construction) -> bool:
    """Equality of (chi, sigma, parity) - complete homotopy data for
    closed simply connected 4-manifolds; every other field follows from them."""
    return char_numbers(a) == char_numbers(b)


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

    The walk only checks that grammar: anything else raises UnsupportedNode
    naming what broke it, since the rewrite encodes proved diffeomorphisms
    only.  These keep b2+-, which are (p, q) for #p CP2 # q CP2bar, so the
    counts are char_numbers' b2+-, plus one each where the stabilization
    is added here: for a K3 chain with no S2twS2 summand.
    """
    chains = 0
    kinds: set[str] = set()  # kinds of the rational summands
    stack = [(c, False)]  # (node, inside a fiber sum)
    while stack:
        node, in_fiber = stack.pop()
        if isinstance(node, (KnotSurgery, NullLogTransform)):
            stack.append((node.child, in_fiber))
        elif isinstance(node, FiberSum):
            chains += not in_fiber
            stack += [(node.left, True), (node.right, True)]
        elif isinstance(node, Block) and node.kind == "K3":
            chains += not in_fiber
        elif in_fiber:
            kind = f"{node.kind} block" if isinstance(node, Block) else "connected sum"
            raise _outside(f"a {kind} inside a fiber sum")
        elif isinstance(node, ConnectedSum):
            stack += [(node.left, False), (node.right, False)]
        else:
            kinds.add(node.kind)
    if chains > 1:
        raise _outside(f"a sum of {chains} K3 chains")
    stray = sorted(kinds - {"S2twS2"} - (set() if chains else {"CP2", "CP2bar"}))
    if stray:
        raise _outside(f"{', '.join(stray)} with {'a' if chains else 'no'} K3 chain")
    cn = char_numbers(c)
    s = int(chains == 1 and "S2twS2" not in kinds)
    return cn.b2_plus + s, cn.b2_minus + s


def _outside(what: str) -> UnsupportedNode:
    return UnsupportedNode(f"outside the stabilization grammar: {what}")


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

    A member is knot surgeries over a core, and family_generate's members
    share one core object.  Each distinct core's characteristic numbers,
    series and normal form (keyed by identity), and each distinct braid's
    Delta(t^2), are computed once per call.  A member's series is its
    core's times its surgeries' factors, innermost first: FactoredSeries
    is canonical, so that is sw_factors(member), refusals in the same
    order.  A normal form is computed only for members in a homotopy
    equivalent pair, as in one_stabilization_equivalent.  Each entry
    writes its series out, so a member over the term budget is refused
    (TooManyTerms) before the next member is read.
    """
    polys = {}  # braid -> Delta(t^2)
    cores = {}  # id(core) -> (char numbers, series); the members hold the cores
    member_cores, numbers, fingerprints, entries = [], [], [], []
    for i, member in enumerate(members):
        spine = []  # the member's knot surgeries, outermost first
        core = member
        while isinstance(core, KnotSurgery):
            spine.append(core)
            core = core.child
        if id(core) not in cores:
            cores[id(core)] = (char_numbers(core), sw_factors(core))
        cn, series = cores[id(core)]
        for surgery in reversed(spine):
            if surgery.braid not in polys:
                polys[surgery.braid] = _surgery_poly(surgery.braid)
            series = series.times(surgery.torus, polys[surgery.braid])
        require_term_budget(series)
        report = factored_report(series, cn)
        fp = _fingerprint_of(report)
        member_cores.append(core)
        numbers.append(cn)
        fingerprints.append(fp)
        entries.append(
            {
                "member_id": i,
                # The innermost surgery on a torus names it.
                "knots": dict(sorted({s.torus: str(s.braid) for s in spine}.items())),
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
    normal_forms: dict[int, tuple[int, int]] = {}  # id(core) -> normal form

    def normal_form(i: int) -> tuple[int, int]:
        core = member_cores[i]
        if id(core) not in normal_forms:
            normal_forms[id(core)] = stable_normal_form(core)
        return normal_forms[id(core)]

    pairwise = []
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            homotopy = numbers[i] == numbers[j]
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
