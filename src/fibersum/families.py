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

The normal form is the type of T # S2twS2: proved dissolutions keep
b2+-, so it is (b2+ + 1, b2- + 1) read off char_numbers, and no tree is
built.  A tree with anything but K3 blocks below a fiber sum is outside
that grammar and is rejected, not guessed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import FamilyTooLarge, TorusUnavailable, UnsupportedNode
from .knots import BraidWord
from .manifolds import (
    Block,
    ConnectedSum,
    Construction,
    FiberSum,
    KnotSurgery,
    available_tori,
    char_numbers,
    fiber_sum_chain,
    fold,
    require_knot,
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
            require_knot(braid, f"slot {name!r}: ")
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
    """The diffeomorphism type of c # S2twS2, as the numbers (cp2, cp2bar)
    of CP2 and CP2bar blocks in the connected sum it dissolves into:
    (b2+(c) + 1, b2-(c) + 1), read off char_numbers.

    A tree is admitted when nothing but K3 blocks sits below a fiber sum.
    It is then a connected sum of K3 fiber-sum trees (chains) and rational
    blocks, with knot surgeries and null log transforms on any node.  Each
    shape dissolves in c # S2twS2 by this chain of theorems:

    * a rational sum of CP2, CP2bar, S2twS2 and S2xS2 blocks: S2twS2 is
      CP2 # CP2bar, so with the added one the sum is odd, and for odd M,
      M # S2xS2 is M # CP2 # CP2bar (Gompf-Stipsicz, GSM 20);
    * a knot surgery or null log transform anywhere: one S2twS2 summand
      undoes it, and stays to undo the next (the paper's main theorem);
    * a bare chain of n K3 blocks: elliptic surfaces dissolve after one
      CP2, so beside S2twS2 it is #4n CP2 # 20n CP2bar (Mandelbaum,
      Bull. AMS 2, 1980; Moishezon, LNM 603, 1977);
    * several chains: the rational sum the first leaves is odd and holds
      a CP2 # CP2bar, which dissolves the next, and so on in turn;
    * CP2, CP2bar and S2xS2 beside chains: once the chains dissolve the
      sum is odd and rational, which the first case reads.

    A sum #p CP2 # q CP2bar has b2+- = (p, q), and the rewrites keep b2+-.
    Anything else below a fiber sum raises UnsupportedNode naming it,
    since the rewrite encodes proved diffeomorphisms only.
    """
    fold(c, _admission)
    cn = char_numbers(c)
    return cn.b2_plus + 1, cn.b2_minus + 1


def _admission(node: Construction, kids: list) -> str | None:
    """The admission check's fold visit: None, or what in this subtree may
    not go into a fiber sum, which the fiber sum above it raises."""
    if isinstance(node, Block):
        return None if node.kind == "K3" else f"a {node.kind} block"
    if isinstance(node, ConnectedSum):
        return "a connected sum"
    if isinstance(node, FiberSum):
        for what in kids:
            if what is not None:
                raise UnsupportedNode(
                    f"outside the stabilization grammar: {what} inside a fiber sum"
                )
        return None
    return kids[0]  # a knot surgery or log transform is fit as its child is


def one_stabilization_equivalent(a: Construction, b: Construction) -> bool:
    """False for trees that are not homotopy equivalent, unchecked.
    Otherwise their equal b2+- give equal normal forms, so True once both
    are admitted; one that is not raises UnsupportedNode."""
    if not homotopy_equivalent(a, b):
        return False
    return stable_normal_form(a) == stable_normal_form(b)


# ------------------------------------------------------------------ reports


def family_report(members: list[Construction]) -> dict:
    """JSON-ready report: one entry per member plus the pairwise matrix of
    homotopy / distinctness / one-stabilization verdicts.

    A member is knot surgeries over a core, and family_generate's members
    share one core object.  Each distinct core's characteristic numbers,
    series and grammar check (keyed by identity), and each distinct braid's
    Delta(t^2), are computed once per call.  A member's series is its
    core's times its surgeries' factors, innermost first: FactoredSeries
    is canonical, so that is sw_factors(member), refusals in the same
    order.  A core is checked only when its member is in a homotopy
    equivalent pair, as in one_stabilization_equivalent: equal
    char_numbers then give equal normal forms.  Each entry
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
        # Every surgery on a torus, innermost first, joined by " # ": two
        # surgeries multiply by the polynomial of the sum of their knots.
        knots: dict[str, str] = {}
        for surgery in reversed(spine):
            if surgery.braid not in polys:
                polys[surgery.braid] = _surgery_poly(surgery.braid)
            series = series.times(surgery.torus, polys[surgery.braid])
            braid, torus = str(surgery.braid), surgery.torus
            knots[torus] = f"{knots[torus]} # {braid}" if torus in knots else braid
        require_term_budget(series)
        report = factored_report(series, cn)
        fp = _fingerprint_of(report)
        member_cores.append(core)
        numbers.append(cn)
        fingerprints.append(fp)
        entries.append(
            {
                "member_id": i,
                "knots": dict(sorted(knots.items())),
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
    admitted: set[int] = set()  # id(core) of each core that passed the grammar check
    pairwise = []
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            homotopy = numbers[i] == numbers[j]
            if homotopy:  # one_stab then holds once both cores are admitted
                for core in (member_cores[i], member_cores[j]):
                    if id(core) not in admitted:
                        fold(core, _admission)
                        admitted.add(id(core))
            pairwise.append(
                {
                    "i": i,
                    "j": j,
                    "homotopy": homotopy,
                    "distinct": fingerprints[i] != fingerprints[j],
                    "one_stab": homotopy,
                }
            )
    return {"members": entries, "pairwise": pairwise}
