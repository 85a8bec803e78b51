"""Seiberg-Witten series of constructions, and basic-class reports.

The engine walks a construction tree once with three gluing rules: the
K3 block has series 1; a fiber sum multiplies the two sides' series by
(exp(T) - exp(-T))^2 over the glued torus class T; a knot surgery
multiplies by Delta_K(exp(2T)), the knot's symmetric Alexander
polynomial evaluated at twice the torus class.  Every rule multiplies by
a polynomial in a single class, so the series is kept as a
FactoredSeries, one Laurent polynomial per class, and the report is read
off the factors: its |coefficient| multiset is kept as runs of
(value, pairs), convolved factor by factor, and its symmetry is checked
per factor.  The series is expanded only on request
(``sw_factors(c).expand()``).
Connected sums are supported only in the vanishing case (both summands
with positive b2+), where the series is 0; anything needing a blow-up
formula is refused, as is a rational block outside a vanishing sum (no
formula gives its value).  Null log transforms are refused outright: no
formula exists for them, which is the point of comparing across that
move.

The fiber-sum factor is applied squared, which is what iterating the
gluing rule forces.  A widely quoted closed form uses the same product
with first powers; the two differ by exactly one factor t - t^-1 per
gluing (see tests/test_acceptance.py, documented-discrepancy criterion).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import (
    AsymmetricSeries,
    BadSignExponent,
    TooManyTerms,
    UnsupportedNode,
    UnsupportedSum,
)
from .knots import BraidWord, alexander
from .manifolds import (
    Block,
    CharNumbers,
    ConnectedSum,
    Construction,
    FiberSum,
    KnotSurgery,
    NullLogTransform,
    _children,
    char_numbers,
    fold,
)
from .ring import FactoredSeries, LaurentPoly

# t - t^-1 at t = exp(T): the fiber-sum factor before squaring.
FIBER_POLY = LaurentPoly({1: 1, -1: -1})

# Most terms a series may have for its text to be written out.
TERM_BUDGET = 10**6


def _surgery_poly(braid: BraidWord) -> LaurentPoly:
    """Delta_K(t^2) for the closure K of braid."""
    return LaurentPoly({2 * e: c for e, c in alexander(braid).terms.items()})


def sw_factors(c: Construction) -> FactoredSeries:
    """Seiberg-Witten series of a construction, one factor per torus
    class; factors on the same class multiply together.  No rule reads
    below a connected sum or null log transform, so the walk stops there.

    The walk gathers every factor into one dict and passes up only the
    scalar, so its time is linear in the tree, and one FactoredSeries is
    built at the root.  Its form is unique (Gauss's lemma), so
    normalizing once gives the fields a per-node product would."""
    factors: dict[str, LaurentPoly] = {}

    def times(name: str, poly: LaurentPoly) -> None:
        factors[name] = factors[name] * poly if name in factors else poly

    def visit(node: Construction, kids: list) -> int:
        if isinstance(node, Block):
            if node.kind == "K3":
                return 1
            raise UnsupportedNode(
                f"no SW value for the rational block {node.kind} outside a vanishing sum"
            )
        if isinstance(node, FiberSum):
            times(node.left_torus, FIBER_POLY * FIBER_POLY)
            return kids[0] * kids[1]
        if isinstance(node, KnotSurgery):
            times(node.torus, _surgery_poly(node.braid))
            return kids[0]
        if isinstance(node, ConnectedSum):
            left_pos = char_numbers(node.left).b2_plus > 0
            right_pos = char_numbers(node.right).b2_plus > 0
            if left_pos and right_pos:
                # Both invariants vanish on a sum of two pieces with positive
                # b2+ (in particular after any stabilization).
                return 0
            side = "both summands"
            if left_pos or right_pos:
                side = "right summand" if left_pos else "left summand"
            raise UnsupportedSum(
                f"no formula for a connected sum with b2+ = 0 on the {side} "
                "(a blow-up formula would be needed)"
            )
        raise UnsupportedNode(
            f"no gluing formula for a null log transform at torus {node.torus!r}"
        )

    stop = (ConnectedSum, NullLogTransform)
    scalar = fold(c, visit, lambda node: () if isinstance(node, stop) else _children(node))
    return FactoredSeries(factors, scalar)


def require_term_budget(series: FactoredSeries) -> None:
    """Refuse a series with more than TERM_BUDGET terms, counted from the
    factors before anything is expanded or written."""
    terms = series.term_count()
    if terms > TERM_BUDGET:
        raise TooManyTerms(
            f"the series has {terms} terms, over the budget of {TERM_BUDGET}"
        )


# ----------------------------------------------------------------- reports


def conjugation_sign(cn: CharNumbers) -> int:
    """(-1)^((chi + sigma) / 4); raises when 4 does not divide chi+sigma."""
    total = cn.chi + cn.sigma
    if total % 4 != 0:
        raise BadSignExponent(f"chi + sigma = {total} is not divisible by 4")
    return -1 if (total // 4) % 2 else 1


def _factor_sign(f: LaurentPoly) -> int | None:
    """s with f(t^-1) = s * f(t), or None when f is neither symmetric nor
    antisymmetric."""
    mirrored = f.reverse()
    if mirrored == f:
        return 1
    if mirrored == -f:
        return -1
    return None


def check_conjugation_symmetry(series: FactoredSeries, cn: CharNumbers) -> bool:
    """True iff coefficient(-K) = epsilon * coefficient(K) for every
    nonzero class K, with epsilon the conjugation sign.  The zero series
    is symmetric and needs no sign.

    The series is checked on its factors, never expanded; its scalar
    scales both sides alike.  With two or more factors (all
    non-constant), each must satisfy f(t^-1) = +-f(t), and the signs must
    multiply to epsilon.  The variables are independent, so this is the
    term-by-term check: the product is (anti)symmetric in each variable
    separately exactly when every factor is, and with epsilon = -1 both
    checks refuse a nonzero constant term.  In one variable or none the
    constant term is free (1 + t - t^-1 passes for epsilon = -1), so the
    one factor, if any, is checked term by term.
    """
    if series.is_zero():
        return True
    eps = conjugation_sign(cn)
    factors = list(series.factors.values())
    if len(factors) < 2:
        terms = factors[0].terms if factors else {}
        return all(terms.get(-e, 0) == eps * c for e, c in terms.items() if e)
    sign = 1
    for f in factors:
        s = _factor_sign(f)
        if s is None:
            return False
        sign *= s
    return sign == eps


def _expand_runs(runs: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """The sorted multiset that (value, pairs) runs stand for: each value
    repeated once per pair.  It is as long as half the series, so only
    the dict views (to_json() and the family report, under the term
    budget) and tests read it."""
    return tuple(
        itertools.chain.from_iterable(itertools.repeat(v, n) for v, n in runs)
    )


@dataclass(frozen=True)
class SWReport:
    """Basic-class summary of a factored series.

    series prints the canonical text of its expansion.  count is the number of nonzero basic classes
    (2 per pair +-K); rank is the rank of the integer span of the classes;
    coeff_runs is the multiset of |coefficient| over the pairs, as sorted
    (|coefficient|, number of pairs) runs, so equal multisets give equal
    runs; coeff_multiset expands it on request.  The pairs themselves are
    read off the series by to_json().

    to_json() is the library's dict view, one dict per pair.  The ``sw``
    command does not build it: cli.sw_pieces writes the same bytes
    straight from the factors and the runs.
    """

    series: FactoredSeries
    a0: int
    count: int
    rank: int
    coeff_runs: tuple[tuple[int, int], ...]

    @property
    def coeff_multiset(self) -> tuple[int, ...]:
        """|coefficient| once per pair, sorted: the expanded coeff_runs."""
        return _expand_runs(self.coeff_runs)

    def to_json(self) -> dict:
        return {
            "a0": self.a0,
            "pairs": [
                {"class": list(vec), "coeff": coeff}
                for vec, coeff in _positive_half(self.series, self.count, self.a0)
            ],
            "count": self.count,
            "rank": self.rank,
            "coeffs": list(self.coeff_multiset),
            "lattice": list(self.series.lattice),
            "series": str(self.series),
        }


def _positive_half(series: FactoredSeries, count: int, a0: int):
    """(exponent vector, coefficient) of the lexicographically positive
    class of every pair +-K, in ascending lexicographic order.  The
    support is symmetric, so these are the terms after the count // 2
    negative ones and the origin (when a0 != 0)."""
    return itertools.islice(series.sorted_terms(), count // 2 + (a0 != 0), None)


def _require_symmetric(series: FactoredSeries, cn: CharNumbers):
    if not check_conjugation_symmetry(series, cn):
        raise AsymmetricSeries(
            f"series fails conjugation symmetry for sign {conjugation_sign(cn)}: "
            f"{series}"
        )


def factored_report(series: FactoredSeries, cn: CharNumbers) -> SWReport:
    """Read the basic classes off a conjugation-symmetric factored series
    without expanding it.

    a0 is the scalar times the factors' constant terms; the classes are
    the Cartesian product of the factors' supports, so count is the
    product of their sizes less the origin; rank is the number of factors
    (each is non-constant with a symmetric support, so spans its own
    axis); the |coefficient| multiset is kept as value -> count, starting
    from |scalar| and convolved factor by factor, then |a0| is taken out
    for the origin and the counts are halved into the (value, pairs) runs.
    The zero series (scalar 0) reads as no classes.  Nothing here grows
    with the number of terms.
    """
    _require_symmetric(series, cn)
    a0 = series.constant_coeff()
    runs = Counter({abs(series.scalar): 1})  # |coefficient| -> number of terms
    for f in series.factors.values():
        grown: Counter = Counter()
        for value, mult in runs.items():
            for c in f.terms.values():
                grown[value * abs(c)] += mult
        runs = grown
    if a0:
        runs[abs(a0)] -= 1
    coeff_runs = tuple((v, m // 2) for v, m in sorted(runs.items()) if m > 1)
    count = series.term_count() - (a0 != 0)
    return SWReport(series, a0, count, len(series.factors), coeff_runs)


def sw_report(c: Construction) -> SWReport:
    return factored_report(sw_factors(c), char_numbers(c))

