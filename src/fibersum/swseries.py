"""Seiberg-Witten series of constructions, and basic-class reports.

The engine walks a construction tree once with three gluing rules: the
K3 block has series 1; a fiber sum multiplies the two sides' series by
(exp(T) - exp(-T))^2 over the glued torus class T; a knot surgery
multiplies by Delta_K(exp(2T)), the knot's symmetric Alexander
polynomial evaluated at twice the torus class.  Every rule multiplies by
a polynomial in a single class, so the series is kept as a
FactoredSeries, one Laurent polynomial per class, and the report is read
off the factors; ``sw_series`` expands it on request.  Connected sums are
supported only in the vanishing case (both summands with positive b2+),
where the series is 0; anything needing a blow-up formula is refused, as
is a rational block outside a vanishing sum (no formula gives its value).
Null log transforms are refused outright: no formula exists for them,
which is the point of comparing across that move.

The fiber-sum factor is applied squared, which is what iterating the
gluing rule forces.  A widely quoted closed form uses the same product
with first powers; ``sw_first_power_formula`` evaluates that variant so
the exact ratio between the two conventions can be machine-checked
(see tests/test_acceptance.py, documented-discrepancy criterion).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import AsymmetricSeries, BadSignExponent, UnsupportedNode, UnsupportedSum
from .knots import BraidWord, alexander
from .linalg import integer_rank
from .manifolds import (
    Block,
    CharNumbers,
    ConnectedSum,
    Construction,
    FiberSum,
    KnotSurgery,
    NullLogTransform,
    char_numbers,
    debug_string,
)
from .ring import ClassVector, FactoredSeries, GroupRingElt, LaurentPoly, substitute_exp

# t - t^-1 at t = exp(T): the fiber-sum factor before squaring.
FIBER_POLY = LaurentPoly({1: 1, -1: -1})


def _surgery_poly(braid: BraidWord) -> LaurentPoly:
    """Delta_K(t^2) for the closure K of braid."""
    return LaurentPoly({2 * e: c for e, c in alexander(braid).terms.items()})


def fiber_class_factor(name: str) -> GroupRingElt:
    """exp(T) - exp(-T) for the torus class named ``name``."""
    return substitute_exp(FIBER_POLY, ClassVector((name,), (1,)))


def sw_factors(c: Construction) -> FactoredSeries:
    """Seiberg-Witten series of a construction, one factor per torus
    class; factors on the same class multiply together."""
    if isinstance(c, Block):
        if c.kind == "K3":
            return FactoredSeries.one()
        raise UnsupportedNode(
            f"no SW value for the rational block {c.kind} outside a vanishing sum"
        )
    if isinstance(c, FiberSum):
        both = sw_factors(c.left) * sw_factors(c.right)
        return both.times(c.left_torus, FIBER_POLY * FIBER_POLY)
    if isinstance(c, KnotSurgery):
        return sw_factors(c.child).times(c.torus, _surgery_poly(c.braid))
    if isinstance(c, ConnectedSum):
        left_pos = char_numbers(c.left).b2_plus > 0
        right_pos = char_numbers(c.right).b2_plus > 0
        if left_pos and right_pos:
            # Both invariants vanish on a sum of two pieces with positive
            # b2+ (in particular after any stabilization).
            return FactoredSeries.zero()
        raise UnsupportedSum(
            "no formula for a connected sum with a b2+ = 0 summand "
            f"(a blow-up formula would be needed): {debug_string(c)}"
        )
    if isinstance(c, NullLogTransform):
        raise UnsupportedNode(
            "no gluing formula for a null log transform: " + debug_string(c)
        )
    raise TypeError(f"not a construction node: {c!r}")


def sw_series(c: Construction) -> GroupRingElt:
    """Seiberg-Witten series of a construction as an exact group ring
    element over the torus-class lattice (the expanded ``sw_factors``)."""
    return sw_factors(c).expand()


def sw_first_power_formula(
    n: int,
    mid: list[BraidWord],
    first: BraidWord,
    last: BraidWord,
) -> GroupRingElt:
    """Closed-form product for the series of surgered_chain(n, ...), with
    the fiber-sum factors to the FIRST power.

    This is the other convention in circulation for the same family; the
    recursive engine squares those factors.  Both are exposed so the
    discrepancy is testable rather than hidden: the engine's output equals
    this one times prod_(alpha<n) (exp(T[alpha,3]) - exp(-T[alpha,3])).
    """
    if len(mid) != n:
        raise ValueError(f"expected {n} middle knots, got {len(mid)}")
    out = FactoredSeries.one()
    for alpha in range(1, n):
        out = out.times(f"T[{alpha},3]", FIBER_POLY)
    for alpha, braid in enumerate(mid, start=1):
        out = out.times(f"T[{alpha},2]", _surgery_poly(braid))
    out = out.times("T[1,1]", _surgery_poly(first))
    out = out.times(f"T[{n},3]", _surgery_poly(last))
    return out.expand()


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


def check_conjugation_symmetry(
    series: GroupRingElt | FactoredSeries, cn: CharNumbers
) -> bool:
    """True iff coefficient(-K) = epsilon * coefficient(K) for every
    nonzero class K, with epsilon the conjugation sign.  The zero series
    is symmetric and needs no sign.

    A FactoredSeries with two or more non-constant factors is checked per
    factor: each must satisfy f(t^-1) = +-f(t), and the signs must
    multiply to epsilon.  The variables are independent, so this is the
    term-by-term check: the product is (anti)symmetric in each variable
    separately exactly when every factor is, and with epsilon = -1 both
    checks refuse a nonzero constant term.  A series in one variable or
    none is small and is checked term by term, since there the constant
    term is free (1 + t - t^-1 passes for epsilon = -1).
    """
    if series.is_zero():
        return True
    eps = conjugation_sign(cn)
    if isinstance(series, FactoredSeries) and len(series.lattice) < 2:
        series = series.expand()
    if isinstance(series, FactoredSeries):
        sign = 1
        for f in series.factors.values():
            s = _factor_sign(f)
            if s is None:
                return False
            sign *= s
        return sign == eps
    zero = (0,) * len(series.lattice)
    for vec, coeff in series.terms.items():
        if vec == zero:
            continue
        mirrored = tuple(-x for x in vec)
        if series.terms.get(mirrored, 0) != eps * coeff:
            return False
    return True


@dataclass(frozen=True)
class SWReport:
    """Basic-class summary of a series.

    series is the pruned dense series or a FactoredSeries; both print the
    same canonical text.  count is the number of nonzero basic classes
    (2 per pair +-K); rank is the rank of the integer span of the classes;
    coeff_multiset lists |coefficient| once per pair, sorted.  The pairs
    themselves are read off the series on demand.
    """

    series: GroupRingElt | FactoredSeries
    a0: int
    count: int
    rank: int
    coeff_multiset: tuple[int, ...]

    def _positive_terms(self):
        """(exponent vector, coefficient) of the lexicographically positive
        class of every pair +-K, in ascending lexicographic order."""
        series = self.series
        if isinstance(series, FactoredSeries):
            # The support is symmetric, so everything up to and including
            # the origin is the first half plus the origin (when present).
            skip = self.count // 2 + (self.a0 != 0)
            return itertools.islice(series.sorted_terms(), skip, None)
        return (
            (vec, series.terms[vec])
            for vec in sorted(series.terms)
            if _lex_positive(vec)
        )

    @property
    def basic_pairs(self) -> tuple[tuple[ClassVector, int], ...]:
        """One ClassVector per pair +-K (the lexicographically positive
        one) with its coefficient, in ascending lexicographic order."""
        lattice = self.series.lattice
        return tuple((ClassVector(lattice, vec), c) for vec, c in self._positive_terms())

    def to_json(self) -> dict:
        return {
            "a0": self.a0,
            "pairs": [
                {"class": list(vec), "coeff": coeff}
                for vec, coeff in self._positive_terms()
            ],
            "count": self.count,
            "rank": self.rank,
            "coeffs": list(self.coeff_multiset),
            "lattice": list(self.series.lattice),
            "series": str(self.series),
        }


def _require_symmetric(series: GroupRingElt | FactoredSeries, cn: CharNumbers):
    if not check_conjugation_symmetry(series, cn):
        raise AsymmetricSeries(
            f"series fails conjugation symmetry for sign {conjugation_sign(cn)}: "
            f"{series}"
        )


def _lex_positive(vec: tuple[int, ...]) -> bool:
    for x in vec:
        if x != 0:
            return x > 0
    return False


def basic_classes(series: GroupRingElt, cn: CharNumbers) -> SWReport:
    """Read the basic classes off a conjugation-symmetric dense series."""
    _require_symmetric(series, cn)
    canon = series.pruned()
    positives = sorted(v for v in canon.terms if _lex_positive(v))
    rank = integer_rank([list(vec) for vec in positives])
    coeffs = tuple(sorted(abs(canon.terms[v]) for v in positives))
    return SWReport(canon, canon.constant_coeff(), 2 * len(positives), rank, coeffs)


def factored_report(series: FactoredSeries, cn: CharNumbers) -> SWReport:
    """Read the basic classes off a conjugation-symmetric factored series
    without expanding it.

    a0 is the product of the constant terms; the classes are the
    Cartesian product of the factors' supports, so count is the product
    of their sizes less the origin; rank is the number of non-constant
    factors (each has a symmetric support, so spans its own axis); the
    |coefficient| multiset is kept as value -> count and convolved factor
    by factor, then |a0| is taken out for the origin and the counts are
    halved for the pairs.
    """
    _require_symmetric(series, cn)
    if series.is_zero():
        return SWReport(series, 0, 0, 0, ())
    a0 = series.constant_coeff()
    size = 1
    runs = Counter({1: 1})  # |coefficient| -> number of terms
    for f in series.factors.values():
        size *= len(f.terms)
        grown: Counter = Counter()
        for value, mult in runs.items():
            for c in f.terms.values():
                grown[value * abs(c)] += mult
        runs = grown
    if a0:
        runs[abs(a0)] -= 1
    coeffs = tuple(v for v in sorted(runs) for _ in range(runs[v] // 2))
    return SWReport(series, a0, size - (a0 != 0), len(series.lattice), coeffs)


def reconstruct_series(report: SWReport, cn: CharNumbers) -> GroupRingElt:
    """Rebuild a series from a0 and basic_pairs with the conjugation sign;
    inverse of basic_classes on symmetric series."""
    if report.series.is_zero():
        return GroupRingElt.zero()
    eps = conjugation_sign(cn)
    out = GroupRingElt.constant(report.a0)
    for cv, coeff in report.basic_pairs:
        out = out + GroupRingElt.exp(cv, coeff) + GroupRingElt.exp(-cv, eps * coeff)
    return out


def sw_report(c: Construction) -> SWReport:
    return factored_report(sw_factors(c), char_numbers(c))


__all__ = [
    "SWReport",
    "basic_classes",
    "check_conjugation_symmetry",
    "conjugation_sign",
    "factored_report",
    "fiber_class_factor",
    "reconstruct_series",
    "sw_factors",
    "sw_first_power_formula",
    "sw_report",
    "sw_series",
]
