"""Dense Seiberg-Witten engine and report renderer, kept as a test oracle.

``dense_sw_series`` applies the same gluing rules as
``fibersum.sw_factors`` but multiplies full group-ring elements at every
node, building each factor from the Alexander polynomial directly.
``dense_report_json`` reads the report off a dense series: symmetry
checked term by term (``dense_symmetric``), terms sorted by exponent
vector, pairs filtered by lexicographic sign and rank from
``integer_rank``.  ``dense_sw_stdout`` renders the ``fibersum sw`` output
from it, every line encoded by ``json.dumps``.  None of them reads a
FactoredSeries, so the factored engine, its report and its term-by-term
output are checked against an independent route.

``first_power_formula`` is the closed form with the fiber-sum factors to
the first power, the other convention in circulation; the engine's
series is it times one factor t - t^-1 per gluing.
"""

from __future__ import annotations

import functools
import json

from fibersum import (
    Block,
    BraidWord,
    ConnectedSum,
    FactoredSeries,
    FiberSum,
    GroupRingElt,
    KnotSurgery,
    LaurentPoly,
    NullLogTransform,
    alexander,
    char_numbers,
    conjugation_sign,
    substitute_exp,
)
from fibersum.errors import AsymmetricSeries, UnsupportedNode, UnsupportedSum


def dense_sw_series(c) -> GroupRingElt:
    if isinstance(c, Block):
        if c.kind == "K3":
            return GroupRingElt.one()
        raise UnsupportedNode(f"no SW value for {c.kind}")
    if isinstance(c, FiberSum):
        factor = GroupRingElt.exp({c.left_torus: 1}) - GroupRingElt.exp({c.left_torus: -1})
        return dense_sw_series(c.left) * dense_sw_series(c.right) * factor * factor
    if isinstance(c, KnotSurgery):
        return dense_sw_series(c.child) * substitute_exp(alexander(c.braid), {c.torus: 2})
    if isinstance(c, ConnectedSum):
        if char_numbers(c.left).b2_plus > 0 and char_numbers(c.right).b2_plus > 0:
            return GroupRingElt.zero()
        raise UnsupportedSum("blow-up formula needed")
    if isinstance(c, NullLogTransform):
        raise UnsupportedNode("null log transform")
    raise TypeError(f"not a construction node: {c!r}")


@functools.lru_cache(maxsize=None)
def oracle_series(c) -> GroupRingElt:
    """dense_sw_series, computed once per tree across the test session."""
    return dense_sw_series(c)


def first_power_formula(
    n: int, mid: list[BraidWord], first: BraidWord, last: BraidWord
) -> FactoredSeries:
    """Closed-form product for the series of surgered_chain(n, mid, first,
    last) with the fiber-sum factors t - t^-1 to the FIRST power, one
    factor per class; each knot K gives Delta_K(t^2)."""

    def surgery(braid):
        return LaurentPoly({2 * e: c for e, c in alexander(braid).terms.items()})

    factors = {f"T[{alpha},3]": LaurentPoly({1: 1, -1: -1}) for alpha in range(1, n)}
    for alpha, braid in enumerate(mid, start=1):
        factors[f"T[{alpha},2]"] = surgery(braid)
    factors["T[1,1]"] = surgery(first)
    factors[f"T[{n},3]"] = surgery(last)
    return FactoredSeries(factors)


def integer_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, len(m)):
            factor = m[i][col]
            for j in range(ncols):
                # Bareiss step: division by the previous pivot is exact.
                m[i][j] = (pivot * m[i][j] - factor * m[rank][j]) // prev
        prev = pivot
        rank += 1
        if rank == len(m):
            break
    return rank


def dense_symmetric(series: GroupRingElt, cn) -> bool:
    """coefficient(-K) = epsilon * coefficient(K) for every nonzero class
    K, term by term; the zero series needs no sign."""
    if not series.terms:
        return True
    eps = conjugation_sign(cn)
    zero = (0,) * len(series.lattice)
    return all(
        series.terms.get(tuple(-x for x in vec), 0) == eps * coeff
        for vec, coeff in series.terms.items()
        if vec != zero
    )


def _lex_positive(vec) -> bool:
    for x in vec:
        if x != 0:
            return x > 0
    return False


def dense_text(series: GroupRingElt) -> str:
    """Canonical series text, written out term by term from the dense
    map: descending exponent vectors, constant term as a bare integer."""
    if not series.terms:
        return "0"
    parts = []
    for vec in sorted(series.terms, reverse=True):
        c = series.terms[vec]
        mono = []
        for name, k in zip(series.lattice, vec):
            if k:
                body = name if abs(k) == 1 else f"{abs(k)}*{name}"
                sign = ("" if k > 0 else "-") if not mono else ("+ " if k > 0 else "- ")
                mono.append(sign + body)
        if not mono:
            body = str(abs(c))
        else:
            body = ("" if abs(c) == 1 else f"{abs(c)}*") + f"exp({' '.join(mono)})"
        sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts)


def dense_report_json(series: GroupRingElt, cn) -> dict:
    if not dense_symmetric(series, cn):
        raise AsymmetricSeries(str(series))
    canon = series
    positives = sorted(v for v in canon.terms if _lex_positive(v))
    return {
        "a0": canon.constant_coeff(),
        "pairs": [{"class": list(v), "coeff": canon.terms[v]} for v in positives],
        "count": 2 * len(positives),
        "rank": integer_rank([list(v) for v in positives]),
        "coeffs": sorted(abs(canon.terms[v]) for v in positives),
        "lattice": list(canon.lattice),
        "series": dense_text(canon),
    }


def report_stdout(report: dict, as_json: bool) -> str:
    """Expected stdout of ``fibersum [--json] sw`` for a report dict as
    dense_report_json gives it."""

    def emit(data):
        return json.dumps(data, sort_keys=True, separators=(", ", ": "))

    if as_json:
        return emit({"series": report["series"], "report": report}) + "\n"
    return report["series"] + "\n" + emit(report) + "\n"


def dense_sw_stdout(c, as_json: bool) -> str:
    """Expected stdout of ``fibersum [--json] sw`` for the tree c."""
    return report_stdout(dense_report_json(oracle_series(c), char_numbers(c)), as_json)
