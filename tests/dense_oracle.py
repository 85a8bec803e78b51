"""Dense Seiberg-Witten engine and report renderer, kept as a test oracle.

``dense_sw_series`` applies the same gluing rules as
``fibersum.sw_factors`` but multiplies full group-ring elements at every
node, building each factor from the Alexander polynomial directly.
``dense_sw_stdout`` renders the ``fibersum sw`` output from the dense
series (``report_stdout`` from any dense report): terms sorted by
exponent vector, pairs filtered by lexicographic sign, rank from
``integer_rank``, and every line encoded by ``json.dumps``.  Neither reads a FactoredSeries, so the
factored engine and its term-by-term output are checked against an
independent route.
"""

from __future__ import annotations

import functools
import json

from fibersum import (
    Block,
    ClassVector,
    ConnectedSum,
    FiberSum,
    GroupRingElt,
    KnotSurgery,
    NullLogTransform,
    alexander,
    char_numbers,
    check_conjugation_symmetry,
    substitute_exp,
)
from fibersum.errors import AsymmetricSeries, UnsupportedNode, UnsupportedSum
from fibersum.linalg import integer_rank


def dense_sw_series(c) -> GroupRingElt:
    if isinstance(c, Block):
        if c.kind == "K3":
            return GroupRingElt.one()
        raise UnsupportedNode(f"no SW value for {c.kind}")
    if isinstance(c, FiberSum):
        plus = ClassVector((c.left_torus,), (1,))
        factor = GroupRingElt.exp(plus) - GroupRingElt.exp(-plus)
        return dense_sw_series(c.left) * dense_sw_series(c.right) * factor * factor
    if isinstance(c, KnotSurgery):
        twice = ClassVector((c.torus,), (2,))
        return dense_sw_series(c.child) * substitute_exp(alexander(c.braid), twice)
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
    if not check_conjugation_symmetry(series, cn):
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
