"""Construction trees for closed simply connected 4-manifolds.

A Construction is an immutable expression tree over five standard blocks
(K3 and the four rational stabilizer blocks), combined by connected sum,
fiber sum along square-zero tori, knot surgery (fiber sum with S^3 x S^1
along knot x S^1) and geometrically null +1 log transforms.  Gluing maps
are not modeled; the glued torus class is named after the left torus,
which is all the invariant formulas consume.

Tori are tracked by globally unique names.  A fiber sum consumes the two
tori it glues; knot surgery and log transforms leave their torus in place.
Characteristic numbers (chi, sigma, b2+-, parity) evaluate recursively;
every block is simply connected and so is every combination of them.
Parity under fiber sum is declared preserved for these blocks rather
than derived.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from .errors import BadParameter, NotAKnot, TorusUnavailable, UnknownBlock
from .knots import BraidWord, closure_components
from .ring import NAME

BLOCK_NAMES = ("K3", "CP2", "CP2bar", "S2xS2", "S2twS2")

# chi, sigma, parity for the five building blocks; all simply connected.
_BLOCK_NUMBERS = {
    "K3": (24, -16, "even"),
    "CP2": (3, 1, "odd"),
    "CP2bar": (3, -1, "odd"),
    "S2xS2": (4, 0, "even"),
    "S2twS2": (4, 0, "odd"),
}

_K3_DEFAULT_TORI = ("T1", "T2", "T3")


@dataclass(frozen=True)
class TorusRecord:
    """Bookkeeping for one torus: its name and availability.  Every torus
    is a square-zero block torus with simply connected complement."""

    name: str
    status: str = "available"  # or "consumed"


@dataclass(frozen=True)
class Block:
    kind: str
    tori: tuple[str, ...] = ()

    def __post_init__(self):
        for i, name in enumerate(self.tori):
            if not NAME.fullmatch(name):
                raise BadParameter(
                    f"tori[{i}]: torus name {name!r} is empty or holds "
                    "whitespace or one of + - * ( ) ^"
                )


@dataclass(frozen=True)
class ConnectedSum:
    left: "Construction"
    right: "Construction"


@dataclass(frozen=True)
class FiberSum:
    left: "Construction"
    left_torus: str
    right: "Construction"
    right_torus: str


@dataclass(frozen=True)
class KnotSurgery:
    child: "Construction"
    torus: str
    braid: BraidWord


@dataclass(frozen=True)
class NullLogTransform:
    child: "Construction"
    torus: str


Construction = Union[Block, ConnectedSum, FiberSum, KnotSurgery, NullLogTransform]


@dataclass(frozen=True)
class CharNumbers:
    """Homotopy-type data of a closed simply connected 4-manifold."""

    chi: int
    sigma: int
    b1: int
    b2_plus: int
    b2_minus: int
    parity: str
    simply_connected: bool

    def __post_init__(self):
        if self.simply_connected:
            assert self.b1 == 0
            assert self.chi == 2 + self.b2_plus + self.b2_minus
            assert self.sigma == self.b2_plus - self.b2_minus


# ------------------------------------------------------------------ leaves


def block(name: str, copy: int | None = None) -> Block:
    """A standard block; K3 carries three available square-zero tori with
    simply connected complements, the others carry none.

    ``copy`` labels a K3's tori T[copy,1..3] instead of T1..T3 so that
    multi-copy constructions get stable, distinct names.
    """
    if name not in BLOCK_NAMES:
        raise UnknownBlock(f"unknown block {name!r}; expected one of {BLOCK_NAMES}")
    if name != "K3":
        return Block(name)
    if copy is None:
        return Block("K3", _K3_DEFAULT_TORI)
    return Block("K3", tuple(f"T[{copy},{i}]" for i in (1, 2, 3)))


# --------------------------------------------------------------- registry


def torus_records(c: Construction) -> dict[str, TorusRecord]:
    """All torus records of a construction, keyed by unique name."""
    if isinstance(c, Block):
        return {name: TorusRecord(name) for name in c.tori}
    if isinstance(c, ConnectedSum):
        records = torus_records(c.left)
        records.update(torus_records(c.right))
        return records
    if isinstance(c, FiberSum):
        records = torus_records(c.left)
        records.update(torus_records(c.right))
        for name in (c.left_torus, c.right_torus):
            records[name] = replace(records[name], status="consumed")
        return records
    if isinstance(c, (KnotSurgery, NullLogTransform)):
        return torus_records(c.child)
    raise TypeError(f"not a construction node: {c!r}")


def available_tori(c: Construction) -> tuple[str, ...]:
    records = torus_records(c)
    return tuple(sorted(n for n, r in records.items() if r.status == "available"))


def _all_names(c: Construction) -> set[str]:
    return set(torus_records(c))


def _rename_tori(c: Construction, prefix: str) -> Construction:
    if isinstance(c, Block):
        return Block(c.kind, tuple(prefix + n for n in c.tori))
    if isinstance(c, ConnectedSum):
        return ConnectedSum(_rename_tori(c.left, prefix), _rename_tori(c.right, prefix))
    if isinstance(c, FiberSum):
        return FiberSum(
            _rename_tori(c.left, prefix),
            prefix + c.left_torus,
            _rename_tori(c.right, prefix),
            prefix + c.right_torus,
        )
    if isinstance(c, KnotSurgery):
        return KnotSurgery(_rename_tori(c.child, prefix), prefix + c.torus, c.braid)
    if isinstance(c, NullLogTransform):
        return NullLogTransform(_rename_tori(c.child, prefix), prefix + c.torus)
    raise TypeError(f"not a construction node: {c!r}")


def _disambiguate(a: Construction, b: Construction):
    """Prefix the right subtree's torus names until they clash with
    nothing on the left.  Returns (new_b, renamer)."""
    left_names = _all_names(a)
    prefix = ""
    while _all_names(b) & left_names:
        b = _rename_tori(b, "R:")
        prefix = "R:" + prefix
    return b, (lambda name: prefix + name)


# ------------------------------------------------------------- operations


def connected_sum(a: Construction, b: Construction) -> ConnectedSum:
    """Connected sum; all tori of both sides stay available.  Torus name
    clashes are resolved by prefixing the right subtree."""
    b, _ = _disambiguate(a, b)
    return ConnectedSum(a, b)


def fiber_sum(a: Construction, a_torus: str, b: Construction, b_torus: str) -> FiberSum:
    """Fiber sum gluing a_torus (in a) to b_torus (in b).

    Both tori must be available (every block torus is square-zero); they
    are consumed, and their common homology class survives under the
    left torus's name.  All other tori stay available.
    """
    b, rename = _disambiguate(a, b)
    b_torus = rename(b_torus)
    left_records = torus_records(a)
    right_records = torus_records(b)
    for torus, records, side in (
        (a_torus, left_records, "left"),
        (b_torus, right_records, "right"),
    ):
        rec = records.get(torus)
        if rec is None or rec.status != "available":
            raise TorusUnavailable(f"{side} torus {torus!r} is not available")
    return FiberSum(a, a_torus, b, b_torus)


def knot_surgery(a: Construction, torus: str, braid: BraidWord) -> KnotSurgery:
    """Fiber sum with S^3 x S^1 along (closure of braid) x S^1.

    Requires the torus available and the braid closure a knot.  Every
    construction is simply connected and every block torus is essential
    and square-zero with simply connected complement, so the remaining
    hypotheses hold by construction.  Characteristic numbers are unchanged
    and the torus stays available (repeated surgery is permitted).
    """
    rec = torus_records(a).get(torus)
    if rec is None or rec.status != "available":
        raise TorusUnavailable(f"torus {torus!r} is not available")
    if closure_components(braid) != 1:
        raise NotAKnot(f"closure of {braid} is not a knot")
    return KnotSurgery(a, torus, braid)


def null_log_transform(a: Construction, torus: str) -> NullLogTransform:
    """Geometrically null +1 log transform at an available torus; keeps
    characteristic numbers, but the invariant engine refuses the node."""
    rec = torus_records(a).get(torus)
    if rec is None or rec.status != "available":
        raise TorusUnavailable(f"torus {torus!r} is not available")
    return NullLogTransform(a, torus)


# ---------------------------------------------------------- char numbers


def char_numbers(c: Construction) -> CharNumbers:
    """Recursive evaluation of chi, sigma, b2+- and parity.  b2+- are
    derived from chi and sigma (b1 = 0); every construction is simply
    connected."""
    chi, sigma, parity = _char_rec(c)
    b2_plus = (chi - 2 + sigma) // 2
    b2_minus = (chi - 2 - sigma) // 2
    return CharNumbers(chi, sigma, 0, b2_plus, b2_minus, parity, True)


def _char_rec(c: Construction):
    if isinstance(c, Block):
        return _BLOCK_NUMBERS[c.kind]
    if isinstance(c, ConnectedSum):
        lc, ls, lp = _char_rec(c.left)
        rc, rs, rp = _char_rec(c.right)
        parity = "even" if lp == "even" and rp == "even" else "odd"
        return lc + rc - 2, ls + rs, parity
    if isinstance(c, FiberSum):
        lc, ls, lp = _char_rec(c.left)
        rc, rs, rp = _char_rec(c.right)
        # chi(T^2) = 0 and Novikov additivity; parity preservation is an
        # assumption valid for these blocks, asserted rather than derived.
        parity = "even" if lp == "even" and rp == "even" else "odd"
        return lc + rc, ls + rs, parity
    if isinstance(c, (KnotSurgery, NullLogTransform)):
        return _char_rec(c.child)
    raise TypeError(f"not a construction node: {c!r}")


# -------------------------------------------------------------- builders


def fiber_sum_chain(n: int) -> Construction:
    """Chain of n K3 copies, each glued to the next along its third torus
    and the next copy's first torus.

    Copy alpha carries tori T[alpha,1..3]; each glued class is named
    T[alpha,3] (so T[alpha,3] and T[alpha+1,1] name one class), leaving
    T[1,1], every T[alpha,2], and T[n,3] available: n + 2 tori in all.
    """
    if n < 1:
        raise BadParameter("the chain needs at least one block")
    result: Construction = block("K3", copy=1)
    for alpha in range(1, n):
        result = fiber_sum(
            result,
            f"T[{alpha},3]",
            block("K3", copy=alpha + 1),
            f"T[{alpha + 1},1]",
        )
    return result


def surgered_chain(
    n: int,
    mid: list[BraidWord],
    first: BraidWord,
    last: BraidWord,
) -> Construction:
    """Knot surgeries on the n+2 available tori of fiber_sum_chain(n):
    one knot per middle torus T[alpha,2], then T[1,1], then T[n,3]."""
    if len(mid) != n:
        raise BadParameter(f"expected {n} middle knots, got {len(mid)}")
    result = fiber_sum_chain(n)
    for alpha, braid in enumerate(mid, start=1):
        result = knot_surgery(result, f"T[{alpha},2]", braid)
    result = knot_surgery(result, "T[1,1]", first)
    result = knot_surgery(result, f"T[{n},3]", last)
    return result


# ------------------------------------------------------------- debugging


def debug_string(c: Construction) -> str:
    """Nested prefix notation, e.g. FS(K3@T3, K3@T1)."""
    if isinstance(c, Block):
        return c.kind
    if isinstance(c, ConnectedSum):
        return f"CS({debug_string(c.left)}, {debug_string(c.right)})"
    if isinstance(c, FiberSum):
        return (
            f"FS({debug_string(c.left)}@{c.left_torus}, "
            f"{debug_string(c.right)}@{c.right_torus})"
        )
    if isinstance(c, KnotSurgery):
        return f"KS({debug_string(c.child)}@{c.torus}; {c.braid})"
    if isinstance(c, NullLogTransform):
        return f"LT({debug_string(c.child)}@{c.torus})"
    raise TypeError(f"not a construction node: {c!r}")
