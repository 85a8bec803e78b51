"""Construction trees for closed simply connected 4-manifolds.

A Construction is an immutable expression tree over five standard blocks
(K3 and the four rational stabilizer blocks), combined by connected sum,
fiber sum along square-zero tori, knot surgery (fiber sum with S^3 x S^1
along knot x S^1) and geometrically null +1 log transforms.  Gluing maps
are not modeled; the glued torus class is named after the left torus,
which is all the invariant formulas consume.

Tori are tracked by globally unique names.  A fiber sum consumes the two
tori it glues; knot surgery and log transforms leave their torus in place.
Characteristic numbers (chi, sigma, b2+-, parity) are one count over the
blocks; every block is simply connected and so is every combination of
them.  Parity under fiber sum is declared preserved for these blocks
rather than derived.  Every walk is one post-order ``fold`` with an
explicit stack, so no walk takes a frame per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import BadParameter, NotAKnot, TorusUnavailable, UnknownBlock
from .knots import BraidWord, closure_components
from .ring import NAME

BLOCK_NAMES = ("K3", "CP2", "CP2bar", "S2xS2", "S2twS2")

# chi, sigma, even form for the five building blocks; all simply connected.
_BLOCK_NUMBERS = {
    "K3": (24, -16, True),
    "CP2": (3, 1, False),
    "CP2bar": (3, -1, False),
    "S2xS2": (4, 0, True),
    "S2twS2": (4, 0, False),
}

_K3_DEFAULT_TORI = ("T1", "T2", "T3")

_VISIT = object()  # on fold's stack: the kid count and node under it are due a visit


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
        if self.kind not in BLOCK_NAMES:
            raise UnknownBlock(f"unknown block {self.kind!r}; expected one of {BLOCK_NAMES}")
        for i, name in enumerate(self.tori):
            if not NAME.fullmatch(name):
                raise BadParameter(
                    f"tori[{i}]: torus name {name!r} is empty or holds "
                    "whitespace or one of + - * ( ) ^"
                )
            if name in self.tori[:i]:
                raise BadParameter(f"tori[{i}]: torus name {name!r} repeats")


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
    if name != "K3":
        return Block(name)
    if copy is None:
        return Block("K3", _K3_DEFAULT_TORI)
    return Block("K3", tuple(f"T[{copy},{i}]" for i in (1, 2, 3)))


# ------------------------------------------------------------------ walks


def _children(node: Construction) -> tuple:
    if isinstance(node, Block):
        return ()
    if isinstance(node, (ConnectedSum, FiberSum)):
        return node.left, node.right
    if isinstance(node, (KnotSurgery, NullLogTransform)):
        return (node.child,)
    raise TypeError(f"not a construction node: {node!r}")


def fold(root, visit, kids=_children):
    """visit(node, [results of kids(node)]) for every node under root, in
    post-order, with an explicit stack.  Each kid's subtree is finished
    before the next kid's is entered, as in a recursive walk."""
    done = []  # results of finished subtrees, not yet given to their parent
    stack = [root]  # nodes to enter; an entered node waits as node, kid count, _VISIT
    while stack:
        node = stack.pop()
        if node is _VISIT:  # the kids' results are the last ones done
            cut = len(done) - stack.pop()
            node = stack.pop()
            done[cut:] = [visit(node, done[cut:])]
        elif below := kids(node):
            stack += (node, len(below), _VISIT, *below[::-1])
        else:
            done.append(visit(node, below))
    return done[0]


def torus_records(c: Construction) -> dict[str, TorusRecord]:
    """All torus records of a construction, keyed by unique name."""
    return fold(c, _records)


def _records(node: Construction, kids: list) -> dict[str, TorusRecord]:
    if isinstance(node, Block):
        return {name: TorusRecord(name) for name in node.tori}
    records = kids[0]
    if len(kids) == 2:
        records.update(kids[1])
    if isinstance(node, FiberSum):
        for name in (node.left_torus, node.right_torus):
            records[name] = TorusRecord(name, "consumed")
    return records


def available_tori(c: Construction) -> tuple[str, ...]:
    return tuple(sorted(n for n, r in torus_records(c).items() if r.status == "available"))


def _rename_tori(c: Construction, prefix: str) -> Construction:
    def visit(node: Construction, kids: list) -> Construction:
        if isinstance(node, Block):
            return Block(node.kind, tuple(prefix + n for n in node.tori))
        if isinstance(node, ConnectedSum):
            return ConnectedSum(*kids)
        if isinstance(node, FiberSum):
            left, right = kids
            return FiberSum(left, prefix + node.left_torus, right, prefix + node.right_torus)
        if isinstance(node, KnotSurgery):
            return KnotSurgery(kids[0], prefix + node.torus, node.braid)
        return NullLogTransform(kids[0], prefix + node.torus)

    return fold(c, visit)


def disambiguate(left_names, b: Construction, b_names) -> tuple[Construction, str]:
    """(b renamed, prefix) by the rule that keeps torus names unique: b,
    the right side of a sum, takes "R:" before every torus name, as many
    times as it takes for none of b_names to clash with left_names, and
    is renamed once, if at all.  The names are collections, such as sets;
    each try costs the smaller one's size."""
    prefix = ""
    while (
        any(prefix + name in left_names for name in b_names)
        if len(b_names) <= len(left_names)
        else any(name[len(prefix):] in b_names for name in left_names if name.startswith(prefix))
    ):
        prefix = "R:" + prefix
    return (_rename_tori(b, prefix) if prefix else b), prefix


def unavailable(torus: str, side: str = "") -> TorusUnavailable:
    """The refusal of a torus that is not an available torus; side is
    "left " or "right " for a fiber sum's tori."""
    return TorusUnavailable(f"{side}torus {torus!r} is not available")


def require_knot(braid: BraidWord, where: str = "") -> None:
    """Knot surgery's check on its braid: its closure must be a knot.
    where, such as "slot 'T1': ", goes in front of the refusal's text."""
    if closure_components(braid) != 1:
        raise NotAKnot(f"{where}closure of {braid} is not a knot")


def _require_available(c: Construction, torus: str, side: str = "") -> None:
    """Raise unavailable(torus, side) unless torus is an available torus
    of c."""
    rec = torus_records(c).get(torus)
    if rec is None or rec.status != "available":
        raise unavailable(torus, side)


# ------------------------------------------------------------- operations


def connected_sum(a: Construction, b: Construction) -> ConnectedSum:
    """Connected sum; all tori of both sides stay available.  Torus name
    clashes are resolved by prefixing the right subtree."""
    b, _ = disambiguate(torus_records(a), b, torus_records(b))
    return ConnectedSum(a, b)


def fiber_sum(a: Construction, a_torus: str, b: Construction, b_torus: str) -> FiberSum:
    """Fiber sum gluing a_torus (in a) to b_torus (in b).

    Both tori must be available (every block torus is square-zero); they
    are consumed, and their common homology class survives under the
    left torus's name.  All other tori stay available.
    """
    _require_available(a, a_torus, "left ")
    _require_available(b, b_torus, "right ")
    b, prefix = disambiguate(torus_records(a), b, torus_records(b))
    return FiberSum(a, a_torus, b, prefix + b_torus)


def knot_surgery(a: Construction, torus: str, braid: BraidWord) -> KnotSurgery:
    """Fiber sum with S^3 x S^1 along (closure of braid) x S^1.

    Requires the torus available and the braid closure a knot.  Every
    construction is simply connected and every block torus is essential
    and square-zero with simply connected complement, so the remaining
    hypotheses hold by construction.  Characteristic numbers are unchanged
    and the torus stays available (repeated surgery is permitted).
    """
    _require_available(a, torus)
    require_knot(braid)
    return KnotSurgery(a, torus, braid)


def null_log_transform(a: Construction, torus: str) -> NullLogTransform:
    """Geometrically null +1 log transform at an available torus; keeps
    characteristic numbers, but the invariant engine refuses the node."""
    _require_available(a, torus)
    return NullLogTransform(a, torus)


# ---------------------------------------------------------- char numbers


def char_numbers(c: Construction) -> CharNumbers:
    """One pass over the tree: chi sums the blocks less 2 per connected sum
    (chi(T^2) = 0 for a fiber sum), sigma sums them (Novikov additivity),
    and the form is even when every block's is.  b2+- follow (b1 = 0);
    every construction is simply connected."""
    chi, sigma, even = fold(c, _numbers)
    b2_plus = (chi - 2 + sigma) // 2
    b2_minus = (chi - 2 - sigma) // 2
    parity = "even" if even else "odd"
    return CharNumbers(chi, sigma, 0, b2_plus, b2_minus, parity, True)


def _numbers(node: Construction, kids: list) -> tuple[int, int, bool]:
    """(chi, sigma, even) of a subtree."""
    if isinstance(node, Block):
        return _BLOCK_NUMBERS[node.kind]
    if len(kids) == 1:
        return kids[0]
    (chi, sigma, even), (chi2, sigma2, even2) = kids
    return chi + chi2 - 2 * isinstance(node, ConnectedSum), sigma + sigma2, even and even2


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
