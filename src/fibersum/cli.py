"""Command line surface.

Subcommands: ``invariants FILE``, ``sw FILE``, ``alexander --strands N
--word CSV``, ``family --N N --slots FILE``, ``compare FILE FILE``,
``stabilize FILE``.  A global ``--json`` flag switches the human text to
JSON.  All numeric output is exact integers and all output is
deterministic (terms and keys sorted).

Construction documents are JSON trees:

    {"block": "K3"}
    {"csum": [DOC, DOC]}
    {"fsum": {"left": DOC, "lt": NAME, "right": DOC, "rt": NAME}}
    {"surgery": {"on": DOC, "torus": NAME, "braid": BRAID}}
    {"logt": {"on": DOC, "torus": NAME}}
    {"XN": N}
    {"Y": {"N": N, "mid": [BRAID...], "first": BRAID, "last": BRAID}}

with BRAID = {"strands": N, "word": [ints]}; the table FORMS states fsum,
surgery and logt for the parser and the writer alike.  A "tori" entry may
not be empty, hold whitespace or any of + - * ( ) ^, since the series
text writes torus names bare, or repeat another entry.  Each domain error
exits with its class's exit_code (errors.py) and one stderr line, with
file and slot names JSON-quoted and a node's refusal (its builder's)
prefixed by its path (a "Y" braid's by its slot's): parse errors, which carry a
path into the document (a chain of fewer than one block or a "mid" list
of the wrong length among them), files that are not UTF-8 JSON or nest
deeper than the JSON decoder reads, and documents or trees over
DEPTH_LIMIT levels exit 2; unsupported invariant queries, series over
swseries.TERM_BUDGET terms, braids over
knots.BURAU_BUDGET strands x letters and families over
families.FAMILY_BUDGET members exit 3; non-knot braids exit 4; other
violated preconditions exit 5.  A reader that closes stdout early ends
the run quietly with code 0.  ``sw`` computes its whole stdout as pieces
(sw_pieces) and writes them with one writelines, so the series text is
never copied into a larger string, nor JSON-encoded when its names need
no escaping.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .errors import (
    BadParameter,
    CalculusError,
    DocumentError,
    UnknownBlock,
)
from .families import (
    DISTINCT,
    distinguish,
    family_generate,
    family_report,
    homotopy_equivalent,
    one_stabilization_equivalent,
    stable_normal_form,
)
from .knots import BraidWord, alexander
from .manifolds import (
    Block,
    ConnectedSum,
    Construction,
    FiberSum,
    KnotSurgery,
    NullLogTransform,
    block,
    char_numbers,
    disambiguate,
    fiber_sum_chain,
    fold,
    require_knot,
    surgered_chain,
    torus_records,
    unavailable,
)
from .ring import FactoredSeries, block_text, product_terms
from .swseries import SWReport, factored_report, require_term_budget, sw_factors

EXIT_OK = 0

# Deepest tree a document may nest or {"XN": N} (N levels), {"Y": ...} (2N + 2)
# or family --N (N plus slots) may build.  A cost cap: a document is read in
# one pass, but the chain builders walk their inputs at each step, so an XN or
# Y chain builds in time quadratic in its depth; {"XN": 800} takes about 3 s.
DEPTH_LIMIT = 800


# ------------------------------------------------------------- documents


def parse_braid_doc(doc, path: str) -> BraidWord:
    if not isinstance(doc, dict) or set(doc) != {"strands", "word"}:
        raise DocumentError(f'{path}: expected {{"strands": n, "word": [...]}}')
    strands, word = doc["strands"], doc["word"]
    if not _is_int(strands) or not isinstance(word, list) or not all(
        _is_int(x) for x in word
    ):
        raise DocumentError(f"{path}: braid needs integer strands and letters")
    try:
        return BraidWord(strands, tuple(word))
    except ValueError as exc:
        raise DocumentError(f"{path}: {exc}") from exc


# The primitive node forms for parse_construction and construction_to_doc:
# document key -> (node class, {document field: node attribute} in the
# class's field order).
FORMS = {
    "fsum": (FiberSum, {"left": "left", "lt": "left_torus", "right": "right", "rt": "right_torus"}),
    "surgery": (KnotSurgery, {"on": "child", "torus": "torus", "braid": "braid"}),
    "logt": (NullLogTransform, {"on": "child", "torus": "torus"}),
}


def parse_construction(doc, path: str = "$", depth: int = 1) -> Construction:
    """The tree of a document whose root is at depth, read in one
    bottom-up pass (_read).  A node deeper than DEPTH_LIMIT is refused
    unread, which bounds this descent; a node's refusal (CalculusError)
    has the node's path in front."""
    return _read(doc, path, depth)[0]


def _read(doc, path: str, depth: int):
    """(tree, names, available) of a document: its tree and two mutable
    sets, all of its torus names and its available ones, which its parent
    merges into its own.  Each node is the tree its builder would build,
    and is refused as its builder would refuse it, but the builder's
    checks are made on its kids' sets, not on walks of its kids.  An XN
    or Y node calls its chain builder and passes up None for its sets
    (see _sets)."""
    _require_depth(depth, path)
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: expected an object with exactly one node key")
    if "block" in doc and set(doc) <= {"block", "tori"}:
        leaf = _read_block(doc, path)
        return leaf, set(leaf.tori), set(leaf.tori)
    if len(doc) != 1:
        raise DocumentError(f"{path}: expected an object with exactly one node key")
    key, value = next(iter(doc.items()))
    where = f"{path}.{key}"
    kids = []  # the (tree, names, available) of each subtree, in order
    if key in FORMS:
        make, fields = FORMS[key]
        if not isinstance(value, dict) or value.keys() != fields.keys():
            raise DocumentError(f"{where}: expected keys {sorted(fields)}")
        args = []
        for field, attr in fields.items():  # a braid, a torus name or a subtree
            arg, at = value[field], f"{where}.{field}"
            if attr == "braid":
                arg = parse_braid_doc(arg, at)
            elif attr.endswith("torus"):
                if not isinstance(arg, str):
                    raise DocumentError(f"{at}: expected a string")
            else:
                kids.append(_read(arg, at, depth + 1))
                arg = kids[-1][0]
            args.append(arg)
    elif key == "csum":
        if not isinstance(value, list) or len(value) != 2:
            raise DocumentError(f"{where}: expected [left, right]")
        make, args = ConnectedSum, ()
        kids = [_read(value[0], f"{where}[0]", depth + 1),
                _read(value[1], f"{where}[1]", depth + 1)]
    elif key == "XN":
        if not _is_int(value):
            raise DocumentError(f"{where}: expected an integer")
        _require_depth(value, where, value)
        make, args = fiber_sum_chain, [value]
    elif key == "Y":
        keys = {"N", "mid", "first", "last"}
        if not isinstance(value, dict) or value.keys() != keys:
            raise DocumentError(f"{where}: expected keys {sorted(keys)}")
        n, mid = value["N"], value["mid"]
        if not _is_int(n):
            raise DocumentError(f"{where}.N: expected an integer")
        _require_depth(2 * n + 2, f"{where}.N", n)
        if not isinstance(mid, list):
            raise DocumentError(f"{where}.mid: expected a list of braids")
        if len(mid) != n:
            raise DocumentError(f"{where}.mid: expected {n} middle knots, got {len(mid)}")
        docs = [*mid, value["first"], value["last"]]
        paths = [f"{where}.mid[{i}]" for i in range(n)] + [f"{where}.first", f"{where}.last"]
        braids = [parse_braid_doc(b, at) for b, at in zip(docs, paths)]
        for at, braid in zip(paths, braids):  # each knot at its own path
            require_knot(braid, f"{at}: ")
        make, args = surgered_chain, [n, braids[:n], *braids[n:]]
    else:
        raise DocumentError(f"{path}: unknown node key {key!r}")
    try:
        return _node(make, args, kids) if kids else (make(*args), None, None)
    except CalculusError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _node(cls, args, kids):
    """(tree, names, available) of a cls node with fields args over its
    kids' (tree, names, available).  The node's builder's checks and
    renaming are made on the kids' sets, which are merged small-to-large,
    so a document of n nodes is read in O(n log n) set operations besides
    the renaming of right sides whose names clash."""
    a, names, available = _sets(*kids[0])
    if cls is not ConnectedSum:
        torus = args[1]
        if torus not in available:
            raise unavailable(torus, "left " if cls is FiberSum else "")
        if cls is KnotSurgery:
            require_knot(args[2])
        if cls is not FiberSum:
            return cls(*args), names, available
    b, b_names, b_available = _sets(*kids[1])
    if cls is FiberSum and args[3] not in b_available:
        raise unavailable(args[3], "right ")
    b, prefix = disambiguate(names, b, b_names)
    if prefix:
        b_names = {prefix + name for name in b_names}
        b_available = {prefix + name for name in b_available}
    names, available = _union(names, b_names), _union(available, b_available)
    if cls is ConnectedSum:
        return ConnectedSum(a, b), names, available
    rt = prefix + args[3]
    available -= {args[1], rt}
    return FiberSum(a, args[1], b, rt), names, available


def _sets(tree, names, available):
    """A kid's (tree, names, available), with the sets of an XN or Y
    chain read off one torus_records walk."""
    if names is None:
        records = torus_records(tree)
        names = set(records)
        available = {name for name, rec in records.items() if rec.status == "available"}
    return tree, names, available


def _union(a: set, b: set) -> set:
    """a | b, made by adding the smaller set into the larger."""
    if len(a) < len(b):
        a, b = b, a
    a |= b
    return a


def _read_block(doc: dict, path: str) -> Block:
    """The block of a {"block": KIND} or {"block": KIND, "tori": [...]}
    document."""
    value = doc["block"]
    if not isinstance(value, str):
        raise DocumentError(f"{path}.block: expected a block name")
    try:
        leaf = block(value)
    except UnknownBlock as exc:
        raise DocumentError(f"{path}.block: {exc}") from exc
    if "tori" in doc:
        tori = doc["tori"]
        if not isinstance(tori, list) or not all(isinstance(t, str) for t in tori):
            raise DocumentError(f"{path}.tori: expected a list of torus names")
        try:
            named = Block(value, tuple(tori))
        except BadParameter as exc:
            raise DocumentError(f"{path}.{exc}") from exc
        if len(tori) != len(leaf.tori):
            raise DocumentError(
                f"{path}.tori: {value} carries {len(leaf.tori)} tori"
            )
        leaf = named
    return leaf


def _require_depth(depth: int, where: str, blocks: int = 1) -> None:
    """Refuse, before anything is built, a chain of fewer than one block,
    then a tree or document of depth levels over DEPTH_LIMIT."""
    if blocks < 1:
        raise DocumentError(f"{where}: the chain needs at least one block")
    if depth > DEPTH_LIMIT:
        raise DocumentError(
            f"{where}: tree depth {depth} is over the limit {DEPTH_LIMIT}"
        )


def _is_int(value) -> bool:
    """A JSON integer; true and false are bools, not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def construction_to_doc(c: Construction) -> dict:
    """Primitive-form document that re-parses to an equal tree.

    Blocks whose torus names differ from the defaults carry an extra
    "tori" field so the round trip is lossless.
    """
    return fold(c, _node_doc)


def _node_doc(node: Construction, docs: list) -> dict:
    """A node's document, given its subtrees' documents in order."""
    if isinstance(node, Block):
        if node == block(node.kind):
            return {"block": node.kind}
        return {"block": node.kind, "tori": list(node.tori)}
    if isinstance(node, ConnectedSum):
        return {"csum": docs}
    docs = iter(docs)
    for key, (cls, fields) in FORMS.items():
        if isinstance(node, cls):
            return {key: {f: _field_doc(getattr(node, attr), docs) for f, attr in fields.items()}}


def _field_doc(value, docs):
    """One field of a FORMS node as the document writes it; a subtree is
    the next of its subtrees' documents."""
    if isinstance(value, str):
        return value
    if isinstance(value, BraidWord):
        return {"strands": value.strands, "word": list(value.word)}
    return next(docs)


def _load_doc(filename: str):
    """A UTF-8 JSON file's value (RFC 8259).  ValueError covers bad JSON,
    bytes that are not UTF-8 and integers over Python's digit limit;
    RecursionError is the decoder's refusal of deep nesting."""
    try:
        with open(filename, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DocumentError(f"cannot read {_emit(filename)}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"{_emit(filename)}: invalid JSON: {exc}") from exc


def _emit(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(", ", ": "))


def sw_pieces(report: SWReport, as_json: bool) -> tuple[str, ...]:
    """The whole stdout of ``sw`` for a report on a FactoredSeries, as
    pieces to write in order: the series text and
    _emit(report.to_json()) on two lines, or with as_json the one line
    _emit({"series": ..., "report": report.to_json()}).

    Each piece is written byte for byte as _emit would write it, and
    nothing is encoded that the program wrote itself.  The series text
    and the pairs text are built once and never copied into a larger
    string.  The series text holds only class names and the writer's
    own digits, spaces, + - * ( ) and exp, so it is its own JSON body
    when _emit leaves every name bare; otherwise it goes through _emit
    once.  "coeffs" is written from the runs.
    """
    series = report.series
    text = str(series)
    if all(_emit(name) == f'"{name}"' for name in series.lattice):
        quoted = ('"', text, '"')
    else:
        quoted = (_emit(text),)
    coeffs = ", ".join(", ".join([str(v)] * k) for v, k in report.coeff_runs)
    # The to_json() keys in sorted order: a0, coeffs, count, lattice,
    # pairs, rank and series.
    body = (
        f'{{"a0": {report.a0}, "coeffs": [{coeffs}], "count": {report.count}, '
        f'"lattice": {_emit(series.lattice)}, "pairs": [',
        _pairs_text(series),
        f'], "rank": {report.rank}, "series": ',
        *quoted,
        "}",
    )
    if as_json:
        return ('{"report": ', *body, ', "series": ', *quoted, "}\n")
    return (text, "\n", *body, "\n")


def _pairs_text(series: FactoredSeries) -> str:
    """The report's "pairs" entries written from the factors: the
    lexicographically positive class of each pair +-K with its
    coefficient, in ascending order.  Every exponent is written as ', e';
    each positive prefix over the first half of the factors is one
    ring.block_text over the terms of the second half, and the zero
    prefix writes those of its terms that are positive.  A series with no
    factors, constant or zero, has no pairs and writes nothing."""
    axes = [
        [(e, c, f", {e}") for e, c in sorted(f.terms.items())]
        for f in series.factors.values()
    ]
    half = (len(axes) + 1) // 2
    rest = product_terms(axes[half:], 1)
    templates: dict[int, list[str]] = {}
    out: list[str] = []
    for text, k, sign in product_terms(axes[:half], series.scalar):
        if sign > 0:
            out.append(block_text(text[2:], k, rest, _pair_ends, ", ", templates))
        elif not sign:
            # Each term is its class text joined into its (open, close).
            out += [
                (text + tail)[2:].join(_pair_ends(k * c))
                for tail, c, tail_sign in rest
                if tail_sign > 0
            ]
    return ", ".join(out)


def _pair_ends(k: int) -> tuple[str, str]:
    """(open, close) of a "pairs" entry of coefficient k."""
    return '{"class": [', f'], "coeff": {k}}}'


# ------------------------------------------------------------- subcommands


def cmd_invariants(args) -> int:
    c = parse_construction(_load_doc(args.file))
    cn = char_numbers(c)
    if args.json:
        print(_emit(dataclasses.asdict(cn)))
    else:
        print(
            f"chi={cn.chi} sigma={cn.sigma} b2+={cn.b2_plus} b2-={cn.b2_minus} "
            f"parity={cn.parity}"
        )
    return EXIT_OK


def cmd_sw(args) -> int:
    """Write the series text and the report JSON (sw_pieces) with one
    writelines.  A series over the term budget is refused before its
    report is read or anything is written."""
    c = parse_construction(_load_doc(args.file))
    series = sw_factors(c)
    require_term_budget(series)
    report = factored_report(series, char_numbers(c))
    sys.stdout.writelines(sw_pieces(report, args.json))
    return EXIT_OK


def cmd_alexander(args) -> int:
    try:
        word = tuple(int(x) for x in args.word.split(",")) if args.word else ()
    except ValueError as exc:
        raise DocumentError(
            f"--word: expected comma separated integers, got {args.word!r}"
        ) from exc
    try:
        braid = BraidWord(args.strands, word)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    poly = alexander(braid)
    if args.json:
        print(_emit({"alexander": str(poly)}))
    else:
        print(str(poly))
    return EXIT_OK


def cmd_family(args) -> int:
    slots_doc = _load_doc(args.slots)
    if not isinstance(slots_doc, dict):
        raise DocumentError("slots file must map torus names to braid lists")
    slots = {}
    for name, braids in sorted(slots_doc.items()):
        # The name is JSON-quoted, so no character of it can split the line.
        path = f"$[{_emit(name)}]"
        if not isinstance(braids, list):
            raise DocumentError(f"{path}: expected a list of braids")
        slots[name] = [
            parse_braid_doc(b, f"{path}[{i}]") for i, b in enumerate(braids)
        ]
    _require_depth(args.N + len(slots), "--N", args.N)
    members = family_generate(args.N, slots)
    report = family_report(members)
    print(_emit(report))
    return EXIT_OK


def cmd_compare(args) -> int:
    a = parse_construction(_load_doc(args.file_a))
    b = parse_construction(_load_doc(args.file_b))
    homotopy = homotopy_equivalent(a, b)
    distinct = distinguish(a, b) == DISTINCT
    one_stab = one_stabilization_equivalent(a, b)
    if args.json:
        print(_emit({"homotopy": homotopy, "distinct": distinct, "one_stab": one_stab}))
    else:
        print(
            f"homotopy:{str(homotopy).lower()} distinct:{str(distinct).lower()} "
            f"one_stab:{str(one_stab).lower()}"
        )
    return EXIT_OK


def cmd_stabilize(args) -> int:
    c = parse_construction(_load_doc(args.file))
    cp2, cp2bar = stable_normal_form(c)
    if args.json:
        print(_normal_form_doc(cp2, cp2bar))
    else:
        print(normal_form_text(cp2, cp2bar))
    return EXIT_OK


def normal_form_text(cp2: int, cp2bar: int) -> str:
    """Connected-sum counts as text, e.g. '#4 CP2 # 20 CP2bar'; zero
    counts are omitted."""
    counts = [(cp2, "CP2"), (cp2bar, "CP2bar")]
    return "#" + " # ".join(f"{n} {kind}" for n, kind in counts if n)


def _normal_form_doc(cp2: int, cp2bar: int) -> str:
    """The canonical left-nested connected sum of cp2 CP2 and cp2bar
    CP2bar blocks (CP2 summands first) as the document text _emit would
    write for it, built straight from the counts: no tree, no recursion."""
    head, *rest = ['{"block": "CP2"}'] * cp2 + ['{"block": "CP2bar"}'] * cp2bar
    return '{"csum": [' * len(rest) + head + "".join(f", {b}]}}" for b in rest)


# ------------------------------------------------------------------ driver


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are DocumentErrors, so that they
    end the run like every other error: exit 2 and one stderr line.  Its
    subparsers are of this class too."""

    def error(self, message: str):
        raise DocumentError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fibersum",
        description="Exact invariants of fiber-sum constructions of 4-manifolds.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="characteristic numbers of a construction")
    p.add_argument("file")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("sw", help="Seiberg-Witten series and basic-class report")
    p.add_argument("file")
    p.set_defaults(func=cmd_sw)

    p = sub.add_parser("alexander", help="Alexander polynomial of a braid closure")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--word", default="", help="comma separated letters, e.g. 1,1,1")
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("family", help="generate a family and its pairwise report")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--slots", required=True, help="JSON file: torus -> braid list")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("compare", help="homotopy / distinct / one-stab verdicts")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stabilize", help="one-stabilization normal form")
    p.add_argument("file")
    p.set_defaults(func=cmd_stabilize)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``fibersum sw FILE | head``).
        # Point stdout at devnull so the interpreter's final flush of what
        # is still buffered is silent too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except CalculusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
